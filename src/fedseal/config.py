"""Flat sectioned key=value experiment configs.

The format is deliberately line-oriented (one ``[section]`` per module, one
``key = value`` per line, ``#`` comments) so every parse error can name the
exact key and line.  The keys of a section are the fields of its config
dataclass, cast by their annotations; a float must be finite.  Unknown
sections or keys are errors, not warnings.
``serialize_config`` writes the canonical form; parse(serialize(cfg))
reproduces cfg exactly, and the run manifest hashes that canonical text.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import fields, is_dataclass, replace
from typing import get_type_hints

from .experiment import ExperimentConfig


class ConfigError(ValueError):
    """Bad experiment configuration; message carries file/line context."""


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# One caster per annotation; a field with any other type fails at import.  No
# key is a bool: an on/off switch between algorithms is a row of RECIPES.
_CASTERS = {int: int, float: _finite_float, str: str, tuple[int, ...]: _int_tuple}


def _derive_schema(root: type) -> dict[str, tuple[type, dict[str, object]]]:
    """section -> (dataclass, key -> caster); the keys are the dataclass fields.

    ``[experiment]`` holds ``root``'s own fields, and each field whose type is
    a dataclass is a section of that name, in field order.
    """
    schema = {}
    sections = [("experiment", root)]
    for section, cls in sections:
        casters, hints = {}, get_type_hints(cls)
        for f in fields(cls):
            hint = hints[f.name]
            if is_dataclass(hint):
                sections.append((f.name, hint))
            elif hint in _CASTERS:
                casters[f.name] = _CASTERS[hint]
            else:
                raise TypeError(f"{cls.__name__}.{f.name}: no config caster for {hint}")
        schema[section] = (cls, casters)
    return schema


_SCHEMA = _derive_schema(ExperimentConfig)


def parse_config_text(text: str, source: str = "config") -> ExperimentConfig:
    """Parse config text into a fully validated ExperimentConfig."""
    values: dict[str, dict[str, object]] = {name: {} for name in _SCHEMA}
    key_lines: dict[str, dict[str, int]] = {name: {} for name in _SCHEMA}
    section: str | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{source}: line {line_no}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}: line {line_no}: expected 'key = value', got {raw.strip()!r}"
            )
        if section is None:
            raise ConfigError(
                f"{source}: line {line_no}: key outside of any [section]"
            )
        key, _, value = (part.strip() for part in line.partition("="))
        casters = _SCHEMA[section][1]
        if key not in casters:
            raise ConfigError(
                f"{source}: line {line_no}: unknown key {key!r} in [{section}]"
            )
        if key in values[section]:
            raise ConfigError(
                f"{source}: line {line_no}: duplicate key {key!r} in [{section}]"
            )
        try:
            values[section][key] = casters[key](value)
        except ValueError as exc:
            raise ConfigError(
                f"{source}: line {line_no}: key {key!r}: {exc}"
            ) from None
        key_lines[section][key] = line_no

    if "algorithm" not in values["experiment"]:
        raise ConfigError(
            f"{source}: missing required key 'algorithm' in [experiment]"
        )

    def _blame_line(section_name: str, message: str) -> str:
        # Validators name the offending key as a word of their message; the
        # first word that is a key set in this section picks the line.
        lines = key_lines[section_name]
        for word in re.findall(r"[A-Za-z_]\w*", message):
            if word in lines:
                return f"{source}: line {lines[word]}: {message}"
        return f"{source}: [{section_name}]: {message}"

    # Sections nest in [experiment], so it is built last, from the others.
    built: dict[str, object] = {}
    for section_name, (cls, _) in reversed(_SCHEMA.items()):
        nested = built if section_name == "experiment" else {}
        try:
            built[section_name] = cls(**values[section_name], **nested)
        except ValueError as exc:
            raise ConfigError(_blame_line(section_name, str(exc))) from None
    return built["experiment"]


def parse_config(path) -> ExperimentConfig:
    """Parse a config file; all defaults documented in the README apply."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces cfg exactly."""
    lines = []
    for section, (_, casters) in _SCHEMA.items():
        obj = cfg if section == "experiment" else getattr(cfg, section)
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_format_value(getattr(obj, key))}" for key in casters)
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()


def with_overrides(
    cfg: ExperimentConfig,
    seed: int | None = None,
    rounds: int | None = None,
    algorithm: str | None = None,
) -> ExperimentConfig:
    """Apply command-line overrides, revalidating the result."""
    try:
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        if rounds is not None:
            cfg = replace(cfg, rounds=rounds)
        if algorithm is not None:
            cfg = replace(cfg, algorithm=algorithm)
    except ValueError as exc:
        raise ConfigError(f"override: {exc}") from None
    return cfg
