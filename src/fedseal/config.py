"""Flat sectioned key=value experiment configs.

The format is deliberately line-oriented (one ``[section]`` per module, one
``key = value`` per line, ``#`` comments) so every parse error can name the
exact key and line.  Unknown sections or keys are errors, not warnings.
``serialize_config`` writes the canonical form; parse(serialize(cfg))
reproduces cfg exactly, and the run manifest hashes that canonical text.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import fields, replace

from .client import ClientConfig
from .data import DataConfig
from .experiment import ExperimentConfig
from .server import ServerConfig


class ConfigError(ValueError):
    """Bad experiment configuration; message carries file/line context."""


def _bool(text: str) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise ValueError(f"expected 'true' or 'false', got {text!r}")


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(","))


# (section, key) -> (dataclass field name, caster)
_SCHEMA: dict[str, dict[str, tuple[str, type | object]]] = {
    "experiment": {
        "algorithm": ("algorithm", str),
        "n_clients": ("n_clients", int),
        "clients_per_round": ("clients_per_round", int),
        "rounds": ("rounds", int),
        "seed": ("seed", int),
        "fixmatch_threshold": ("fixmatch_threshold", float),
        "parallel_clients": ("parallel_clients", int),
        "hidden_dims": ("hidden_dims", _int_tuple),
    },
    "data": {
        "kind": ("kind", str),
        "partition": ("partition_mode", str),
        "dirichlet_alpha": ("dirichlet_alpha", float),
        "per_client": ("per_client", int),
        "server_train_n": ("server_train_n", int),
        "server_val_n": ("server_val_n", int),
        "test_n": ("test_n", int),
        "n_classes": ("n_classes", int),
        "n_features": ("n_features", int),
        "spread": ("spread", float),
        "train_images": ("train_images", str),
        "train_labels": ("train_labels", str),
        "test_images": ("test_images", str),
        "test_labels": ("test_labels", str),
        "image_height": ("image_height", int),
        "image_width": ("image_width", int),
        "train_csv": ("train_csv", str),
        "test_csv": ("test_csv", str),
    },
    "server": {
        "epochs": ("epochs", int),
        "batch_size": ("batch_size", int),
        "learning_rate": ("learning_rate", float),
        "lr_decay": ("lr_decay", float),
        "momentum": ("momentum", float),
        "bootstrap_epochs": ("bootstrap_epochs", int),
        "threshold_denominator": ("threshold_denominator", str),
        "size_weighted_aggregation": ("size_weighted_aggregation", _bool),
    },
    "client": {
        "epochs": ("epochs", int),
        "batch_size": ("batch_size", int),
        "learning_rate": ("learning_rate", float),
        "lr_decay": ("lr_decay", float),
        "momentum": ("momentum", float),
        "theta": ("theta", float),
        "lambda_max": ("lambda_max", float),
        "lambda_ramp_rounds": ("lambda_ramp_rounds", int),
        "use_ensemble": ("use_ensemble", _bool),
        "ensemble_every_round": ("ensemble_every_round", _bool),
    },
}


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
        if key not in _SCHEMA[section]:
            raise ConfigError(
                f"{source}: line {line_no}: unknown key {key!r} in [{section}]"
            )
        if key in values[section]:
            raise ConfigError(
                f"{source}: line {line_no}: duplicate key {key!r} in [{section}]"
            )
        field_name, caster = _SCHEMA[section][key]
        try:
            values[section][field_name] = caster(value)
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
        # Validators name the offending field as a word of their message;
        # the first word that is exactly a key or field set in this section
        # picks the line.
        lines = key_lines[section_name]
        by_field = {_SCHEMA[section_name][key][0]: line_no for key, line_no in lines.items()}
        for word in re.findall(r"[A-Za-z_]\w*", message):
            line_no = lines.get(word, by_field.get(word))
            if line_no is not None:
                return f"{source}: line {line_no}: {message}"
        return f"{source}: [{section_name}]: {message}"

    try:
        server = ServerConfig(**values["server"])
    except ValueError as exc:
        raise ConfigError(_blame_line("server", str(exc))) from None
    try:
        client = ClientConfig(**values["client"])
    except ValueError as exc:
        raise ConfigError(_blame_line("client", str(exc))) from None
    try:
        data = DataConfig(**values["data"])
    except ValueError as exc:
        raise ConfigError(_blame_line("data", str(exc))) from None
    try:
        return ExperimentConfig(
            server=server, client=client, data=data, **values["experiment"]
        )
    except ValueError as exc:
        raise ConfigError(_blame_line("experiment", str(exc))) from None


def parse_config(path) -> ExperimentConfig:
    """Parse a config file; all defaults documented in the README apply."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it reproduces cfg exactly."""
    parts = {"experiment": cfg, "data": cfg.data, "server": cfg.server, "client": cfg.client}
    lines = []
    for section, obj in parts.items():
        lines.append(f"[{section}]")
        field_to_key = {spec[0]: key for key, spec in _SCHEMA[section].items()}
        for f in fields(obj):
            if f.name in field_to_key:
                lines.append(
                    f"{field_to_key[f.name]} = {_format_value(getattr(obj, f.name))}"
                )
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
