"""Config-driven experiment runner with metrics persistence.

``python -m fedseal.cli --config experiment.ini`` runs the configured
experiment and writes three artifacts into the output directory:

* ``manifest.json`` -- config snapshot, paths, start timestamp, version;
  written once, before round 1.
* ``rounds.csv`` -- one row per round (schema below).
* ``summary.json`` -- final/best accuracy, best round, config hash, seed.

Exit codes: 0 success, 1 configuration error, 2 runtime error.

rounds.csv columns: round, test_acc, lambda, tau_0..tau_{M-1},
pos_size_mean, neg_size_mean, pos_correct_rate, neg_correct_rate.
Cells for undefined values (e.g. correct rates with empty filter sets) are
left empty rather than written as 0.  The file holds no timings, so
identical runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ConfigError, config_hash, parse_config, serialize_config, with_overrides
from .experiment import ExperimentConfig, RoundRecord, run_experiment


@dataclass
class RunManifest:
    config_text: str
    artifacts: dict[str, str]
    started_at: str
    version: str


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def emit_metrics(records: list[RoundRecord], out_dir) -> dict[str, Path]:
    """Write rounds.csv for a record list; returns the paths written."""
    if not records:
        raise ValueError("no round records to emit")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_classes = len(records[0].taus)
    header = (
        ["round", "test_acc", "lambda"]
        + [f"tau_{m}" for m in range(n_classes)]
        + ["pos_size_mean", "neg_size_mean", "pos_correct_rate", "neg_correct_rate"]
    )
    rows = []
    for rec in records:
        pos_mean = sum(rec.pos_sizes) / len(rec.pos_sizes) if rec.pos_sizes else None
        neg_mean = sum(rec.neg_sizes) / len(rec.neg_sizes) if rec.neg_sizes else None
        rows.append(
            [
                _fmt(rec.round),
                _fmt(rec.test_accuracy),
                _fmt(rec.lambda_weight),
                *[_fmt(tau) for tau in rec.taus],
                _fmt(pos_mean),
                _fmt(neg_mean),
                _fmt(rec.pos_correct_rate),
                _fmt(rec.neg_correct_rate),
            ]
        )
    csv_path = out_dir / "rounds.csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(row) + "\n")
    return {"rounds_csv": csv_path}


def _write_summary(records: list[RoundRecord], cfg: ExperimentConfig, out_dir: Path) -> Path:
    best = max(records, key=lambda rec: (rec.test_accuracy, -rec.round))
    summary = {
        "final_accuracy": records[-1].test_accuracy,
        "best_accuracy": best.test_accuracy,
        "best_round": best.round,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
    }
    path = out_dir / "summary.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def run(argv: list[str] | None = None) -> int:
    """Entry point behind ``python -m fedseal.cli``; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="fedseal",
        description="Run a semi-supervised federated learning experiment.",
    )
    parser.add_argument("--config", help="path to the experiment config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--rounds", type=int, help="override the round count")
    parser.add_argument("--algorithm", help="override the algorithm")
    parser.add_argument(
        "--output-dir", help="artifact directory (default: ./runs/<timestamp>)"
    )
    args = parser.parse_args(argv)

    if not args.config:
        parser.print_usage(sys.stderr)
        print("fedseal: error: --config is required", file=sys.stderr)
        return 1

    try:
        cfg = parse_config(args.config)
        cfg = with_overrides(cfg, seed=args.seed, rounds=args.rounds, algorithm=args.algorithm)
    except ConfigError as exc:
        print(f"fedseal: config error: {exc}", file=sys.stderr)
        return 1

    if args.output_dir:
        out_dir = Path(args.output_dir)
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S-%f")
        out_dir = Path("runs") / stamp

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            config_text=serialize_config(cfg),
            artifacts={
                "rounds_csv": str(out_dir / "rounds.csv"),
                "summary_json": str(out_dir / "summary.json"),
            },
            started_at=datetime.now(timezone.utc).isoformat(),
            version=__version__,
        )
        with open(out_dir / "manifest.json", "w", encoding="utf-8") as f:
            json.dump(manifest.__dict__, f, indent=2, sort_keys=True)
            f.write("\n")

        records = run_experiment(cfg)
        emit_metrics(records, out_dir)
        summary_path = _write_summary(records, cfg, out_dir)
    except Exception as exc:  # process boundary: report and signal failure
        print(f"fedseal: runtime error: {exc}", file=sys.stderr)
        return 2

    with open(summary_path, "r", encoding="utf-8") as f:
        print(f.read().rstrip())
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
