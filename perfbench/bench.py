"""One benchmark run of one fedseal workload, in the current process.

``run.py`` starts this file in a child process with BLAS pinned to one
thread; run it directly only with the same environment::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/bench.py --workload paper_iid --seed 1 --seconds 40 --trace 0

It drives the public library API the way ``run_experiment`` does:
``load_split`` and ``bootstrap`` (the set-up), then ``run_round`` once per
round.  ``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the same experiment untraced and then traced, checks that
both give equal ``RoundRecord``s, and reports the per-layer metrics.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import fedseal
    from fedseal import data, experiment, nn, server
    from fedseal.config import parse_config, with_overrides
    from fedseal.rng import stream
except ModuleNotFoundError as exc:
    raise SystemExit(f"bench: cannot import fedseal from {SRC}: {exc}") from None

from run import THREAD_VARS  # noqa: E402  (HERE is on sys.path)
from tracing import ID, NAME, Tracer, summarize  # noqa: E402

# Nominal seconds per round on the reference machine (2 cores, 1 BLAS
# thread).  The round count is --seconds / nominal, so a run does the same
# work on every commit however fast the code is: round time drifts down as
# the positive sets shrink, and a time-boxed loop would let a faster commit
# average over cheaper late rounds.
NOMINAL_ROUND_S = {"paper_iid": 1.0, "narrow_tabular": 0.35}
MIN_ROUNDS = 20
# Set-ups per untraced run; setup_s is their median.
SETUPS = 3
# round_s_tail is the highest percentile with at least this many rounds above.
TAIL_ABOVE = 10

# Metric names and units, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Client-phase spans: from the first filter of a round to the last local SGD.
CLIENT_PHASE = ("client.build_positive_set", "client.build_negative_set", "client.client_train")


def _rows(_params, batch, *args, **kwargs) -> int:
    return len(batch)


# (module, attribute, span name, options): every lookup site of each traced
# function.  bootstrap finds server_train in the server module, run_round
# finds it in the experiment module; ExperimentState binds the augmenters
# from the experiment module when it is built.
PATCHES = (
    (data, "load_split", "data.load_split", {}),
    (experiment, "augment_weak", "data.augment_weak", {}),
    (experiment, "augment_strong", "data.augment_strong", {}),
    (nn, "gradient", "nn.gradient", {"rows": _rows}),
    (nn, "sgd_step", "nn.sgd_step", {}),
    (nn, "forward_batch", "nn.forward_batch", {"rows": _rows}),
    (server, "bootstrap", "server.bootstrap", {}),
    (server, "server_train", "server.server_train", {}),
    (experiment, "server_train", "server.server_train", {}),
    (experiment, "aggregate", "server.aggregate", {}),
    (experiment, "compute_thresholds", "server.compute_thresholds", {}),
    (experiment, "update_ensemble", "client.update_ensemble", {}),
    (experiment, "build_positive_set", "client.build_positive_set", {}),
    (experiment, "build_negative_set", "client.build_negative_set", {}),
    (experiment, "client_train", "client.client_train", {"cpu": True}),
    (experiment, "evaluate", "experiment.evaluate", {}),
    (experiment, "run_round", "experiment.run_round", {"root": True}),
)


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds / NOMINAL_ROUND_S[workload]))


def load_config(workload: str, seed: int, rounds: int):
    cfg = parse_config(HERE / "workloads" / f"{workload}.ini")
    return with_overrides(cfg, seed=seed, rounds=rounds)


def set_up(cfg):
    """Split and bootstrap exactly as ``run_experiment_detailed`` does."""
    split = data.load_split(cfg.data, cfg.n_clients, cfg.seed)
    cfg.client.check_theta(split.n_classes)
    dims = (split.feature_width, *cfg.hidden_dims, split.n_classes)
    state = experiment.ExperimentState(cfg, split, None)
    state.global_params = server.bootstrap(
        split.server_train, cfg.server, stream(cfg.seed, "bootstrap"), dims,
        state.weak_augment,
    )
    return state


def run_rounds(state, rounds: int):
    """Rounds 1..rounds; returns (records, seconds per round, error or None).

    A round that raises ends the run, and it and every later round count as
    failed.
    """
    records, seconds = [], []
    for t in range(1, rounds + 1):
        start = time.perf_counter()
        try:
            state, record = experiment.run_round(state, t)
        except Exception as exc:  # a failed round is a result, not a crash
            return records, seconds, f"round {t}: {type(exc).__name__}: {exc}"
        seconds.append(time.perf_counter() - start)
        records.append(record)
    return records, seconds, None


def invalid_rounds(records, cfg, split) -> dict[int, list[str]]:
    """Rounds whose record breaks an invariant, with the reasons."""
    problems: dict[int, list[str]] = {}
    for t, rec in enumerate(records, start=1):
        why = []
        if rec.round != t:
            why.append(f"record says round {rec.round}")
        if not (math.isfinite(rec.test_accuracy) and 0.0 <= rec.test_accuracy <= 1.0):
            why.append(f"test accuracy {rec.test_accuracy}")
        if len(rec.taus) != split.n_classes or not all(0.0 <= tau <= 1.0 for tau in rec.taus):
            why.append(f"taus {rec.taus}")
        sampled = experiment.sample_clients(cfg.n_clients, cfg.clients_per_round, t, cfg.seed)
        if len(rec.pos_sizes) != len(sampled) or len(rec.neg_sizes) != len(sampled):
            why.append("filter sizes do not match the sampled clients")
        else:
            for k, pos, neg in zip(sampled, rec.pos_sizes, rec.neg_sizes):
                if pos < 0 or neg < 0 or pos + neg > len(split.client_train[k]):
                    why.append(f"client {k}: pos {pos} + neg {neg} exceeds its shard")
        if why:
            problems[t] = why
    return problems


def rows_trained(records, cfg, split) -> int:
    """Gradient rows: server epochs x server rows + client epochs x (pos + neg)."""
    server_rows = cfg.server.epochs * len(split.server_train)
    return sum(
        server_rows + cfg.client.epochs * (sum(rec.pos_sizes) + sum(rec.neg_sizes))
        for rec in records
    )


def tail_percentile(seconds) -> tuple[float, float]:
    """(percentile, value): the highest nearest-rank percentile of ``seconds``
    that leaves at least TAIL_ABOVE samples above it."""
    n = len(seconds)
    if n <= TAIL_ABOVE:
        raise ValueError(f"need more than {TAIL_ABOVE} samples for the tail, got {n}")
    rank = n - TAIL_ABOVE
    return 100.0 * rank / n, sorted(seconds)[rank - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(setup_seconds, round_seconds, records, cfg, split) -> dict[str, float]:
    setup_s = statistics.median(setup_seconds)
    return {
        "setup_s": setup_s,
        "round_s_p50": statistics.median(round_seconds),
        "round_s_tail": tail_percentile(round_seconds)[1],
        "projected_100r_s": setup_s + 100.0 * statistics.fmean(round_seconds),
        "train_rows_per_s": rows_trained(records, cfg, split) / sum(round_seconds),
        "test_acc_final": records[-1].test_accuracy,
        "peak_rss_mb": peak_rss_mib(),
    }


def layer_metrics(spans, records, cfg) -> dict[str, float]:
    """Per-layer figures over one traced pass: one set-up plus every round."""
    by_name = summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "rows": 0}

    def get(name):
        return by_name.get(name, empty)

    def per_call(name, scale):
        entry = get(name)
        return entry["total_s"] / entry["calls"] * scale if entry["calls"] else 0.0

    round_ids = {s[ID] for s in spans if s[NAME] == "experiment.run_round"}
    phases: dict[int, list[float]] = {}
    for span_id, parent, name, start, end, _rows, _cpu in spans:
        if name in CLIENT_PHASE and parent in round_ids:
            lo_hi = phases.setdefault(parent, [start, end])
            lo_hi[0], lo_hi[1] = min(lo_hi[0], start), max(lo_hi[1], end)
    phase_wall = sum(hi - lo for lo, hi in phases.values())
    workers = min(cfg.parallel_clients, cfg.clients_per_round)

    pos_rows = sum(sum(rec.pos_sizes) for rec in records)
    neg_rows = sum(sum(rec.neg_sizes) for rec in records)
    pos_hits = sum(
        (rec.pos_correct_rate or 0.0) * sum(rec.pos_sizes) for rec in records
    )
    neg_hits = sum(
        (rec.neg_correct_rate or 0.0) * sum(rec.neg_sizes) for rec in records
    )
    gradient = get("nn.gradient")
    return {
        "data.load_split.s": get("data.load_split")["total_s"],
        "data.augment_weak.calls": get("data.augment_weak")["calls"],
        "data.augment_weak.us_per_call": per_call("data.augment_weak", 1e6),
        "data.augment_strong.calls": get("data.augment_strong")["calls"],
        "data.augment_strong.us_per_call": per_call("data.augment_strong", 1e6),
        "nn.gradient.calls": gradient["calls"],
        "nn.gradient.us_per_row": (
            gradient["total_s"] / gradient["rows"] * 1e6 if gradient["rows"] else 0.0
        ),
        "nn.gradient.self_s": gradient["self_s"],
        "nn.sgd_step.calls": get("nn.sgd_step")["calls"],
        "nn.sgd_step.ms_per_call": per_call("nn.sgd_step", 1e3),
        "nn.forward_batch.calls": get("nn.forward_batch")["calls"],
        "nn.forward_batch.rows": get("nn.forward_batch")["rows"],
        "nn.forward_batch.ms_per_call": per_call("nn.forward_batch", 1e3),
        "server.bootstrap.self_s": get("server.bootstrap")["self_s"],
        "server.server_train.self_s": get("server.server_train")["self_s"],
        "server.aggregate.ms_per_call": per_call("server.aggregate", 1e3),
        "server.compute_thresholds.ms_per_call": per_call("server.compute_thresholds", 1e3),
        "client.update_ensemble.calls": get("client.update_ensemble")["calls"],
        "client.update_ensemble.ms_per_call": per_call("client.update_ensemble", 1e3),
        "client.build_positive_set.ms_per_call": per_call("client.build_positive_set", 1e3),
        "client.build_negative_set.ms_per_call": per_call("client.build_negative_set", 1e3),
        "client.client_train.self_s": get("client.client_train")["self_s"],
        "client.pos_rows": pos_rows,
        "client.neg_rows": neg_rows,
        "client.pos_correct_rate": pos_hits / pos_rows if pos_rows else 0.0,
        "client.neg_correct_rate": neg_hits / neg_rows if neg_rows else 0.0,
        "client.phase_wall_s": phase_wall,
        "client.parallel_efficiency": (
            get("client.client_train")["cpu_s"] / (workers * phase_wall) if phase_wall else 0.0
        ),
        "experiment.evaluate.ms_per_call": per_call("experiment.evaluate", 1e3),
        "experiment.run_round.self_s": get("experiment.run_round")["self_s"],
    }


def traced_pass(cfg):
    """One set-up plus every round with each layer wrapped; returns
    (spans, set-up seconds, state, records, seconds per round, error)."""
    tracer = Tracer()
    for module, attr, name, options in PATCHES:
        tracer.patch(module, attr, name, **options)
    try:
        start = time.perf_counter()
        state = set_up(cfg)
        setup_s = time.perf_counter() - start
        records, seconds, error = run_rounds(state, cfg.rounds)
    finally:
        tracer.restore()
    return tracer.spans, setup_s, state, records, seconds, error


def untraced_pass(cfg, setups: int):
    """``setups`` timed set-ups, then every round from the last one."""
    setup_seconds, params, state = [], [], None
    for _ in range(setups):
        state = None  # free the previous set-up before building the next
        start = time.perf_counter()
        state = set_up(cfg)
        setup_seconds.append(time.perf_counter() - start)
        params.append(state.global_params.values)
    records, seconds, error = run_rounds(state, cfg.rounds)
    if not all(np.array_equal(params[0], p) for p in params[1:]):
        error = error or "repeated set-ups bootstrapped different models"
    return setup_seconds, state, records, seconds, error


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(cfg) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "parallel_clients": cfg.parallel_clients,
        "git_commit": git_commit(),
        "src_lines": sum(
            len(path.read_text(encoding="utf-8").splitlines())
            for path in sorted(SRC.rglob("*.py"))
        ),
    }


def check_pass(cfg, split, records, error, reference=None) -> int:
    """Report what is wrong with one pass; return its failed round count.

    With ``reference`` (the untraced pass's records), a round whose record
    differs from the reference's is invalid too.
    """
    problems = invalid_rounds(records, cfg, split)
    if reference is not None:
        for t, (rec, ref) in enumerate(zip(records, reference), start=1):
            if rec != ref:
                problems.setdefault(t, []).append("differs from the untraced run")
    for t, why in sorted(problems.items()):
        print(f"bench: round {t} invalid: {'; '.join(why)}", file=sys.stderr)
    if error:
        print(f"bench: {error}", file=sys.stderr)
    return cfg.rounds - len(records) + len(problems)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(fedseal.__file__).resolve().parent != (SRC / "fedseal").resolve():
        print(f"bench: imported fedseal from {fedseal.__file__}, not {SRC}", file=sys.stderr)
        return 1
    cfg = load_config(args.workload, args.seed, rounds_for(args.workload, args.seconds))
    print("env " + json.dumps(environment(cfg), sort_keys=True))

    setup_seconds, state, records, seconds, error = untraced_pass(
        cfg, 1 if args.trace else SETUPS
    )
    attempted = cfg.rounds
    failed = check_pass(cfg, state.split, records, error)
    correct = failed == 0 and error is None
    if args.trace:
        spans, traced_setup_s, t_state, t_records, t_seconds, t_error = traced_pass(cfg)
        t_failed = check_pass(cfg, t_state.split, t_records, t_error, reference=records)
        attempted += cfg.rounds
        failed += t_failed
        correct = correct and t_failed == 0 and t_error is None
    if len(records) <= TAIL_ABOVE or (args.trace and len(t_records) <= TAIL_ABOVE):
        print("bench: too few rounds completed to report", file=sys.stderr)
        return 1
    final_acc = records[-1].test_accuracy
    if final_acc < 2.0 / state.split.n_classes:
        print(f"bench: final accuracy {final_acc} is not above chance", file=sys.stderr)
        correct = False

    pct, _ = tail_percentile(seconds)
    print(
        f"{args.workload}: seed {cfg.seed}, {cfg.rounds} rounds, {len(setup_seconds)} set-up(s), "
        f"round_s_tail is p{pct:.1f} of {len(seconds)} rounds, "
        f"round_fail_frac {failed / attempted:.4g} ({failed} of {attempted})"
    )
    if args.trace:
        values = layer_metrics(spans, t_records, cfg)
        values["trace.overhead_frac"] = statistics.median(t_seconds) / statistics.median(seconds) - 1.0
        units = PER_LAYER_UNITS
        print(f"  traced set-up {traced_setup_s:.3f} s, untraced {setup_seconds[0]:.3f} s")
    else:
        values = end_to_end(setup_seconds, seconds, records, cfg, state.split)
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:<40} {values[name]:>14.6g} {unit}")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
