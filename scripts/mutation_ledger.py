"""Mutation ledger: every mutant of src/fedseal and whether tier-1 kills it.

The sweep is generated from ``ast``, one mutant per site, in source order:

- ``statement``: an assign, aug-assign, annotated assign, expression or
  ``del`` statement (string constants excepted) becomes ``pass``;
- ``True`` and ``False``: an ``if``/``elif`` condition becomes that constant;
- ``body``: an ``if``/``for``/``while``/``with``/``try`` body, an ``else``
  body or an ``except`` body becomes ``pass``;
- ``loop``: a whole ``for``/``while`` loop becomes ``pass``.

A mutant whose file equals the original or an earlier mutant's is dropped.
``OPERATORS`` holds by hand the operator and argument mutants no sweep makes,
each with the test that kills it.  ``KEPT`` holds the sweep's survivors kept
on purpose, each with its reason; its rows are keyed by file, kind and exact
source text, so they survive line moves.  To regenerate MUTANTS.json:

    python scripts/mutation_ledger.py

The script copies the repository once per CPU and runs tier-1 with ``-x`` in
every copy at once.  The unmutated tree goes through the copies first; three
times its slowest run is the timeout for each mutant, and a mutant that times
out is a killed hang.  The unmutated tree goes through again after the last
mutant.  The exit status is 1 when an unmutated run fails, a survivor is not
in ``KEPT``, a ``KEPT`` mutant is killed, or an operator mutant's killing
test passes.  ``tests/test_mutation_ledger.py`` checks that every ``KEPT`` and
``OPERATORS`` row still matches exactly one site, and that each guard mutant
in its ``SWEPT`` table is still generated and recorded killed.  It finds a
mutant's records by file, kind and text, not by line, so moving a line does
not wait on a new sweep.
"""

from __future__ import annotations

import ast
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "fedseal"
KINDS = ("statement", "True", "False", "body", "loop")

KEPT = {
    ("cli.py", "statement", "blas = {}"):
        "the fallback for numpy < 1.26, whose show_config has no mode='dicts'; "
        "this numpy cannot run it",
    ("experiment.py", "statement", "self.global_params = global_params"):
        "perfbench's set_up builds ExperimentState(cfg, split, None) and assigns "
        "afterwards, so only a change that may edit perfbench/ can drop it",
    ("nn.py", "statement",
     "layers: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)"):
        "declares the attribute __post_init__ sets; it is not compared, printed or "
        "an __init__ argument",
    ("nn.py", "True", "idx > 0"):
        "only adds the layer-0 backprop GEMM whose result nothing reads; the branch "
        "saves that GEMM every gradient",
    ("nn.py", "True", "weight != 1.0"):
        "only adds a multiply by 1.0; the branch saves a 109k-element multiply per "
        "unit-weight term",
}

OPERATORS = (
    ("nn.py",
     "terms = [term for term in terms if len(term[0]) and term[2] != 0.0]",
     "terms = [term for term in terms if len(term[0])]",
     "tests/test_client.py::test_client_train_lambda_zero_trains_only_the_negative_set"),
    ("client.py",
     "candidates = conf <= theta",
     "candidates = conf < theta",
     "tests/test_client.py::test_negative_set_candidate_at_exactly_theta"),
    ("nn.py",
     "scale = np.where(q < PROB_FLOOR, 0.0, p / np.maximum(q, PROB_FLOOR))",
     "scale = p / np.maximum(q, PROB_FLOOR)",
     "tests/test_nn.py::test_gradient_of_a_clamped_row_is_zero[0-True]"),
    ("experiment.py",
     "return sorted(int(c) for c in rng.choice(n_clients, size=k, replace=False))",
     "return [int(c) for c in rng.choice(n_clients, size=k, replace=False)]",
     "tests/test_golden.py::test_partial_participation_matches_golden_digests"),
    ("experiment.py",
     "for k, shard in enumerate(state.split.client_train):",
     "for k, shard in ((k, state.split.client_train[k]) for k in sampled):",
     "tests/test_golden.py::test_partial_participation_matches_golden_digests"),
    ("data.py",
     "def __init__(self, X, y):",
     "def __init__(self, X, y=None):",
     "tests/test_data.py::test_collection_needs_its_labels"),
    ("nn.py",
     "if not 0 <= self.momentum < 1:",
     "if not 0 <= self.momentum <= 1:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[server-momentum-1]"),
    ("nn.py",
     "return _float_rows(X[rows]).astype(params.values.dtype, copy=False)",
     "return _float_rows(X[rows]).astype(np.float64, copy=False)",
     "tests/test_nn.py::test_float32_params_compute_and_return_float32"),
    ("data.py",
     "X.astype(np.float32, copy=False)",
     "X.astype(np.float64, copy=False)",
     "tests/test_data.py::test_load_split_stores_every_collection_and_shard_read_only_in_its_dtype[synthetic]"),
    ("data.py",
     "pixels=bool(cfg.image_shape)",
     "pixels=False",
     "tests/test_data.py::test_load_split_stores_every_collection_and_shard_read_only_in_its_dtype[synthetic_images]"),
    ("data.py",
     "np.rint(255 * block[kept]) if pixels",
     "255 * block[kept] if pixels",
     "tests/test_data.py::test_synthetic_image_pixels_round_the_per_row_float64_draws"),
    ("data.py",
     "rows /= np.float32(255)",
     "rows *= np.float32(1 / 255)",
     "tests/test_data.py::test_float_rows_gives_every_pixel_over_255_rounded_once_to_float32"),
    ("server.py",
     "taus = np.ones(n_classes)",
     "taus = np.zeros(n_classes)",
     "tests/test_server.py::test_thresholds_absent_class_falls_back_to_one"),
    ("server.py",
     "return np.clip(taus, 0.0, 1.0)",
     "return taus",
     "tests/test_server.py::test_thresholds_clamped_to_one"),
    ("client.py",
     "return labels, top >= np.asarray(taus)[labels]",
     "return labels, top > np.asarray(taus)[labels]",
     "tests/test_client.py::test_pseudo_label_argmax_and_confidence"),
    ("client.py",
     "min(1.0, round_index / cfg.lambda_ramp_rounds)",
     "round_index / cfg.lambda_ramp_rounds",
     "tests/test_client.py::test_lambda_saturates"),
    ("cli.py",
     'return "" if value is None else format(value, ".10g")',
     'return "" if value is None else str(round(value, 6))',
     "tests/test_golden.py::test_bundled_synthetic_config_matches_golden_digests[fedseal]"),
    ("cli.py",
     '"seed": cfg.seed,',
     '"seed": 0,',
     "tests/test_cli.py::test_run_overrides_change_the_run"),
    ("cli.py",
     "key=lambda rec: (rec.test_accuracy, -rec.round)",
     "key=lambda rec: (rec.test_accuracy, rec.round)",
     "tests/test_cli.py::test_summary_best_round_is_the_earliest_of_tied_rounds"),
    ("config.py",
     "return str(value)",
     "return str(round(value, 6)) if isinstance(value, float) else str(value)",
     "tests/test_cli.py::test_round_trip_keeps_every_bit_of_a_float"),
    ("experiment.py",
     "state.server_lr *= cfg.server.lr_decay",
     "state.server_lr *= cfg.client.lr_decay",
     "tests/test_experiment.py::test_run_round_computes_the_reference_round"),
    ("experiment.py",
     "state.client_lr *= cfg.client.lr_decay",
     "state.client_lr *= cfg.server.lr_decay",
     "tests/test_experiment.py::test_run_round_computes_the_reference_round"),
    ("nn.py",
     "w, b = values[offset:bias], values[bias : bias + fan_out]",
     "b, w = values[offset : offset + fan_out], values[offset + fan_out : bias + fan_out]",
     "tests/test_nn.py::test_model_params_layers_read_each_weight_and_bias_in_w1_b1_w2_b2_order"),
    ("nn.py",
     "offset = bias + fan_out",
     "offset = bias",
     "tests/test_nn.py::test_gradient_matches_the_concatenating_reference_byte_for_byte"),
    ("rng.py",
     'return int.from_bytes(digest[:8], "little")',
     'return int.from_bytes(digest[:8], "big")',
     "tests/test_golden.py::test_load_split_matches_golden_digests[synthetic_iid]"),
    ("data.py",
     "expected = header + math.prod(dims)",
     "expected = header + int(np.prod(dims))",
     "tests/test_data.py::test_ingest_idx_truncated_reports_offset"),
    ("data.py",
     'if len(header) < 2 or header[0] != "label" or any(',
     'if header[0] != "label" or any(',
     "tests/test_data.py::test_ingest_csv_rejects_bad_header"),
    ("server.py",
     "self.total += model.values - self.first.values",
     "self.total = model.values - self.first.values",
     "tests/test_server.py::test_aggregate_matches_stacked_mean_oracle_bit_for_bit[dims0]"),
    ("server.py",
     "self.count += 1",
     "self.count = 1",
     "tests/test_server.py::test_aggregate_matches_stacked_mean_oracle_bit_for_bit[dims0]"),
    ("experiment.py",
     "    state.global_params = w_t\n",
     "    last_global, state.global_params = state.global_params, w_t\n",
     "tests/test_experiment.py::test_server_training_releases_w_bar_and_the_last_global_model"),
    ("data.py",
     "view[size - header : size - header + chunk]",
     "view[size - header :]",
     "tests/test_data.py::test_idx_load_split_peaks_near_its_files_and_split[gz]"),
    ("data.py",
     "X = rows.astype(np.result_type(rows.dtype, np.float32), copy=rows is X)",
     "X = rows.astype(np.result_type(rows.dtype, np.float32), copy=False)",
     "tests/test_data.py::test_augmenters_never_write_their_batch[float32-shape1-augment_weak]"),
    ("data.py",
     "X = rows.astype(np.result_type(rows.dtype, np.float32), copy=rows is X)",
     "X = rows.astype(np.result_type(rows.dtype, np.float32), copy=True)",
     "tests/test_data.py::test_stack_copies_uint8_pixels_once"),
    ("data.py",
     "np.result_type(rows.dtype, np.float32)",
     "np.float64",
     "tests/test_data.py::test_augmenters_keep_shape_range_and_input_of_any_batch"),
    ("experiment.py",
     "self.strong_augment = partial(augment_strong, image_shape=shape)",
     "self.strong_augment = partial(augment_strong, image_shape=None)",
     "tests/test_experiment.py::test_run_round_computes_the_reference_round[fedseal-full_images]"),
)

# The ledger's own test fails on any mutant of a row's text, so it is left out.
TIER1 = ("-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutation_ledger.py")


def sweep(source: bytes) -> list[tuple[int, str, str, bytes]]:
    """(line, kind, source text, mutated source) of every sweep mutant of ``source``."""
    line_start = [0]
    for line in source.splitlines(keepends=True):
        line_start.append(line_start[-1] + len(line))
    sites = []

    def add(kind, first, last, replacement):
        start = line_start[first.lineno - 1] + first.col_offset
        end = line_start[last.end_lineno - 1] + last.end_col_offset
        sites.append((start, end, KINDS.index(kind), first.lineno, replacement))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)) or (
                isinstance(node, ast.Expr) and not isinstance(node.value, ast.Constant)):
            add("statement", node, node, "pass")
        if isinstance(node, ast.If):
            add("True", node.test, node.test, "True")
            add("False", node.test, node.test, "False")
        if isinstance(node, (ast.For, ast.While)):
            add("loop", node, node, "pass")
        if isinstance(node, (ast.If, ast.For, ast.While, ast.With, ast.Try, ast.ExceptHandler)):
            for block in (node.body, getattr(node, "orelse", [])):
                # An ``elif`` is an ``if`` alone in its parent's orelse.
                if block and not source.startswith(b"elif", line_start[block[0].lineno - 1]
                                                   + block[0].col_offset):
                    add("body", block[0], block[-1], "pass")
    seen, mutants = {source}, []
    for start, end, kind, line, replacement in sorted(sites):
        mutated = source[:start] + replacement.encode() + source[end:]
        if mutated not in seen:
            seen.add(mutated)
            mutants.append((line, KINDS[kind], source[start:end].decode(), mutated))
    return mutants


def run_tier1(root: Path, *args: str, timeout: float | None = None) -> tuple[str, str | None, float]:
    """(outcome, first failing test, seconds) of pytest in ``root``.

    The outcome is "passed", "failed" or, past ``timeout`` seconds, "hang".
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    env.pop("FEDSEAL_FASHION_MNIST_DIR", None)
    began = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "pytest", *TIER1, *args], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "hang", None, timeout
    seconds = time.perf_counter() - began
    # "FAILED <id> - <message>": a parametrized id may hold spaces.
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode == 0:
        return "passed", None, seconds
    return "failed", failed[0] if failed else f"exit {proc.returncode}", seconds


def expected(rec: dict) -> bool:
    """Whether a record's outcome is the one ``KEPT`` and ``OPERATORS`` expect."""
    if rec["kind"] == "operator":
        return rec["outcome"] != "survived" and rec["killing_test_fails"]
    return (rec["outcome"] == "survived") == ((rec["file"], rec["kind"], rec["text"]) in KEPT)


def main() -> int:
    jobs = []  # (file, original, mutated, record, killing test)
    for path in sorted(SRC.glob("*.py")):
        source = path.read_bytes()
        for line, kind, text, mutated in sweep(source):
            jobs.append((path.name, source, mutated,
                         {"file": path.name, "line": line, "kind": kind, "text": text}, None))
    for file, text, replacement, killer in OPERATORS:
        source = (SRC / file).read_bytes()
        if source.count(text.encode()) != 1:
            raise SystemExit(f"{file}: {text!r} occurs {source.count(text.encode())} times")
        line = source[:source.index(text.encode())].count(b"\n") + 1
        jobs.append((file, source, source.replace(text.encode(), replacement.encode()),
                     {"file": file, "line": line, "kind": "operator", "text": text,
                      "replacement": replacement, "killing_test": killer}, killer))

    workers = os.cpu_count() or 1
    copies = queue.Queue()
    timeout = None

    def run(job):
        file, original, mutated, rec, killer = job
        root = copies.get()
        try:
            if file:
                (root / "src" / "fedseal" / file).write_bytes(mutated)
            if killer:
                rec["killing_test_fails"] = run_tier1(root, killer, timeout=timeout)[0] != "passed"
            outcome, first, seconds = run_tier1(root, "-x", timeout=timeout)
        finally:
            if file:
                (root / "src" / "fedseal" / file).write_bytes(original)
            copies.put(root)
        if not file:
            print(f"unmutated tree: {outcome} in {seconds:.1f} s ({first})", flush=True)
            return outcome == "passed", seconds
        rec.update(outcome={"passed": "survived", "failed": "killed"}.get(outcome, outcome),
                   first_failure=first)
        print(f"{rec['outcome']:8} {file}:{rec['line']} {rec['kind']}: "
              f"{rec['text'].splitlines()[0]}  ({first})", flush=True)
        return rec

    clean = (None, None, None, None, None)
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(workers) as pool:
        for i in range(workers):
            # Without the dataset, acceptance criteria 3-5 skip instead of
            # training for half an hour on every mutant.
            copies.put(shutil.copytree(REPO, Path(tmp) / str(i), ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".pytest_cache", ".hypothesis", "runs", "data",
                "MUTANTS.json")))
        before = list(pool.map(run, [clean] * workers))
        if not all(passed for passed, _ in before):
            print("the unmutated tree fails tier-1", file=sys.stderr)
            return 1
        timeout = 3 * max(seconds for _, seconds in before)
        records = list(pool.map(run, jobs))
        after = list(pool.map(run, [clean] * workers))
    (REPO / "MUTANTS.json").write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n")
    unexpected = [rec for rec in records if not expected(rec)]
    for rec in unexpected:
        print(f"UNEXPECTED {rec['outcome']}: {rec['file']}:{rec['line']} {rec['kind']}: "
              f"{rec['text']!r}", file=sys.stderr)
    return 0 if all(passed for passed, _ in after) and not unexpected else 1


if __name__ == "__main__":
    sys.exit(main())
