"""Mutation ledger: single-line mutants of src/ and the tests that kill them.

Each row of ``MUTANTS`` is (file under src/fedseal, exact text, replacement,
killing test).  For every row the script copies the repository to a
temporary directory, replaces the text (which must occur exactly once in
its file), runs the killing test alone, then the whole tier-1 suite with
``-x``, and writes one JSON record per mutant to MUTANTS.json at the
repository root:

    python scripts/mutation_ledger.py

A mutant is killed when tier-1 fails; ``first_failure`` is the test that
stopped it.  The exit status is 1 when a mutant survives or its killing test
passes on it.  A refactor that moves or rewrites a mutated line must carry
its row along: ``tests/test_mutation_ledger.py`` checks that every text still
occurs exactly once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "fedseal"

MUTANTS = (
    ("nn.py",
     "terms = [term for term in terms if len(term[0]) and term[2] != 0.0]",
     "terms = [term for term in terms if len(term[0])]",
     "tests/test_client.py::test_client_train_lambda_zero_trains_only_the_negative_set"),
    ("client.py",
     "candidates = conf <= theta",
     "candidates = conf < theta",
     "tests/test_client.py::test_negative_set_candidate_at_exactly_theta"),
    ("nn.py",
     "delta[p < PROB_FLOOR] = 0.0",
     "pass",
     "tests/test_nn.py::test_gradient_of_a_clamped_row_is_zero[1-False]"),
    ("nn.py",
     "scale = np.where(q < PROB_FLOOR, 0.0, p / np.maximum(q, PROB_FLOOR))",
     "scale = p / np.maximum(q, PROB_FLOOR)",
     "tests/test_nn.py::test_gradient_of_a_clamped_row_is_zero[0-True]"),
    ("data.py",
     "if not len(y):",
     "if False:",
     "tests/test_data.py::test_load_split_rejects_an_empty_training_pool"),
    ("data.py",
     "if self.y.shape != (len(self),):",
     "if False:",
     "tests/test_data.py::test_collection_needs_one_label_per_row"),
    ("data.py",
     "if len(class_pool) < per_class:",
     "if False:",
     "tests/test_data.py::test_load_split_rejects_a_class_short_of_its_server_rows"),
    ("data.py",
     "if (labels < 0).any():",
     "if False:",
     "tests/test_data.py::test_partition_rejects_an_unlabeled_row"),
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
    ("data.py",
     "if not len(self):",
     "if False:",
     "tests/test_data.py::test_collection_rejects_zero_rows"),
    ("data.py",
     "if (self.y < 0).any():",
     "if False:",
     "tests/test_data.py::test_collection_rejects_a_negative_label_and_names_it"),
    ("data.py",
     "if image_shape is not None and (rows, cols) != tuple(image_shape):",
     "if False:",
     "tests/test_data.py::test_load_split_rejects_an_idx_file_of_another_image_shape"),
    ("nn.py",
     "if not 0 <= self.momentum < 1:",
     "if not 0 <= self.momentum <= 1:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[server-momentum-1]"),
    ("nn.py",
     "if not np.isfinite(values).all():",
     "if False:",
     "tests/test_nn.py::test_sgd_step_rejects_non_finite_result"),
    ("experiment.py",
     "if self.seed < 0:",
     "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[experiment-seed--1]"),
    ("data.py",
     'if self.kind == "idx" and self.image_shape is None:',
     "if False:",
     "tests/test_cli.py::test_idx_data_needs_its_image_shape"),
    ("nn.py",
     "if grad.dtype != values.dtype:",
     "if False:",
     "tests/test_nn.py::test_sgd_step_rejects_a_gradient_of_another_dtype"),
    ("nn.py",
     "return X[rows].astype(params.values.dtype, copy=False)",
     "return X[rows].astype(np.float64, copy=False)",
     "tests/test_nn.py::test_float32_params_compute_and_return_float32"),
    ("data.py",
     "self.X = _frozen(np.asarray(X, dtype=np.float32))",
     "self.X = _frozen(np.asarray(X, dtype=np.float64))",
     "tests/test_data.py::test_load_split_stores_every_collection_and_shard_as_read_only_float32[synthetic]"),
    ("server.py",
     "taus = np.ones(n_classes)",
     "taus = np.zeros(n_classes)",
     "tests/test_server.py::test_thresholds_absent_class_falls_back_to_one"),
    ("server.py",
     "return np.clip(taus, 0.0, 1.0)",
     "return taus",
     "tests/test_server.py::test_thresholds_clamped_to_one"),
    ("server.py",
     "if model.shapes != first.shapes:",
     "if False:",
     "tests/test_server.py::test_aggregate_layout_mismatch"),
    ("client.py",
     "return labels, top >= np.asarray(taus)[labels]",
     "return labels, top > np.asarray(taus)[labels]",
     "tests/test_client.py::test_pseudo_label_argmax_and_confidence"),
    ("client.py",
     "min(1.0, round_index / cfg.lambda_ramp_rounds)",
     "round_index / cfg.lambda_ramp_rounds",
     "tests/test_client.py::test_lambda_saturates"),
    ("client.py",
     "if probs.shape != avg.shape:",
     "if False:",
     "tests/test_client.py::test_update_rejects_changed_instance_set"),
    ("cli.py",
     'return format(value, ".10g")',
     "return str(round(value, 6))",
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
     "return repr(value)",
     "return str(round(value, 6))",
     "tests/test_cli.py::test_round_trip_keeps_every_bit_of_a_float"),
    ("experiment.py",
     "state.server_lr *= cfg.server.lr_decay",
     "state.server_lr *= cfg.client.lr_decay",
     "tests/test_experiment.py::test_three_round_trace_matches_hand_stepped_transcript"),
    ("experiment.py",
     "state.client_lr *= cfg.client.lr_decay",
     "state.client_lr *= cfg.server.lr_decay",
     "tests/test_experiment.py::test_three_round_trace_matches_hand_stepped_transcript"),
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
)

# The ledger's own test fails on every mutant (its text no longer occurs), so it is left out.
TIER1 = ("-q", "-rfE", "-p", "no:cacheprovider", "--continue-on-collection-errors",
         "--ignore=tests/test_mutation_ledger.py")


def run_pytest(root: Path, *args: str) -> tuple[bool, str | None]:
    """(passed, first failing test id) of a pytest run in ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("FEDSEAL_FASHION_MNIST_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "pytest", *TIER1, *args], cwd=root, env=env,
                          capture_output=True, text=True)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return proc.returncode == 0, failed[0] if failed else None


def run_mutant(file: str, text: str, replacement: str, killer: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        # Without the dataset, acceptance criteria 3-5 skip instead of
        # training for half an hour on every mutant.
        shutil.copytree(REPO, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "runs", "data",
            "MUTANTS.json"))
        path = root / "src" / "fedseal" / file
        source = path.read_text()
        if source.count(text) != 1:
            raise SystemExit(f"src/fedseal/{file}: {text!r} occurs {source.count(text)} times")
        path.write_text(source.replace(text, replacement))
        killer_passed, _ = run_pytest(root, killer)
        tier1_passed, first = run_pytest(root, "-x")
    return {"file": f"src/fedseal/{file}", "text": text, "replacement": replacement,
            "killing_test": killer, "killing_test_fails": not killer_passed,
            "killed": not tier1_passed, "first_failure": first}


def main() -> int:
    records = []
    for row in MUTANTS:
        records.append(run_mutant(*row))
        rec = records[-1]
        status = "killed" if rec["killed"] and rec["killing_test_fails"] else "SURVIVED"
        print(f"{status:8} {rec['file']}: {rec['text']}  (first failure: {rec['first_failure']})",
              flush=True)
    (REPO / "MUTANTS.json").write_text(json.dumps(records, indent=1) + "\n")
    return 0 if all(r["killed"] and r["killing_test_fails"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
