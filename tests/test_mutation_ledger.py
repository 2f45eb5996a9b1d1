"""The mutation ledger stays in step with src/: its sweep is deterministic,
every hand-kept row still matches exactly one site, and the sweep still
generates, and the committed ledger records as killed, every mutant that a
guard test was written against."""

import importlib.util
import json
from collections import Counter
from functools import lru_cache

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location(
    "mutation_ledger", REPO_ROOT / "scripts" / "mutation_ledger.py")
ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger)

FIXTURE = b'''"""Docstring."""
total: int = 0
for i in range(3):
    total += i
else:
    del i
while total:
    total -= 1
if total > 1:
    print(total)
elif total:
    raise ValueError
else:
    raise OSError
with open(__file__) as f:
    f.read()
    f.close()
try:
    x = 1
    x += 1
except OSError:
    pass
'''

# (file, text, replacement, killing test) of the statement, condition, body
# and loop mutants that each have a test written to kill them.  The sweep
# makes each of them; these rows pin that it keeps doing so, and that the
# test each row names is still there.
SWEPT = (
    ("nn.py", "delta[p < PROB_FLOOR] = 0.0", "pass",
     "tests/test_nn.py::test_gradient_of_a_clamped_row_is_zero[1-False]"),
    ("data.py", "if not len(y):", "if False:",
     "tests/test_data.py::test_load_split_rejects_an_empty_training_pool"),
    ("data.py", "if self.y.shape != (len(self),):", "if False:",
     "tests/test_data.py::test_collection_needs_one_label_per_row"),
    ("data.py", "if len(class_pool) < per_class:", "if False:",
     "tests/test_data.py::test_load_split_rejects_a_class_short_of_its_server_rows"),
    ("data.py", "if (labels < 0).any():", "if False:",
     "tests/test_data.py::test_partition_rejects_an_unlabeled_row"),
    ("data.py", "if not len(self):", "if False:",
     "tests/test_data.py::test_collection_rejects_zero_rows"),
    ("data.py", "if (self.y < 0).any():", "if False:",
     "tests/test_data.py::test_collection_rejects_a_negative_label_and_names_it"),
    ("data.py", "if image_shape is not None and (rows, cols) != tuple(image_shape):", "if False:",
     "tests/test_data.py::test_load_split_rejects_an_idx_file_of_another_image_shape"),
    ("nn.py", "if not np.isfinite(values).all():", "if False:",
     "tests/test_nn.py::test_sgd_step_rejects_non_finite_result"),
    ("experiment.py", "if self.seed < 0:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[experiment-seed--1]"),
    ("data.py", 'if self.kind == "idx" and self.image_shape is None:', "if False:",
     "tests/test_cli.py::test_idx_data_needs_its_image_shape"),
    ("nn.py", "if grad.dtype != values.dtype:", "if False:",
     "tests/test_nn.py::test_sgd_step_rejects_a_gradient_of_another_dtype"),
    ("data.py", "X = np.asarray(X)\n        self.X = _frozen(", "pass\n        self.X = _frozen(",
     "tests/test_data.py::test_collection_takes_rows_as_a_list_and_keeps_uint8_pixels"),
    ("server.py", "elif model.shapes != self.first.shapes:", "elif False:",
     "tests/test_server.py::test_aggregate_layout_mismatch"),
    ("client.py", "if probs.shape != avg.shape:", "if False:",
     "tests/test_client.py::test_update_rejects_changed_instance_set"),
    ("client.py", "if not 0.0 < self.theta < 1.0:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[client-theta-0]"),
    ("client.py", "if not self.lambda_max >= 0:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[client-lambda_max--1]"),
    ("client.py", "if self.lambda_ramp_rounds < 1:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[client-lambda_ramp_rounds-0]"),
    ("nn.py", "if self.batch_size < 1:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[server-batch_size-0]"),
    ("experiment.py", "if self.n_clients < 1:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[experiment-n_clients-0]"),
    ("experiment.py", "if not 0.0 <= self.fixmatch_threshold <= 1.0:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[experiment-fixmatch_threshold-1.5]"),
    ("experiment.py", "if self.parallel_clients < 1:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[experiment-parallel_clients-0]"),
    ("experiment.py", "if any(d < 1 for d in self.hidden_dims) or not self.hidden_dims:", "if False:",
     "tests/test_cli.py::test_bad_value_names_key_and_line[experiment-hidden_dims-0]"),
    ("data.py", 'if self.kind not in ("synthetic", "idx", "csv"):', "if False:",
     "tests/test_cli.py::test_bad_choice_missing_path_or_malformed_line_is_config_error[kind]"),
    ("data.py", "if self.partition not in (IID, DIRICHLET):", "if False:",
     "tests/test_cli.py::test_bad_choice_missing_path_or_malformed_line_is_config_error[partition]"),
    ("data.py", 'if self.kind == "idx" and missing:', "if False:",
     "tests/test_cli.py::test_bad_choice_missing_path_or_malformed_line_is_config_error[idx-paths]"),
    ("data.py", 'if self.kind == "csv" and not self.train_csv:', "if False:",
     "tests/test_cli.py::test_bad_choice_missing_path_or_malformed_line_is_config_error[csv-path]"),
    ("config.py", 'if "=" not in line:', "if False:",
     "tests/test_cli.py::test_bad_choice_missing_path_or_malformed_line_is_config_error[no-equals]"),
    ("data.py", "if len(buf) < header:", "if False:",
     "tests/test_data.py::test_ingest_idx_rejects_a_header_shorter_than_16_bytes"),
    ("data.py", "if got != magic:", "if False:",
     "tests/test_data.py::test_ingest_idx_rejects_a_bad_label_magic"),
    ("data.py", "if size != expected:", "if False:",
     "tests/test_data.py::test_ingest_idx_rejects_a_label_file_of_the_wrong_length"),
    ("data.py", "if not lines:", "if False:",
     "tests/test_data.py::test_ingest_csv_rejects_an_empty_file"),
    ("data.py", "if n_clients < 1:", "if False:",
     "tests/test_data.py::test_partition_rejects_zero_clients"),
    ("data.py", "if len(pool) < per_class * n_clients:", "if False:",
     "tests/test_data.py::test_partition_iid_rejects_a_class_short_of_its_rows"),
    ("data.py", "if mode == DIRICHLET:", "if True:",
     "tests/test_data.py::test_partition_rejects_an_unknown_mode"),
    ("data.py", "if cfg.server_val_n > len(remainder):", "if False:",
     "tests/test_data.py::test_load_split_rejects_a_pool_too_small_for_its_split[validation]"),
    ("data.py", "if test_n > len(remainder):", "if False:",
     "tests/test_data.py::test_load_split_rejects_a_pool_too_small_for_its_split[test]"),
    ("data.py", "if self.X.ndim != 2:", "if False:",
     "tests/test_data.py::test_collection_needs_a_feature_matrix"),
    ("data.py", "if 0 < cfg.test_n < len(test_y):", "if True:",
     "tests/test_data.py::test_load_split_csv_subsamples_the_test_file"),
    ("nn.py", "if len(dims) < 2:", "if False:",
     "tests/test_nn.py::test_shapes_for_needs_an_input_and_an_output_dim"),
    ("nn.py", "if labels.shape != (n,):", "if False:",
     "tests/test_nn.py::test_gradient_rejects_bad_labels_and_width"),
    ("nn.py", "if grad.shape != values.shape:", "if False:",
     "tests/test_nn.py::test_sgd_step_length_mismatch"),
    ("nn.py", "_features(params, X, slice(0))", "pass",
     "tests/test_nn.py::test_forward_rejects_wrong_width"),
    ("client.py", "if rows.shape != labels.shape or rows.ndim != 1:", "if False:",
     "tests/test_client.py::test_filtered_sets_need_one_label_per_row[positive]"),
    ("nn.py", "self.shapes = tuple((int(i), int(o)) for i, o in self.shapes)", "pass",
     "tests/test_nn.py::test_model_params_take_shapes_as_lists_and_hold_int_tuples"),
    ("nn.py", "X = np.asarray(X)", "pass",
     "tests/test_nn.py::test_gradient_and_loss_take_a_list_of_rows"),
    ("experiment.py", "self.hidden_dims = tuple(int(d) for d in self.hidden_dims)", "pass",
     "tests/test_cli.py::test_hidden_dims_given_as_a_list_are_held_as_an_int_tuple"),
    ("data.py", "labels = np.asarray(labels, dtype=np.int64)", "pass",
     "tests/test_data.py::test_partition_takes_labels_as_a_list"),
    ("data.py", "X = np.asarray(X)\n    rows = _float_rows(X)", "pass\n    rows = _float_rows(X)",
     "tests/test_data.py::test_augmenters_take_a_batch_as_a_list_of_rows[None-augment_weak]"),
    ("cli.py", "out_dir = Path(out_dir)", "pass",
     "tests/test_cli.py::test_emit_takes_its_directory_as_a_str"),
    ("cli.py", "sys.exit(run())", "pass",
     "tests/test_cli.py::test_module_entry_point_runs_the_bundled_config"),
    ("cli.py", "    main()", "    pass",
     "tests/test_cli.py::test_module_entry_point_runs_the_bundled_config"),
    ("cli.py", 'if __name__ == "__main__":', "if False:",
     "tests/test_cli.py::test_module_entry_point_runs_the_bundled_config"),
    ("cli.py", 'stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S-%f")', "pass",
     "tests/test_cli.py::test_run_without_output_dir_writes_under_runs_utc_stamp"),
    ("cli.py", 'out_dir = Path("runs") / stamp', "pass",
     "tests/test_cli.py::test_run_without_output_dir_writes_under_runs_utc_stamp"),
    ("cli.py", "if args.output_dir:", "if True:",
     "tests/test_cli.py::test_run_without_output_dir_writes_under_runs_utc_stamp"),
    ("cli.py", 'print("fedseal: error: --config is required", file=sys.stderr)', "pass",
     "tests/test_cli.py::test_module_entry_point_without_config_exits_one"),
    ("experiment.py", "if cfg.parallel_clients > 1 and len(sampled) > 1:", "if False:",
     "tests/test_experiment.py::test_full_run_deterministic_including_parallel_clients[fedseal]"),
    ("experiment.py", "del w_bar", "pass",
     "tests/test_experiment.py::test_server_training_releases_w_bar_and_the_last_global_model"),
    ("experiment.py", "del local", "pass",
     "tests/test_experiment.py::test_uploads_are_freed_once_aggregated"),
    ("data.py", 'raise ValueError(\n                f"{path}: line {line_no}: non-integer label {cells[0]!r}"\n            ) from None', "pass",
     "tests/test_data.py::test_ingest_csv_rejects_bad_values_with_line[x,0.5,0.5-non-integer label]"),
    ("data.py", 'raise ValueError(f"{path}: {err}") from None', "pass",
     "tests/test_data.py::test_ingest_idx_names_a_bad_gz_file[truncated]"),
)

MUTANTS_JSON = json.loads((REPO_ROOT / "MUTANTS.json").read_text())


@lru_cache(maxsize=None)
def sweep_of(file):
    return ledger.sweep((ledger.SRC / file).read_bytes())


def test_sweep_of_a_fixture_yields_every_kind_at_its_site():
    mutants = ledger.sweep(FIXTURE)
    assert mutants == ledger.sweep(FIXTURE)
    assert {(line, kind, text) for line, kind, text, _ in mutants} == {
        (2, "statement", "total: int = 0"),
        (4, "statement", "total += i"),
        (6, "statement", "del i"),
        (8, "statement", "total -= 1"),
        (10, "statement", "print(total)"),
        (16, "statement", "f.read()"),
        (17, "statement", "f.close()"),
        (19, "statement", "x = 1"),
        (20, "statement", "x += 1"),
        (9, "True", "total > 1"), (9, "False", "total > 1"),
        (11, "True", "total"), (11, "False", "total"),
        (12, "body", "raise ValueError"),
        (14, "body", "raise OSError"),
        (16, "body", "f.read()\n    f.close()"),
        (19, "body", "x = 1\n    x += 1"),
        (3, "loop", "for i in range(3):\n    total += i\nelse:\n    del i"),
        (7, "loop", "while total:\n    total -= 1"),
    }
    # Left out: the docstring; the ``elif`` as an ``else`` body; each
    # one-statement body, which is the same mutant as its statement; and the
    # ``pass`` body, which is no mutant at all.
    assert len({mutated for *_, mutated in mutants} | {FIXTURE}) == len(mutants) + 1
    for *_, mutated in mutants:
        compile(mutated, "fixture", "exec")


@pytest.mark.parametrize("path", sorted((REPO_ROOT / "src" / "fedseal").glob("*.py")),
                         ids=lambda path: path.name)
def test_sweep_of_each_module_is_deterministic(path):
    source = path.read_bytes()
    assert ledger.sweep(source) == ledger.sweep(source)


@pytest.mark.parametrize("file, kind, text", ledger.KEPT, ids=[row[2][:40] for row in ledger.KEPT])
def test_each_kept_survivor_matches_one_site_and_gives_a_reason(file, kind, text):
    sites = Counter((k, t) for _, k, t, _ in sweep_of(file))
    assert sites[kind, text] == 1
    assert ledger.KEPT[file, kind, text]


@pytest.mark.parametrize("file, text, replacement, killer", ledger.OPERATORS + SWEPT,
                         ids=[row[3].split("::")[1] for row in ledger.OPERATORS + SWEPT])
def test_each_mutant_text_occurs_once_and_names_a_test(file, text, replacement, killer):
    assert (ledger.SRC / file).read_text().count(text) == 1
    assert replacement != text
    test_file, name = killer.split("::")
    assert f"def {name.split('[')[0]}(" in (REPO_ROOT / test_file).read_text()


@pytest.mark.parametrize("file, text, replacement, killer", SWEPT,
                         ids=[row[3].split("::")[1] for row in SWEPT])
def test_each_swept_row_is_one_generated_mutant_and_the_ledger_kills_it(
        file, text, replacement, killer):
    mutated = (ledger.SRC / file).read_bytes().replace(text.encode(), replacement.encode())
    sites = [(kind, site) for _, kind, site, m in sweep_of(file) if m == mutated]
    assert len(sites) == 1
    # Keyed without the line, so a line move does not wait on a new sweep.
    outcomes = [r["outcome"] for r in MUTANTS_JSON
                if (r["file"], r["kind"], r["text"]) == (file, *sites[0])]
    assert outcomes and set(outcomes) <= {"killed", "hang"}


def test_committed_ledger_has_no_survivor_outside_kept():
    survivors = [(r["file"], r["kind"], r["text"]) for r in MUTANTS_JSON
                 if r["outcome"] == "survived"]
    assert [s for s in survivors if s not in ledger.KEPT] == []
