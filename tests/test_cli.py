"""Config parsing/serialization and the experiment runner CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fedseal import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    parse_config,
    parse_config_text,
    serialize_config,
)
from fedseal.cli import emit_metrics, run
from fedseal.config import _derive_schema
from fedseal.experiment import ALGORITHMS, RoundRecord

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED_SYNTHETIC = REPO_ROOT / "configs" / "synthetic_small.ini"

FAST_CONFIG = """\
[experiment]
algorithm = fedseal
n_clients = 3
clients_per_round = 3
rounds = 2
seed = 4
hidden_dims = 10,6

[data]
kind = synthetic
n_classes = 3
n_features = 8
spread = 0.2
per_client = 18
server_train_n = 18
server_val_n = 12
test_n = 30

[server]
epochs = 1
batch_size = 9
learning_rate = 0.05
bootstrap_epochs = 5

[client]
epochs = 1
batch_size = 9
learning_rate = 0.05
"""


# ---------------------------------------------------------------------------
# parse_config
# ---------------------------------------------------------------------------


def test_minimal_config_fills_documented_defaults():
    cfg = parse_config_text("[experiment]\nalgorithm = fedseal\n[data]\nkind = synthetic\n")
    assert cfg.client.theta == 0.05
    assert cfg.server.learning_rate == 0.001
    assert cfg.client.learning_rate == 0.001
    assert cfg.server.lr_decay == 0.995
    assert cfg.client.lr_decay == 0.995
    assert cfg.server.momentum == 0.9
    assert cfg.client.momentum == 0.9
    assert cfg.fixmatch_threshold == 0.9
    assert cfg.n_clients == 10
    assert cfg.hidden_dims == (128, 64)


def test_readme_config_block_is_the_defaults():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config_text(block)
    assert cfg == ExperimentConfig()
    # [server] and [client] share the SGD schedule keys, not the epochs default.
    assert (cfg.server.epochs, cfg.client.epochs) == (5, 1)


def test_readme_algorithm_table_lists_every_recipe():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    names = re.findall(r"^\| `(\w+)` +\|", readme, flags=re.MULTILINE)
    assert len(names) == len(set(names))
    assert set(names) == set(ALGORITHMS)


def test_clients_per_round_above_population_is_config_error():
    text = "[experiment]\nalgorithm = fedseal\nn_clients = 4\nclients_per_round = 5\n"
    with pytest.raises(ConfigError, match="clients_per_round"):
        parse_config_text(text)


def test_round_trip_serialize_then_parse(tmp_path):
    cfg = parse_config_text(FAST_CONFIG)
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    assert parse_config(path) == cfg
    assert config_hash(parse_config(path)) == config_hash(cfg)


# A valid, non-default value for every config key; kind = idx lets every
# path key hold a name without reading a file.
EVERY_KEY = """\
[experiment]
algorithm = fedavg_fixmatch
n_clients = 7
clients_per_round = 3
rounds = 9
seed = 11
fixmatch_threshold = 0.75
parallel_clients = 2
hidden_dims = 12,8,4

[data]
kind = idx
partition = dirichlet
dirichlet_alpha = 0.25
per_client = 40
server_train_n = 30
server_val_n = 20
test_n = 60
n_classes = 6
n_features = 20
spread = 0.3
train_images = train-images.gz
train_labels = train-labels.gz
test_images = test-images.gz
test_labels = test-labels.gz
image_height = 4
image_width = 5
train_csv = train.csv
test_csv = test.csv

[server]
epochs = 2
batch_size = 16
learning_rate = 0.05
lr_decay = 0.9
momentum = 0.5
bootstrap_epochs = 7

[client]
epochs = 3
batch_size = 8
learning_rate = 0.02
lr_decay = 0.99
momentum = 0.0
theta = 0.1
lambda_max = 2.5
lambda_ramp_rounds = 4
"""


def test_round_trip_every_key_set_to_a_non_default_value():
    cfg = parse_config_text(EVERY_KEY)
    text = serialize_config(cfg)
    assert text == EVERY_KEY
    assert parse_config_text(text) == cfg
    key_lines = [line for line in text.splitlines() if " = " in line]
    assert len(key_lines) == 40
    default_lines = serialize_config(parse_config_text("[experiment]\nalgorithm = fedseal\n"))
    assert not set(key_lines) & set(default_lines.splitlines())


@pytest.mark.parametrize(
    "path, digest",
    [
        ("configs/fashion_mnist_iid.ini",
         "606a4677559ebb6d011c6a70123d1a43244865689a63fa8cb81ab95d50b87b48"),
        ("configs/fashion_mnist_noniid.ini",
         "85f1fc8921719bd510c855c6ec64373252eba46884c3b6a8f13eb7a718ee3249"),
        ("configs/synthetic_small.ini",
         "3fa34dbc094b1891c8f0430c70dc87a73db9f3cdfef73799c4d3e05e1e9ee4b5"),
        ("perfbench/workloads/narrow_tabular.ini",
         "eb9929d13b947705cbe92c6352704c6e04fde81b328ded08d9c3edd8ffd563ee"),
        ("perfbench/workloads/paper_iid.ini",
         "982a13351eff0bc1664929d74c375e38909cf66ddfb2e85cbbdf7a72bec5d6af"),
    ],
)
def test_bundled_config_hash_is_pinned(path, digest):
    # The run manifest's config_hash names a run; the canonical text behind
    # it must not drift when the parser changes.
    assert config_hash(parse_config(REPO_ROOT / path)) == digest


@pytest.mark.parametrize(
    "section, key",
    [
        ("experiment", "widgets"),
        # Former knobs: a config that still sets one must fail, not run a
        # different algorithm than it asks for.
        ("server", "threshold_denominator"),
        ("server", "size_weighted_aggregation"),
        ("client", "ensemble_every_round"),
        ("client", "use_ensemble"),
    ],
)
def test_unknown_key_names_key_and_line(section, key):
    text = f"[experiment]\nalgorithm = fedseal\n[{section}]\n{key} = 1\n"
    with pytest.raises(ConfigError, match=rf"line 4: unknown key '{key}' in \[{section}\]"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "section, key, value",
    [
        # A NaN alpha hung partitioning; 0 and -1 failed late or not at all.
        ("data", "dirichlet_alpha", "nan"),
        ("data", "dirichlet_alpha", "inf"),
        ("data", "dirichlet_alpha", "0"),
        ("data", "dirichlet_alpha", "-1"),
        # A NaN lambda_max silently dropped the positive set.
        ("client", "lambda_max", "nan"),
        ("data", "spread", "-0.1"),
        ("data", "spread", "nan"),
        ("server", "learning_rate", "nan"),
        ("server", "learning_rate", "1e999"),
        ("server", "learning_rate", "-1"),
        ("client", "learning_rate", "-1"),
        ("server", "momentum", "1"),
        ("client", "momentum", "-0.5"),
        ("server", "lr_decay", "-1"),
        ("client", "lr_decay", "-1"),
        ("data", "n_classes", "0"),
        ("data", "n_features", "0"),
        ("data", "test_n", "0"),
        # Half a test-file pair: a lone test_images failed opening '' at run
        # time, and a lone test_labels was silently ignored.
        ("data", "test_images", "t10k-images-idx3-ubyte"),
        ("data", "test_labels", "t10k-labels-idx1-ubyte"),
        # Synthetic split sizes the 10 classes cannot divide failed at run time.
        ("data", "per_client", "101"),
        ("data", "server_train_n", "41"),
    ],
)
def test_bad_value_names_key_and_line(section, key, value):
    text = f"[experiment]\nalgorithm = fedseal\n[{section}]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"line 4: (key '{key}'|{key} must)"):
        parse_config_text(text)


def test_test_n_zero_takes_a_whole_test_file():
    text = "[experiment]\nalgorithm = fedseal\n[data]\nkind = csv\ntrain_csv = a.csv\n"
    with pytest.raises(ConfigError, match="line 6: test_n must be >= 1"):
        parse_config_text(text + "test_n = 0\n")
    assert parse_config_text(text + "test_csv = b.csv\ntest_n = 0\n").data.test_n == 0


def test_split_sizes_must_divide_only_where_the_class_count_is_known():
    text = "[experiment]\nalgorithm = fedseal\n[data]\n"
    # A Dirichlet partition deals per_client unevenly anyway.
    assert parse_config_text(text + "partition = dirichlet\nper_client = 101\n")
    # csv data learns its class count on load, where the split checks it.
    assert parse_config_text(text + "kind = csv\ntrain_csv = a.csv\nserver_train_n = 41\n")
    with pytest.raises(ConfigError, match="line 5: per_client must be divisible by n_classes = 4"):
        parse_config_text(text + "n_classes = 4\nper_client = 102\n")


def test_a_field_without_a_caster_fails_schema_derivation():
    @dataclasses.dataclass
    class Odd:
        weights: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="Odd.weights"):
        _derive_schema(Odd)


def test_type_mismatch_names_key_and_line():
    text = "[experiment]\nalgorithm = fedseal\nrounds = soon\n"
    with pytest.raises(ConfigError, match=r"line 3.*rounds"):
        parse_config_text(text)


def test_constraint_violation_names_line():
    text = "[experiment]\nalgorithm = fedseal\nrounds = 0\n"
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "server_lines, line_no",
    [
        # "epochs" is a substring of "bootstrap_epochs": the error must still
        # cite the bootstrap_epochs line, not the epochs line above it.
        ("epochs = 3\nbootstrap_epochs = -1\n", 5),
        ("bootstrap_epochs = 10\nepochs = -1\n", 5),
    ],
)
def test_constraint_violation_blames_exact_key(server_lines, line_no):
    text = "[experiment]\nalgorithm = fedseal\n[server]\n" + server_lines
    with pytest.raises(ConfigError, match=rf"line {line_no}: \w*epochs must be >= 0"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "data_lines, message",
    [
        # 16 features cannot be reshaped to 4 x 5 images.
        ("n_features = 16\nimage_height = 4\nimage_width = 5\n",
         r"line 5: n_features = 16 must equal image_height x image_width = 4 x 5"),
        # Half an image shape used to fall back to vector augmentation.
        ("n_features = 16\nimage_height = 4\nimage_width = 0\n",
         r"line 7: image_width must be >= 1"),
        ("image_height = -4\nimage_width = 4\n", r"line 5: image_height must be >= 1"),
    ],
)
def test_bad_image_shape_is_config_error_at_its_line(data_lines, message):
    text = "[experiment]\nalgorithm = fedseal\n[data]\nkind = synthetic\n" + data_lines
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_missing_algorithm_is_error():
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config_text("[experiment]\nrounds = 5\n")


def test_unknown_section_and_stray_key():
    with pytest.raises(ConfigError, match=r"line 1.*unknown section"):
        parse_config_text("[general]\nx = 1\n")
    with pytest.raises(ConfigError, match=r"line 1.*outside"):
        parse_config_text("x = 1\n")


def test_duplicate_key_is_error():
    text = "[experiment]\nalgorithm = fedseal\nrounds = 5\nrounds = 6\n"
    with pytest.raises(ConfigError, match=r"line 4.*duplicate"):
        parse_config_text(text)


def test_bad_boolean_value():
    # No key is a bool: the former use_ensemble knob fails at its line, and a
    # bool field has no caster, so an algorithm switch is a row of RECIPES.
    text = (
        "[experiment]\nalgorithm = fedseal\n[client]\nuse_ensemble = maybe\n"
    )
    with pytest.raises(ConfigError, match=r"line 4.*use_ensemble"):
        parse_config_text(text)

    @dataclasses.dataclass
    class Switch:
        enabled: bool = True

    with pytest.raises(TypeError, match="Switch.enabled"):
        _derive_schema(Switch)


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "nope.ini")


# ---------------------------------------------------------------------------
# emit_metrics
# ---------------------------------------------------------------------------


def _record(round_index=1, pos_rate=0.75, neg_rate=None):
    return RoundRecord(
        round=round_index,
        test_accuracy=0.8,
        taus=(0.5, 0.25, 1.0),
        pos_sizes=(3, 4),
        neg_sizes=(0, 0),
        pos_correct_rate=pos_rate,
        neg_correct_rate=neg_rate,
        lambda_weight=0.1,
    )


def test_emit_single_record_two_line_csv(tmp_path):
    paths = emit_metrics([_record()], tmp_path)
    lines = paths["rounds_csv"].read_text().splitlines()
    assert len(lines) == 2


def test_emit_header_schema_and_column_count(tmp_path):
    emit_metrics([_record()], tmp_path)
    lines = (tmp_path / "rounds.csv").read_text().splitlines()
    header = lines[0].split(",")
    n_classes = 3
    assert header == [
        "round", "test_acc", "lambda", "tau_0", "tau_1", "tau_2",
        "pos_size_mean", "neg_size_mean", "pos_correct_rate", "neg_correct_rate",
    ]
    assert len(header) == 7 + n_classes
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_emit_absent_rate_is_empty_cell_not_zero(tmp_path):
    emit_metrics([_record(neg_rate=None)], tmp_path)
    row = (tmp_path / "rounds.csv").read_text().splitlines()[1].split(",")
    assert row[-1] == ""  # neg_correct_rate
    assert row[-2] != ""  # pos_correct_rate present


def test_emit_requires_records(tmp_path):
    with pytest.raises(ValueError, match="no round records"):
        emit_metrics([], tmp_path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_single_round_on_bundled_synthetic_config(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["--config", str(BUNDLED_SYNTHETIC), "--rounds", "1",
                "--output-dir", str(out)])
    assert code == 0
    lines = (out / "rounds.csv").read_text().splitlines()
    assert len(lines) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "final_accuracy", "best_accuracy", "best_round", "config_hash", "seed"
    }
    assert json.loads(capsys.readouterr().out) == summary
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["version"]
    assert set(manifest) == {"config_text", "artifacts", "started_at", "version"}


def test_run_missing_config_flag_returns_one(capsys):
    assert run([]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "--config" in err


def test_run_config_error_returns_one(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nalgorithm = warp\n")
    assert run(["--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_runtime_error_returns_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(
        "[experiment]\nalgorithm = fedseal\n"
        "[data]\nkind = csv\ntrain_csv = /nonexistent/pool.csv\n"
    )
    assert run(["--config", str(cfg), "--output-dir", str(tmp_path / "o")]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_run_same_flags_byte_identical_csv(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(FAST_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["--config", str(cfg_path), "--output-dir", str(out_a)]) == 0
    assert run(["--config", str(cfg_path), "--output-dir", str(out_b)]) == 0
    assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_run_overrides_change_the_run(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(FAST_CONFIG)
    out = tmp_path / "o"
    assert run(["--config", str(cfg_path), "--output-dir", str(out),
                "--algorithm", "server_sl", "--seed", "9", "--rounds", "3"]) == 0
    lines = (out / "rounds.csv").read_text().splitlines()
    assert len(lines) == 4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 9


def test_manifest_config_snapshot_reproduces_the_run(tmp_path):
    # A run directory is self-describing: re-running from the manifest's
    # config snapshot reproduces rounds.csv byte for byte.
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text(FAST_CONFIG)
    out_a = tmp_path / "a"
    assert run(["--config", str(cfg_path), "--output-dir", str(out_a)]) == 0
    manifest = json.loads((out_a / "manifest.json").read_text())

    replay_cfg = tmp_path / "replay.ini"
    replay_cfg.write_text(manifest["config_text"])
    out_b = tmp_path / "b"
    assert run(["--config", str(replay_cfg), "--output-dir", str(out_b)]) == 0
    assert (out_a / "rounds.csv").read_bytes() == (out_b / "rounds.csv").read_bytes()


# Imports the package and its CLI, then runs two rounds of the bundled config
# as 8 x 8 images, so the image augmentation path, rotation included, runs
# (round 1's clients admit too few rows to draw a rotation).
FOOTPRINT_SCRIPT = """\
import sys
from dataclasses import replace

import fedseal
import fedseal.cli
from fedseal import data
from fedseal.config import with_overrides

rotated = []
rotate = data._rotate


def counting_rotate(imgs, angles):
    rotated.append(len(angles))
    return rotate(imgs, angles)


data._rotate = counting_rotate
cfg = with_overrides(fedseal.parse_config(sys.argv[1]), rounds=2)
cfg = replace(cfg, data=replace(cfg.data, n_features=64, image_height=8, image_width=8))
fedseal.run_experiment(cfg)
assert sum(rotated) > 0, "no image was rotated"
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_a_run_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is a test reference only.
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_SCRIPT, str(BUNDLED_SYNTHETIC)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
