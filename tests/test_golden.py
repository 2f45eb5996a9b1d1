"""Golden determinism: pinned artifacts for the bundled synthetic config,
and the README's final-parameter digests of the perfbench workloads.

A change that keeps the random draw order and the arithmetic must reproduce
these digests exactly; a change that alters either on purpose updates them
and says so.  The runs train in float32, the dtype of ``init_params``, on
feature rows stored as float32, or as uint8 pixels for images.
"""

import hashlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from fedseal import DataConfig, load_split, parse_config, stream, synthetic_blobs
from fedseal.cli import _numeric_environment, emit_metrics
from fedseal.config import with_overrides

from conftest import BUNDLED_SYNTHETIC, REPO_ROOT, child_env, run_all_rounds, write_csv, write_idx

# algorithm -> (MD5 of rounds.csv, MD5 of the final global parameter bytes)
GOLDEN = {
    "fedseal": ("3739d1a843fa761c05aa61ecd329ef46", "2909b8caaa083ffbfe1f355127900c35"),
    "server_sl": ("9e98229ebd55d8e6ddab2dc7e94f7f5f", "7f2b4400ac5764b97e8ac47fe3de1523"),
    "fedavg_sl": ("e7fc7116b575f5dff7679a17d1b0b543", "8fa46eedf3040e8690206b12384e5372"),
    "fedavg_fixmatch": (
        "0fcbb8ab06892c945ab4e6b8af47bf7c",
        "e95467d2264ac34d7ea747d36fcbde7c",
    ),
    "fedseal_no_ensemble": ("9db940466f791648a5917cf797766149", "4224d75d5c8e827d2d02f24bf566801a"),
}


# synthetic_small.ini as 8 x 8 images (fedseal), so that weak and strong
# augmentation both take the image path.
GOLDEN_IMAGES = ("13cfdb0bc1efa1938f0267edd69cd5ac", "581e4985749e4d375935314afe87d481")


# synthetic_small.ini with 2000-row shards and a 3000-row test set, for 6
# rounds: every whole-collection forward pass spans many 256-row blocks.
GOLDEN_LARGE = {
    "fedseal": ("76635d54b134ef0929cc3e9cc96201e6", "eb7390066cc91ec1b331f210190bba38"),
    "fedavg_fixmatch": (
        "2bfe72d2897098eda62a1540ca250925",
        "6d1fb96cdabfeeaf82b99067da799ce7",
    ),
}


def digests(cfg, tmp_path) -> tuple[str, str]:
    records, state = run_all_rounds(cfg)
    csv_path = emit_metrics(records, tmp_path)["rounds_csv"]
    csv_md5 = hashlib.md5(csv_path.read_bytes()).hexdigest()
    return csv_md5, hashlib.md5(state.global_params.values.tobytes()).hexdigest()


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_bundled_synthetic_config_matches_golden_digests(algorithm, tmp_path):
    cfg = with_overrides(parse_config(BUNDLED_SYNTHETIC), algorithm=algorithm)
    assert digests(cfg, tmp_path) == GOLDEN[algorithm]


def test_bundled_synthetic_config_as_images_matches_golden_digests(tmp_path):
    cfg = parse_config(BUNDLED_SYNTHETIC)
    cfg = replace(cfg, data=replace(cfg.data, n_features=64, image_height=8, image_width=8))
    assert digests(cfg, tmp_path) == GOLDEN_IMAGES


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_LARGE))
def test_collections_larger_than_one_forward_block_match_golden_digests(algorithm, tmp_path):
    cfg = with_overrides(parse_config(BUNDLED_SYNTHETIC), algorithm=algorithm, rounds=6)
    cfg = replace(cfg, data=replace(cfg.data, per_client=2000, test_n=3000))
    assert digests(cfg, tmp_path) == GOLDEN_LARGE[algorithm]


# synthetic_small.ini (fedseal) with 3 of its 5 clients sampled each round:
# clients that sit a round out still fold every broadcast model into their
# self-ensembles, and only this golden runs that path.
GOLDEN_PARTIAL = ("86bbd7544a0511af874e08a3fed7cbf3", "87119dc84387d8d96da219668869eb06")


def test_partial_participation_matches_golden_digests(tmp_path):
    cfg = replace(parse_config(BUNDLED_SYNTHETIC), clients_per_round=3)
    assert digests(cfg, tmp_path) == GOLDEN_PARTIAL


# load_split output, one MD5 per case over every collection's X and y bytes
# and every client shard's X and hidden-label bytes; X is float32, or uint8
# pixels for idx.
GOLDEN_SPLITS = {
    "synthetic_iid": "5ee58d1acee1f9c3a48dce5bbc52c02f",
    "synthetic_dirichlet": "00fb0218414c7b8e9796925f3b9cb205",
    "csv": "d03a821681ecbc5fc9d717de38c4905b",
    "idx": "a03eafb029c6045b124dd9dc6775bba1",
}


def split_digest(split) -> str:
    md5 = hashlib.md5()
    for coll in (split.server_train, split.server_val, split.test):
        md5.update(coll.X.tobytes())
        md5.update(coll.y.tobytes())
    for k, shard in enumerate(split.client_train):
        md5.update(shard.tobytes())
        md5.update(split.hidden_labels(k).tobytes())
    return md5.hexdigest()


def split_config(case: str, tmp_path) -> DataConfig:
    sizes = dict(per_client=60, server_train_n=40, server_val_n=20)
    if case.startswith("synthetic"):
        mode = case.removeprefix("synthetic_")
        return DataConfig(kind="synthetic", n_classes=4, n_features=12, partition=mode,
                          dirichlet_alpha=0.3, test_n=300, **sizes)
    # One fixed pool for both file kinds: 500 training rows, 100 test rows.
    X, y = synthetic_blobs(600, 4, 64, stream(21, "golden-split-pool"))
    if case == "csv":
        write_csv(X[:500], y[:500], tmp_path / "train.csv")
        write_csv(X[500:], y[500:], tmp_path / "test.csv")
        return DataConfig(kind="csv", train_csv=str(tmp_path / "train.csv"),
                          test_csv=str(tmp_path / "test.csv"), test_n=30, **sizes)
    write_idx(tmp_path / "images", np.rint(X * 255).reshape(600, 8, 8))
    write_idx(tmp_path / "labels", y)
    return DataConfig(kind="idx", train_images=str(tmp_path / "images"),
                      train_labels=str(tmp_path / "labels"), image_height=8, image_width=8,
                      test_n=50, **sizes)


@pytest.mark.parametrize("case", sorted(GOLDEN_SPLITS))
def test_load_split_matches_golden_digests(case, tmp_path):
    split = load_split(split_config(case, tmp_path), n_clients=6, seed=5)
    assert split_digest(split) == GOLDEN_SPLITS[case]


# synthetic_small.ini (fedseal) on the 8 x 8 IDX pool that split_config("idx")
# writes: the run golden of pixels read from a file.
GOLDEN_IDX = ("efea6377498f5f2b8b2e80b1243877dd", "115238e1c65457b1207edd8f7cad3aa7")


def test_idx_run_matches_golden_digests(tmp_path):
    cfg = parse_config(BUNDLED_SYNTHETIC)
    cfg = replace(cfg, data=split_config("idx", tmp_path))
    assert digests(cfg, tmp_path) == GOLDEN_IDX


# The README's paper-shaped digests: MD5 of the final global parameters of
# each perfbench workload file, seed 1, 3 rounds, at one BLAS thread.
# paper_iid is the only test run that trains the 784-wide network through
# nn.train.
GOLDEN_PAPER_SHAPED = {
    "paper_iid": "e46d69728759ddd7193c6265ecbddfbc",
    "narrow_tabular": "8b4392fd85d50731c5c337f394306ee7",
}

PAPER_SHAPED_SCRIPT = """\
import hashlib
import sys

from fedseal import parse_config, run_round, start
from fedseal.config import with_overrides

for path in sys.argv[1:]:
    cfg = with_overrides(parse_config(path), seed=1, rounds=3)
    state = start(cfg)
    for t in range(1, cfg.rounds + 1):
        state, _ = run_round(state, t)
    print(hashlib.md5(state.global_params.values.tobytes()).hexdigest())
"""


def _readme_blas() -> str | None:
    """Why numpy's BLAS is not the README's OpenBLAS 0.3.31 build, or None if it is."""
    env = _numeric_environment()
    name, version = env["blas_name"] or "", env["blas_version"] or ""
    if "openblas" not in name or not version.startswith("0.3.31"):
        return (f"numpy {env['numpy_version']}'s BLAS is {name or 'unreported'} {version}, "
                "not the OpenBLAS 0.3.31 the README names")
    return None


def test_paper_shaped_workloads_match_the_readme_digests():
    reason = _readme_blas()
    if reason:
        pytest.skip(reason)
    paths = [str(REPO_ROOT / "perfbench" / "workloads" / f"{name}.ini")
             for name in GOLDEN_PAPER_SHAPED]
    # BLAS reads its thread count when numpy loads, hence a fresh interpreter.
    env = child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PAPER_SHAPED_SCRIPT, *paths], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == list(GOLDEN_PAPER_SHAPED.values())
