"""Golden determinism: pinned artifacts for the bundled synthetic config.

A change that keeps the random draw order must reproduce these digests
exactly; a change that alters the draw order on purpose updates them and
says so.
"""

import hashlib
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fedseal import DataConfig, load_split, parse_config, stream, synthetic_blobs, write_csv
from fedseal.cli import emit_metrics
from fedseal.config import with_overrides

from conftest import run_all_rounds

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED_SYNTHETIC = REPO_ROOT / "configs" / "synthetic_small.ini"

# algorithm -> (MD5 of rounds.csv, MD5 of the final global parameter bytes)
GOLDEN = {
    "fedseal": ("fa740ce0109ff8630d6c1df265a9a8f2", "7305ed161f1a02ffd359a6efb3c551ff"),
    "server_sl": ("653634de386f30c3b2aa7f6de9778b84", "3c1ac8a87cdb474264f8c2e3e2d79840"),
    "fedavg_sl": ("29258d285b732fae759fa892e7fba04c", "cea16f58eac1210ddd0a10fe4f48faa7"),
    "fedavg_fixmatch": (
        "2b0ec9ad896b550b4e46ab20a244610b",
        "cdd7499884b46a300f200ab7ac118472",
    ),
    "fedseal_no_ensemble": ("5ed473c6c43cc5fb0e63b806f9353a72", "3bf24d9f05ce01d830a8b40ea8dadda2"),
}


# synthetic_small.ini as 8 x 8 images (fedseal), so that weak and strong
# augmentation both take the image path.
GOLDEN_IMAGES = ("429318e0972de32cacd8d05b92442265", "66620f204f6b659a944a0fca51f16bce")


# synthetic_small.ini with 2000-row shards and a 3000-row test set, for 6
# rounds: every whole-collection forward pass spans many 256-row blocks.
GOLDEN_LARGE = {
    "fedseal": ("1d8aba093650c83110c7191ab9dd1f88", "55b6ca80292c27983ac95b7cd00a3799"),
    "fedavg_fixmatch": (
        "684a21e4828921282e3b407ef52563c1",
        "9eb019ae13be503c8375a3b34bf695f4",
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
GOLDEN_PARTIAL = ("9dbf2d2de10d3b439f0de49e02e6de5f", "8b4383f017e73ea72026b5e458ac10b7")


def test_partial_participation_matches_golden_digests(tmp_path):
    cfg = replace(parse_config(BUNDLED_SYNTHETIC), clients_per_round=3)
    assert digests(cfg, tmp_path) == GOLDEN_PARTIAL


# load_split output, one MD5 per case over every collection's X and y bytes
# and every client shard's X and hidden-label bytes.
GOLDEN_SPLITS = {
    "synthetic_iid": "79b848eca4513930f63bb2bf5f207249",
    "synthetic_dirichlet": "8057b23dd085eb5e6f27e93c812f3761",
    "csv": "5c62306e0465502099fe412349646e98",
    "idx": "30a512494ed9628c321e5066cda41359",
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
    pixels, labels = np.rint(X * 255).astype(np.uint8), y.astype(np.uint8)
    (tmp_path / "images").write_bytes(struct.pack(">IIII", 0x803, 600, 8, 8) + pixels.tobytes())
    (tmp_path / "labels").write_bytes(struct.pack(">II", 0x801, 600) + labels.tobytes())
    return DataConfig(kind="idx", train_images=str(tmp_path / "images"),
                      train_labels=str(tmp_path / "labels"), image_height=8, image_width=8,
                      test_n=50, **sizes)


@pytest.mark.parametrize("case", sorted(GOLDEN_SPLITS))
def test_load_split_matches_golden_digests(case, tmp_path):
    split = load_split(split_config(case, tmp_path), n_clients=6, seed=5)
    assert split_digest(split) == GOLDEN_SPLITS[case]
