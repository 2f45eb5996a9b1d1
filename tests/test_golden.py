"""Golden determinism: pinned artifacts for the bundled synthetic config.

A change that keeps the random draw order and the arithmetic must reproduce
these digests exactly; a change that alters either on purpose updates them
and says so.  The runs train in float32, the dtype of ``init_params``.
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
    "fedseal": ("1f6d328932b2cca40723c7bb877a07b2", "364a2857d28ee18b28d8b7c7219c805a"),
    "server_sl": ("45cc9c4f91901e51c706ff488eb26ff4", "fc6926c7992c239a2f567f7e2b144cc9"),
    "fedavg_sl": ("aa488216a62077ea8b8d97b8cc3d0d37", "71a0dac14bdd48e1eb482ee8260c0281"),
    "fedavg_fixmatch": (
        "719f1c7e607fde53134b7f9171e64872",
        "dcca22e12b5fb93bfe5241ca2629cfe7",
    ),
    "fedseal_no_ensemble": ("022ed57a152d3bdecb590658b4d29e03", "71cbea6354e9a6ace0de4d87d0a2556b"),
}


# synthetic_small.ini as 8 x 8 images (fedseal), so that weak and strong
# augmentation both take the image path.
GOLDEN_IMAGES = ("31567aebb2bf8132bbd75ef8c4b01cdd", "5c359cef849c3746a7ed3361597a1791")


# synthetic_small.ini with 2000-row shards and a 3000-row test set, for 6
# rounds: every whole-collection forward pass spans many 256-row blocks.
GOLDEN_LARGE = {
    "fedseal": ("91e56169370ddd6ede91ad315e9dd352", "e2f4a3cc02864bc71b88976390247de6"),
    "fedavg_fixmatch": (
        "27cbc46ca6d73cf1301de2303b541d5b",
        "29e489293acc97df0b557ff4a40b8cc7",
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
GOLDEN_PARTIAL = ("6525494dfdc9fb5a8ad47e710170e912", "578f2a3b7bb5d7afada7da0471d96761")


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
