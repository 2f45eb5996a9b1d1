"""Golden determinism: pinned artifacts for the bundled synthetic config.

A change that keeps the random draw order must reproduce these digests
exactly; a change that alters the draw order on purpose updates them and
says so.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from fedseal import parse_config
from fedseal.cli import emit_metrics
from fedseal.config import with_overrides

from conftest import run_all_rounds

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED_SYNTHETIC = REPO_ROOT / "configs" / "synthetic_small.ini"

# algorithm -> (MD5 of rounds.csv, MD5 of the final global parameter bytes)
GOLDEN = {
    "fedseal": ("fa740ce0109ff8630d6c1df265a9a8f2", "7305ed161f1a02ffd359a6efb3c551ff"),
    "server_sl": ("ed08a7e4ba6032a8308202d7ba776977", "3c1ac8a87cdb474264f8c2e3e2d79840"),
    "fedavg_sl": ("a7cf2d42c160eb4828a112ece5657e15", "cea16f58eac1210ddd0a10fe4f48faa7"),
    "fedavg_fixmatch": (
        "2b0ec9ad896b550b4e46ab20a244610b",
        "cdd7499884b46a300f200ab7ac118472",
    ),
}


# synthetic_small.ini as 8 x 8 images (fedseal), so that weak and strong
# augmentation both take the image path.
GOLDEN_IMAGES = ("429318e0972de32cacd8d05b92442265", "66620f204f6b659a944a0fca51f16bce")


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
