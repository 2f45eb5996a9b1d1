"""Golden determinism: pinned artifacts for the bundled synthetic config.

A change that keeps the random draw order must reproduce these digests
exactly; a change that alters the draw order on purpose updates them and
says so.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from fedseal import parse_config, run_experiment_detailed
from fedseal.cli import emit_metrics
from fedseal.config import with_overrides

REPO_ROOT = Path(__file__).resolve().parents[1]
BUNDLED_SYNTHETIC = REPO_ROOT / "configs" / "synthetic_small.ini"

# algorithm -> (MD5 of rounds.csv, MD5 of the final global parameter bytes)
GOLDEN = {
    "fedseal": ("e3418cc46a7b314c7c5108c5b37f5fd1", "7305ed161f1a02ffd359a6efb3c551ff"),
    "server_sl": ("28092448b1e303f91543a25bd0b69810", "3c1ac8a87cdb474264f8c2e3e2d79840"),
    "fedavg_sl": ("94bf7c73fc5a37c3a4083de349a3bf70", "cea16f58eac1210ddd0a10fe4f48faa7"),
    "fedavg_fixmatch": (
        "4187eef152d90a9fd0e11c8761846228",
        "cdd7499884b46a300f200ab7ac118472",
    ),
}


# synthetic_small.ini as 8 x 8 images (fedseal), so that weak and strong
# augmentation both take the image path.
GOLDEN_IMAGES = ("4650b1c9354eb0cb4369acd927df8c7d", "66620f204f6b659a944a0fca51f16bce")


def digests(cfg, tmp_path) -> tuple[str, str]:
    records, state = run_experiment_detailed(cfg)
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
