"""The bundled demos run to completion."""

import subprocess
import sys

import pytest

from conftest import REPO_ROOT, child_env

# 05 needs the Fashion-MNIST files, which are not bundled; without them it only
# says which are missing.
DEMOS = sorted(path.name for path in (REPO_ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_four_offline_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / demo)],
        cwd=REPO_ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_fashion_mnist_demo_without_the_files_names_each_missing_one(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / "05_fashion_mnist.py")],
        cwd=tmp_path, env=child_env(FEDSEAL_FASHION_MNIST_DIR=str(tmp_path)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    missing = [line.strip() for line in proc.stdout.splitlines() if "missing" in line]
    assert missing == [f"missing {name}[.gz]" for name in (
        "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")]
    assert not (tmp_path / "runs").exists()
