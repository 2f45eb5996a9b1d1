"""The bundled demos run to completion."""

import subprocess
import sys

import pytest

from conftest import REPO_ROOT, child_env

# 05 needs the Fashion-MNIST files, which are not bundled.
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
