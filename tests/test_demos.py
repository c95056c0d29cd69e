"""The demos run as scripts; each must finish with exit status 0.

Demos 04 (training) and 06 (saliency) are left out: each takes about 14 s,
against under 1 s for each demo run here, and the training and saliency
paths they show are covered by the unit and acceptance tests.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_kernels_and_gradients.py",
    "02_architectures.py",
    "03_phantom_dataset.py",
    "05_evaluation_and_ensemble.py",
])
def test_demo_runs(demo, tmp_path):
    """Each demo exits 0 and leaves nothing in the temporary directory."""
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert list(tmp_path.iterdir()) == []
    if demo.startswith("01_"):
        # demo 01 calls conv3d_param_grads directly and asserts its finite
        # difference check
        assert "backward pass agrees with central differences" in done.stdout
