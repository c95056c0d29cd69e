"""The demos run as scripts; each must finish with exit status 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_kernels_and_gradients_demo():
    """Demo 01 calls conv3d_backward directly and asserts its finite
    difference check."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_kernels_and_gradients.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "backward pass agrees with central differences" in done.stdout
