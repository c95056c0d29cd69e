"""Checks on the package metadata."""

import pathlib
import re

import voxcnn

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    """pyproject.toml's version and voxcnn.__version__ are the same string
    (read by regex: tomllib is not in Python 3.10)."""
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(),
                      re.MULTILINE)
    assert match is not None
    assert match.group(1) == voxcnn.__version__
