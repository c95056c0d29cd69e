"""Checks on the package metadata and on the README's documented usage."""

import pathlib
import re

import voxcnn
from voxcnn.volumes import PhantomParams, config_from_fields, parse_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_version_matches_pyproject():
    """pyproject.toml's version and voxcnn.__version__ are the same string
    (read by regex: tomllib is not in Python 3.10)."""
    match = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(),
                      re.MULTILINE)
    assert match is not None
    assert match.group(1) == voxcnn.__version__


def test_readme_phantom_params_parse():
    """The quick start's phantom-params file is one the config reader takes,
    and the next command reads that file."""
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^printf '([^']*)' > (\S+)$", readme, re.MULTILINE)
    assert match is not None
    text, path = match.groups()
    params = config_from_fields(PhantomParams, parse_json(text, path),
                                "phantom params")
    assert params.samples_per_class == 50
    assert f"voxcnn generate --params {path} " in readme
