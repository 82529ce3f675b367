"""Every non-Python file of the package is declared package data in
pyproject.toml, so an installed fedsurv carries it: without its shipped
tail table, ``numerics.binomial_cdf_exact`` would build the table in every
process instead."""

from pathlib import Path

import pytest

import fedsurv

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

SRC = Path(fedsurv.__file__).resolve().parent
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def test_every_data_file_is_declared_package_data():
    config = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    patterns = config["tool"]["setuptools"]["package-data"]["fedsurv"]
    declared = {path for pattern in patterns for path in SRC.glob(pattern)}
    data = {
        path
        for path in SRC.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert data, "the package ships no data file; is SRC the package directory?"
    missing = sorted(str(path.relative_to(SRC)) for path in data - declared)
    assert not missing, f"add to [tool.setuptools.package-data] in pyproject.toml: {missing}"
