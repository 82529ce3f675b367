"""Helpers shared by the test modules that start a child interpreter."""

import os
from pathlib import Path

import fedsurv


def package_env():
    """The environment with this checkout's package first on PYTHONPATH, so a
    child interpreter imports the fedsurv under test without an install."""
    src = str(Path(fedsurv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
