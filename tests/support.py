"""Helpers shared by the test modules: a child interpreter's environment,
and a stand-in for the scipy functions behind ``fedsurv.numerics``."""

import os
import types
from pathlib import Path

import numpy as np
from scipy import special

import fedsurv

# every scipy.special ufunc that fedsurv.numerics calls
NUMERICS_UFUNCS = ("betainc", "gammainc", "gammaincc", "gammainccinv", "ndtr", "ndtri")


def package_env():
    """The environment with this checkout's package first on PYTHONPATH, so a
    child interpreter imports the fedsurv under test without an install."""
    src = str(Path(fedsurv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def nudged_special(direction: float):
    """A stand-in for ``numerics.special`` whose ufuncs return scipy's result
    moved one ulp toward ``direction`` (+inf or -inf): what another scipy
    build could return. It holds only ``NUMERICS_UFUNCS``, so a call to any
    other ufunc fails instead of going through unperturbed."""

    def nudge(ufunc):
        return lambda *args: np.nextafter(ufunc(*args), direction)

    return types.SimpleNamespace(**{name: nudge(getattr(special, name)) for name in NUMERICS_UFUNCS})
