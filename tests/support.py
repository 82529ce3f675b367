"""Helpers shared by the test modules: a child interpreter's environment,
a stand-in for the scipy functions behind ``fedsurv.numerics``, and each
command's config keys, read from its config dataclass."""

import dataclasses
import os
import types
import typing
from pathlib import Path

import numpy as np

import fedsurv
from fedsurv import cli, numerics
from fedsurv.experiments import PowerCurveConfig

# every scipy.special ufunc that fedsurv.numerics calls, and the module of
# them that it bound at import
NUMERICS_UFUNCS = numerics._UFUNCS
SPECIAL = numerics.special


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

    return types.SimpleNamespace(**{name: nudge(getattr(SPECIAL, name)) for name in NUMERICS_UFUNCS})


# the config dataclass each command reads
COMMAND_CONFIGS = {
    "test": cli.SurgeTestConfig,
    "combine": cli.CombineConfig,
    "power-curve": PowerCurveConfig,
    "semisynth": cli.SemisynthRunConfig,
    "federation": cli.FederationRunConfig,
    "evaluate": cli.EvaluateConfig,
}


def config_schema(cls) -> dict:
    """Every key of the config dataclass ``cls`` as ``cli.take_fields``
    reads it, mapped to its field's type and default: nested config
    dataclasses flattened, ``Optional[X]`` as X, and a required field's
    default ``dataclasses.MISSING``."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        if type(None) in typing.get_args(kind):  # Optional[X] is Union[X, None]
            kind = typing.get_args(kind)[0]
        if dataclasses.is_dataclass(kind):
            schema.update(config_schema(kind))
        else:
            schema[field.name] = (kind, field.default)
    return schema


def takes_seed(command: str) -> bool:
    """Whether ``command`` has ``--seed``, and so reads a "seed" key."""
    return "seed" in vars(cli._build_parser().parse_args([command]))


def command_keys(command: str) -> list[str]:
    """Every config key that ``command`` reads."""
    seed = ["seed"] if takes_seed(command) else []
    return sorted(config_schema(COMMAND_CONFIGS[command])) + seed
