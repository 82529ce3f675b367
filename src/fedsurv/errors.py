"""Exception taxonomy shared across the package, and its one integer rule.

Three failure classes cover every contract in the library: a value outside
an operation's mathematical domain, an inconsistent or incomplete
configuration, and a diagnostic requested at a boundary point where the
underlying inequalities do not apply. Every count, length, index and
extent a caller supplies is an integer by ``checked_int``.
"""

import math
import numbers
import operator

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


class FedsurvError(Exception):
    """Base class for all package-specific errors."""


class DomainError(FedsurvError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(FedsurvError, ValueError):
    """Inputs are structurally inconsistent (lengths, missing fields, schema)."""


class BoundsNotApplicableError(DomainError):
    """Tail bounds requested at a boundary count (c == 0 or c == n)."""


def checked_int(value, name: str, minimum=INT64_MIN, maximum=INT64_MAX, error=DomainError) -> int:
    """``value`` as a Python int in [minimum, maximum] (``maximum=None``: no
    upper bound), else ``error`` naming ``name``. A Python or numpy integer
    or an integral float passes; bool, NaN, ±inf and fractions do not. The
    bounds are compared on the int, never through a float."""
    whole = None
    if isinstance(value, numbers.Integral):
        if not isinstance(value, bool):
            whole = operator.index(value)
    elif isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer():
        whole = int(value)
    if whole is None:
        raise error(f"{name} must be an integer, got {value!r}")
    if whole < minimum:
        raise error(f"{name} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and whole > maximum:
        raise error(f"{name} must be an integer <= {maximum}, got {value!r}")
    return whole


def check_int_fields(obj, error=DomainError, **minimums) -> None:
    """Store each named field of the frozen dataclass ``obj`` as the int
    ``checked_int`` gives for it, with the field's minimum."""
    for name, minimum in minimums.items():
        object.__setattr__(obj, name, checked_int(getattr(obj, name), name, minimum, error=error))
