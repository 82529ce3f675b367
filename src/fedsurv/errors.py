"""Exception taxonomy shared across the package, and its input rules.

Three failure classes cover every contract in the library: a value outside
an operation's mathematical domain, an inconsistent or incomplete
configuration, and a diagnostic requested at a boundary point where the
underlying inequalities do not apply. Every count, length, index and
extent a caller supplies is an integer by ``checked_int``, and every array
of them (counts, totals, alarm indices) by ``checked_ints``; every real
number is a finite float inside its field's bounds by ``checked_float``
(only a Gamma function's x may also be +inf, by ``finite=False``), and
every array of them (p-values, thresholds, rates) by ``checked_floats``;
``checked_shares`` adds a share vector's sum to one. Both array rules
admit only integer and float dtypes, and no bool entry.
"""

import math
import numbers
import operator

import numpy as np

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


def _within(x, low, high, strict: bool, finite: bool = True):
    """Whether x, a float or an array, is in [low, high] (strict: in (low,
    high)) and, if ``finite``, finite, elementwise; NaN never is."""
    below = operator.lt if strict else operator.le
    inside = below(low, x) & below(x, high)
    return np.isfinite(x) & inside if finite else inside


def checked_float(
    value, name, low=-math.inf, high=math.inf, strict=False, error=DomainError, finite=True
):
    """``value`` as a finite float in [low, high] (``strict``: in (low, high)),
    else ``error`` naming ``name``; with ``finite=False`` an infinite bound
    is admitted as a value. Any Python or numpy real passes but bool; an
    integer past a double's range is out of range, not an OverflowError."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf if value > 0 else -math.inf
    if not _within(x, low, high, strict, finite):
        num = [repr(float(b)).removesuffix(".0") for b in (low, high)]
        if low > -math.inf and high < math.inf:
            rule = f"must lie in {'(' if strict else '['}{num[0]}, {num[1]}{')' if strict else ']'}"
        elif low > -math.inf:
            op = f"{'>' if strict else '>='} {num[0]}"
            rule = f"must be finite and {op}" if finite else f"must be {op} and not NaN"
        else:  # no field has only an upper bound
            rule = "must be finite"
        # with an empty ``name`` the caller's context names the value
        raise error(f"{name} {rule}, got {value!r}".lstrip())
    return x


def _holds_bool(values) -> bool:
    """Whether ``values`` is a bool or an array of them, or a list or tuple,
    nested or not, that holds one."""
    if isinstance(values, (list, tuple)):
        return any(map(_holds_bool, values))
    return isinstance(values, bool) or getattr(values, "dtype", None) == bool


def _array(values, name: str, what: str, ndim, error) -> np.ndarray:
    """``values`` as an array of an integer or float dtype and, unless
    ``ndim`` is None, of ``ndim`` axes, else ``error`` naming ``name`` and
    ``what`` it must hold: the gate of both array rules."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise error(f"{name} must be {what}: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise error(f"{name} must be {what}, got dtype {arr.dtype}")
    if ndim is not None and arr.ndim != ndim:
        raise error(f"{name} must be {ndim}-d, got shape {arr.shape}")
    return arr


def _each(rule, values, shape, name: str, error, *bounds, **options) -> list:
    """The scalar ``rule`` on each entry of ``values`` in order; the first
    entry it rejects raises its ``error`` with the entry's index."""
    out = []
    for i, x in enumerate(np.asarray(values, dtype=object).flat):
        try:
            out.append(rule(x, name, *bounds, error=error, **options))
        except error as exc:
            at = tuple(map(int, np.unravel_index(i, shape)))
            where = f" at index {at[0] if len(at) == 1 else at}" if at else ""
            raise error(f"{exc}{where}") from None
    return out


def checked_ints(values, name, minimum=INT64_MIN, maximum=INT64_MAX, error=DomainError, ndim=None):
    """The array form of ``checked_int``: ``values`` as an int64 array whose
    every entry is an integer in [minimum, maximum], else ``error`` naming
    ``name`` and the first bad entry's index. Integer dtypes and integral
    floats pass; bool, str and object dtypes, bool entries, fractions, NaN
    and ±inf do not. A valid int64 array costs one min and one max, no copy."""
    arr = _array(values, name, "an integer", ndim, error)
    if arr.dtype.kind == "f" and ((np.trunc(arr) == arr) & (np.abs(arr) < 2.0**53)).all():
        arr = arr.astype(np.int64)  # exact: below 2**53 numpy rounded no int of a sequence
    if arr.dtype.kind in "iu" and (arr is values or not _holds_bool(values)) and (
        not arr.size or minimum <= int(arr.min()) and int(arr.max()) <= maximum
    ):
        return arr.astype(np.int64, copy=False)
    ints = _each(checked_int, values, arr.shape, name, error, minimum, maximum)
    return np.array(ints, dtype=np.int64).reshape(arr.shape)


def checked_floats(
    values,
    name,
    low=-math.inf,
    high=math.inf,
    strict=False,
    error=DomainError,
    ndim=None,
    finite=True,
):
    """``values`` as a float array whose every entry is finite and in [low,
    high] (``strict``: in (low, high)), else ``error`` naming ``name`` and
    the first bad entry's index; ``finite`` as in ``checked_float``, and
    dtypes, bool entries and ``ndim`` as in ``checked_ints``. A valid float
    array costs one min and one max."""
    arr = _array(values, name, "real numbers", ndim, error).astype(float, copy=False)
    if (arr is not values and _holds_bool(values)) or (
        arr.size and not _within(np.array((arr.min(), arr.max())), low, high, strict, finite).all()
    ):
        _each(checked_float, values, arr.shape, name, error, low, high, strict, finite=finite)
    return arr


def checked_shares(shares, name: str = "shares", error=DomainError, ndim=None) -> np.ndarray:
    """``shares`` as a float array of one share vector (N,) or one per column
    (N, M), or of ``ndim`` axes: each share finite and >= 0, each vector
    summing to 1 within 1e-9, else ``error`` naming ``name``."""
    sh = checked_floats(shares, name, 0.0, error=error, ndim=ndim)
    if sh.ndim not in (1, 2) or len(sh) == 0:
        raise error(f"{name} must be one share vector or one per column, got shape {sh.shape}")
    total = sh.sum(axis=0)
    off = np.flatnonzero(np.abs(total - 1.0) > 1e-9)
    if off.size:
        where = f" in column {off[0]}" if sh.ndim == 2 else ""
        raise error(f"{name} must sum to 1 within 1e-9, got {float(total.flat[off[0]])!r}{where}")
    return sh
