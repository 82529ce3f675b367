"""Special-function kernels used by every statistical module.

``binomial_cdf_exact`` is the correctly rounded binomial tail for totals up
to ``EXACT_MAX_N``, read from a per-rho table of fixed-point tails whose
rounding is certified entry by entry, with the exact big-integer sum as the
fallback: the same under any scipy build. The default hypothesis's table
ships with the package and is mapped read-only instead of rebuilt. Every
other function wraps one scipy ufunc, with last digits that depend on the
scipy build: ``binomial_cdf`` (the regularized incomplete beta function,
accurate for totals in the thousands), ``normal_cdf`` and
``normal_quantile``, and the regularized incomplete gamma functions
``gamma_cdf`` (lower), ``gamma_sf`` (upper) and ``gamma_isf`` (the inverse
of the upper one) behind the combiners. This is the only module that
imports scipy. ``special`` is the compiled ``scipy.special._ufuncs``,
loaded without running the ``scipy.special`` package, whose array-API
layer fedsurv never uses; the package serves when it is already imported
or the private module fails to load. All validate their
domain up front, clamp probabilities to [0, 1] and take scalars or numpy
arrays. ``gamma_isf`` keeps a bounded memo of the quantiles it has
inverted, so a pair that batches repeat is inverted about once per
process, with the same bits, and splits what it inverts across the usable
CPUs in a thread pool made for the call and shut down before it returns:
none of fedsurv's threads starts at import or outlives a call, and none
changes a bit. (Loading the ufuncs links scipy's OpenBLAS, whose own pool
starts its threads at load, as importing ``scipy.special`` always did.)

Every public function may be called from any thread, and returns the bits
it returns in a single thread. The state they share stays whole: the
Gamma memo is read and written under its lock, and a table of exact tails
grows under its own and is published in one assignment. A call that fails
or is interrupted partway leaves that state as it was.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .errors import (
    INT64_MAX,
    ConfigError,
    DomainError,
    FedsurvError,
    checked_float,
    checked_floats,
    checked_ints,
)

__all__ = [
    "EXACT_MAX_N",
    "binomial_cdf",
    "binomial_cdf_exact",
    "gamma_cdf",
    "gamma_isf",
    "gamma_sf",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
]


# the scipy ufuncs this module calls, all in the compiled scipy.special._ufuncs
_UFUNCS = ("betainc", "gammainc", "gammaincc", "gammainccinv", "ndtr", "ndtri")


def _special_ufuncs() -> types.ModuleType:
    """The module that holds ``_UFUNCS``: ``scipy.special._ufuncs``, loaded
    without running ``scipy/special/__init__.py``, whose array-API layer
    none of them needs. A ``scipy.special`` already imported is used as it
    is, and the package is the fallback when the private module fails to
    load or lacks one of the names."""
    loaded = sys.modules.get("scipy.special")
    if loaded is not None:
        return loaded
    import scipy

    # a bare package over scipy's special/ directory lets its submodule
    # load; the real package later reuses that submodule from sys.modules
    stub = types.ModuleType("scipy.special")
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules["scipy.special"] = stub
    try:
        ufuncs = importlib.import_module("scipy.special._ufuncs")
    except Exception:  # a compiled module's init can raise more than ImportError
        ufuncs = None
    finally:
        del sys.modules["scipy.special"]
    if ufuncs is not None and all(hasattr(ufuncs, name) for name in _UFUNCS):
        return ufuncs
    from scipy import special

    return special


special = _special_ufuncs()


def _ret(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


def _broadcast(**arrays) -> list[np.ndarray]:
    """The named arrays broadcast against each other, else ConfigError."""
    try:
        return np.broadcast_arrays(*arrays.values())
    except ValueError:
        shapes = ", ".join(f"{name} {a.shape}" for name, a in arrays.items())
        raise ConfigError(f"shapes do not broadcast: {shapes}") from None


def _counts(c, n, n_max=INT64_MAX, **more) -> list[np.ndarray]:
    """c and n as int64 arrays by the integer rule, 0 <= c <= n <= n_max,
    broadcast together with the arrays of ``more``."""
    arrays = _broadcast(c=checked_ints(c, "c", 0), n=checked_ints(n, "n", 0, n_max), **more)
    if (arrays[0] > arrays[1]).any():
        raise DomainError("c must not exceed n")
    return arrays


def binomial_cdf(c, n, rho):
    """Pr[X <= c] for X ~ Binomial(n, rho).

    Computed as the regularized incomplete beta integral
    I_{1-rho}(n-c, c+1), which equals the partial pmf sum
    sum_{r=0}^{c} C(n,r) rho^r (1-rho)^(n-r) without forming factorials.
    Raises DomainError, naming n, where the integral has no float64 value.
    """
    scalar = np.isscalar(c) and np.isscalar(n) and np.isscalar(rho)
    c_b, n_b, rho_b = _counts(c, n, rho=checked_floats(rho, "rho", 0.0, 1.0))
    out = np.ones(c_b.shape, dtype=float)
    interior = c_b < n_b
    if interior.any():
        ci = c_b[interior].astype(float)
        ni = n_b[interior].astype(float)
        ri = rho_b[interior]
        out[interior] = special.betainc(ni - ci, ci + 1.0, 1.0 - ri)
        # betainc gives NaN near the mean once n reaches about 1e17
        lost = np.flatnonzero(np.isnan(out))
        if lost.size:
            n_lost = n_b.reshape(-1)[lost[0]]
            raise DomainError(
                f"binomial tail has no float64 value at window total n = {n_lost} "
                f"(c = {c_b.reshape(-1)[lost[0]]}); totals this large are out of range"
            )
    return _ret(np.clip(out, 0.0, 1.0), scalar)


# Cap of the exact table: row n costs n fixed-point steps and needs every
# row below it, so callers send larger totals to binomial_cdf.
EXACT_MAX_N = 300


# Fraction bits of the fixed-point rows. 1,150 bits resolve every tail down
# to subnormal values; the constant sets only how often an entry falls back
# to the exact sum, never a value.
_FRACTION_BITS = 1150


def _fixed_to_float(g: int, n: int, p: int) -> float | None:
    """The double that every x in [g, g + n) / 2**p rounds to, or None where
    two of them round to different doubles. Usually g / 2**p is normal, g
    has a bit set below its top 64 and adding n does not carry into them:
    then every such x has g's top 64 bits plus a sticky bit, and one
    conversion settles it. Otherwise both ends are converted and compared,
    by int true division, which is correctly rounded."""
    size = g.bit_length()
    if size > 64 and size - p > -1021:
        shift = size - 64
        top = g >> shift
        if top << shift != g and (g + n) >> shift == top:
            return math.ldexp(float(top | 1), shift - p)
    value = g / (1 << p)
    return value if value == (g + n) / (1 << p) else None


def _exact_cdf(c: int, n: int, a: int, b: int, e: int) -> float:
    """Pr[X <= c], X ~ Binomial(n, a / 2**e), with b = 2**e - a: the exact
    sum of C(n,j) a**j b**(n-j) over j <= c, rounded once. The sum runs in
    Horner form in b, term = C(n,j) a**j, and takes b**(n-c) at the end."""
    num, term = 0, 1
    for j in range(c + 1):
        num = num * b + term
        term = term * a * (n - j) // (j + 1)
    return num * b ** (n - c) / (1 << (e * n))


class _CdfTable:
    """Correctly rounded Pr[X <= c], X ~ Binomial(n, rho), for every c <= n
    of the rows built so far, flat at index n(n+1)/2 + c: the builder of
    every table, the shipped ones included (``_ShippedTable``).

    A double rho is a / 2**e; with b = 2**e - a the tails obey
    F(c, n) = (b F(c, n-1) + a F(c-1, n-1)) / 2**e. Row n holds them in
    fixed point with P fraction bits, G(c, n) = (b G(c, n-1) + a G(c-1, n-1))
    >> e and G(n, n) = 2**P, updated in place from the high c down. Each
    row floors once and a + b = 2**e, so F 2**P - n < G <= F 2**P: the
    table stores G / 2**P where (G + n) / 2**P rounds to the same double,
    which F then rounds to as well, and the exact sum (`_exact_cdf`)
    elsewhere. Only the last row is kept, to grow the table on demand.

    A growth builds a new row and a new values array under the table's
    lock and publishes both in one assignment, so a reader in any thread
    sees a whole table, and a growth that fails or is interrupted leaves
    the old one.
    """

    def __init__(self, rho: float):
        self._a, d = rho.as_integer_ratio()
        self._b = d - self._a
        self._e = d.bit_length() - 1
        self._p = _FRACTION_BITS
        self._lock = threading.Lock()
        # the last fixed-point row, and the values of every row up to it
        self._grown = ([1 << self._p], np.ones(1))

    @property
    def values(self) -> np.ndarray:
        return self._grown[1]

    def lookup(self, c: np.ndarray, n: np.ndarray) -> np.ndarray:
        top = int(n.max(initial=0))
        row, values = self._grown
        if top >= len(row):
            values = self._grow(top)
        return values[n * (n + 1) // 2 + c]

    def _grow(self, top: int) -> np.ndarray:
        with self._lock:
            row, old = self._grown
            if top < len(row):  # another thread grew it while this one waited
                return old
            a, b, e, p, row = self._a, self._b, self._e, self._p, list(row)
            values = np.empty((top + 1) * (top + 2) // 2)
            values[: old.size] = old
            for n in range(len(row), top + 1):
                row.append(1 << p)
                for c in range(n - 1, 0, -1):
                    row[c] = (b * row[c] + a * row[c - 1]) >> e
                row[0] = (b * row[0]) >> e
                start = n * (n + 1) // 2
                for c, g in enumerate(row):
                    value = _fixed_to_float(g, n, p)
                    values[start + c] = _exact_cdf(c, n, a, b, e) if value is None else value
            self._grown = (row, values)
            return values


# Complete tables shipped with the package, one .npy file of little-endian
# float64 per rho, named by rho.hex(): rows 0..EXACT_MAX_N of
# `_CdfTable(rho)`, which tools/write_cdf_table.py writes and a unit test
# checks bit for bit. Only the default hypothesis's rho ships: every run
# on defaults would otherwise build it in big-integer arithmetic.
_TABLE_DIR = Path(__file__).resolve().parent / "cdf_tables"
_TABLE_ENTRIES = (EXACT_MAX_N + 1) * (EXACT_MAX_N + 2) // 2


def _table_path(rho: float) -> Path:
    return _TABLE_DIR / f"{rho.hex()}.npy"


class _ShippedTable:
    """The complete table of one rho, mapped read-only from its shipped
    file; it never grows. A file of another size or dtype raises."""

    def __init__(self, path: Path):
        try:
            values = np.load(path, mmap_mode="r")
        except ValueError as exc:  # a bad header, or shorter than it says
            raise FedsurvError(f"shipped table {path} cannot be mapped: {exc}") from exc
        if values.dtype != np.dtype("<f8") or values.shape != (_TABLE_ENTRIES,):
            raise FedsurvError(
                f"shipped table {path} must hold {_TABLE_ENTRIES} little-endian float64 "
                f"values, got dtype {values.dtype} and shape {values.shape}"
            )
        # a plain view of the map: np.memmap's Python-level indexing hooks
        # make each lookup several times slower
        self.values = values.view(np.ndarray)

    def lookup(self, c: np.ndarray, n: np.ndarray) -> np.ndarray:
        return self.values[n * (n + 1) // 2 + c]


# The tables of the 16 most recently used rho values: the shipped file of
# rho's exact bits, mapped at the first lookup at that rho, else a table
# built on demand, which grows to the largest n asked for once per rho and
# process (about 0.4 MB at EXACT_MAX_N: 45,451 doubles plus one fixed-point
# row of about 43 KB).
@functools.lru_cache(maxsize=16)
def _cdf_table(rho: float) -> _CdfTable | _ShippedTable:
    path = _table_path(rho)
    return _ShippedTable(path) if path.is_file() else _CdfTable(rho)


def binomial_cdf_exact(c, n, rho):
    """Correctly rounded Pr[X <= c] for X ~ Binomial(n, rho), n up to
    ``EXACT_MAX_N``; c and n broadcast elementwise, rho is one scalar.

    Values come from a per-rho table of the exact tails (``_CdfTable``),
    rounded once, so they do not depend on the scipy build. The default
    hypothesis's table ships with the package and is mapped read-only at
    the first lookup at its rho; any other rho's table grows to the
    largest n asked for, once per rho and process.
    """
    scalar = np.isscalar(c) and np.isscalar(n)
    c_arr, n_arr = _counts(c, n, EXACT_MAX_N)
    rho = checked_float(rho, "rho", 0.0, 1.0)
    return _ret(_cdf_table(rho).lookup(c_arr, n_arr), scalar)


def normal_cdf(z):
    """Standard normal CDF Phi(z)."""
    scalar = np.isscalar(z)
    return _ret(np.clip(special.ndtr(checked_floats(z, "z")), 0.0, 1.0), scalar)


def normal_pdf(z):
    """Standard normal density phi(z)."""
    scalar = np.isscalar(z)
    z_arr = checked_floats(z, "z")
    return _ret(np.exp(-0.5 * z_arr * z_arr) / np.sqrt(2.0 * np.pi), scalar)


def normal_quantile(p):
    """Inverse of ``normal_cdf``; defined on the open interval (0, 1)."""
    scalar = np.isscalar(p)
    return _ret(special.ndtri(checked_floats(p, "p", 0.0, 1.0, strict=True)), scalar)


def _gamma_args(a, x) -> list[np.ndarray]:
    """a and x by the real-number rule, broadcast together; x may be +inf,
    the upper limit of the integral."""
    return _broadcast(
        a=checked_floats(a, "a", 0.0, strict=True), x=checked_floats(x, "x", 0.0, finite=False)
    )


def gamma_cdf(a, x):
    """Regularized lower incomplete gamma P(a, x): the CDF of Gamma(a, 1) at x."""
    scalar = np.isscalar(a) and np.isscalar(x)
    return _ret(np.clip(special.gammainc(*_gamma_args(a, x)), 0.0, 1.0), scalar)


def gamma_sf(a, x):
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x): the survival
    function of Gamma(a, 1) at x."""
    scalar = np.isscalar(a) and np.isscalar(x)
    return _ret(np.clip(special.gammaincc(*_gamma_args(a, x)), 0.0, 1.0), scalar)


# The quantile memo, direct-mapped: column i of one (3, _ISF_MEMO_SLOTS)
# uint64 table holds the bit patterns of one pair's a and p and of
# gammainccinv(a, p), 24 B a slot, filled by the `special.gammainccinv`
# kept beside it. A slot whose a key is zero is empty: it never matches, as
# every valid a is > 0. One lock covers every read and write of it.
_ISF_MEMO_SLOTS = 1 << 15
# cells looked up at a time, which bounds a call's scratch at any width
_ISF_BLOCK = 1 << 15
_isf_lock = threading.Lock()
_isf_memo: tuple | None = None
# odd multipliers of the pair's hash; its top 32 bits, which depend on
# every bit of a and p, are scaled onto the slots
_HASH_A = np.uint64(0x9E3779B97F4A7C15)
_HASH_P = np.uint64(0xC2B2AE3D27D4EB4F)
_U32 = np.uint64(32)


def _isf_table(inverse) -> np.ndarray:
    """The memo's (a keys, p keys, values) rows, filled by `inverse`; an
    empty table if the memo is unset or was filled by another function.
    Call under `_isf_lock`."""
    global _isf_memo
    if _isf_memo is None or _isf_memo[0] is not inverse:
        _isf_memo = (inverse, np.zeros((3, _ISF_MEMO_SLOTS), dtype=np.uint64))
    return _isf_memo[1]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Fewest cells a thread of `_split_inverse` takes: starting and joining one
# costs about 0.19 ms and an inversion 1.2-1.4 us, so a thread pays for
# itself from about a thousand cells.
_SPLIT_MIN_CELLS = 1024


def _split_inverse(inverse, a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """inverse(a, p) over 1-d arrays, in contiguous chunks of at least
    `_SPLIT_MIN_CELLS` cells, one per usable CPU: the first in the calling
    thread, each other in a thread pool made for the call and shut down
    before it returns. The inverse works cell by cell, so the split changes
    no bit; the exception of any chunk is raised here, once every worker
    has finished."""
    chunks = max(1, min(_usable_cpus(), a.size // _SPLIT_MIN_CELLS))
    cells = [slice(a.size * k // chunks, a.size * (k + 1) // chunks) for k in range(chunks)]
    with ThreadPoolExecutor(max_workers=chunks) as pool:
        rest = [pool.submit(inverse, a[c], p[c]) for c in cells[1:]]
        first = inverse(a[cells[0]], p[cells[0]])
    return np.concatenate([first] + [future.result() for future in rest])


def _isf_block(inverse, a: np.ndarray, p: np.ndarray, out: np.ndarray) -> None:
    """inverse(a, p), the Gamma quantiles of one block of cells, into `out`:
    hits read from the memo, and the distinct pairs among the misses
    inverted in one `_split_inverse` call, then stored."""
    ka = a.view(np.uint64)
    kp = p.view(np.uint64)
    slot = ka * _HASH_A
    slot += kp * _HASH_P
    slot >>= _U32
    slot *= np.uint64(_ISF_MEMO_SLOTS)
    slot >>= _U32
    slot = slot.view(np.intp)
    # a cell index of the block per slot, in the smallest dtype that holds one
    claim = np.empty(_ISF_MEMO_SLOTS, dtype=np.min_scalar_type(a.size))
    with _isf_lock:
        keys_a, keys_p, values = _isf_table(inverse)
        out[:] = values[slot].view(float)
        missed = np.flatnonzero((keys_a[slot] != ka) | (keys_p[slot] != kp))
        if not missed.size:
            return
        # In rounds, on the keys alone: one missed cell per slot claims it by
        # writing its own index to the slot's entry of `claim`, scratch
        # outside the memo; cells whose pair equals their slot's claimant's
        # will copy its quantile, and the rest wait for the next round.
        rounds = []
        copy_of = np.empty(a.size, dtype=claim.dtype)
        pending = missed
        while pending.size:
            at = slot[pending]
            claim[at] = pending
            claimant = claim[at]
            rounds.append(pending[claimant == pending])
            same = (ka[claimant] == ka[pending]) & (kp[claimant] == kp[pending])
            copy_of[pending[same]] = claimant[same]
            pending = pending[~same]
        won = np.concatenate(rounds)
        out[won] = _split_inverse(inverse, a[won], p[won])
        # stored only now, round by round, so a slot that two rounds claim
        # keeps the later claimant; each slot is emptied first, so an
        # exception between these writes leaves every slot empty or whole
        for cells in rounds:
            held = slot[cells]
            keys_a[held] = 0
            keys_p[held] = kp[cells]
            values[held] = out[cells].view(np.uint64)
            keys_a[held] = ka[cells]
        out[missed] = out[copy_of[missed]]


def gamma_isf(a, p):
    """Inverse of ``gamma_sf`` in x: the (1 - p)-quantile of Gamma(a, 1).

    Batches repeat (a, p) pairs heavily, within a call and across calls, so
    each cell is looked up in a fixed-size memo keyed by the pair's bits
    and only what the memo misses is inverted, once per distinct pair of a
    block, in one call per block that is split across the usable CPUs in a
    thread pool made for the call and shut down before it returns. A value
    read from the memo is the bits that inverting the cell gives, and the
    inverse works cell by cell, so neither the memo's state nor the threads
    ever change a result.
    """
    scalar = np.isscalar(a) and np.isscalar(p)
    a_arr = checked_floats(a, "a", 0.0, strict=True)
    p_arr = checked_floats(p, "p", 0.0, 1.0)
    # flat views where a and p are contiguous and of one shape, else copies
    a_b, p_b = _broadcast(a=a_arr, p=p_arr)
    a_flat, p_flat = a_b.reshape(-1), p_b.reshape(-1)
    out = np.empty(a_flat.size)
    inverse = special.gammainccinv
    for start in range(0, out.size, _ISF_BLOCK):
        cells = slice(start, start + _ISF_BLOCK)
        _isf_block(inverse, a_flat[cells], p_flat[cells], out[cells])
    # [()] unwraps a 0-d array's result to a numpy scalar, as the ufunc
    # returns it
    return _ret(out.reshape(a_b.shape)[()], scalar)
