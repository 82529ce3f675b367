"""Special-function kernels used by every statistical module.

Apart from ``binomial_cdf_exact``, every function is a thin,
contract-enforcing wrapper over a ``scipy.special`` ufunc: domains are
validated up front, probability outputs are clamped to [0, 1], and each
accepts either scalars or numpy arrays (arrays broadcast elementwise,
scalars return floats).

The binomial tail goes through the regularized incomplete beta function
rather than a pmf sum, so it stays accurate for totals in the thousands
where naive summation underflows. Its last digits depend on the scipy
build. ``binomial_cdf_exact`` is the scalar alternative for totals up to
``EXACT_MAX_N``: an exact big-integer sum rounded once, so it returns the
correctly rounded double under any scipy.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .errors import DomainError

__all__ = [
    "EXACT_MAX_N",
    "binomial_cdf",
    "binomial_cdf_exact",
    "normal_cdf",
    "normal_pdf",
    "normal_quantile",
]


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise DomainError(f"{name} must not contain NaN")
    return arr


def _ret(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


def _clamp01(p: np.ndarray) -> np.ndarray:
    return np.clip(p, 0.0, 1.0)


def binomial_cdf(c, n, rho):
    """Pr[X <= c] for X ~ Binomial(n, rho).

    Computed as the regularized incomplete beta integral
    I_{1-rho}(n-c, c+1), which equals the partial pmf sum
    sum_{r=0}^{c} C(n,r) rho^r (1-rho)^(n-r) without forming factorials.
    """
    scalar = np.isscalar(c) and np.isscalar(n) and np.isscalar(rho)
    c_arr = np.asarray(c)
    n_arr = np.asarray(n)
    rho_arr = _as_float_array(rho, "rho")
    if not np.issubdtype(c_arr.dtype, np.integer) and not np.all(c_arr == np.floor(c_arr)):
        raise DomainError("c must be integral")
    if not np.issubdtype(n_arr.dtype, np.integer) and not np.all(n_arr == np.floor(n_arr)):
        raise DomainError("n must be integral")
    c_arr = c_arr.astype(np.int64)
    n_arr = n_arr.astype(np.int64)
    if (c_arr < 0).any() or (n_arr < 0).any():
        raise DomainError("c and n must be nonnegative")
    if (c_arr > n_arr).any():
        raise DomainError("c must not exceed n")
    if (rho_arr < 0).any() or (rho_arr > 1).any():
        raise DomainError("rho must lie in [0, 1]")

    c_b, n_b, rho_b = np.broadcast_arrays(c_arr, n_arr, rho_arr)
    out = np.ones(c_b.shape, dtype=float)
    interior = c_b < n_b
    if interior.any():
        ci = c_b[interior].astype(float)
        ni = n_b[interior].astype(float)
        ri = rho_b[interior]
        out[interior] = special.betainc(ni - ci, ci + 1.0, 1.0 - ri)
    return _ret(_clamp01(out), scalar)


# The exact kernel's cost grows with n**2 (up to ~0.7 ms at n = 300 against
# a flat ~50 us for one betainc call); above this total callers use betainc.
EXACT_MAX_N = 300


def _lower_tail_numerator(c: int, n: int, a: int, b: int) -> int:
    """sum_{j<=c} C(n,j) a**j b**(n-j), exactly.

    Nested from the inside out, E_j = 1 + (n-j) a / ((j+1) b) * E_{j+1}
    with E_c = 1, keeping E_j as the integer pair num / den; the sum is
    T_0 * E_0 = b**n * num / den, and that last division is exact.
    """
    num = den = 1
    for j in range(c - 1, -1, -1):
        den *= (j + 1) * b
        num = den + num * (n - j) * a
    return b**n * num // den


def binomial_cdf_exact(c: int, n: int, rho: float) -> float:
    """Correctly rounded Pr[X <= c] for X ~ Binomial(n, rho); scalars only.

    A double rho is the dyadic rational a / d with d = 2**e, so with
    b = d - a the tail is exactly sum_{j<=c} C(n,j) a**j b**(n-j) / d**n.
    The numerator is summed in integers over the shorter side (the upper
    tail is the lower tail of n - X at n - c - 1, with a and b swapped), and
    the one int/int true division at the end rounds correctly. Cost grows
    with n**2; meant for n up to ``EXACT_MAX_N``.
    """
    if int(c) != c or int(n) != n:
        raise DomainError("c and n must be integral")
    c, n, rho = int(c), int(n), float(rho)
    if c < 0 or n < 0:
        raise DomainError("c and n must be nonnegative")
    if c > n:
        raise DomainError("c must not exceed n")
    if not 0.0 <= rho <= 1.0:
        raise DomainError("rho must lie in [0, 1]")
    if c == n or rho == 0.0:
        return 1.0
    if rho == 1.0:
        return 0.0
    a, d = rho.as_integer_ratio()
    b = d - a
    if 2 * c < n:
        return _lower_tail_numerator(c, n, a, b) / d**n
    return (d**n - _lower_tail_numerator(n - c - 1, n, b, a)) / d**n


def normal_cdf(z):
    """Standard normal CDF Phi(z)."""
    scalar = np.isscalar(z)
    z_arr = _as_float_array(z, "z")
    if np.isinf(z_arr).any():
        raise DomainError("z must be finite")
    return _ret(_clamp01(special.ndtr(z_arr)), scalar)


def normal_pdf(z):
    """Standard normal density phi(z)."""
    scalar = np.isscalar(z)
    z_arr = _as_float_array(z, "z")
    return _ret(np.exp(-0.5 * z_arr * z_arr) / np.sqrt(2.0 * np.pi), scalar)


def normal_quantile(p):
    """Inverse of ``normal_cdf``; defined on the open interval (0, 1)."""
    scalar = np.isscalar(p)
    p_arr = _as_float_array(p, "p")
    if (p_arr <= 0).any() or (p_arr >= 1).any():
        raise DomainError("p must lie strictly inside (0, 1); clamp before calling")
    return _ret(special.ndtri(p_arr), scalar)

