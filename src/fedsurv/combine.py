"""p-value combination: four classic combiners plus share-weighted variants.

All nine methods live in one table: method id -> batch kernel and the
weighting context (shares, total count, rho) the kernel needs. Both entry
points go through the same validation and the same kernel:
``combine_matrix`` combines each column of an (N, M) p-value matrix, the
form the Monte Carlo engines use, and ``combine_by_id`` combines one
EvidenceSet as the M = 1 case, returning the combined p together with the
underlying statistic. Every kernel sums over sites in one fixed order, so a
column's bits do not depend on how many columns are combined with it.
Kernels that share a statistic share its code: wfisher and lancaster differ
only in the Gamma shapes they hand one transform, ``_gamma_transform``, and
cstouffer adds its continuity term to wstouffer's statistic. That transform
hands every cell to ``numerics.gamma_isf``, whose memo inverts each
(p, shape) pair about once per process, however often the engines' batches
repeat it; the result is the same bits as inverting cell by cell.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConfigError, DomainError, checked_int

CLAMP_EPS = 1e-15

__all__ = [
    "CLAMP_EPS",
    "METHOD_IDS",
    "SHARE_METHODS",
    "EvidenceSet",
    "CombinedResult",
    "combine_by_id",
    "combine_matrix",
    "window_weights",
]


@dataclass(frozen=True)
class EvidenceSet:
    """Per-site p-values with optional weighting context.

    shares must be nonnegative and sum to 1; total_count and rho are only
    needed by the continuity-corrected combiner (and by Lancaster's
    degrees-of-freedom rule, which needs total_count).
    """

    p_values: tuple[float, ...]
    shares: tuple[float, ...] | None = None
    total_count: int | None = None
    rho: float | None = None

    def __post_init__(self):
        # as (N, 1) columns; a nested sequence becomes 3-D and is rejected
        ps = _checked_p_values(np.asarray(self.p_values, dtype=float)[:, None])
        object.__setattr__(self, "p_values", tuple(ps[:, 0].tolist()))
        if self.shares is not None:
            shares = _checked_shares(np.asarray(self.shares, dtype=float)[:, None], len(ps))
            object.__setattr__(self, "shares", tuple(shares[:, 0].tolist()))
        if self.total_count is not None:
            object.__setattr__(self, "total_count", _checked_total(self.total_count))
        if self.rho is not None:
            object.__setattr__(self, "rho", _checked_rho(self.rho))

    @property
    def n_sites(self) -> int:
        return len(self.p_values)


@dataclass(frozen=True)
class CombinedResult:
    p: float
    statistic: float
    method: str


def _clamped(p_matrix: np.ndarray) -> np.ndarray:
    return np.clip(p_matrix, CLAMP_EPS, 1.0 - CLAMP_EPS)


def _shares_column(shares, n_sites: int) -> np.ndarray:
    """Per-site weights as a column: either one vector for every column of
    the p-matrix, shape (N,), or one vector per column, shape (N, M)."""
    sh = np.asarray(shares, dtype=float)
    if sh.ndim == 1 and sh.shape[0] == n_sites:
        return sh.reshape(n_sites, 1)
    if sh.ndim == 2 and sh.shape[0] == n_sites:
        return sh
    raise ConfigError(f"shares must have shape ({n_sites},) or ({n_sites}, M), got {sh.shape}")


# Combiner context: one check per rule, shared by EvidenceSet and _combine.

def _checked_p_values(p_matrix) -> np.ndarray:
    """An (N, M) float matrix with N >= 1 and every entry in [0, 1]."""
    p = np.asarray(p_matrix, dtype=float)
    if p.ndim != 2:
        raise ConfigError(f"p-values must form an (n_sites, n_sets) matrix, got shape {p.shape}")
    if p.shape[0] < 1:
        raise DomainError("at least one site's p-value is required")
    if not ((p >= 0) & (p <= 1)).all():
        raise DomainError("p-values must lie in [0, 1]")
    return p


def _checked_shares(shares, n_sites: int) -> np.ndarray:
    """``_shares_column``, finite, nonnegative and summing to 1 per column."""
    sh = _shares_column(shares, n_sites)
    if not ((sh >= 0) & np.isfinite(sh)).all():
        raise ConfigError("shares must be finite and nonnegative")
    if np.abs(sh.sum(axis=0) - 1.0).max(initial=0.0) > 1e-9:
        raise ConfigError("shares must sum to 1 within 1e-9 in every column")
    return sh


def _checked_total(total) -> int:
    """A pooled count: an integer of at least 1."""
    return checked_int(total, "total_count", minimum=1, error=ConfigError)


def _checked_totals(total_count):
    """One pooled count, or one per column, each by ``_checked_total``."""
    totals = np.asarray(total_count)
    if totals.ndim == 0:
        return _checked_total(total_count)
    if totals.dtype.kind in "iu":  # integers by dtype: the extremes decide
        values = [totals.min(initial=1), totals.max(initial=1)]
    else:
        values = np.unique(totals).tolist()
    for total in values:
        _checked_total(total)
    return totals


def _checked_rho(rho) -> float:
    """The null baseline share, strictly inside (0, 1)."""
    if not (isinstance(rho, numbers.Real) and 0.0 < rho < 1.0):
        raise ConfigError(f"rho must lie strictly inside (0, 1), got {rho!r}")
    return float(rho)


def _site_sum(x: np.ndarray) -> np.ndarray:
    """Sum over sites (axis 0) in one fixed order, row after row. numpy
    sums an (N, 1) column pairwise but an (N, M) matrix row by row, so an
    explicit order keeps a column's bits the same at any batch width."""
    out = x[0].copy()
    for row in x[1:]:
        out += row
    return out


# --------------------------------------------------------------- batch kernels
# Each takes P of shape (N, M), returns (combined_p, statistic) of shape (M,).

def stouffer_matrix(p_matrix: np.ndarray):
    """Phi(sum of z-scores / sqrt(N)); the statistic is the raw z sum."""
    z = numerics.normal_quantile(_clamped(p_matrix))
    stat = _site_sum(z)
    n = p_matrix.shape[0]
    return numerics.normal_cdf(stat / np.sqrt(n)), stat


def fisher_matrix(p_matrix: np.ndarray):
    """Upper chi-square(2N) tail of -2 * sum(log p_i)."""
    stat = -2.0 * _site_sum(np.log(_clamped(p_matrix)))
    n = p_matrix.shape[0]
    return numerics.gamma_sf(float(n), stat / 2.0), stat


def pearson_matrix(p_matrix: np.ndarray):
    """Lower chi-square(2N) tail of -2 * sum(log(1-p_i)): small p_i shrink
    the statistic, so evidence lies in the lower tail."""
    stat = -2.0 * _site_sum(np.log1p(-_clamped(p_matrix)))
    n = p_matrix.shape[0]
    return numerics.gamma_cdf(float(n), stat / 2.0), stat


def tippett_matrix(p_matrix: np.ndarray):
    """1 - (1 - min p_i)^N; the statistic is the minimum p-value."""
    stat = p_matrix.min(axis=0)
    n = p_matrix.shape[0]
    # min p == 1 rides through log1p as -inf and lands on exactly 1.0
    with np.errstate(divide="ignore"):
        return -np.expm1(n * np.log1p(-stat)), stat


def _weighted_z_sum(p_matrix: np.ndarray, shares) -> np.ndarray:
    """Sum of sqrt(s_i) * z_i: wstouffer's statistic and cstouffer's base."""
    sqrt_s = np.sqrt(_shares_column(shares, p_matrix.shape[0]))
    return _site_sum(sqrt_s * numerics.normal_quantile(_clamped(p_matrix)))


def weighted_stouffer_matrix(p_matrix: np.ndarray, shares):
    """Phi(sum of sqrt(s_i) * z_i); equals stouffer at equal shares."""
    stat = _weighted_z_sum(p_matrix, shares)
    return numerics.normal_cdf(stat), stat


def corrected_stouffer_matrix(p_matrix: np.ndarray, shares, total_count, rho):
    """Weighted Stouffer plus the continuity term (1-N)/(2*sqrt(rho*(1-rho)*n)).

    The term is zero at N=1 and strictly negative otherwise, making the
    combined p-value smaller (less conservative).
    """
    base = _weighted_z_sum(p_matrix, shares)
    correction = (1.0 - p_matrix.shape[0]) / (
        2.0 * np.sqrt(rho * (1.0 - rho) * np.asarray(total_count, dtype=float))
    )
    stat = base + correction
    return numerics.normal_cdf(stat), stat


def _gamma_transform(p_matrix: np.ndarray, shapes, total_shape):
    """Sum of each site's (1-p_i)-quantile of Gamma(shape_i, 1/2), referred
    to Gamma(total_shape, 1/2); returns (combined_p, statistic).

    The quantile goes through the survival inverse so tiny p-values keep
    full precision. A site with shape 0 contributes 0, the shape->0 limit
    of the quantile. Every other cell goes to ``numerics.gamma_isf``, whose
    memo inverts a repeated (p, shape) pair about once per process.
    """
    sh_b, p_b = np.broadcast_arrays(shapes, p_matrix)
    pos = sh_b > 0.0
    contrib = np.zeros(sh_b.shape, dtype=float)
    contrib[pos] = 2.0 * numerics.gamma_isf(sh_b[pos], _clamped(p_b[pos]))
    stat = _site_sum(contrib)
    return numerics.gamma_sf(total_shape, stat / 2.0), stat


def wfisher_matrix(p_matrix: np.ndarray, shares):
    """Share-weighted Fisher: Gamma(s_i*N, 1/2) transforms, chi-square(2N) null.

    Site i's p-value maps to the (1-p_i)-quantile of Gamma(s_i*N, 1/2), so
    the weighted degrees of freedom sum to the unweighted method's 2N and
    the statistic keeps an exact chi-square(2N) null; equal shares reduce
    to fisher.
    """
    n_sites = p_matrix.shape[0]
    shapes = _shares_column(shares, n_sites) * n_sites
    return _gamma_transform(p_matrix, shapes, float(n_sites))


def goods_matrix(p_matrix: np.ndarray, shares):
    """Weighted log sum -2 * sum(s_i*N * log p_i) referred to chi-square(2N).

    The chi-square null is an approximation (the exact null of a weighted
    sum of exponentials is not chi-square); it is used here as stated in
    the method's classical formulation, with weights w_i = s_i*N chosen so
    the nominal degrees of freedom match fisher's.
    """
    n_sites = p_matrix.shape[0]
    weights = _shares_column(shares, n_sites) * n_sites
    stat = _site_sum(-2.0 * weights * np.log(_clamped(p_matrix)))
    return numerics.gamma_sf(float(n_sites), stat / 2.0), stat


def lancaster_matrix(p_matrix: np.ndarray, shares, total_count):
    """Lancaster's Gamma-transform combiner with df_i = s_i * n per site.

    Site i contributes the (1-p_i)-quantile of Gamma(df_i/2, 1/2), a
    chi-square(df_i) variable under the null, and the sum is referred to
    chi-square(sum df_i). Degrees of freedom tied to the site's count give
    the classical larger-total-df behavior this combiner is known for;
    df_i = 2 recovers fisher. df_i is floored at 1e-6, so a zero-share
    site still takes part.
    """
    shapes = np.maximum(shares * total_count, 1e-6) / 2.0
    return _gamma_transform(p_matrix, shapes, _site_sum(shapes))


# ------------------------------------------------------------- method table
# method -> (kernel, needs_shares, needs_total, needs_rho); the kernel takes
# the p-matrix followed by the context it needs, in that order. The order
# of the table is the order of METHOD_IDS.
_METHODS = {
    "stouffer": (stouffer_matrix, False, False, False),
    "fisher": (fisher_matrix, False, False, False),
    "pearson": (pearson_matrix, False, False, False),
    "tippett": (tippett_matrix, False, False, False),
    "wstouffer": (weighted_stouffer_matrix, True, False, False),
    "cstouffer": (corrected_stouffer_matrix, True, True, True),
    "wfisher": (wfisher_matrix, True, False, False),
    "goods": (goods_matrix, True, False, False),
    "lancaster": (lancaster_matrix, True, True, False),
}

METHOD_IDS = tuple(_METHODS)

# methods that cannot run without per-site shares
SHARE_METHODS = frozenset(m for m, entry in _METHODS.items() if entry[1])


def _combine(method: str, p_matrix, shares, total_count, rho):
    """Validate the inputs `method` uses and run its kernel; returns the
    (combined_p, statistic) pair of (M,) arrays."""
    if not isinstance(method, str) or method not in _METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHOD_IDS}")
    kernel, needs_shares, needs_total, needs_rho = _METHODS[method]
    p_matrix = _checked_p_values(p_matrix)
    context = []
    if needs_shares:
        if shares is None:
            raise ConfigError(f"{method} requires per-site shares")
        context.append(_checked_shares(shares, p_matrix.shape[0]))
    if needs_total:
        if total_count is None:
            raise ConfigError(f"{method} requires total_count")
        context.append(np.asarray(_checked_totals(total_count), dtype=float))
    if needs_rho:
        if rho is None:
            raise ConfigError(f"{method} requires rho")
        context.append(_checked_rho(rho))
    return kernel(p_matrix, *context)


def combine_by_id(method: str, ev: EvidenceSet) -> CombinedResult:
    """Combine one evidence set by method identifier (the CLI/config
    vocabulary); the M = 1 case of ``combine_matrix``."""
    p, stat = _combine(method, np.asarray(ev.p_values)[:, None], ev.shares, ev.total_count, ev.rho)
    return CombinedResult(p=float(p[0]), statistic=float(stat[0]), method=method)


def combine_matrix(method: str, p_matrix, shares=None, total_count=None, rho=None):
    """Combine each column of an (N, M) p-value matrix; returns the (M,)
    array of combined p-values. shares may be one (N,) vector or one per
    column, (N, M); total_count may be one count or one per column."""
    return _combine(method, p_matrix, shares, total_count, rho)[0]


def window_weights(n_site) -> tuple[np.ndarray, np.ndarray]:
    """Weighting context of per-site window totals ``n_site`` (N, M): each
    site's share of its column's pool (uniform where the pool is empty) and
    the pooled totals, floored at 1 so an empty pool is a valid total."""
    pool = n_site.sum(axis=0)
    totals = np.maximum(pool, 1)
    shares = np.where(pool > 0, n_site / totals, 1.0 / n_site.shape[0])
    return shares, totals
