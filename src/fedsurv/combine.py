"""p-value combination: four classic combiners plus share-weighted variants.

All nine methods live in one table: method id -> batch kernel and the
weighting context (shares, total count, rho) the kernel needs. Every entry
point goes through one pass, ``combine_methods``: it combines each column
of an (N, M) p-value matrix by any number of methods, checking the context
they read once and clamping p once. The per-site transforms (normal
quantiles, log p, log(1 - p), the s_i * N weights and the weighted z sum)
are computed at most once per pass, when the first method that reads one
needs it, so the engines score every method of a batch from one set of
them. ``combine_matrix`` is its one-method case, the form the federation
uses, and ``combine_by_id`` combines one EvidenceSet as the one-method,
M = 1 case, returning the combined p together with the underlying
statistic. Every kernel sums over sites in one fixed order, so a column's
bits do not depend on how many columns, or which other methods, are
combined with it. Kernels that share a statistic share its code: wfisher
and lancaster differ only in the Gamma shapes they hand one transform,
``_gamma_transform``, and cstouffer adds its continuity term to
wstouffer's statistic. That transform makes one ``numerics.gamma_isf``
call per method, whose memo inverts each (p, shape) pair about once per
process, however often the engines' batches repeat it; the result is the
same bits as inverting cell by cell.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .errors import ConfigError, DomainError, checked_float, checked_floats, checked_int
from .errors import checked_ints, checked_shares

CLAMP_EPS = 1e-15

__all__ = [
    "CLAMP_EPS",
    "METHOD_IDS",
    "SHARE_METHODS",
    "EvidenceSet",
    "check_method",
    "CombinedResult",
    "combine_by_id",
    "combine_matrix",
    "combine_methods",
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
        # one value per site: a nested sequence is rejected
        ps = _checked_p_values(self.p_values, "p_values", ndim=1)
        object.__setattr__(self, "p_values", tuple(ps.tolist()))
        if self.shares is not None:
            shares = _checked_shares(self.shares, len(ps), columns=False)
            object.__setattr__(self, "shares", tuple(shares[:, 0].tolist()))
        if self.total_count is not None:
            total = checked_int(self.total_count, "total_count", 1, error=ConfigError)
            object.__setattr__(self, "total_count", total)
        if self.rho is not None:
            object.__setattr__(self, "rho", _checked_rho(self.rho))


@dataclass(frozen=True)
class CombinedResult:
    p: float
    statistic: float
    method: str


# Combiner context: one check per rule, shared by EvidenceSet and _combine.

def _checked_p_values(p_values, name: str = "p-values", ndim: int = 2) -> np.ndarray:
    """An (N, M) float matrix, or with ``ndim`` 1 an (N,) vector, with
    N >= 1 and every entry in [0, 1]."""
    p = checked_floats(p_values, name, 0.0, 1.0)
    if p.ndim != ndim:
        form = "one p-value per site" if ndim == 1 else "an (n_sites, n_sets) matrix"
        raise ConfigError(f"{name} must form {form}, got shape {p.shape}")
    if p.shape[0] < 1:
        raise DomainError(f"{name} must hold at least one site's p-value")
    return p


def _checked_shares(shares, n_sites: int, columns: bool = True) -> np.ndarray:
    """Per-site weights by the package's share rule (``errors.checked_shares``)
    as (N, M) columns: one vector for every column of the p-matrix, shape
    (N,), or with ``columns`` one vector per column, shape (N, M)."""
    sh = checked_shares(shares, error=ConfigError)
    if len(sh) != n_sites or (sh.ndim == 2 and not columns):
        shapes = f"({n_sites},) or ({n_sites}, M)" if columns else f"({n_sites},)"
        raise ConfigError(f"shares must have shape {shapes}, got {sh.shape}")
    return sh.reshape(n_sites, -1)


def _checked_totals(total_count, n_columns: int) -> np.ndarray:
    """One pooled count, or one per column of M = ``n_columns``, shape (M,),
    each an integer of at least 1."""
    totals = checked_ints(total_count, "total_count", 1, error=ConfigError)
    if totals.shape not in ((), (n_columns,)):
        raise ConfigError(f"total_count must be one count or {n_columns}, got shape {totals.shape}")
    return totals


def _checked_rho(rho) -> float:
    """The null baseline share, strictly inside (0, 1)."""
    return checked_float(rho, "rho", 0.0, 1.0, strict=True, error=ConfigError)


def _site_sum(x: np.ndarray) -> np.ndarray:
    """Sum over sites (axis 0) in one fixed order, row after row. numpy
    sums an (N, 1) column pairwise but an (N, M) matrix row by row, so an
    explicit order keeps a column's bits the same at any batch width."""
    out = x[0].copy()
    for row in x[1:]:
        out += row
    return out


class _Sites:
    """One checked (N, M) p-matrix with the context the methods read, and
    every per-site transform of it, each computed at most once: when the
    first kernel that needs it reads it."""

    def __init__(self, p_matrix: np.ndarray, shares, totals, rho):
        self.p = p_matrix
        self.n = p_matrix.shape[0]
        self.shares = shares
        self.totals = totals
        self.rho = rho

    @functools.cached_property
    def clamped(self) -> np.ndarray:
        return np.clip(self.p, CLAMP_EPS, 1.0 - CLAMP_EPS)

    @functools.cached_property
    def z(self) -> np.ndarray:
        return numerics.normal_quantile(self.clamped)

    @functools.cached_property
    def log_p(self) -> np.ndarray:
        return np.log(self.clamped)

    @functools.cached_property
    def log_q(self) -> np.ndarray:
        return np.log1p(-self.clamped)

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """s_i * N: wfisher's Gamma shapes and Good's weights."""
        return self.shares * self.n

    @functools.cached_property
    def weighted_z(self) -> np.ndarray:
        """Sum of sqrt(s_i) * z_i: wstouffer's statistic and cstouffer's base."""
        return _site_sum(np.sqrt(self.shares) * self.z)


# --------------------------------------------------------------- batch kernels
# Each reads one _Sites of an (N, M) matrix and returns (combined_p,
# statistic) of shape (M,).

def _stouffer(s: _Sites):
    """Phi(sum of z-scores / sqrt(N)); the statistic is the raw z sum."""
    stat = _site_sum(s.z)
    return numerics.normal_cdf(stat / np.sqrt(s.n)), stat


def _fisher(s: _Sites):
    """Upper chi-square(2N) tail of -2 * sum(log p_i)."""
    stat = -2.0 * _site_sum(s.log_p)
    return numerics.gamma_sf(float(s.n), stat / 2.0), stat


def _pearson(s: _Sites):
    """Lower chi-square(2N) tail of -2 * sum(log(1-p_i)): small p_i shrink
    the statistic, so evidence lies in the lower tail."""
    stat = -2.0 * _site_sum(s.log_q)
    return numerics.gamma_cdf(float(s.n), stat / 2.0), stat


def _tippett(s: _Sites):
    """1 - (1 - min p_i)^N; the statistic is the minimum p-value."""
    stat = s.p.min(axis=0)
    # min p == 1 rides through log1p as -inf and lands on exactly 1.0
    with np.errstate(divide="ignore"):
        return -np.expm1(s.n * np.log1p(-stat)), stat


def _weighted_stouffer(s: _Sites):
    """Phi(sum of sqrt(s_i) * z_i); equals stouffer at equal shares."""
    stat = s.weighted_z
    return numerics.normal_cdf(stat), stat


def _corrected_stouffer(s: _Sites):
    """Weighted Stouffer plus the continuity term (1-N)/(2*sqrt(rho*(1-rho)*n)).

    The term is zero at N=1 and strictly negative otherwise, making the
    combined p-value smaller (less conservative).
    """
    correction = (1.0 - s.n) / (2.0 * np.sqrt(s.rho * (1.0 - s.rho) * s.totals))
    stat = s.weighted_z + correction
    return numerics.normal_cdf(stat), stat


def _gamma_transform(clamped: np.ndarray, shapes: np.ndarray, total_shape):
    """Sum of each site's (1-p_i)-quantile of Gamma(shape_i, 1/2), referred
    to Gamma(total_shape, 1/2); returns (combined_p, statistic).

    The quantile goes through the survival inverse so tiny p-values keep
    full precision. A site with shape 0 contributes 0, the shape->0 limit
    of the quantile, so only when some shape is 0 are the other cells
    gathered out. Every cell inverted goes to ``numerics.gamma_isf`` in one
    call, whose memo inverts a repeated (p, shape) pair about once per
    process.
    """
    if (shapes > 0.0).all():
        contrib = 2.0 * numerics.gamma_isf(shapes, clamped)
    else:
        sh_b, p_b = np.broadcast_arrays(shapes, clamped)
        pos = sh_b > 0.0
        contrib = np.zeros(sh_b.shape, dtype=float)
        contrib[pos] = 2.0 * numerics.gamma_isf(sh_b[pos], p_b[pos])
    stat = _site_sum(contrib)
    return numerics.gamma_sf(total_shape, stat / 2.0), stat


def _wfisher(s: _Sites):
    """Share-weighted Fisher: Gamma(s_i*N, 1/2) transforms, chi-square(2N) null.

    Site i's p-value maps to the (1-p_i)-quantile of Gamma(s_i*N, 1/2), so
    the weighted degrees of freedom sum to the unweighted method's 2N and
    the statistic keeps an exact chi-square(2N) null; equal shares reduce
    to fisher.
    """
    return _gamma_transform(s.clamped, s.weights, float(s.n))


def _goods(s: _Sites):
    """Weighted log sum -2 * sum(s_i*N * log p_i) referred to chi-square(2N).

    The chi-square null is an approximation (the exact null of a weighted
    sum of exponentials is not chi-square); it is used here as stated in
    the method's classical formulation, with weights w_i = s_i*N chosen so
    the nominal degrees of freedom match fisher's.
    """
    stat = _site_sum(-2.0 * s.weights * s.log_p)
    return numerics.gamma_sf(float(s.n), stat / 2.0), stat


def _lancaster(s: _Sites):
    """Lancaster's Gamma-transform combiner with df_i = s_i * n per site.

    Site i contributes the (1-p_i)-quantile of Gamma(df_i/2, 1/2), a
    chi-square(df_i) variable under the null, and the sum is referred to
    chi-square(sum df_i). Degrees of freedom tied to the site's count give
    the classical larger-total-df behavior this combiner is known for;
    df_i = 2 recovers fisher. df_i is floored at 1e-6, so a zero-share
    site still takes part.
    """
    shapes = np.maximum(s.shares * s.totals, 1e-6) / 2.0
    return _gamma_transform(s.clamped, shapes, _site_sum(shapes))


# ------------------------------------------------------------- method table
# method -> (kernel, needs_shares, needs_total, needs_rho). The order of
# the table is the order of METHOD_IDS.
_METHODS = {
    "stouffer": (_stouffer, False, False, False),
    "fisher": (_fisher, False, False, False),
    "pearson": (_pearson, False, False, False),
    "tippett": (_tippett, False, False, False),
    "wstouffer": (_weighted_stouffer, True, False, False),
    "cstouffer": (_corrected_stouffer, True, True, True),
    "wfisher": (_wfisher, True, False, False),
    "goods": (_goods, True, False, False),
    "lancaster": (_lancaster, True, True, False),
}

METHOD_IDS = tuple(_METHODS)

# methods that cannot run without per-site shares
SHARE_METHODS = frozenset(m for m, entry in _METHODS.items() if entry[1])


def check_method(method, allowed: tuple) -> None:
    """The package's one rule for a method name: ConfigError unless
    ``method`` is one of ``allowed``, the caller's vocabulary."""
    if not isinstance(method, str) or method not in allowed:
        raise ConfigError(f"unknown method {method!r}; expected one of {allowed}")


def combine_methods(methods, p_matrix, shares=None, total_count=None, rho=None):
    """Combine each column of an (N, M) p-value matrix by every method in
    ``methods``; returns an iterator of one (combined_p, statistic) pair of
    (M,) arrays per method, in order, each computed when it is taken.

    The inputs are checked at once, for the context any of the methods
    reads: shares may be one (N,) vector or one per column, (N, M);
    total_count may be one count or one per column. p is clamped once, and
    each per-site transform is computed once for every method that reads
    it.
    """
    methods = tuple(methods)
    for method in methods:
        check_method(method, METHOD_IDS)
    p_matrix = _checked_p_values(p_matrix)

    def needed(flag: int, value, what: str) -> bool:
        method = next((m for m in methods if _METHODS[m][flag]), None)
        if method is not None and value is None:
            raise ConfigError(f"{method} requires {what}")
        return method is not None

    sites = _Sites(
        p_matrix,
        _checked_shares(shares, len(p_matrix)) if needed(1, shares, "per-site shares") else None,
        _checked_totals(total_count, p_matrix.shape[1]).astype(float)
        if needed(2, total_count, "total_count")
        else None,
        _checked_rho(rho) if needed(3, rho, "rho") else None,
    )
    return (_METHODS[m][0](sites) for m in methods)


def combine_by_id(method: str, ev: EvidenceSet) -> CombinedResult:
    """Combine one evidence set by method identifier (the CLI/config
    vocabulary); the one-method, M = 1 case of ``combine_methods``."""
    ((p, stat),) = combine_methods(
        (method,), np.asarray(ev.p_values)[:, None], ev.shares, ev.total_count, ev.rho
    )
    return CombinedResult(p=float(p[0]), statistic=float(stat[0]), method=method)


def combine_matrix(method: str, p_matrix, shares=None, total_count=None, rho=None):
    """Combine each column of an (N, M) p-value matrix; returns the (M,)
    array of combined p-values. The one-method case of ``combine_methods``."""
    return next(combine_methods((method,), p_matrix, shares, total_count, rho))[0]


def window_weights(n_site) -> tuple[np.ndarray, np.ndarray]:
    """Weighting context of per-site window totals ``n_site`` (N, M): each
    site's share of its column's pool (uniform where the pool is empty) and
    the pooled totals, floored at 1 so an empty pool is a valid total."""
    pool = n_site.sum(axis=0)
    totals = np.maximum(pool, 1)
    shares = np.where(pool > 0, n_site / totals, 1.0 / n_site.shape[0])
    return shares, totals
