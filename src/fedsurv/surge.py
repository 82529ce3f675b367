"""Exact Poisson rate-ratio surge test, Gaussian approximation, and power.

A surge at test period T means the Poisson rate grew by more than a
threshold theta relative to the mean of the preceding l baseline periods.
Conditioning on the total count n = c + k_T turns the composite Poisson
null (rate ratio <= 1 + theta) into a one-sided binomial test: under the
boundary null, the baseline total c is Binomial(n, rho) with
rho = l / (1 + theta + l), and the p-value is the lower binomial tail at
the observed c. The conditional construction sidesteps the baseline rate
entirely, which is why no rate estimator appears anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import INT64_MAX, BoundsNotApplicableError, ConfigError, DomainError
from .errors import check_int_fields, checked_float, checked_int, checked_ints

__all__ = [
    "SurgeHypothesis",
    "SurgeWindow",
    "PowerScenario",
    "ApproximationDiagnostics",
    "PowerTerms",
    "exact_p_value",
    "window_totals",
    "window_p_values",
    "gaussian_p_value",
    "critical_value",
    "power_exact",
    "power_approx",
    "power_approx_terms",
    "diagnostics",
]


@dataclass(frozen=True)
class SurgeHypothesis:
    """Test configuration: surge threshold, baseline length, type I rate.
    Defaults: theta 0.3, baseline_len 4, alpha 0.05; every command that
    reads a hypothesis from its config applies them."""

    theta: float = 0.3
    baseline_len: int = 4
    alpha: float = 0.05

    def __post_init__(self):
        object.__setattr__(self, "theta", checked_float(self.theta, "theta", 0.0))
        check_int_fields(self, baseline_len=1)
        object.__setattr__(self, "alpha", checked_float(self.alpha, "alpha", 0.0, 1.0, strict=True))

    @property
    def rho(self) -> float:
        """Null binomial success probability of a baseline count."""
        return self.baseline_len / (1.0 + self.theta + self.baseline_len)

    @property
    def q(self) -> float:
        """Null binomial success probability of the test count; rho + q = 1."""
        return (1.0 + self.theta) / (1.0 + self.theta + self.baseline_len)


@dataclass(frozen=True)
class SurgeWindow:
    """One site's counts: l baseline periods followed by the test period."""

    baseline_counts: tuple[int, ...]
    test_count: int

    def __post_init__(self):
        baseline = checked_ints(self.baseline_counts, "baseline count", 0, ndim=1)
        object.__setattr__(self, "baseline_counts", tuple(baseline.tolist()))
        check_int_fields(self, test_count=0)

    @property
    def baseline_total(self) -> int:
        return sum(self.baseline_counts)

    @property
    def total(self) -> int:
        return self.baseline_total + self.test_count


@dataclass(frozen=True)
class PowerScenario:
    """Power evaluation point: total count n and true growth theta_alt.

    theta_alt below the tested threshold is allowed (power drops below
    alpha there), so full curves can be traced through the null.
    """

    n: int
    theta_alt: float
    hypothesis: SurgeHypothesis

    def __post_init__(self):
        check_int_fields(self, n=1)
        object.__setattr__(self, "theta_alt", checked_float(self.theta_alt, "theta_alt", 0.0))

    @property
    def q_alt(self) -> float:
        l = self.hypothesis.baseline_len
        return (1.0 + self.theta_alt) / (1.0 + self.theta_alt + l)


@dataclass(frozen=True)
class ApproximationDiagnostics:
    """Error gauges for the Gaussian and log-tail approximations.

    kl is the relative entropy between the observed split (c/n, 1-c/n) and
    the null split (rho, 1-rho). The log-tail bracket
    -n*kl - log(2n)/2 <= log p <= -n*kl is valid on the depressed side
    (c/n < rho); gaussian_first_order_error is the leading Edgeworth
    correction to the plain normal tail, rounding term included.
    """

    gaussian_first_order_error: float
    log_p_lower: float
    log_p_upper: float
    kl: float


class PowerTerms(NamedTuple):
    """Signed addends of the analytic power z-score."""

    magnitude: float
    type_one: float
    continuity: float


def _check_window(window: SurgeWindow, hyp: SurgeHypothesis) -> None:
    if len(window.baseline_counts) != hyp.baseline_len:
        raise ConfigError(
            f"window has {len(window.baseline_counts)} baseline periods, "
            f"hypothesis expects {hyp.baseline_len}"
        )


def exact_p_value(window: SurgeWindow, hyp: SurgeHypothesis) -> float:
    """One-sided exact p-value Pr[r >= k_T | n], r ~ Binomial(n, q).

    Equivalently the lower binomial tail of the baseline total at the
    double ``hyp.rho``; the one-window case of ``window_p_values``.
    """
    _check_window(window, hyp)
    c, n = np.array([[window.baseline_total], [window.total]])
    return float(window_p_values(c, n, hyp)[0])


def _check_window_sums(width: int, *counts: np.ndarray) -> None:
    """Raise DomainError unless any ``width`` of the nonnegative ``counts``
    sum inside int64: one bound on the largest count, checked in O(1)
    after its max, instead of a check of every sum."""
    top = max(int(c.max(initial=0)) for c in counts)
    if top * width > INT64_MAX:
        raise DomainError(
            f"window total overflows int64: {width} counts of up to {top} "
            f"can sum past {INT64_MAX}"
        )


def window_totals(counts, baseline_len: int) -> tuple[np.ndarray, np.ndarray]:
    """Baseline totals c and window totals n of the windows ending at
    t = l, ..., T - 1 along the last axis of ``counts``, from one cumulative
    sum; empty along that axis when T <= l. The counts are integers >= 0
    along at least one axis. Raises DomainError when l + 1 counts as large
    as the largest can overflow int64. The cumulative sum itself may wrap:
    a window total is a difference of two prefixes, exact modulo 2**64 and
    so exact whenever the total fits."""
    counts = checked_ints(counts, "count", 0)
    l = checked_int(baseline_len, "baseline_len", 1)
    if counts.ndim == 0:
        raise DomainError("counts must have a time axis, got a scalar")
    _check_window_sums(l + 1, counts)
    zeros = np.zeros(counts.shape[:-1] + (1,), dtype=np.int64)
    prefix = np.concatenate((zeros, np.cumsum(counts, axis=-1)), axis=-1)
    T = counts.shape[-1]
    start = prefix[..., : max(T - l, 0)]
    return prefix[..., l:T] - start, prefix[..., l + 1 :] - start


def window_p_values(c, n, hyp: SurgeHypothesis) -> np.ndarray:
    """Exact p-values for arrays of windows given as baseline totals c and
    window totals n (same shape), integers by ``errors.checked_ints``.

    The rule for every window: an empty window (n = 0) carries no evidence
    and gets 1; up to ``numerics.EXACT_MAX_N`` counts the value is the
    correctly rounded tail (``binomial_cdf_exact``), which no library
    build can move; larger windows go through ``binomial_cdf``.
    """
    c_arr = checked_ints(c, "c", 0)
    n_arr = checked_ints(n, "n", 0)
    if c_arr.shape != n_arr.shape:
        raise ConfigError(f"c has shape {c_arr.shape} but n has shape {n_arr.shape}")
    rho = hyp.rho
    p = np.empty(c_arr.shape)
    above = n_arr > numerics.EXACT_MAX_N
    below = ~above
    # a kernel with no windows is skipped: it would still validate its
    # empty input, and the exact one would build its per-rho table
    if below.any():
        p[below] = numerics.binomial_cdf_exact(c_arr[below], n_arr[below], rho)
    if above.any():
        p[above] = numerics.binomial_cdf(c_arr[above], n_arr[above], rho)
    return p


def gaussian_p_value(window: SurgeWindow, hyp: SurgeHypothesis, yates: bool = False) -> float:
    """Normal approximation Phi(z) with z = (c [+ 1/2] - n*rho) / sqrt(n*rho*(1-rho)).

    The optional half-count shift is the Yates continuity correction for
    the depressed-tail direction; it always moves the p-value upward.
    """
    _check_window(window, hyp)
    n = window.total
    if n == 0:
        return 1.0
    rho = hyp.rho
    c = window.baseline_total + (0.5 if yates else 0.0)
    z = (c - n * rho) / math.sqrt(n * rho * (1.0 - rho))
    return numerics.normal_cdf(z)


def _tail_at_least(k: int, n: int, success: float) -> float:
    """Pr[X >= k] for X ~ Binomial(n, success)."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return numerics.binomial_cdf(n - k, n, 1.0 - success)


def critical_value(n: int, hyp: SurgeHypothesis) -> int:
    """Smallest k with Pr[r >= k | n, q] <= alpha; n + 1 when unattainable.

    The tail is strictly decreasing in k, so a binary search over
    0..n+1 finds the threshold with O(log n) tail evaluations.
    """
    n = checked_int(n, "n", 1)
    q = hyp.q
    alpha = hyp.alpha
    if _tail_at_least(n, n, q) > alpha:
        return n + 1
    lo, hi = 0, n  # invariant: tail(hi) <= alpha
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_at_least(mid, n, q) <= alpha:
            hi = mid
        else:
            lo = mid + 1
    return hi


def power_exact(scn: PowerScenario) -> float:
    """Exact rejection probability under growth theta_alt.

    Tail of Binomial(n, q') at the integer critical value, q' being the
    test-count success probability at the alternative. The integer
    critical value makes the test conservative: at theta_alt = theta the
    value is at most alpha, usually strictly below it.
    """
    k_cr = critical_value(scn.n, scn.hypothesis)
    return _tail_at_least(k_cr, scn.n, scn.q_alt)


def power_approx_terms(scn: PowerScenario) -> PowerTerms:
    """The three signed z-score addends of the analytic power formula.

    magnitude grows with sqrt(n*l) and the excess growth; type_one is the
    alpha penalty (exactly -Z_alpha at theta_alt = theta); continuity is
    the half-count correction, strictly negative for finite n and
    vanishing as n grows.
    """
    hyp = scn.hypothesis
    n, l = scn.n, hyp.baseline_len
    theta, tp = hyp.theta, scn.theta_alt
    z_alpha = numerics.normal_quantile(1.0 - hyp.alpha)
    denom = (1.0 + theta + l) * math.sqrt(1.0 + tp)
    magnitude = math.sqrt(n * l) * (tp - theta) / denom
    type_one = -z_alpha * (1.0 + tp + l) * math.sqrt(1.0 + theta) / denom
    continuity = -(1.0 + tp + l) / (2.0 * math.sqrt(n * l * (1.0 + tp)))
    return PowerTerms(magnitude, type_one, continuity)


def power_approx(scn: PowerScenario) -> float:
    """Gaussian approximation of ``power_exact`` (continuity-corrected)."""
    terms = power_approx_terms(scn)
    return numerics.normal_cdf(terms.magnitude + terms.type_one + terms.continuity)


def diagnostics(window: SurgeWindow, hyp: SurgeHypothesis) -> ApproximationDiagnostics:
    """Approximation-quality gauges for an interior window (0 < c < n).

    Boundary counts are rejected because the log-tail bracket needs both
    entropy terms finite.
    """
    _check_window(window, hyp)
    n = window.total
    c = window.baseline_total
    if n < 1:
        raise BoundsNotApplicableError("empty window has no diagnostics")
    if c == 0 or c == n:
        raise BoundsNotApplicableError("bounds need an interior count (0 < c < n)")
    rho = hyp.rho
    frac_c = c / n
    kl = frac_c * math.log(c / (n * rho)) + (1.0 - frac_c) * math.log(
        (n - c) / (n * (1.0 - rho))
    )
    log_p_upper = -n * kl
    log_p_lower = -n * kl - 0.5 * math.log(2.0 * n)

    sigma = math.sqrt(n * rho * (1.0 - rho))
    z = (c - n * rho) / sigma
    # Rounding term 1/2 - frac(n*rho + z*sigma). The argument reconstructs
    # the integer c, so the fractional part is 0 up to float wrap; values
    # within 1e-9 of 1 are folded back to 0.
    x = n * rho + z * sigma
    frac = x - math.floor(x)
    if frac > 1.0 - 1e-9:
        frac = 0.0
    epsilon_r = 0.5 - frac
    skew = (1.0 - 2.0 * rho) * (1.0 - z * z) / 6.0
    first_order = (skew + epsilon_r) * numerics.normal_pdf(z) / sigma
    return ApproximationDiagnostics(
        gaussian_first_order_error=first_order,
        log_p_lower=log_p_lower,
        log_p_upper=log_p_upper,
        kl=kl,
    )
