"""Independent reference implementations used only by the test suite.

Everything here is deliberately written against a different numerical
route than the library: log-space pmf summation with ``math.lgamma`` and
``math.fsum``, the C stdlib ``math.erf``, mpmath at 40 significant digits,
closed forms for even chi-square degrees of freedom, and plain bisection
for quantiles. If the library and these oracles agree, the agreement is
meaningful.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from fedsurv import combine, evaluation
from fedsurv import federation as fed
from fedsurv.semisynth import ShareVector

mpmath.mp.dps = 40


# ---------------------------------------------------------------- binomial

def binom_cdf_bruteforce(c: int, n: int, rho: float) -> float:
    """Direct (c+1)-term pmf sum, accumulated with fsum.

    Binomial coefficients are carried as exact big integers (iterative
    recurrence), so the only rounding is one log per coefficient plus the
    r*log(rho) products; per-term relative error stays near 1e-13 even at
    n = 1000.
    """
    if c >= n:
        return 1.0
    if rho == 0.0:
        return 1.0
    if rho == 1.0:
        return 0.0
    log_rho = math.log(rho)
    log_1m = math.log1p(-rho)
    terms = []
    comb = 1  # C(n, 0), updated exactly
    for r in range(c + 1):
        terms.append(math.exp(math.log(comb) + r * log_rho + (n - r) * log_1m))
        comb = comb * (n - r) // (r + 1)
    return min(1.0, math.fsum(terms))


def binom_tail_bruteforce(k: int, n: int, q: float) -> float:
    """Pr[X >= k] for X ~ Binomial(n, q), by summing the complement side."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    return binom_cdf_bruteforce(n - k, n, 1.0 - q)


def binom_cdf_fraction(c: int, n: int, rho: float) -> float:
    """Exact lower tail at the double rho, rounded once to a double.

    Fraction(rho) and 1 - Fraction(rho) share one power-of-two denominator
    d, so every term C(n,r) rho^r (1-rho)^(n-r) is an integer over d**n.
    The numerators come from math.comb and plain powers, and
    float(Fraction) rounds the exact total correctly.
    """
    r = Fraction(rho)
    s = 1 - r
    num = sum(math.comb(n, j) * r.numerator**j * s.numerator ** (n - j) for j in range(c + 1))
    return float(Fraction(num, r.denominator**n))


def binom_cdf_fraction_all(n: int, rho: float) -> list[float]:
    """binom_cdf_fraction(c, n, rho) for every c in 0..n, from running sums
    of the same integer numerators. int / int true division is correctly
    rounded, as float(Fraction) is."""
    r = Fraction(rho)
    a, b = r.numerator, r.denominator - r.numerator
    b_pow = [1]
    for _ in range(n):
        b_pow.append(b_pow[-1] * b)
    d = r.denominator**n
    out = []
    num = 0
    a_pow = 1
    for j in range(n + 1):
        num += math.comb(n, j) * a_pow * b_pow[n - j]
        a_pow *= a
        out.append(num / d)
    return out


def binom_cdf_table_bigint(top: int, rho: float) -> list[float]:
    """binom_cdf_fraction(c, n, rho) for every c <= n <= top, flat at index
    n(n+1)/2 + c: the exact big-integer table that numerics used before its
    fixed-point rows. With rho = a / d, the integer tails N(c, n) =
    sum_{j<=c} C(n,j) a**j b**(n-j), b = d - a, obey Pascal's rule
    N(c, n) = b N(c, n-1) + a N(c-1, n-1) with N(n, n) = d**n; one row is
    kept, updated in place from the high c down, and each entry is rounded
    once by int / int true division."""
    a, d = rho.as_integer_ratio()
    b = d - a
    row = [1]
    out = [1.0]
    for n in range(1, top + 1):
        scale = d**n
        row.append(scale)
        for c in range(n - 1, 0, -1):
            row[c] = b * row[c] + a * row[c - 1]
        row[0] *= b
        out.extend(num / scale for num in row)
    return out


def binom_cdf_mpmath(c: int, n: int, rho) -> float:
    rho = mpmath.mpf(rho)
    total = mpmath.mpf(0)
    for r in range(min(c, n) + 1):
        total += mpmath.binomial(n, r) * rho**r * (1 - rho) ** (n - r)
    return float(total)


# ------------------------------------------------------------------ normal

def normal_cdf_erf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def normal_cdf_mpmath(z) -> float:
    return float(mpmath.ncdf(mpmath.mpf(z)))


def normal_quantile_bisect(p: float, lo: float = -40.0, hi: float = 40.0) -> float:
    """Bisection against the erf-based CDF; ~1e-13 absolute accuracy."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normal_cdf_erf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -------------------------------------------------------------- chi-square

def chi2_sf_even_closed_form(x: float, df: int) -> float:
    """Survival function for even df = 2k: exp(-x/2) * sum_{j<k} (x/2)^j / j!."""
    if df % 2 != 0:
        raise ValueError("closed form needs even df")
    k = df // 2
    half = x / 2.0
    term = 1.0
    acc = [1.0]
    for j in range(1, k):
        term *= half / j
        acc.append(term)
    return math.exp(-half) * math.fsum(acc)


def chi2_sf_mpmath(x, df) -> float:
    x = mpmath.mpf(x)
    df = mpmath.mpf(df)
    return float(mpmath.gammainc(df / 2, x / 2, mpmath.inf, regularized=True))


def chi2_cdf_mpmath(x, df) -> float:
    x = mpmath.mpf(x)
    df = mpmath.mpf(df)
    return float(mpmath.gammainc(df / 2, 0, x / 2, regularized=True))


def gamma_cdf_mpmath(x, shape, rate) -> float:
    x = mpmath.mpf(x) * mpmath.mpf(rate)
    return float(mpmath.gammainc(mpmath.mpf(shape), 0, x, regularized=True))


def gamma_quantile_bisect(q: float, shape: float, rate: float) -> float:
    """Bracketed bisection on the mpmath regularized lower gamma CDF."""
    lo, hi = 0.0, 1.0
    while gamma_cdf_mpmath(hi, shape, rate) < q:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("bracket failure")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gamma_cdf_mpmath(mid, shape, rate) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------- exact means

def mean_fraction(values) -> Fraction:
    """Exact rational mean, for spreadsheet-style moving-average checks."""
    vals = [Fraction(v) for v in values]
    return sum(vals, Fraction(0)) / len(vals)


# ------------------------------------------------------- alarm matching

def best_matching_bruteforce(truth, predicted, before: int, after: int) -> int:
    """Maximum one-to-one TP count over all matchings (exponential scan).

    Only usable on small alarm sets; validates that the library's greedy
    matcher attains the optimum.
    """
    truth = list(truth)
    predicted = list(predicted)

    def compatible(t, p):
        return t - before <= p <= t + after

    best = 0

    def recurse(i, used):
        nonlocal best
        if i == len(truth):
            best = max(best, len(used))
            return
        recurse(i + 1, used)
        for j, p in enumerate(predicted):
            if j not in used and compatible(truth[i], p):
                recurse(i + 1, used | {j})

    recurse(0, frozenset())
    return best


def precision_recall(counts) -> tuple[float, float]:
    """Precision and recall of one `evaluation.MatchCounts` with the
    empty-side conventions: raising no alarms yields precision 1, and an
    empty truth set yields recall 1."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 1.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 1.0
    return precision, recall


def pr_points_by_matching(p_series, truth, window, thresholds) -> list[tuple]:
    """(threshold, precision, recall) per sorted threshold, one series at a
    time, through the library's scalar `alarms_from_pvalues` and
    `match_alarms`: the definition the batched `evaluation.pr_curves` must
    meet. Unlike the rest of this module it reuses library code; the greedy
    `match_alarms` is itself checked against `best_matching_bruteforce`."""
    points = []
    for th in sorted(thresholds):
        predicted = evaluation.alarms_from_pvalues(p_series, th)
        counts = evaluation.match_alarms(truth, predicted, window)
        points.append((float(th),) + precision_recall(counts))
    return points


# -------------------------------------------------------------- federation

def site_coarse_reports(site, cfg) -> tuple:
    """A site's `fed.CoarseReport` for every complete reporting cycle in its
    history, one Python sum per cycle. Cycle k covers periods
    [k*C, (k+1)*C - 1] and is released `lag` periods after its last one.
    The reference for the cycle-total table of `fed._estimated_weights`."""
    c = cfg.reporting_cycle
    counts = site.counts
    reports = []
    k = 0
    while (k + 1) * c <= len(counts):
        total = sum(counts[k * c : (k + 1) * c])
        reports.append(fed.CoarseReport(site.site_id, k, total))
        k += 1
    return tuple(reports)


def run_federation_per_period(sites, cfg) -> list:
    """`fed.run_federation` one period at a time: at every t each site
    computes one report (`site_compute_report`), known shares are slice sums
    of the raw counts, and estimated ones rescan every coarse report
    (`estimate_shares`, `estimated_window_total`). The definition the
    batched loop must meet; like `pr_points_by_matching` it reuses library
    code, whose pieces are tested on their own."""
    ordered = sorted(sites, key=lambda s: s.site_id)
    ids = [s.site_id for s in ordered]
    l = cfg.hypothesis.baseline_len
    coarse = []
    if cfg.share_source == "estimated":
        coarse = [r for s in ordered for r in site_coarse_reports(s, cfg)]
    out = []
    for t in range(l, ordered[0].length):
        reports = [fed.site_compute_report(s, t, cfg.hypothesis) for s in ordered]
        shares = total = None
        if cfg.share_source == "known":
            totals = [sum(s.counts[t - l : t + 1]) for s in ordered]
            total = sum(totals)
            if total == 0:
                shares, total = ShareVector.equal(len(ordered)), 1
            else:
                shares = ShareVector(tuple(v / total for v in totals))
        elif cfg.share_source == "estimated":
            shares = fed.estimate_shares(coarse, t, cfg, ids)
            total = fed.estimated_window_total(coarse, t, cfg, ids)
        result = fed.aggregate_period(reports, cfg, shares=shares, total_count=total)
        used = shares.shares if cfg.method in combine.SHARE_METHODS else None
        out.append(fed.CombinedPeriod(t, result.p, used))
    return out


# ------------------------------------------------------------- KS uniform

# Asymptotic two-sided Kolmogorov-Smirnov critical value at the 1% level:
# D_crit = K / sqrt(m) with K = 1.6276 (Kolmogorov distribution 0.99 point).
KS_K_ALPHA_01 = 1.6276


def ks_statistic_uniform(samples) -> float:
    """Two-sided KS distance between sorted samples and U[0,1]."""
    xs = sorted(samples)
    m = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        d = max(d, abs((i + 1) / m - x), abs(x - i / m))
    return d
