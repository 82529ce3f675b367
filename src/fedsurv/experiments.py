"""Experiment engines behind the CLI: Monte Carlo power curves with
calibrated rejection thresholds, and semi-synthetic detection sweeps over
site count, signal magnitude, and share imbalance.

Both engines are deterministic given their integer seed: every random
stream is derived from one seed tree, and grid points get independent
branches so results do not shift when the grid changes order.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import combine
from .errors import ConfigError, DomainError, check_int_fields, checked_float, checked_floats
from .errors import checked_ints
from .evaluation import (
    AlarmSeries,
    MatchWindow,
    alarms_from_growth,
    alarms_from_pvalues,
    f1,
    pr_curves,
    recall_at_fdr,
)
from .semisynth import (
    _multinomial_table,
    _poisson,
    _poisson_counts,
    _seed_sequence,
    CountSeries,
    PrevalenceSeries,
    ShareVector,
    date_range,
    moving_average,
    normalized_entropy,
    scale_magnitude,
)
from .surge import SurgeHypothesis, _check_window_sums, window_p_values, window_totals

__all__ = [
    "POWER_METHODS",
    "PowerCurveConfig",
    "PowerPoint",
    "PowerCurveResult",
    "calibrate_threshold",
    "run_power_curve",
    "SemisynthConfig",
    "SweepRow",
    "SweepResult",
    "builtin_wave_counts",
    "run_semisynth_sweep",
]

# the engines' own baselines, scored without a combiner
_ENGINE_METHODS = ("centralized", "largest_site")
POWER_METHODS = _ENGINE_METHODS + combine.METHOD_IDS

DEFAULT_THETA_GRID = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# geometric coverage of the small-p region where the precision constraint
# binds, plus coarse high points so curves reach the permissive end
DEFAULT_THRESHOLDS = tuple(float(t) for t in np.geomspace(1e-8, 0.5, 40)) + (
    0.65,
    0.8,
    0.9,
)


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


def _child_seed(seed_seq: np.random.SeedSequence) -> int:
    return int(seed_seq.generate_state(1, np.uint64)[0])


def _check_distinct(keys: Sequence, field: str) -> None:
    """Raise ConfigError naming ``field`` at the first repeated key: two
    equal keys would make two output rows that no column tells apart."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ConfigError(f"{field} repeats {key!r}")
        seen.add(key)


def _check_methods(methods: Sequence[str]) -> None:
    """The engines' rule for ``methods``: nonempty, known, no repeats."""
    if not methods:
        raise ConfigError("methods must be nonempty")
    for m in methods:
        combine.check_method(m, POWER_METHODS)
    _check_distinct(methods, "methods")


# ----------------------------------------------------------- power curves


@dataclasses.dataclass(frozen=True)
class PowerCurveConfig:
    hypothesis: SurgeHypothesis = SurgeHypothesis()
    n_total: int = 200
    shares: tuple[float, ...] = (0.5, 0.5)
    theta_grid: tuple[float, ...] = DEFAULT_THETA_GRID
    methods: tuple[str, ...] = POWER_METHODS
    calibration_reps: int = 100_000
    power_reps: int = 50_000

    def __post_init__(self) -> None:
        check_int_fields(self, ConfigError, n_total=1, calibration_reps=1000, power_reps=1000)
        ShareVector(self.shares)
        if not self.theta_grid:
            raise ConfigError("theta_grid must be nonempty")
        grid = checked_floats(
            self.theta_grid, "theta_grid", -1.0, strict=True, error=ConfigError, ndim=1
        )
        _check_distinct(grid.tolist(), "theta_grid")
        _check_methods(self.methods)

    @property
    def baseline_rate(self) -> float:
        """Pooled per-period rate chosen so the expected null window total
        is n_total: l baseline periods plus one test period at 1+theta."""
        hyp = self.hypothesis
        return self.n_total / (hyp.baseline_len + 1.0 + hyp.theta)


class PowerPoint(NamedTuple):
    method: str
    theta_alt: float
    power: float


@dataclasses.dataclass(frozen=True)
class PowerCurveResult:
    points: tuple[PowerPoint, ...]
    thresholds: dict
    calibration_rates: dict


def _method_pvalues(
    methods: Sequence[str],
    c_site: np.ndarray,
    n_site: np.ndarray,
    hyp: SurgeHypothesis,
    largest: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Every method's p-values for (N, K) per-site baseline and window
    totals; both engines score their replicates through here.

    Returns the centralized test's (K,) p-values on the pooled totals and
    an (M, K) matrix with one row per method, in the order of ``methods``;
    the combiners' rows come from one ``combine.combine_methods`` pass.
    """
    _check_window_sums(n_site.shape[0], n_site)  # the pooled totals
    p_site = window_p_values(c_site, n_site, hyp)
    p_central = window_p_values(c_site.sum(axis=0), n_site.sum(axis=0), hyp)
    shares, totals = combine.window_weights(n_site)
    combined = combine.combine_methods(
        [m for m in methods if m not in _ENGINE_METHODS], p_site, shares, totals, hyp.rho
    )
    rows = np.empty((len(methods), p_central.size))
    for row, m in zip(rows, methods):
        if m == "centralized":
            row[:] = p_central
        elif m == "largest_site":
            row[:] = p_site[largest]
        else:
            row[:] = next(combined)[0]
    return p_central, rows


def _simulate_method_pvalues(
    rng: np.random.Generator, cfg: PowerCurveConfig, theta_alt: float, reps: int
) -> dict:
    """One Monte Carlo batch: per-method arrays of `reps` p-values.

    Every method sees the same draws, so cross-method comparisons are
    paired. Sites draw Poisson baselines at their share of the pooled rate
    and a test count inflated by 1+theta_alt.
    """
    hyp = cfg.hypothesis
    shares = np.asarray(cfg.shares, dtype=float)
    n_sites = shares.size
    lam_site = cfg.baseline_rate * shares
    base = _poisson(rng, lam_site[:, None, None], (n_sites, hyp.baseline_len, reps))
    test = _poisson(rng, lam_site[:, None] * (1.0 + theta_alt), (n_sites, reps))

    _check_window_sums(hyp.baseline_len + 1, base, test)
    c_site = base.sum(axis=1)
    _, rows = _method_pvalues(cfg.methods, c_site, c_site + test, hyp, int(np.argmax(shares)))
    return dict(zip(cfg.methods, rows))


# calibrate_threshold's band around alpha, and its number of bisection steps
_CALIBRATION_TOL = 0.002
_CALIBRATION_STEPS = 200


def calibrate_threshold(null_pvalues, alpha: float) -> tuple[float, float]:
    """Bisect the rejection threshold against the empirical null sample and
    return the achievable rejection rate nearest alpha within
    ``_CALIBRATION_TOL``. If every rate the bisection visits misses the band
    (an atom of the discrete p-value distribution straddles it), settle on
    the conservative side. Returns (threshold, achieved rate)."""
    srt = np.sort(np.asarray(null_pvalues, dtype=float))
    m = srt.size
    if m == 0 or np.isnan(srt[-1]):
        raise DomainError("the null sample must be a nonempty set of p-values without NaN")

    def rate(th: float) -> float:
        return float(np.searchsorted(srt, th, side="left")) / m

    lo, hi = 0.0, 1.0
    best = None
    for _ in range(_CALIBRATION_STEPS):
        mid = 0.5 * (lo + hi)
        r = rate(mid)
        gap = abs(r - alpha)
        if gap <= _CALIBRATION_TOL and (best is None or gap < best[0]):
            best = (gap, mid, r)
        if r > alpha:
            hi = mid
        else:
            lo = mid
    if best is not None:
        return best[1], best[2]
    return lo, rate(lo)


def run_power_curve(cfg: PowerCurveConfig, seed: int) -> PowerCurveResult:
    """Calibrate each method's threshold at theta_alt=theta, then sweep the
    grid estimating rejection rates with fresh draws per grid point."""
    root = _seed_sequence(seed)
    calib_seq, *eval_seqs = root.spawn(1 + len(cfg.theta_grid))

    hyp = cfg.hypothesis
    null_samples = _simulate_method_pvalues(
        _rng(calib_seq), cfg, hyp.theta, cfg.calibration_reps
    )
    thresholds = {}
    rates = {}
    for method in cfg.methods:
        thresholds[method], rates[method] = calibrate_threshold(
            null_samples[method], hyp.alpha
        )

    points = []
    for theta_alt, seq in zip(cfg.theta_grid, eval_seqs):
        samples = _simulate_method_pvalues(_rng(seq), cfg, theta_alt, cfg.power_reps)
        for method in cfg.methods:
            power = float(np.mean(samples[method] < thresholds[method]))
            points.append(PowerPoint(method, float(theta_alt), power))
    points.sort(key=lambda pt: (pt.method, pt.theta_alt))
    return PowerCurveResult(tuple(points), thresholds, rates)


# ------------------------------------------------------ semisynth sweeps


def builtin_wave_counts() -> CountSeries:
    """Deterministic weekly fixture: a seasonal baseline with recurring
    epidemic bursts and reporting noise, shaped like surveillance counts.
    Fixed internal seed, so every call returns identical data."""
    length = 400
    t = np.arange(length, dtype=float)
    seasonal = 55.0 + 20.0 * np.sin(2.0 * np.pi * t / 52.0)
    burst = np.ones(length)
    profile = np.array([1.7, 2.6, 3.4, 2.9, 2.1, 1.5, 1.2])
    for start in range(20, length - len(profile), 36):
        burst[start : start + len(profile)] *= profile
    rng = _rng(np.random.SeedSequence(780331))
    noisy = _poisson(rng, seasonal * burst * rng.lognormal(0.0, 0.06, size=length))
    return CountSeries(
        "builtin",
        "weekly",
        date_range(datetime.date(2016, 1, 4), length, "weekly"),
        noisy,
    )


@dataclasses.dataclass(frozen=True)
class SemisynthConfig:
    hypothesis: SurgeHypothesis = SurgeHypothesis()
    smoothing_window: int = 5
    n_replicates: int = 20
    site_sweep: tuple[int, ...] = (2, 5, 10, 20)
    # the site sweep probes small-count behavior, so it runs leaner than
    # the magnitude/imbalance sweeps
    site_sweep_magnitude: float = 0.2
    magnitude_sweep: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0)
    dominant_sweep: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    entropy_sites: int = 5
    methods: tuple[str, ...] = POWER_METHODS
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def __post_init__(self) -> None:
        check_int_fields(self, ConfigError, smoothing_window=1, n_replicates=1, entropy_sites=2)
        sites = checked_ints(self.site_sweep, "site count", 1, error=ConfigError, ndim=1)
        object.__setattr__(self, "site_sweep", tuple(sites.tolist()))
        _check_distinct(self.site_sweep, "site_sweep")
        checked_float(
            self.site_sweep_magnitude, "site_sweep_magnitude", 0.0, strict=True, error=ConfigError
        )
        mags = checked_floats(
            self.magnitude_sweep, "magnitude_sweep", 0.0, strict=True, error=ConfigError, ndim=1
        )
        lowest = 1.0 / self.entropy_sites
        doms = checked_floats(
            self.dominant_sweep, "dominant_sweep", lowest, 1.0, error=ConfigError, ndim=1
        )
        # compared as the setting string each sweep row carries
        _check_distinct([f"{v:g}" for v in mags.tolist()], "magnitude_sweep")
        _check_distinct([f"{v:g}" for v in doms.tolist()], "dominant_sweep")
        if not (sites.size or mags.size or doms.size):
            raise ConfigError(
                "site_sweep, magnitude_sweep and dominant_sweep are all empty; "
                "at least one sweep needs a point"
            )
        _check_methods(self.methods)
        if not self.thresholds:
            raise ConfigError("thresholds must be nonempty")
        checked_floats(self.thresholds, "thresholds", 0.0, 1.0, strict=True, error=ConfigError)


class SweepRow(NamedTuple):
    sweep: str
    setting: str
    entropy: float
    method: str
    recall_at_fdr: float
    f1: float


@dataclasses.dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    truth_alarm_counts: dict


# Site-windows (sites x windows per replicate) that one sweep group scores
# in one `_method_pvalues` call: groups of 20, 8, 4 and 2 replicates at 2,
# 5, 10 and 20 sites on the default sweep. Larger groups make fewer, wider
# combiner and `pr_curves` calls, so each call's fixed cost is paid less
# often (Gamma inversions are shared across groups by `numerics.gamma_isf`'s
# memo at any size); with `pr_curves` matching in blocks of bounded size,
# this size keeps the sweep's peak memory within about half a megabyte of
# groups half as large.
_SWEEP_GROUP_SITE_WINDOWS = 16_000


def _sweep_point(
    cfg: SemisynthConfig,
    prev: PrevalenceSeries,
    shares: ShareVector,
    truth_growth,
    window: MatchWindow,
    replicate_seqs,
) -> dict:
    """Replicate-averaged (recall@FDR0.1, F1-vs-centralized) per method.

    Each replicate draws its pooled series and site split from its own
    seeds. Replicates are scored in groups of as many whole replicates as
    fit in ``_SWEEP_GROUP_SITE_WINDOWS`` site-windows, and at least one (20,
    8, 4 and 2 replicates at 2, 5, 10 and 20 sites on the default sweep),
    and a group is the unit of work: one `_method_pvalues` call, which
    scores every combiner in one `combine.combine_methods` pass, one
    p-value per window ending at t = l, ..., T - 1; then two `pr_curves`
    calls over the whole group's rows, stacked method by method. The
    first matches them against the growth truth at every threshold; the
    second at alpha, each row against its own replicate's centralized
    alarms, passed as one truth per row. Every p-value is computed column
    by column and every (row, threshold) pair is scored on its own, so
    neither the grouping, the stacking nor `pr_curves`' blocking changes a
    bit. The growth truth is shifted by -l into the series' own indices
    once. The first l periods have no window, so they could never alarm.
    Scores fill C-contiguous (methods, replicates) arrays, so each method's
    mean sums its replicates in the same order as a 1-D `np.mean`."""
    hyp = cfg.hypothesis
    l = hyp.baseline_len
    alpha = hyp.alpha
    n_sites = shares.n_sites
    largest = int(np.argmax(shares.shares))
    truth_growth = AlarmSeries(tuple(t - l for t in truth_growth.period_indices))
    group = max(1, _SWEEP_GROUP_SITE_WINDOWS // (n_sites * (prev.length - l)))
    recall_fdr = np.empty((len(cfg.methods), len(replicate_seqs)))
    f1_central = np.empty_like(recall_fdr)
    for first in range(0, len(replicate_seqs), group):
        counts = []
        for seq in replicate_seqs[first : first + group]:
            sample_seq, split_seq = seq.spawn(2)
            pooled = _poisson_counts(prev, _child_seed(sample_seq))
            counts.append(_multinomial_table(pooled, shares, _child_seed(split_seq)).T)
        # (N, R, K) totals; each site's row holds the replicates side by side
        c_site, n_site = window_totals(np.stack(counts, axis=1), l)
        _, n_reps, k = c_site.shape
        p_central, rows = _method_pvalues(
            cfg.methods,
            c_site.reshape(n_sites, n_reps * k),
            n_site.reshape(n_sites, n_reps * k),
            hyp,
            largest,
        )
        p_central = p_central.reshape(n_reps, k)
        # (methods x replicates, windows), a view: each method's rows are adjacent
        rows = rows.reshape(-1, k)
        growth = pr_curves(rows, truth_growth, window, cfg.thresholds)
        recall_fdr[:, first : first + n_reps] = recall_at_fdr(*growth, 0.1).reshape(-1, n_reps)
        truth_central = [alarms_from_pvalues(p, alpha) for p in p_central]
        f1_central[:, first : first + n_reps] = f1(
            *pr_curves(rows, truth_central * len(cfg.methods), window, (alpha,))
        )[:, 0].reshape(-1, n_reps)
    means = zip(recall_fdr.mean(axis=1).tolist(), f1_central.mean(axis=1).tolist())
    return dict(zip(cfg.methods, means))


def dominant_profile(dominant: float, n_sites: int) -> ShareVector:
    """One site holding `dominant`, the rest splitting the remainder."""
    if n_sites < 2:
        raise ConfigError("dominant profile needs at least two sites")
    rest = (1.0 - dominant) / (n_sites - 1)
    return ShareVector((dominant,) + (rest,) * (n_sites - 1))


def run_semisynth_sweep(
    cfg: SemisynthConfig, seed: int, counts: Optional[CountSeries] = None
) -> SweepResult:
    """The full pipeline (smooth, sample, split, combine, evaluate) swept
    over site count, magnitude, and share imbalance.

    Ground truth for recall@FDR0.1 is the growth-alarm set of the latent
    prevalence; F1 compares each method's alarms at alpha against the
    centralized exact test's alarms, so centralized scores 1 by definition.
    """
    base = counts if counts is not None else builtin_wave_counts()
    prev = moving_average(base, cfg.smoothing_window)
    window = MatchWindow.default_for(base.period)
    hyp = cfg.hypothesis

    sweep_points = []
    for n in cfg.site_sweep:
        sweep_points.append(("sites", str(n), cfg.site_sweep_magnitude, ShareVector.equal(n), 1.0))
    for mag in cfg.magnitude_sweep:
        sweep_points.append(
            ("magnitude", f"{float(mag):g}", float(mag), ShareVector.equal(cfg.entropy_sites), 1.0)
        )
    for dom in cfg.dominant_sweep:
        shares = dominant_profile(float(dom), cfg.entropy_sites)
        sweep_points.append(
            ("entropy", f"{float(dom):g}", 1.0, shares, normalized_entropy(shares))
        )

    root = _seed_sequence(seed)
    point_seqs = root.spawn(len(sweep_points))

    rows = []
    truth_counts = {}
    for (sweep, setting, mag, shares, entropy), seq in zip(sweep_points, point_seqs):
        scaled = prev if mag == 1.0 else scale_magnitude(prev, mag)
        truth = alarms_from_growth(scaled, hyp.theta, hyp.baseline_len)
        truth_counts[(sweep, setting)] = len(truth)
        per_method = _sweep_point(
            cfg, scaled, shares, truth, window, seq.spawn(cfg.n_replicates)
        )
        ent = entropy if shares.n_sites >= 2 else float("nan")
        for method in cfg.methods:
            recall_fdr, f1_score = per_method[method]
            rows.append(SweepRow(sweep, setting, ent, method, recall_fdr, f1_score))
    return SweepResult(tuple(rows), truth_counts)
