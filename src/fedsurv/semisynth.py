"""Semi-synthetic surveillance data.

Real count series are smoothed into a latent prevalence curve, optionally
rescaled, re-sampled as Poisson observations, and split across synthetic
sites with a chosen share profile. Sampling uses a counter-based generator
(Philox) so every artifact is reproducible from its integer seed.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
from typing import Iterable, Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy 2 would load it lazily, inside a seeded run

from .errors import ConfigError, DomainError, checked_float, checked_floats, checked_int
from .errors import checked_ints, checked_shares

__all__ = [
    "CountSeries",
    "PrevalenceSeries",
    "ShareVector",
    "date_range",
    "period_step",
    "moving_average",
    "poisson_sample",
    "split_multinomial",
    "scale_magnitude",
    "normalized_entropy",
]

_PERIOD_DAYS = {"daily": 1, "weekly": 7}


def period_step(period: str) -> datetime.timedelta:
    """Timestamp spacing implied by a cadence name."""
    if period not in _PERIOD_DAYS:
        raise ConfigError(f"unknown cadence {period!r}; expected 'daily' or 'weekly'")
    return datetime.timedelta(days=_PERIOD_DAYS[period])


def date_range(start: datetime.date, length: int, period: str) -> tuple[datetime.date, ...]:
    """Evenly spaced dates starting at `start`, one per period."""
    step = period_step(period)
    return tuple(start + i * step for i in range(checked_int(length, "length", 0)))


def _check_timeline(timestamps: Sequence[datetime.date], period: str) -> None:
    step = period_step(period)
    for a, b in zip(timestamps, timestamps[1:]):
        if b - a != step:
            raise DomainError(
                f"timestamps must be strictly increasing with {period} spacing; "
                f"got {a} then {b}"
            )


def _check_aligned(series: Sequence["CountSeries"]) -> None:
    """Raise ConfigError unless every series has the first one's cadence
    and timestamps: the rule for sites that are pooled or combined."""
    for s in series[1:]:
        if s.timestamps != series[0].timestamps or s.period != series[0].period:
            raise ConfigError("sites must share cadence and timestamp alignment")


@dataclasses.dataclass(frozen=True)
class CountSeries:
    """One site's observed counts on a regular daily or weekly timeline."""

    site_id: str
    period: str
    timestamps: tuple[datetime.date, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = checked_ints(self.counts, "count", 0, ndim=1)
        if len(counts) != len(self.timestamps):
            raise DomainError("timestamps and counts must have equal length")
        _check_timeline(self.timestamps, self.period)
        object.__setattr__(self, "counts", tuple(counts.tolist()))

    @property
    def length(self) -> int:
        return len(self.counts)


@dataclasses.dataclass(frozen=True)
class PrevalenceSeries:
    """Latent nonnegative rate per timestamp on the same timeline rules."""

    period: str
    timestamps: tuple[datetime.date, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(checked_floats(self.rates, "rates", 0.0, ndim=1)) != len(self.timestamps):
            raise DomainError("timestamps and rates must have equal length")
        _check_timeline(self.timestamps, self.period)

    @property
    def length(self) -> int:
        return len(self.rates)


@dataclasses.dataclass(frozen=True)
class ShareVector:
    """Site share profile: nonnegative fractions summing to one, by the
    package's one share rule (``errors.checked_shares``), kept as floats."""

    shares: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shares", tuple(checked_shares(self.shares, ndim=1).tolist()))

    @property
    def n_sites(self) -> int:
        return len(self.shares)

    @staticmethod
    def equal(n_sites: int) -> "ShareVector":
        n_sites = checked_int(n_sites, "n_sites", 1)
        return ShareVector((1.0 / n_sites,) * n_sites)


def _coerce_shares(shares: "ShareVector | Iterable[float]") -> ShareVector:
    return shares if isinstance(shares, ShareVector) else ShareVector(tuple(shares))


def _checked_seed(seed) -> int:
    """A seed is a nonnegative integer of any size."""
    return checked_int(seed, "seed", 0, maximum=None, error=ConfigError)


def _seed_sequence(seed: int) -> np.random.SeedSequence:
    """The root of every seeded stream."""
    return np.random.SeedSequence(_checked_seed(seed))


def _generator(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    """The Philox stream of every seeded draw."""
    return np.random.Generator(np.random.Philox(seed_seq))


def moving_average(series: CountSeries, window: int) -> PrevalenceSeries:
    """Smooth counts into a prevalence curve.

    Interior points take the mean of a window centered on them (even widths
    reach one step further forward than back). Where the centered window
    would run off either end, the point falls back to a trailing window of
    however many observations exist, so the output stays aligned with the
    input timeline and a window longer than the series is still defined.
    """
    w = checked_int(window, "window", 1)
    if series.length == 0:
        raise DomainError("cannot smooth an empty series")
    prefix = np.concatenate(([0.0], np.cumsum(np.asarray(series.counts, dtype=float))))
    i = np.arange(series.length)
    back, fwd = (w - 1) // 2, w // 2
    inside = (i >= back) & (i + fwd < series.length)
    lo = np.where(inside, i - back, np.maximum(i - w + 1, 0))
    hi = np.where(inside, i + fwd, i) + 1
    rates = (prefix[hi] - prefix[lo]) / (hi - lo)
    return PrevalenceSeries(series.period, series.timestamps, tuple(rates.tolist()))


# numpy's Poisson sampler rejects any rate above this: the int64 maximum
# less ten standard deviations of a draw at that rate
_POISSON_MAX_RATE = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _poisson(rng: np.random.Generator, rates, size=None) -> np.ndarray:
    """``rng.poisson(rates, size)``, the one Poisson draw of every engine;
    a rate past numpy's limit raises DomainError instead of ValueError."""
    rates = np.asarray(rates, dtype=float)
    top = rates.max(initial=0.0)
    if not top <= _POISSON_MAX_RATE:
        raise DomainError(
            f"Poisson rate {top:g} exceeds the largest rate numpy can draw "
            f"from ({_POISSON_MAX_RATE:g})"
        )
    return rng.poisson(rates, size)


def _poisson_counts(prev: PrevalenceSeries, seed: int) -> np.ndarray:
    """The (T,) draw behind ``poisson_sample``; engines that need only the
    counts call it directly."""
    return _poisson(_generator(_seed_sequence(seed)), prev.rates)


def poisson_sample(
    prev: PrevalenceSeries, seed: int, site_id: str = "sampled"
) -> CountSeries:
    """Draw one Poisson observation per timestamp, deterministically in seed."""
    counts = _poisson_counts(prev, seed)
    return CountSeries(site_id, prev.period, prev.timestamps, counts)


def split_multinomial(
    series: CountSeries, shares: "ShareVector | Iterable[float]", seed: int
) -> list[CountSeries]:
    """Distribute each period's count across sites by a multinomial draw.

    Per-period sums reconstruct the input exactly, so the centralized series
    is always recoverable by adding the pieces back up. Output sites are
    named `<input id>-1` through `<input id>-N`.
    """
    sv = _coerce_shares(shares)
    table = _multinomial_table(series.counts, sv, seed)
    return [
        CountSeries(f"{series.site_id}-{i + 1}", series.period, series.timestamps, counts)
        for i, counts in enumerate(table.T)
    ]


def _multinomial_table(counts: Sequence[int], shares: ShareVector, seed: int) -> np.ndarray:
    """The (T, N) draw behind ``split_multinomial``, row t splitting
    counts[t]; engines that need only the count matrix call it directly."""
    probs = np.asarray(shares.shares, dtype=float)
    probs = probs / probs.sum()  # guard the 1e-9 slack before the draw
    return _generator(_seed_sequence(seed)).multinomial(np.asarray(counts, dtype=np.int64), probs)


def scale_magnitude(prev: PrevalenceSeries, multiplier: float) -> PrevalenceSeries:
    """Multiply every rate by a positive factor."""
    multiplier = checked_float(multiplier, "multiplier", 0.0, strict=True)
    return PrevalenceSeries(
        prev.period, prev.timestamps, tuple(r * multiplier for r in prev.rates)
    )


def normalized_entropy(shares: "ShareVector | Iterable[float]") -> float:
    """Share imbalance on a 0..1 scale: 1 at equal shares, 0 when one site
    holds everything. Zero shares contribute nothing. Undefined for a single
    site (the normalizer vanishes), so that raises."""
    sv = _coerce_shares(shares)
    if sv.n_sites < 2:
        raise DomainError("normalized entropy needs at least two sites")
    if len(set(sv.shares)) == 1:
        return 1.0  # equal shares are the maximum by definition; skip rounding
    h = -math.fsum(s * math.log(s) for s in sv.shares if s > 0)
    return min(1.0, max(0.0, h / math.log(sv.n_sites)))
