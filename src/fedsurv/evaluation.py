"""Alarm generation and scoring.

P-value or growth-rate series become point alarms, predicted alarms are
matched to ground-truth alarms inside an asymmetric time window, and the
match counts roll up into precision/recall curves, recall at a fixed false
discovery rate, and F1.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .semisynth import PrevalenceSeries

__all__ = [
    "AlarmSeries",
    "MatchWindow",
    "MatchCounts",
    "alarms_from_pvalues",
    "alarms_from_growth",
    "match_alarms",
    "pr_curve",
    "pr_curves",
    "recall_at_fdr",
    "f1",
]


def _period_index(idx) -> int:
    """`idx` as an int; anything that is not an integral number (NaN,
    infinities, fractions, None, strings) is a DomainError."""
    try:
        as_int = int(idx)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if as_int is None or as_int != idx:
        raise DomainError(f"alarm indices must be integers, got {idx!r}")
    return as_int


@dataclasses.dataclass(frozen=True)
class AlarmSeries:
    """Period indices at which an alarm fired, strictly increasing."""

    period_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = tuple(_period_index(idx) for idx in self.period_indices)
        for a, b in zip(indices, indices[1:]):
            if b <= a:
                raise DomainError("alarm indices must be sorted and unique")
        object.__setattr__(self, "period_indices", indices)

    @staticmethod
    def of(indices: Iterable[int]) -> "AlarmSeries":
        return AlarmSeries(tuple(sorted(set(_period_index(i) for i in indices))))

    def __len__(self) -> int:
        return len(self.period_indices)


@dataclasses.dataclass(frozen=True)
class MatchWindow:
    """Tolerance around a truth alarm: `before` periods early through
    `after` periods late still count as detecting it."""

    before: int
    after: int

    def __post_init__(self) -> None:
        for extent in (self.before, self.after):
            if isinstance(extent, bool) or not isinstance(extent, (int, np.integer)):
                raise DomainError(f"window extents must be integers, got {extent!r}")
        if self.before < 0 or self.after < 0:
            raise DomainError("window extents must be nonnegative")

    @staticmethod
    def default_for(period: str) -> "MatchWindow":
        # one week back, two weeks forward, expressed in the cadence's periods
        if period == "weekly":
            return MatchWindow(1, 2)
        if period == "daily":
            return MatchWindow(7, 14)
        raise DomainError(f"no default window for cadence {period!r}")


class MatchCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


def alarms_from_pvalues(p_series: Sequence[float], threshold: float) -> AlarmSeries:
    """Alarm wherever the p-value falls strictly below the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise DomainError(f"threshold must lie in [0, 1], got {threshold!r}")
    arr = np.asarray(p_series, dtype=float)
    bad = np.flatnonzero(np.isnan(arr) | (arr < 0.0) | (arr > 1.0))
    if bad.size:
        i = int(bad[0])
        raise DomainError(f"p-values must lie in [0, 1], got {arr[i]!r} at index {i}")
    return AlarmSeries(tuple(int(i) for i in np.flatnonzero(arr < threshold)))


def alarms_from_growth(prev: PrevalenceSeries, theta: float, l: int) -> AlarmSeries:
    """Alarm where the rate exceeds its trailing l-period mean by more than
    a factor of 1+theta. Periods whose trailing mean is zero never alarm."""
    if not (l >= 1 and float(l).is_integer()):
        raise DomainError(f"baseline length must be a positive integer, got {l!r}")
    if not (math.isfinite(theta) and theta >= 0):
        raise DomainError(f"theta must be finite and >= 0, got {theta!r}")
    if prev.length <= l:
        raise DomainError(
            f"series of length {prev.length} leaves no period with a "
            f"{l}-period baseline"
        )
    rates = prev.rates
    hits = []
    for t in range(int(l), prev.length):
        base = math.fsum(rates[t - int(l) : t]) / l
        if base > 0.0 and rates[t] / base - 1.0 > theta:
            hits.append(t)
    return AlarmSeries(tuple(hits))


def match_alarms(
    truth: AlarmSeries, predicted: AlarmSeries, window: MatchWindow
) -> MatchCounts:
    """Greedy one-to-one matching in ascending time.

    Each truth alarm at t claims the earliest still-unclaimed predicted alarm
    in [t-before, t+after]. Because every window is the same translate, the
    greedy pass attains the maximum possible number of pairs. Leftover
    predictions are false positives; leftover truth alarms are misses.
    """
    preds = list(predicted.period_indices)
    next_free = 0
    tp = 0
    for t in truth.period_indices:
        while next_free < len(preds) and preds[next_free] < t - window.before:
            next_free += 1
        if next_free < len(preds) and preds[next_free] <= t + window.after:
            tp += 1
            next_free += 1
    return MatchCounts(tp, len(preds) - tp, len(truth) - tp)


def pr_curves(
    p_matrix,
    truth: AlarmSeries,
    window: MatchWindow,
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Precision and recall of each row of an (S, T) p-value matrix at each
    sorted threshold, as two (S, K) arrays. Each cell scores
    `match_alarms(truth, alarms_from_pvalues(row, th), window)`; raising no
    alarms gives precision 1, and an empty truth set gives recall 1.

    All S x K (series, sorted threshold) pairs are matched at once: every
    pair claims its earliest alarm inside each truth alarm's window, clipped
    to the series, past the first period the pair has not yet claimed or
    passed. Only periods inside some clipped window can ever be claimed, so
    the table of the next alarm at or after a period holds just those
    periods plus a sentinel row, in the smallest unsigned dtype that holds
    T, and `row_of` maps any period to the first covered row at or after
    it. Alarm counts come from one `searchsorted` of the p-values into the
    thresholds and one `bincount`, so they need no mask at all.
    """
    if not thresholds:
        raise DomainError("at least one threshold is required")
    for th in thresholds:
        if not 0.0 < th < 1.0:
            raise DomainError(f"thresholds must lie in (0, 1), got {th!r}")
    ths = sorted(thresholds)
    th_values = np.asarray(ths, dtype=float)
    p = np.asarray(p_matrix, dtype=float)
    if p.ndim != 2:
        raise DomainError(f"p-values must form an (S, T) matrix, got shape {p.shape}")
    bad = ~((p >= 0.0) & (p <= 1.0))
    if bad.any():
        s, i = (int(v) for v in np.argwhere(bad)[0])
        raise DomainError(
            f"p-values must lie in [0, 1], got {float(p[s, i])!r} "
            f"at index {i} of series {s}"
        )

    n_series, length = p.shape
    n_rows = n_series * len(ths)
    # each truth alarm's window clipped to the series; windows wholly
    # outside the series can claim nothing and are dropped
    spans = [
        (max(t - window.before, 0), min(t + window.after, length - 1))
        for t in truth.period_indices
    ]
    spans = [(lo, hi) for lo, hi in spans if lo <= hi]
    covered = np.zeros(length, dtype=bool)
    for lo, hi in spans:
        covered[lo : hi + 1] = True
    periods = np.flatnonzero(covered)
    # row_of[u]: the first covered row at or after period u; the sentinel
    # row len(periods) for periods past the last covered one
    row_of = np.zeros(length + 1, dtype=np.intp)
    np.cumsum(covered, out=row_of[1:])
    # one column per (series, threshold) pair, series-major; a claim always
    # lies inside its window, so alarms outside every window never matter
    mask = (p[:, periods].T[:, :, None] < th_values).reshape(periods.size, n_rows)
    # next_alarm[i, r]: first covered alarm period >= periods[i] in column
    # r, `length` if none; the last row is the sentinel
    dtype = np.min_scalar_type(length)
    next_alarm = np.full((periods.size + 1, n_rows), length, dtype=dtype)
    np.copyto(next_alarm[:-1], periods.astype(dtype)[:, None], where=mask)
    np.minimum.accumulate(next_alarm[::-1], axis=0, out=next_alarm[::-1])

    columns = np.arange(n_rows)
    flat = next_alarm.ravel()
    first_free = np.zeros(n_rows, dtype=np.int64)
    tp = np.zeros(n_rows, dtype=np.int64)
    for lo, hi in spans:
        # next_alarm[row_of[max(first_free, lo)], columns], gathered flat
        claimed = flat[row_of[np.maximum(first_free, lo)] * n_rows + columns]
        hit = claimed <= hi
        tp += hit
        # in int64, so that claimed + 1 cannot wrap in the table's dtype
        first_free = np.where(hit, claimed + np.int64(1), first_free)

    shape = (n_series, len(ths))
    tp = tp.reshape(shape)
    # alarms per pair: a p-value alarms at every threshold from the first
    # one above it on, so count first thresholds per series and accumulate
    first_th = np.searchsorted(th_values, p, side="right")
    first_th += (np.arange(n_series) * (len(ths) + 1))[:, None]
    n_pred = np.bincount(first_th.ravel(), minlength=n_series * (len(ths) + 1))
    n_pred = n_pred.reshape(n_series, len(ths) + 1).cumsum(axis=1)[:, : len(ths)]
    precision = np.divide(tp, n_pred, out=np.ones(shape), where=n_pred > 0)
    recall = tp / len(truth) if len(truth) else np.ones(shape)
    return precision, recall


def pr_curve(
    p_series: Sequence[float],
    truth: AlarmSeries,
    window: MatchWindow,
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """The one-series view of `pr_curves`: precision and recall of one
    p-value series as two (K,) arrays over the sorted thresholds."""
    precision, recall = pr_curves([p_series], truth, window, thresholds)
    return precision[0], recall[0]


def _rates(precision, recall) -> tuple[np.ndarray, np.ndarray]:
    """Precision and recall as float arrays of one shape, each in [0, 1]."""
    p = np.asarray(precision, dtype=float)
    r = np.asarray(recall, dtype=float)
    if p.shape != r.shape:
        raise DomainError(f"precision {p.shape} and recall {r.shape} differ in shape")
    for v in (p, r):
        bad = ~((v >= 0.0) & (v <= 1.0))
        if bad.any():
            raise DomainError(f"precision/recall must lie in [0, 1], got {v[bad][0]!r}")
    return p, r


def recall_at_fdr(precision, recall, fdr: float):
    """Best recall along the last axis among points whose precision keeps
    the false discovery rate at or under `fdr`; 0 where no point qualifies."""
    p, r = _rates(precision, recall)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise DomainError("cannot summarize an empty curve")
    if not 0.0 <= fdr <= 1.0:
        raise DomainError(f"fdr must lie in [0, 1], got {fdr!r}")
    return np.where(p >= 1.0 - fdr, r, 0.0).max(axis=-1)


def f1(precision, recall):
    """Elementwise harmonic mean of precision and recall; 0 where both are 0."""
    p, r = _rates(precision, recall)
    total = p + r
    return np.divide(2.0 * p * r, total, out=np.zeros(total.shape), where=total != 0.0)[()]
