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

from .errors import DomainError, check_int_fields, checked_float, checked_floats, checked_int
from .errors import checked_ints
from .semisynth import PrevalenceSeries, period_step

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


@dataclasses.dataclass(frozen=True)
class AlarmSeries:
    """Period indices at which an alarm fired, strictly increasing."""

    period_indices: tuple[int, ...]

    def __post_init__(self) -> None:
        indices = checked_ints(self.period_indices, "alarm index", ndim=1)
        if (indices[1:] <= indices[:-1]).any():
            raise DomainError("alarm indices must be sorted and unique")
        object.__setattr__(self, "period_indices", tuple(indices.tolist()))

    @staticmethod
    def of(indices: Iterable[int]) -> "AlarmSeries":
        return AlarmSeries(np.unique(checked_ints(list(indices), "alarm index", ndim=1)))

    def __len__(self) -> int:
        return len(self.period_indices)


@dataclasses.dataclass(frozen=True)
class MatchWindow:
    """Tolerance around a truth alarm: `before` periods early through
    `after` periods late still count as detecting it."""

    before: int
    after: int

    def __post_init__(self) -> None:
        check_int_fields(self, before=0, after=0)

    @staticmethod
    def default_for(period: str) -> "MatchWindow":
        """One week back and two weeks forward, in the cadence's periods."""
        days = period_step(period).days
        return MatchWindow(7 // days, 14 // days)


class MatchCounts(NamedTuple):
    tp: int
    fp: int
    fn: int


def alarms_from_pvalues(p_series: Sequence[float], threshold: float) -> AlarmSeries:
    """Alarm wherever the p-value falls strictly below the threshold, which
    lies in (0, 1) as every threshold does."""
    threshold = checked_float(threshold, "threshold", 0.0, 1.0, strict=True)
    arr = checked_floats(p_series, "p-values", 0.0, 1.0, ndim=1)
    return AlarmSeries(np.flatnonzero(arr < threshold))


def alarms_from_growth(prev: PrevalenceSeries, theta: float, l: int) -> AlarmSeries:
    """Alarm where the rate exceeds its trailing l-period mean by more than
    a factor of 1+theta. Periods whose trailing mean is zero never alarm."""
    l = checked_int(l, "baseline length l", 1)
    theta = checked_float(theta, "theta", 0.0)
    if prev.length <= l:
        raise DomainError(
            f"series of length {prev.length} leaves no period with a "
            f"{l}-period baseline"
        )
    rates = prev.rates
    hits = []
    for t in range(l, prev.length):
        base = math.fsum(rates[t - l : t]) / l
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


# Cells ((covered periods + 1) x series x thresholds) of the alarm mask and
# the next-alarm table that `pr_curves` builds at a time: it matches blocks
# of as many series as fit, so its peak memory stops growing with the number
# of series. The default sweep's largest growth call, twenty two-site
# replicates of eleven methods, has 75 x 220 x 43 = 709,500 cells and is
# matched in blocks of 108, 108 and 4 rows; its 43 growth calls make 45 blocks.
_MATCH_BLOCK_CELLS = 350_000


def pr_curves(
    p_matrix,
    truth: "AlarmSeries | Sequence[AlarmSeries]",
    window: MatchWindow,
    thresholds: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Precision and recall of each row of an (S, T) p-value matrix at each
    sorted threshold, as two (S, K) arrays. ``truth`` is a sequence of S
    AlarmSeries, one per row, or one AlarmSeries, which is S equal ones. Each
    cell scores `match_alarms(row_truth, alarms_from_pvalues(row, th),
    window)`; raising no alarms gives precision 1, and an empty truth set
    gives recall 1.

    The (series, sorted threshold) pairs are matched a block of series at a
    time (`_true_positives`); every pair is matched on its own, so neither
    the blocking nor the other rows' truths change a bit. Alarm counts come
    from one `searchsorted` of the p-values into the thresholds and one
    `bincount` per block, so they need no mask at all.
    """
    th_values = np.sort(checked_floats(thresholds, "thresholds", 0.0, 1.0, strict=True, ndim=1))
    if not th_values.size:
        raise DomainError("thresholds must be nonempty")
    if not isinstance(window, MatchWindow):
        raise DomainError(f"window must be a MatchWindow, got {window!r}")
    p = checked_floats(p_matrix, "p-values", 0.0, 1.0, ndim=2)

    n_series, length = p.shape
    n_ths = th_values.size
    # the distinct truths, and each row's index into them
    per_row = [truth] * n_series if isinstance(truth, AlarmSeries) else list(truth)
    if len(per_row) != n_series:
        raise DomainError(f"{len(per_row)} truth series given for {n_series} rows")
    for one in per_row:
        if not isinstance(one, AlarmSeries):
            raise DomainError(f"truth must be an AlarmSeries or one per row, got {one!r}")
    index: dict = {}
    truth_of = np.array([index.setdefault(t, len(index)) for t in per_row], dtype=np.intp)
    truths = list(index)
    covered = np.zeros(length, dtype=bool)
    for one in truths:
        for lo, hi in _spans(one, window, length):
            covered[lo : hi + 1] = True
    periods = np.flatnonzero(covered)
    # row_of[u]: the first covered row at or after period u; the sentinel
    # row len(periods) for periods past the last covered one
    row_of = np.zeros(length + 1, dtype=np.intp)
    np.cumsum(covered, out=row_of[1:])
    n_truth = np.array([len(one) for one in truths], dtype=np.int64)

    precision = np.ones((n_series, n_ths))
    recall = np.ones((n_series, n_ths))
    block = max(1, _MATCH_BLOCK_CELLS // ((periods.size + 1) * n_ths))
    for first in range(0, n_series, block):
        rows = slice(first, first + block)
        p_block = p[rows]
        # the block's rows' bounds, from its distinct truths
        present, local = np.unique(truth_of[rows], return_inverse=True)
        bounds = _span_bounds([truths[d] for d in present], window, length)
        lo, hi = (b[local] for b in bounds)
        tp = _true_positives(p_block, lo, hi, periods, row_of, th_values)
        # alarms per pair: a p-value alarms at every threshold from the
        # first one above it on, so count first thresholds per series and
        # accumulate
        n_block = p_block.shape[0]
        first_th = np.searchsorted(th_values, p_block, side="right")
        first_th += (np.arange(n_block) * (n_ths + 1))[:, None]
        n_pred = np.bincount(first_th.ravel(), minlength=n_block * (n_ths + 1))
        n_pred = n_pred.reshape(n_block, n_ths + 1).cumsum(axis=1)[:, :n_ths]
        np.divide(tp, n_pred, out=precision[rows], where=n_pred > 0)
        n_true = n_truth[truth_of[rows]][:, None]
        np.divide(tp, n_true, out=recall[rows], where=n_true > 0)
    return precision, recall


def _spans(truth: AlarmSeries, window: MatchWindow, length: int) -> list:
    """Each truth alarm's window clipped to the series, as (lo, hi) pairs in
    time order; windows wholly outside the series can claim nothing and
    are dropped."""
    spans = (
        (max(t - window.before, 0), min(t + window.after, length - 1))
        for t in truth.period_indices
    )
    return [(lo, hi) for lo, hi in spans if lo <= hi]


def _span_bounds(truths, window: MatchWindow, length: int) -> tuple[np.ndarray, np.ndarray]:
    """The (D, J) lower and upper bounds of D truths' spans, each row padded
    to the longest with the empty span (length, -1), which claims nothing."""
    spans = [_spans(one, window, length) for one in truths]
    width = max(map(len, spans), default=0)
    lo = np.full((len(spans), width), length, dtype=np.intp)
    hi = np.full((len(spans), width), -1, dtype=np.intp)
    for d, one in enumerate(spans):
        if one:
            lo[d, : len(one)], hi[d, : len(one)] = zip(*one)
    return lo, hi


def _true_positives(p, lo, hi, periods, row_of, th_values) -> np.ndarray:
    """Matched truth alarms of every (series, threshold) pair of a (B, T)
    block, as a (B, K) int64 array.

    Every pair claims its earliest alarm inside each truth alarm's window
    (span j of series b runs from lo[b, j] to hi[b, j], clipped to the
    series) past the first period the pair has not yet claimed or passed.
    Only covered periods can ever be claimed, so the table of the
    next alarm at or after a period holds just those periods plus a
    sentinel row, in the smallest unsigned dtype that holds T, and
    `row_of` maps any period to the first covered row at or after it. A
    period that only another series' truth covers is never claimed either:
    it lies outside the series' own windows.
    """
    n_series, length = p.shape
    n_rows = n_series * th_values.size
    # one column per (series, threshold) pair, series-major; a claim always
    # lies inside its window, so alarms outside every window never matter
    mask = (p[:, periods].T[:, :, None] < th_values).reshape(periods.size, n_rows)
    # next_alarm[i, r]: first covered alarm period >= periods[i] in column
    # r, `length` if none; the last row is the sentinel. The suffix minimum
    # runs row by row, each step one contiguous pass.
    dtype = np.min_scalar_type(length)
    next_alarm = np.full((periods.size + 1, n_rows), length, dtype=dtype)
    np.copyto(next_alarm[:-1], periods.astype(dtype)[:, None], where=mask)
    for i in range(periods.size - 1, -1, -1):
        np.minimum(next_alarm[i], next_alarm[i + 1], out=next_alarm[i])

    shape = (n_series, th_values.size)
    columns = np.arange(n_rows).reshape(shape)
    flat = next_alarm.ravel()
    first_free = np.zeros(shape, dtype=np.int64)
    tp = np.zeros(shape, dtype=np.int64)
    # each span's bounds as a (B, 1) column
    for lo_j, hi_j in zip(lo.T[:, :, None], hi.T[:, :, None]):
        # next_alarm[row_of[max(first_free, lo_j)], columns], gathered flat
        claimed = flat[row_of[np.maximum(first_free, lo_j)] * n_rows + columns]
        hit = claimed <= hi_j
        tp += hit
        # in int64, so that claimed + 1 cannot wrap in the table's dtype
        first_free = np.where(hit, claimed + np.int64(1), first_free)
    return tp


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
    p, r = (checked_floats(v, "precision/recall", 0.0, 1.0) for v in (precision, recall))
    if p.shape != r.shape:
        raise DomainError(f"precision {p.shape} and recall {r.shape} differ in shape")
    return p, r


def recall_at_fdr(precision, recall, fdr: float):
    """Best recall along the last axis among points whose precision keeps
    the false discovery rate at or under `fdr`; 0 where no point qualifies."""
    p, r = _rates(precision, recall)
    if p.ndim == 0 or p.shape[-1] == 0:
        raise DomainError("cannot summarize an empty curve")
    fdr = checked_float(fdr, "fdr", 0.0, 1.0)
    return np.where(p >= 1.0 - fdr, r, 0.0).max(axis=-1)


def f1(precision, recall):
    """Elementwise harmonic mean of precision and recall; 0 where both are 0."""
    p, r = _rates(precision, recall)
    total = p + r
    return np.divide(2.0 * p * r, total, out=np.zeros(total.shape), where=total != 0.0)[()]
