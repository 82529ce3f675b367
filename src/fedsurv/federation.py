"""Federated surveillance protocol simulator.

Each site holds its raw counts privately and emits two kinds of reports:
per-period p-values from its own surge test, and lagged coarse totals
aggregated over a reporting cycle. The aggregator sees only those reports;
it resolves site shares (known out of band, estimated from coarse totals,
or not at all) and combines the per-period p-values with a configured
meta-analysis method.

``run_federation`` does this for every period in one ``combine_matrix``
call. ``site_compute_report``, ``estimate_shares``,
``estimated_window_total`` and ``aggregate_period`` are the same steps for
one period and for arbitrary report sets; ``release_period`` is the period
from which a coarse report may be used.

Share sources:
  * "estimated" and "none" are the federated paths; the aggregator's inputs
    are report values only.
  * "known" is the benchmark upper bound where true window shares are
    assumed available out of band, as when custodians publish sizes.

The simulator is in-process message passing. Reports are JSON-serializable
dictionaries, which is the seam a networked deployment would replace.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import combine
from .errors import ConfigError, DomainError, check_int_fields, checked_float, checked_int
from .semisynth import CountSeries, ShareVector, _check_aligned
from .surge import SurgeHypothesis, SurgeWindow, exact_p_value, window_p_values, window_totals

__all__ = [
    "PValueReport",
    "CoarseReport",
    "FederationConfig",
    "CombinedPeriod",
    "site_compute_report",
    "release_period",
    "estimate_shares",
    "estimated_window_total",
    "aggregate_period",
    "run_federation",
]

SHARE_SOURCES = ("known", "estimated", "none")


@dataclasses.dataclass(frozen=True)
class PValueReport:
    """What a site shares per period: its identity and a p-value. No counts."""

    site_id: str
    period_index: int
    p_value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_value", checked_float(self.p_value, "p_value", 0.0, 1.0))

    def to_json(self) -> dict:
        return {"site_id": self.site_id, "period": self.period_index, "p": self.p_value}


@dataclasses.dataclass(frozen=True)
class CoarseReport:
    """A site's total over one full reporting cycle, released after the lag."""

    site_id: str
    cycle_index: int
    total_count: int

    def __post_init__(self) -> None:
        check_int_fields(self, cycle_index=0, total_count=0)

    def to_json(self) -> dict:
        return {"site_id": self.site_id, "cycle": self.cycle_index, "total": self.total_count}


@dataclasses.dataclass(frozen=True)
class FederationConfig:
    """One protocol run: the surge test every site applies, the combiner
    (default "wstouffer"), where shares come from (default "known"), and
    the coarse reports' cycle length (default 1) and release lag (default
    0), both in periods."""

    hypothesis: SurgeHypothesis = SurgeHypothesis()
    method: str = "wstouffer"
    share_source: str = "known"
    reporting_cycle: int = 1
    lag: int = 0

    def __post_init__(self) -> None:
        combine.check_method(self.method, combine.METHOD_IDS)
        if self.share_source not in SHARE_SOURCES:
            raise ConfigError(
                f"share_source must be one of {SHARE_SOURCES}, got {self.share_source!r}"
            )
        if self.method in combine.SHARE_METHODS and self.share_source == "none":
            raise ConfigError(
                f"method {self.method!r} weights by shares; share_source "
                f"must be 'known' or 'estimated'"
            )
        check_int_fields(self, ConfigError, reporting_cycle=1, lag=0)


class CombinedPeriod(NamedTuple):
    period_index: int
    p: float
    shares: Optional[tuple]

    def to_json(self) -> dict:
        shares = None if self.shares is None else list(self.shares)
        return {"period": self.period_index, "p": self.p, "shares": shares}


def site_compute_report(
    site: CountSeries, t: int, hyp: SurgeHypothesis
) -> Optional[PValueReport]:
    """The site's exact surge p-value for the window ending at period t,
    or None while there is not yet a full baseline of history."""
    l = hyp.baseline_len
    if t >= site.length:
        raise DomainError(f"period {t} beyond series of length {site.length}")
    if t < l:
        return None
    counts = site.counts
    window = SurgeWindow(counts[t - l : t], counts[t])
    return PValueReport(site.site_id, t, exact_p_value(window, hyp))


def release_period(cycle_index: int, cfg: FederationConfig) -> int:
    """First period at which a cycle's coarse report is usable; a
    ``cycle_index`` that is not an integer >= 0 raises DomainError."""
    cycle_index = checked_int(cycle_index, "cycle_index", 0)
    return (cycle_index + 1) * cfg.reporting_cycle - 1 + cfg.lag


def _latest_released(
    coarse: Sequence[CoarseReport], t: int, cfg: FederationConfig, ids: Sequence[str]
) -> dict[str, CoarseReport]:
    """Each listed site's latest cycle report released by period t. A ``t``
    that is not an integer >= 0 raises DomainError, a repeated id
    ConfigError."""
    t = checked_int(t, "t", 0)
    members = set(ids)
    if len(members) != len(ids):
        raise ConfigError("site_ids must be unique")
    latest: dict[str, CoarseReport] = {}
    for report in coarse:
        if report.site_id in members and release_period(report.cycle_index, cfg) <= t:
            kept = latest.get(report.site_id)
            if kept is None or report.cycle_index > kept.cycle_index:
                latest[report.site_id] = report
    return latest


def estimate_shares(
    coarse: Sequence[CoarseReport],
    t: int,
    cfg: FederationConfig,
    site_ids: Optional[Sequence[str]] = None,
) -> ShareVector:
    """Share estimate from the most recent coarse totals released by t.

    Each site contributes its latest released cycle total; shares are the
    normalized totals. Falls back to uniform when any site has released
    nothing yet, or when every released total is zero.
    """
    if site_ids is None:
        site_ids = sorted({r.site_id for r in coarse})
    ids = list(site_ids)
    if not ids:
        raise ConfigError("cannot estimate shares with no sites")
    latest = _latest_released(coarse, t, cfg, ids)
    if set(latest) == set(ids):
        totals = [latest[sid].total_count for sid in ids]
        grand = sum(totals)
        if grand > 0:
            return ShareVector(tuple(v / grand for v in totals))
    return ShareVector.equal(len(ids))


def estimated_window_total(
    coarse: Sequence[CoarseReport],
    t: int,
    cfg: FederationConfig,
    site_ids: Sequence[str],
) -> int:
    """Pooled test-window size inferred from released cycle totals: the
    per-cycle pooled count rescaled from cycle length to window length."""
    window_len = cfg.hypothesis.baseline_len + 1
    latest = _latest_released(coarse, t, cfg, site_ids)
    pooled = sum(r.total_count for r in latest.values())
    return max(1, round(pooled * window_len / cfg.reporting_cycle))


def aggregate_period(
    reports: Sequence[PValueReport],
    cfg: FederationConfig,
    shares: Optional[ShareVector] = None,
    total_count: Optional[int] = None,
) -> combine.CombinedResult:
    """Combine one period's reports. This is the aggregator's whole input
    surface: report values plus an optional resolved share vector."""
    if not reports:
        raise DomainError("no reports to aggregate")
    period = reports[0].period_index
    for r in reports:
        if r.period_index != period:
            raise ConfigError("reports from different periods cannot be aggregated")
    ordered = sorted(reports, key=lambda r: r.site_id)
    needs_shares = cfg.method in combine.SHARE_METHODS
    if needs_shares and shares is None:
        raise ConfigError(f"method {cfg.method!r} requires a share vector")
    if shares is not None and shares.n_sites != len(ordered):
        raise ConfigError("share vector length does not match report count")
    evidence = combine.EvidenceSet(
        p_values=tuple(r.p_value for r in ordered),
        shares=None if shares is None else shares.shares,
        total_count=total_count,
        rho=cfg.hypothesis.rho,
    )
    return combine.combine_by_id(cfg.method, evidence)


def _estimated_weights(
    counts: np.ndarray, cfg: FederationConfig, periods: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``estimate_shares`` and ``estimated_window_total`` for every period
    in ``periods`` at once, from the values of the sites' coarse reports:
    the (N, K) totals of the K complete cycles in the (N, T) int64
    ``counts`` (cycle k covers periods [k*C, (k+1)*C - 1]) behind a zero
    column for "nothing released yet", and each period reads the column of
    the latest cycle released by it. All sites share one timeline, so every
    site has released the same cycles."""
    n_sites, length = counts.shape
    c = cfg.reporting_cycle
    k = length // c
    table = np.zeros((n_sites, k + 1), dtype=np.int64)
    table[:, 1:] = counts[:, : k * c].reshape(n_sites, k, c).sum(axis=2)
    released = [release_period(j, cfg) for j in range(k)]
    latest = table[:, np.searchsorted(released, periods, side="right")]
    shares, _ = combine.window_weights(latest)
    window_len = cfg.hypothesis.baseline_len + 1
    totals = np.maximum(1, np.rint(latest.sum(axis=0) * window_len / cfg.reporting_cycle))
    return shares, totals


def run_federation(
    sites: Sequence[CountSeries], cfg: FederationConfig
) -> list[CombinedPeriod]:
    """Drive the protocol over every period with a full baseline.

    Sites are processed in site_id order; output is one combined p-value
    per period, with the share vector the aggregator used (None when the
    method ignores shares). Deterministic given (sites, config).

    The aggregator's inputs come as tables over every period: the (N, T - l)
    site p-values from one batch of window totals (the rule behind
    ``site_compute_report``), the (N, T - l) shares and the (T - l,) pooled
    totals, which one ``combine_matrix`` call combines column by column,
    each column with the bits ``aggregate_period`` gives that period.
    """
    if not sites:
        raise ConfigError("at least one site is required")
    ordered = sorted(sites, key=lambda s: s.site_id)
    ids = [s.site_id for s in ordered]
    if len(set(ids)) != len(ids):
        raise ConfigError("site_ids must be unique")
    _check_aligned(ordered)
    hyp = cfg.hypothesis
    l = hyp.baseline_len
    counts = np.array([s.counts for s in ordered], dtype=np.int64)
    c, n = window_totals(counts, l)
    p_values = window_p_values(c, n, hyp)
    periods = np.arange(l, ordered[0].length)
    shares = totals = None
    if cfg.share_source == "known":
        # benchmark side channel: true window totals, bypassing the report
        # boundary on purpose (share_source="known" models out-of-band sizes)
        shares, totals = combine.window_weights(n)
    elif cfg.share_source == "estimated":
        shares, totals = _estimated_weights(counts, cfg, periods)
    p = combine.combine_matrix(cfg.method, p_values, shares, totals, hyp.rho).tolist()
    if cfg.method in combine.SHARE_METHODS:
        used = map(tuple, shares.T.tolist())
    else:
        used = [None] * len(p)
    return [CombinedPeriod(t, v, u) for t, v, u in zip(periods.tolist(), p, used)]
