import dataclasses
import datetime
import inspect

import numpy as np
import oracles
import pytest

from fedsurv import combine as cb
from fedsurv import federation as fed
from fedsurv import numerics
from fedsurv.errors import ConfigError, DomainError
from fedsurv.semisynth import CountSeries, ShareVector, date_range, split_multinomial
from fedsurv.surge import SurgeHypothesis, SurgeWindow, exact_p_value

D0 = datetime.date(2024, 1, 1)
HYP = SurgeHypothesis(0.3, 4)


def series(values, site_id="s", period="weekly"):
    return CountSeries(site_id, period, date_range(D0, len(values), period), tuple(values))


class TestConfig:
    def test_share_method_requires_share_source(self):
        for method in sorted(cb.SHARE_METHODS):
            with pytest.raises(ConfigError):
                fed.FederationConfig(HYP, method, share_source="none")
            assert fed.FederationConfig(HYP, method, share_source="estimated")

    def test_plain_method_allows_none(self):
        cfg = fed.FederationConfig(HYP, "fisher", share_source="none")
        assert cfg.share_source == "none"

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            fed.FederationConfig(HYP, "median")
        with pytest.raises(ConfigError):
            fed.FederationConfig(HYP, "fisher", share_source="guessed")
        with pytest.raises(ConfigError):
            fed.FederationConfig(HYP, "fisher", reporting_cycle=0)
        with pytest.raises(ConfigError):
            fed.FederationConfig(HYP, "fisher", lag=-1)
        for bad in (float("nan"), float("inf"), 1.5, True, 2**63):
            with pytest.raises(ConfigError):
                fed.FederationConfig(HYP, "fisher", reporting_cycle=bad)
            with pytest.raises(ConfigError):
                fed.FederationConfig(HYP, "fisher", lag=bad)

    def test_integral_floats_are_stored_as_ints(self):
        cfg = fed.FederationConfig(HYP, "fisher", reporting_cycle=2.0, lag=1.0)
        assert cfg == fed.FederationConfig(HYP, "fisher", reporting_cycle=2, lag=1)
        assert type(cfg.reporting_cycle) is int and type(cfg.lag) is int


class TestSiteReports:
    def test_no_report_before_full_baseline(self):
        n = series([3, 4, 5, 6, 7, 8])
        for t in range(HYP.baseline_len):
            assert fed.site_compute_report(n, t, HYP) is None

    def test_report_matches_direct_recomputation(self):
        values = [3, 9, 2, 7, 5, 11, 4, 6]
        n = series(values)
        for t in range(4, len(values)):
            rep = fed.site_compute_report(n, t, HYP)
            window = SurgeWindow(tuple(values[t - 4 : t]), values[t])
            assert rep.p_value == exact_p_value(window, HYP)
            assert (rep.site_id, rep.period_index) == ("s", t)

    def test_all_zero_site_reports_one(self):
        n = series([0] * 10)
        for t in range(4, 10):
            assert fed.site_compute_report(n, t, HYP).p_value == 1.0

    def test_out_of_range_period(self):
        with pytest.raises(DomainError):
            fed.site_compute_report(series([1] * 6), 6, HYP)

    def test_coarse_reports_cover_complete_cycles_only(self):
        cfg = fed.FederationConfig(HYP, "fisher", reporting_cycle=4, lag=2)
        n = series([5, 6, 7, 8, 9, 10, 11, 12, 13, 14])  # 10 periods, 2 full cycles
        reports = oracles.site_coarse_reports(n, cfg)
        assert [(r.cycle_index, r.total_count) for r in reports] == [(0, 26), (1, 42)]


class TestShareEstimation:
    CFG = fed.FederationConfig(HYP, "wstouffer", share_source="estimated", reporting_cycle=4, lag=2)

    @staticmethod
    def coarse():
        a = series([5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16], site_id="a")
        b = series([1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3], site_id="b")
        return list(oracles.site_coarse_reports(a, TestShareEstimation.CFG)) + list(
            oracles.site_coarse_reports(b, TestShareEstimation.CFG)
        )

    def test_release_schedule_golden_trace(self):
        # cycle k covers [4k, 4k+3]; with lag 2 it becomes usable at 4k+5
        assert fed.release_period(0, self.CFG) == 5
        assert fed.release_period(1, self.CFG) == 9
        coarse = self.coarse()
        # t=9: cycle 1 (periods 4..7) just released; totals 42 and 8
        got = fed.estimate_shares(coarse, 9, self.CFG, ["a", "b"])
        assert got.shares == (42 / 50, 8 / 50)
        # t=8: only cycle 0 out; totals 26 and 4
        got = fed.estimate_shares(coarse, 8, self.CFG, ["a", "b"])
        assert got.shares == (26 / 30, 4 / 30)


    @pytest.mark.parametrize("cycle_index", [-1, 1.5, float("nan"), True, "3"])
    def test_release_period_rejects_a_cycle_that_is_not_an_integer_from_0(self, cycle_index):
        with pytest.raises(DomainError, match="cycle_index"):
            fed.release_period(cycle_index, self.CFG)
    def test_uniform_before_first_release(self):
        got = fed.estimate_shares(self.coarse(), 4, self.CFG, ["a", "b"])
        assert got.shares == (0.5, 0.5)

    def test_zero_total_site_gets_zero_share(self):
        coarse = [
            fed.CoarseReport("a", 0, 0),
            fed.CoarseReport("b", 0, 30),
            fed.CoarseReport("c", 0, 10),
        ]
        cfg = fed.FederationConfig(HYP, "wstouffer", share_source="estimated")
        got = fed.estimate_shares(coarse, 5, cfg, ["a", "b", "c"])
        assert got.shares == (0.0, 0.75, 0.25)

    def test_all_zero_totals_fall_back_to_uniform(self):
        coarse = [fed.CoarseReport("a", 0, 0), fed.CoarseReport("b", 0, 0)]
        cfg = fed.FederationConfig(HYP, "wstouffer", share_source="estimated")
        assert fed.estimate_shares(coarse, 5, cfg, ["a", "b"]).shares == (0.5, 0.5)

    def test_unknown_site_reports_ignored(self):
        coarse = [
            fed.CoarseReport("a", 0, 10),
            fed.CoarseReport("b", 0, 30),
            fed.CoarseReport("zzz", 0, 999),
        ]
        cfg = fed.FederationConfig(HYP, "wstouffer", share_source="estimated")
        assert fed.estimate_shares(coarse, 5, cfg, ["a", "b"]).shares == (0.25, 0.75)

    def test_estimated_window_total_rescales_cycle(self):
        total = fed.estimated_window_total(self.coarse(), 9, self.CFG, ["a", "b"])
        assert total == round(50 * 5 / 4)
        # nothing released yet: floor at 1
        assert fed.estimated_window_total(self.coarse(), 0, self.CFG, ["a", "b"]) == 1

    @pytest.mark.parametrize("t", [-5, 2.5, float("nan"), float("inf"), True, "x", None])
    def test_a_period_that_is_not_an_integer_from_0_raises_naming_t(self, t):
        for func in (fed.estimate_shares, fed.estimated_window_total):
            with pytest.raises(DomainError, match="t must be an integer"):
                func(self.coarse(), t, self.CFG, ["a", "b"])

    @pytest.mark.parametrize("t", [9.0, np.int64(9)])
    def test_an_integral_period_of_another_type_reads_as_its_int(self, t):
        assert fed.estimate_shares(self.coarse(), t, self.CFG, ["a", "b"]).shares == (42 / 50, 8 / 50)
        assert fed.estimated_window_total(self.coarse(), t, self.CFG, ["a", "b"]) == round(50 * 5 / 4)

    def test_a_repeated_site_id_raises(self):
        for func in (fed.estimate_shares, fed.estimated_window_total):
            with pytest.raises(ConfigError, match="site_ids must be unique"):
                func(self.coarse(), 9, self.CFG, ["a", "a"])


class TestInformationBoundary:
    def test_report_types_carry_no_counts(self):
        # a report's fields are all that crosses the boundary
        reports = (fed.PValueReport, fed.CoarseReport)
        assert [tuple(f.name for f in dataclasses.fields(cls)) for cls in reports] == [
            ("site_id", "period_index", "p_value"),
            ("site_id", "cycle_index", "total_count"),
        ]

    def test_coarse_total_must_be_a_finite_integer(self):
        for bad in (float("nan"), float("inf"), -1, 2.5, True, 10**400):
            with pytest.raises(DomainError):
                fed.CoarseReport("a", 0, bad)
            with pytest.raises(DomainError):
                fed.CoarseReport("a", bad, 5)
        report = fed.CoarseReport("a", 2.0, 5.0)
        assert report == fed.CoarseReport("a", 2, 5) and type(report.total_count) is int

    def test_aggregator_interface_accepts_reports_only(self):
        # the aggregation path must have no parameter typed to raw data
        for func in (fed.aggregate_period, fed.estimate_shares):
            sig = inspect.signature(func)
            rendered = str(sig)
            assert "SiteNode" not in rendered
            assert "CountSeries" not in rendered

    def test_aggregate_period_works_from_plain_reports(self):
        reports = [fed.PValueReport("a", 5, 0.04), fed.PValueReport("b", 5, 0.2)]
        cfg = fed.FederationConfig(HYP, "fisher", share_source="none")
        got = fed.aggregate_period(reports, cfg)
        want = cb.combine_by_id("fisher", cb.EvidenceSet((0.04, 0.2)))
        assert got.p == want.p

    def test_mixed_period_reports_rejected(self):
        reports = [fed.PValueReport("a", 5, 0.04), fed.PValueReport("b", 6, 0.2)]
        cfg = fed.FederationConfig(HYP, "fisher", share_source="none")
        with pytest.raises(ConfigError):
            fed.aggregate_period(reports, cfg)


class TestRunFederation:
    def test_single_site_identity_for_every_method(self):
        values = [6, 9, 4, 8, 12, 5, 7, 10, 15, 3]
        n = series(values, site_id="only")
        direct = [
            exact_p_value(SurgeWindow(tuple(values[t - 4 : t]), values[t]), HYP)
            for t in range(4, len(values))
        ]
        for method in cb.METHOD_IDS:
            cfg = fed.FederationConfig(HYP, method, share_source="known")
            out = fed.run_federation([n], cfg)
            assert [r.period_index for r in out] == list(range(4, len(values)))
            for got, want in zip(out, direct):
                assert got.p == pytest.approx(want, abs=1e-9), method

    def test_two_site_reports_match_per_site_recomputation(self):
        rng = np.random.default_rng(321)
        pooled = series([int(v) for v in rng.poisson(40.0, size=30)], site_id="hub")
        parts = split_multinomial(pooled, ShareVector((0.7, 0.3)), seed=5)
        for t in (4, 11, 29):
            for part in parts:
                rep = fed.site_compute_report(part, t, HYP)
                window = SurgeWindow(part.counts[t - 4 : t], part.counts[t])
                assert rep.p_value == exact_p_value(window, HYP)

    def test_equal_known_shares_make_wstouffer_match_stouffer(self):
        values = [7, 9, 3, 8, 11, 6, 10, 4, 9, 8, 12, 5]
        sites = [series(values, site_id=f"s{i}") for i in range(3)]
        plain = fed.run_federation(sites, fed.FederationConfig(HYP, "stouffer", share_source="none"))
        weighted = fed.run_federation(sites, fed.FederationConfig(HYP, "wstouffer", share_source="known"))
        for a, b in zip(plain, weighted):
            assert b.p == pytest.approx(a.p, abs=1e-12)
            assert b.shares == (1 / 3, 1 / 3, 1 / 3)

    def test_estimated_equals_known_on_constant_sites(self):
        # constant counts: fresh one-period cycles reproduce window shares
        a = series([30] * 12, site_id="a")
        b = series([10] * 12, site_id="b")
        for method in ("wstouffer", "cstouffer"):
            known = fed.run_federation(
                [a, b], fed.FederationConfig(HYP, method, share_source="known")
            )
            est = fed.run_federation(
                [a, b],
                fed.FederationConfig(
                    HYP, method, share_source="estimated", reporting_cycle=1, lag=0
                ),
            )
            for x, y in zip(known, est):
                assert x.shares == y.shares == (0.75, 0.25)
                assert y.p == pytest.approx(x.p, abs=1e-12)

    def test_share_vector_reported_only_for_share_methods(self):
        values = [5, 8, 6, 7, 9, 10]
        sites = [series(values, site_id=f"s{i}") for i in range(2)]
        plain = fed.run_federation(sites, fed.FederationConfig(HYP, "fisher", share_source="known"))
        assert all(r.shares is None for r in plain)
        weighted = fed.run_federation(sites, fed.FederationConfig(HYP, "wfisher", share_source="known"))
        assert all(r.shares == (0.5, 0.5) for r in weighted)

    def test_integral_float_settings_run_like_ints(self):
        # a float baseline length or reporting cycle used to reach numpy
        # indexing and range() as a float and fail there
        rng = np.random.default_rng(5)
        sites = [series([int(v) for v in rng.poisson(20.0, 16)], f"s{i}") for i in range(3)]
        for as_float, as_int in (
            (dict(hypothesis=SurgeHypothesis(0.3, 4.0)), dict(hypothesis=HYP)),
            (
                dict(hypothesis=HYP, share_source="estimated", reporting_cycle=2.0),
                dict(hypothesis=HYP, share_source="estimated", reporting_cycle=2),
            ),
        ):
            got = fed.run_federation(sites, fed.FederationConfig(method="wfisher", **as_float))
            want = fed.run_federation(sites, fed.FederationConfig(method="wfisher", **as_int))
            assert got == want and len(got) == 12

    def test_determinism(self):
        rng = np.random.default_rng(12)
        pooled = series([int(v) for v in rng.poisson(25.0, size=24)], site_id="hub")
        parts = split_multinomial(pooled, ShareVector((0.5, 0.3, 0.2)), seed=8)
        cfg = fed.FederationConfig(
            HYP, "cstouffer", share_source="estimated", reporting_cycle=3, lag=1
        )
        first = fed.run_federation(parts, cfg)
        second = fed.run_federation(parts, cfg)
        assert first == second

    def test_validation_errors(self):
        cfg = fed.FederationConfig(HYP, "fisher", share_source="none")
        with pytest.raises(ConfigError):
            fed.run_federation([], cfg)
        with pytest.raises(ConfigError):
            fed.run_federation([series([1] * 8, "x"), series([1] * 8, "x")], cfg)
        with pytest.raises(ConfigError):
            fed.run_federation([series([1] * 8, "x"), series([1] * 9, "y")], cfg)

    def test_fisher_eight_equal_sites_total(self):
        rng = np.random.default_rng(31)
        pooled = series([int(v) for v in rng.poisson(160.0, size=40)], site_id="hub")
        parts = split_multinomial(pooled, ShareVector.equal(8), seed=2)
        out = fed.run_federation(
            parts,
            fed.FederationConfig(HYP, "fisher", share_source="none"),
        )
        assert len(out) == 36
        assert all(0.0 <= r.p <= 1.0 for r in out)


class TestBatchedLoopMatchesPerPeriodReference:
    """run_federation against `oracles.run_federation_per_period`, the loop
    that recomputes every report and rescans every coarse report each
    period. `==` on CombinedPeriod compares every p and share tuple exactly.
    cstouffer and lancaster read both the shares and the window total."""

    METHODS = {
        "known": ("cstouffer", "lancaster"),
        "estimated": ("cstouffer", "wfisher"),
        "none": ("fisher",),
    }

    @staticmethod
    def sites(rng, n_sites, length, scale=1.0):
        rates = rng.choice([0.0, 0.7, 4.0, 25.0], size=n_sites) * scale
        drift = rng.uniform(0.3, 2.0, size=length)
        counts = rng.poisson(rates[:, None] * drift, size=(n_sites, length))
        counts[:, rng.random(length) < 0.2] = 0  # all-zero periods
        sites = [series([int(v) for v in row], site_id=f"s{i}") for i, row in enumerate(counts)]
        rng.shuffle(sites)  # input order must not matter
        return sites

    def check(self, sites, hyp, source, cycle=1, lag=0):
        for method in self.METHODS[source]:
            cfg = fed.FederationConfig(hyp, method, source, reporting_cycle=cycle, lag=lag)
            want = oracles.run_federation_per_period(sites, cfg)
            got = fed.run_federation(sites, cfg)
            assert got == want, (source, method, cycle, lag)
        return got

    def test_seeded_random_sites_every_source_cycle_and_lag(self):
        rng = np.random.default_rng(2024)
        for cycle in range(1, 7):
            for lag in range(6):
                hyp = SurgeHypothesis(float(rng.choice([0.0, 0.3, 1.0])), int(rng.integers(1, 6)))
                # up to 13 sites: numpy's pairwise and row-by-row sums part from 8
                sites = self.sites(rng, int(rng.integers(1, 14)), int(rng.integers(1, 30)))
                for source in ("known", "estimated", "none"):
                    self.check(sites, hyp, source, cycle, lag)

    def test_first_release_after_the_series_ends(self):
        rng = np.random.default_rng(7)
        sites = self.sites(rng, 3, 10)
        # cycle 0 covers periods 0..5 and is released at 5 + 5 = 10
        out = self.check(sites, HYP, "estimated", cycle=6, lag=5)
        assert len(out) == 6 and all(r.shares == (1 / 3,) * 3 for r in out)
        # a series shorter than one cycle releases nothing at all
        self.check(self.sites(rng, 2, 5), HYP, "estimated", cycle=6, lag=0)

    def test_all_zero_site_and_all_zero_periods(self):
        values = [0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 7, 2, 0, 0, 0, 0, 0]
        sites = [series(values, "busy"), series([0] * len(values), "empty")]
        for source in ("known", "estimated", "none"):
            self.check(sites, HYP, source, cycle=2, lag=1)
        known = fed.run_federation(sites, fed.FederationConfig(HYP, "cstouffer", "known"))
        # empty pooled window: uniform shares, total 1
        assert known[0].shares == (0.5, 0.5)
        assert known[1].shares == (1.0, 0.0)

    def test_windows_above_the_exact_cap(self):
        rng = np.random.default_rng(11)
        sites = self.sites(rng, 3, 24, scale=20.0)
        windows = [sum(n.counts[t - 4 : t + 1]) for n in sites for t in range(4, 24)]
        assert max(windows) > numerics.EXACT_MAX_N  # some windows take the betainc path
        for source in ("known", "estimated", "none"):
            self.check(sites, HYP, source, cycle=3, lag=2)

    def test_single_site(self):
        rng = np.random.default_rng(5)
        sites = self.sites(rng, 1, 25, scale=4.0)
        for source in ("known", "estimated", "none"):
            out = self.check(sites, HYP, source, cycle=4, lag=1)
            assert len(out) == 21


class TestShareTuplesShared:
    """`run_federation` hands each run of consecutive periods whose share
    vectors are equal bit for bit one tuple object, and a new one where the
    vector changes. The runs are counted from the per-period reference,
    not from `_estimated_weights`."""

    @staticmethod
    def check(sites, cfg):
        got = fed.run_federation(sites, cfg)
        want = oracles.run_federation_per_period(sites, cfg)
        assert got == want
        bits = [tuple(map(float.hex, cp.shares)) for cp in want]  # -0.0 apart from 0.0
        changes = [b != a for a, b in zip(bits, bits[1:])]
        for (prev, cur), changed in zip(zip(got, got[1:]), changes):
            assert (cur.shares is not prev.shares) == changed
        assert len({id(cp.shares) for cp in got}) == 1 + sum(changes)
        return got, sum(changes) + 1

    def test_estimated_shares_one_tuple_per_released_cycle(self):
        rng = np.random.default_rng(17)
        pooled = series([int(v) for v in rng.poisson(40.0, size=30)], site_id="hub")
        sites = split_multinomial(pooled, ShareVector.equal(7), seed=3)
        cfg = fed.FederationConfig(HYP, "wfisher", "estimated", reporting_cycle=3, lag=1)
        got, runs = self.check(sites, cfg)
        # periods 4..29 read cycles released at 3, 6, ..., 27: nine values
        assert len(got) == 26 and runs == 9

    def test_known_shares_a_new_tuple_wherever_the_column_differs(self):
        rng = np.random.default_rng(4)
        steady = [5] * 10  # windows inside it repeat the column
        rows = [steady + rng.poisson(8.0, size=12).tolist() for _ in range(3)]
        sites = [series(row, site_id=f"s{i}") for i, row in enumerate(rows)]
        got, runs = self.check(sites, fed.FederationConfig(HYP, "cstouffer", "known"))
        assert 1 < runs < len(got)

    def test_no_shares_and_no_periods(self):
        sites = [series([3, 1, 4, 1, 5, 9, 2, 6], site_id=f"s{i}") for i in range(3)]
        for source in ("none", "estimated", "known"):
            out = fed.run_federation(sites, fed.FederationConfig(HYP, "fisher", source))
            assert len(out) == 4 and all(cp.shares is None for cp in out)
        short = [series([3, 1, 4], site_id=f"s{i}") for i in range(3)]
        for source in ("estimated", "known"):
            assert fed.run_federation(short, fed.FederationConfig(HYP, "wfisher", source)) == []


class TestEstimatedWeightsTable:
    """`fed._estimated_weights` sums each complete cycle of the count matrix
    in one reshape; `oracles.site_coarse_reports` builds one report per
    cycle. Every period must read the same shares and pooled total from
    both, under `==`."""

    @pytest.mark.parametrize(
        "length, cycle, lag",
        [
            (13, 4, 2),  # not a multiple of the cycle
            (12, 3, 0),
            (3, 4, 1),  # shorter than one cycle: nothing is ever released
            (9, 1, 0),
            (9, 1, 3),
        ],
    )
    def test_equals_per_report_totals(self, length, cycle, lag):
        rng = np.random.default_rng(length * 100 + cycle * 10 + lag)
        rows = rng.poisson(6.0, size=(3, length)).tolist() + [[0] * length]  # an all-zero site
        sites = [series(row, site_id=f"s{i}") for i, row in enumerate(rows)]
        ids = [n.site_id for n in sites]
        cfg = fed.FederationConfig(HYP, "wstouffer", "estimated", reporting_cycle=cycle, lag=lag)
        coarse = [r for n in sites for r in oracles.site_coarse_reports(n, cfg)]
        assert len(coarse) == len(sites) * (length // cycle)
        periods = np.arange(length)
        shares, totals = fed._estimated_weights(np.array(rows, dtype=np.int64), cfg, periods)
        for j, t in enumerate(periods.tolist()):
            assert tuple(shares[:, j].tolist()) == fed.estimate_shares(coarse, t, cfg, ids).shares
            assert totals[j] == fed.estimated_window_total(coarse, t, cfg, ids)
