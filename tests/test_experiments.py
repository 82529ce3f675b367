"""Tests for the experiment engines: calibrated power curves and the
semi-synthetic detection sweep."""

import datetime
import math

import numpy as np
import pytest

from fedsurv.errors import ConfigError, DomainError
from fedsurv.evaluation import alarms_from_growth
from fedsurv.experiments import (
    DEFAULT_THRESHOLDS,
    POWER_METHODS,
    PowerCurveConfig,
    SemisynthConfig,
    builtin_wave_counts,
    calibrate_threshold,
    dominant_profile,
    run_power_curve,
    run_semisynth_sweep,
)
from fedsurv.combine import METHOD_IDS, EvidenceSet, combine_by_id
from fedsurv.experiments import _method_pvalues, _simulate_method_pvalues
from fedsurv.federation import (
    FederationConfig,
    SiteNode,
    run_federation,
    site_compute_report,
)
from fedsurv.numerics import EXACT_MAX_N
from fedsurv.semisynth import (
    CountSeries,
    ShareVector,
    date_range,
    moving_average,
    normalized_entropy,
    poisson_sample,
    split_multinomial,
)
from fedsurv.surge import SurgeHypothesis, SurgeWindow, exact_p_value, window_totals


class TestPowerCurveConfig:
    def test_defaults_are_valid(self):
        cfg = PowerCurveConfig()
        assert cfg.methods == POWER_METHODS
        assert math.isclose(cfg.baseline_rate, 200.0 / 5.3)

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ConfigError):
            PowerCurveConfig(n_total=0)

    def test_rejects_bad_shares(self):
        with pytest.raises(DomainError):
            PowerCurveConfig(shares=(0.7, 0.7))

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            PowerCurveConfig(methods=("stouffer", "median"))

    def test_rejects_empty_grid(self):
        with pytest.raises(ConfigError):
            PowerCurveConfig(theta_grid=())

    @pytest.mark.parametrize("theta", [-1.0, -2.0, float("nan")])
    def test_rejects_grid_point_at_or_below_minus_one(self, theta):
        with pytest.raises(ConfigError):
            PowerCurveConfig(theta_grid=(0.3, theta))

    def test_rejects_tiny_replicate_counts(self):
        with pytest.raises(ConfigError):
            PowerCurveConfig(calibration_reps=10)

    @pytest.mark.parametrize("field", ["n_total", "calibration_reps", "power_reps"])
    def test_rejects_nan_bound(self, field):
        with pytest.raises(ConfigError):
            PowerCurveConfig(**{field: float("nan")})


class TestCalibrateThreshold:
    def test_uniform_sample_hits_target(self):
        rng = np.random.default_rng(5)
        th, rate = calibrate_threshold(rng.uniform(size=20000), 0.05)
        assert abs(rate - 0.05) <= 0.002
        assert 0.03 < th < 0.07

    def test_atom_straddling_target_settles_conservative(self):
        # every p-value is the same atom; no threshold hits 0.05 so the
        # search must come back below target, not above
        th, rate = calibrate_threshold(np.full(1000, 0.5), 0.05)
        assert rate <= 0.05
        assert th <= 0.5 + 1e-12

    @pytest.mark.parametrize("sample", [[], [0.2, float("nan"), 0.01]])
    def test_rejects_empty_or_nan_sample(self, sample):
        with pytest.raises(DomainError):
            calibrate_threshold(sample, 0.05)

    def test_rate_definition_is_strict_below(self):
        sample = np.array([0.01, 0.02, 0.03, 0.04, 1.0])
        th, rate = calibrate_threshold(sample, 0.4, tol=0.05)
        assert rate == pytest.approx(0.4)
        assert 0.02 < th <= 0.03


@pytest.fixture(scope="module")
def smoke():
    cfg = PowerCurveConfig(
        methods=("centralized", "largest_site", "stouffer", "fisher"),
        theta_grid=(0.3, 1.0),
        calibration_reps=2000,
        power_reps=1000,
    )
    return cfg, run_power_curve(cfg, 99)


class TestRunPowerCurve:
    def test_points_cover_grid_sorted(self, smoke):
        cfg, res = smoke
        assert len(res.points) == len(cfg.methods) * len(cfg.theta_grid)
        keys = [(p.method, p.theta_alt) for p in res.points]
        assert keys == sorted(keys)
        assert set(res.thresholds) == set(cfg.methods)
        assert set(res.calibration_rates) == set(cfg.methods)

    def test_calibration_rates_near_alpha(self, smoke):
        _, res = smoke
        for method, rate in res.calibration_rates.items():
            assert 0.03 <= rate <= 0.055, method

    def test_null_grid_point_rejects_near_alpha(self, smoke):
        cfg, res = smoke
        for p in res.points:
            if p.theta_alt == cfg.hypothesis.theta:
                assert abs(p.power - cfg.hypothesis.alpha) <= 0.025, p

    def test_strong_surge_gives_high_power(self, smoke):
        _, res = smoke
        pw = {(p.method, p.theta_alt): p.power for p in res.points}
        for method in ("centralized", "stouffer", "fisher"):
            assert pw[(method, 1.0)] > 0.8, method
        # a single site holds half the evidence and pays for it
        assert pw[("largest_site", 1.0)] < pw[("centralized", 1.0)] - 0.15

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejects_bad_seed(self, smoke, seed):
        with pytest.raises(ConfigError):
            run_power_curve(smoke[0], seed)

    def test_same_seed_reproduces(self, smoke):
        cfg, res = smoke
        again = run_power_curve(cfg, 99)
        assert again.points == res.points
        assert again.thresholds == res.thresholds
        assert again.calibration_rates == res.calibration_rates


class TestBuiltinFixture:
    def test_deterministic_across_calls(self):
        a, b = builtin_wave_counts(), builtin_wave_counts()
        assert a.counts == b.counts
        assert a.timestamps == b.timestamps

    def test_shape_and_cadence(self):
        s = builtin_wave_counts()
        assert len(s.counts) == 400
        assert s.period == "weekly"
        assert s.timestamps[0] == datetime.date(2016, 1, 4)
        assert (s.timestamps[1] - s.timestamps[0]).days == 7
        assert min(s.counts) >= 0

    def test_surveillance_scale(self):
        s = builtin_wave_counts()
        mean = sum(s.counts) / len(s.counts)
        assert 60.0 < mean < 80.0
        # bursts push peaks well above the seasonal ceiling
        assert max(s.counts) > 3 * mean


class TestDominantProfile:
    def test_golden_five_sites(self):
        sv = dominant_profile(0.8, 5)
        assert sv.shares[0] == 0.8
        assert sv.shares[1:] == pytest.approx((0.05,) * 4, abs=1e-15)
        assert math.fsum(sv.shares) == pytest.approx(1.0, abs=1e-12)

    def test_two_sites(self):
        assert dominant_profile(0.5, 2).shares == (0.5, 0.5)

    def test_rejects_single_site(self):
        with pytest.raises(ConfigError):
            dominant_profile(1.0, 1)


class TestSemisynthConfig:
    def test_defaults_are_valid(self):
        cfg = SemisynthConfig()
        assert cfg.site_sweep == (2, 5, 10, 20)
        assert cfg.thresholds == DEFAULT_THRESHOLDS

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_replicates": 0},
            {"site_sweep_magnitude": 0.0},
            {"entropy_sites": 1},
            {"site_sweep": (2, 0)},
            {"magnitude_sweep": (1.0, -0.5)},
            {"dominant_sweep": (0.1,)},
            {"methods": ("stouffer", "median")},
            {"thresholds": ()},
            {"thresholds": (0.1, 1.0)},
            {"thresholds": (0.0,)},
            {"thresholds": (float("nan"),)},
            {"n_replicates": float("nan")},
            {"site_sweep_magnitude": float("nan")},
            {"entropy_sites": float("nan")},
            {"site_sweep": (2, float("nan"))},
            {"site_sweep": (float("inf"),)},
            {"magnitude_sweep": (float("nan"),)},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            SemisynthConfig(**kwargs)


class TestMethodPValues:
    HYP = SurgeHypothesis(0.3, 4)

    def window_p(self, baseline, test):
        return exact_p_value(SurgeWindow(tuple(baseline), int(test)), self.HYP)

    def test_matches_scalar_surge_test(self):
        counts = np.array([[5, 5, 5, 5, 5, 8], [2, 0, 1, 3, 2, 6]], dtype=np.int64)
        c, n = window_totals(counts, 4)
        methods = ("centralized", "largest_site", "lancaster")
        for largest in range(2):
            p_central, rows = _method_pvalues(methods, c, n, self.HYP, largest)
            assert rows.shape == (3, 2)
            assert rows[0].tolist() == p_central.tolist()
            pooled = counts.sum(axis=0)
            for j, t in enumerate((4, 5)):
                site_p = [self.window_p(counts[i, j:t], counts[i, t]) for i in range(2)]
                assert p_central[j] == self.window_p(pooled[j:t], pooled[t])
                assert rows[1, j] == site_p[largest]
                # shares and the pooled total are the realized window counts
                total = int(pooled[j : t + 1].sum())
                shares = tuple(int(counts[i, j : t + 1].sum()) / total for i in range(2))
                ev = EvidenceSet(site_p, shares=shares, total_count=total)
                assert rows[2, j] == combine_by_id("lancaster", ev).p

    def test_empty_window_gets_uniform_shares(self):
        c, n = window_totals(np.zeros((2, 3), dtype=np.int64), 2)
        p_central, rows = _method_pvalues(("largest_site", "wfisher"), c, n, self.HYP, 0)
        assert p_central.tolist() == [1.0]
        assert rows[0].tolist() == [1.0]
        uniform = EvidenceSet((1.0, 1.0), shares=(0.5, 0.5))
        assert rows[1].tolist() == [combine_by_id("wfisher", uniform).p]

    def test_no_methods_gives_empty_rows(self):
        c, n = window_totals(np.ones((2, 7), dtype=np.int64), 4)
        _, rows = _method_pvalues((), c, n, self.HYP, 0)
        assert rows.shape == (0, 3)

    def test_rejects_short_series(self):
        timeline = date_range(datetime.date(2024, 1, 1), 4, "weekly")
        short = CountSeries("s", "weekly", timeline, (5,) * 4)
        cfg = SemisynthConfig(site_sweep=(2,), magnitude_sweep=(), dominant_sweep=())
        with pytest.raises(DomainError):
            run_semisynth_sweep(cfg, 1, counts=short)


class TestOneWindowRule:
    """Every engine's window p-value is ``exact_p_value`` of that window,
    bit for bit, on both sides of ``numerics.EXACT_MAX_N``."""

    HYP = SurgeHypothesis(0.3, 4)

    def window_p(self, baseline, test):
        return exact_p_value(SurgeWindow(tuple(baseline), int(test)), self.HYP)

    def test_sweep_window_matrix(self):
        rng = np.random.default_rng(606)
        counts = rng.poisson(rng.uniform(5.0, 110.0, size=48), size=(3, 48))
        c, n = window_totals(counts, 4)
        assert (n <= EXACT_MAX_N).any() and (n > EXACT_MAX_N).any()
        for i in range(3):
            _, (p,) = _method_pvalues(("largest_site",), c, n, self.HYP, i)
            for j in range(p.size):
                assert p[j] == self.window_p(counts[i, j : j + 4], counts[i, j + 4])

    def test_monte_carlo_batch(self):
        cfg = PowerCurveConfig(
            hypothesis=self.HYP,
            n_total=380,
            shares=(0.8, 0.2),
            methods=("centralized", "largest_site"),
        )
        theta_alt, reps = 0.6, 300
        got = _simulate_method_pvalues(np.random.default_rng(17), cfg, theta_alt, reps)
        # the same draws, in the engine's order
        rng = np.random.default_rng(17)
        lam = cfg.baseline_rate * np.asarray(cfg.shares)
        base = rng.poisson(lam[:, None, None], size=(2, 4, reps))
        test = rng.poisson(lam[:, None] * (1.0 + theta_alt), size=(2, reps))
        site_n = base[0].sum(axis=0) + test[0]
        assert (site_n <= EXACT_MAX_N).any() and (site_n > EXACT_MAX_N).any()
        for r in range(reps):
            assert got["largest_site"][r] == self.window_p(base[0, :, r], test[0, r])
            pooled = self.window_p(base[:, :, r].sum(axis=0), test[:, r].sum())
            assert got["centralized"][r] == pooled

    def test_site_reports(self):
        rng = np.random.default_rng(707)
        counts = tuple(int(k) for k in rng.poisson(np.linspace(20.0, 100.0, 30)))
        timeline = date_range(datetime.date(2024, 1, 1), len(counts), "daily")
        site = SiteNode.wrap(CountSeries("s", "daily", timeline, counts))
        assert sum(counts[-5:]) > EXACT_MAX_N >= sum(counts[:5])
        for t in range(4, len(counts)):
            r = site_compute_report(site, t, self.HYP)
            assert r.p_value == self.window_p(counts[t - 4 : t], counts[t])


class TestSweepMatchesFederation:
    """The sweep's replicate kernel and the protocol simulator must produce
    the same combined series, bit for bit, when fed the same counts and
    true shares. Federation sums sites in site_id order ("pooled-10" sorts
    before "pooled-2"), so the count matrix is stacked in that order."""

    @pytest.mark.parametrize(
        "method, n_sites",
        [pytest.param(m, n, id=m if n == 2 else f"{m}-{n}") for n in (2, 13) for m in METHOD_IDS],
    )
    def test_agreement_on_split_fixture(self, method, n_sites):
        hyp = SurgeHypothesis(0.3, 4)
        base = builtin_wave_counts()
        head = type(base)(base.site_id, base.period, base.timestamps[:40], base.counts[:40])
        prev = moving_average(head, 5)
        sampled = poisson_sample(prev, 41, site_id="pooled")
        weights = np.arange(1.0, n_sites + 1.0)
        parts = split_multinomial(sampled, ShareVector(tuple(weights / weights.sum())), 42)
        parts.sort(key=lambda part: part.site_id)

        c, n = window_totals([p.counts for p in parts], hyp.baseline_len)
        _, (series,) = _method_pvalues((method,), c, n, hyp, 0)

        cfg = FederationConfig(hypothesis=hyp, method=method, share_source="known")
        combined = run_federation([SiteNode.wrap(p) for p in parts], cfg)
        assert len(combined) == series.size
        for j, period in enumerate(combined):
            assert period.period_index == hyp.baseline_len + j
            assert period.p == series[j]


class TestRunSemisynthSweep:
    def test_single_site_point_collapses_to_centralized(self):
        cfg = SemisynthConfig(
            site_sweep=(1,),
            magnitude_sweep=(),
            dominant_sweep=(),
            n_replicates=2,
            methods=POWER_METHODS,
        )
        res = run_semisynth_sweep(cfg, 11)
        rows = {r.method: (r.recall_at_fdr, r.f1) for r in res.rows}
        target = rows["centralized"]
        assert target[1] == 1.0
        for method, got in rows.items():
            assert got == target, method
        (row,) = [r for r in res.rows if r.method == "centralized"]
        assert math.isnan(row.entropy)

    def test_equal_shares_make_wfisher_track_fisher(self):
        cfg = SemisynthConfig(
            site_sweep=(5,),
            magnitude_sweep=(),
            dominant_sweep=(),
            n_replicates=4,
            methods=("fisher", "wfisher"),
        )
        res = run_semisynth_sweep(cfg, 12)
        rows = {r.method: r for r in res.rows}
        assert abs(rows["fisher"].recall_at_fdr - rows["wfisher"].recall_at_fdr) <= 0.08
        assert abs(rows["fisher"].f1 - rows["wfisher"].f1) <= 0.08

    def test_small_sweep_golden(self):
        """Pinned rows of a small sweep with reordered, duplicated
        thresholds. The scores come from integer match counts, so a change
        in how method series are stacked or matched shows here exactly."""
        cfg = SemisynthConfig(
            site_sweep=(3,),
            magnitude_sweep=(0.5,),
            dominant_sweep=(0.6,),
            n_replicates=2,
            methods=("largest_site", "centralized", "fisher", "wfisher", "lancaster"),
            thresholds=(0.2, 1e-4, 0.05, 0.2, 0.01),
        )
        result = run_semisynth_sweep(cfg, 17)
        entropy = 0.7627069065377661
        assert [tuple(r) for r in result.rows] == [
            ("sites", "3", 1.0, "largest_site", 0.024390243902439025, 0.3355263157894737),
            ("sites", "3", 1.0, "centralized", 0.024390243902439025, 1.0),
            ("sites", "3", 1.0, "fisher", 0.0, 0.8198757763975155),
            ("sites", "3", 1.0, "wfisher", 0.0, 0.7619047619047619),
            ("sites", "3", 1.0, "lancaster", 0.012195121951219513, 0.9166666666666666),
            ("magnitude", "0.5", 1.0, "largest_site", 0.0, 0.4264705882352941),
            ("magnitude", "0.5", 1.0, "centralized", 0.4390243902439025, 1.0),
            ("magnitude", "0.5", 1.0, "fisher", 0.24390243902439024, 0.8500000000000001),
            ("magnitude", "0.5", 1.0, "wfisher", 0.23170731707317072, 0.8666666666666667),
            ("magnitude", "0.5", 1.0, "lancaster", 0.43902439024390244, 0.9166666666666666),
            ("entropy", "0.6", entropy, "largest_site", 0.4024390243902439, 0.8699324324324325),
            ("entropy", "0.6", entropy, "centralized", 0.6341463414634146, 1.0),
            ("entropy", "0.6", entropy, "fisher", 0.5, 0.8064516129032258),
            ("entropy", "0.6", entropy, "wfisher", 0.6707317073170732, 0.9260249554367201),
            ("entropy", "0.6", entropy, "lancaster", 0.6097560975609756, 0.9419913419913419),
        ]
        assert set(result.truth_alarm_counts.values()) == {41}

    def test_same_seed_reproduces(self):
        cfg = SemisynthConfig(
            site_sweep=(2,),
            magnitude_sweep=(0.5,),
            dominant_sweep=(0.6,),
            n_replicates=2,
            methods=("centralized", "stouffer", "goods"),
        )
        assert run_semisynth_sweep(cfg, 7) == run_semisynth_sweep(cfg, 7)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejects_bad_seed(self, seed):
        cfg = SemisynthConfig(site_sweep=(2,), magnitude_sweep=(), dominant_sweep=())
        with pytest.raises(ConfigError):
            run_semisynth_sweep(cfg, seed)

    def test_row_labels_and_entropy_column(self):
        cfg = SemisynthConfig(
            site_sweep=(2,),
            magnitude_sweep=(0.5,),
            dominant_sweep=(0.6,),
            entropy_sites=5,
            n_replicates=1,
            methods=("centralized",),
        )
        res = run_semisynth_sweep(cfg, 3)
        by_sweep = {(r.sweep, r.setting): r for r in res.rows}
        assert set(by_sweep) == {("sites", "2"), ("magnitude", "0.5"), ("entropy", "0.6")}
        assert by_sweep[("sites", "2")].entropy == 1.0
        assert by_sweep[("magnitude", "0.5")].entropy == 1.0
        expected = normalized_entropy(dominant_profile(0.6, 5))
        assert by_sweep[("entropy", "0.6")].entropy == pytest.approx(expected)

    def test_truth_counts_are_scale_invariant(self):
        # growth alarms depend only on rate ratios, so every magnitude (and
        # the leaner site sweep) sees the same truth set
        cfg = SemisynthConfig(
            site_sweep=(2,),
            magnitude_sweep=(0.1, 0.5, 1.0, 2.0),
            dominant_sweep=(0.4,),
            n_replicates=1,
            methods=("centralized",),
        )
        res = run_semisynth_sweep(cfg, 13)
        prev = moving_average(builtin_wave_counts(), cfg.smoothing_window)
        expected = len(alarms_from_growth(prev, 0.3, 4))
        assert expected > 0
        assert set(res.truth_alarm_counts.values()) == {expected}

    def test_scores_lie_in_unit_interval(self):
        cfg = SemisynthConfig(
            site_sweep=(3,),
            magnitude_sweep=(),
            dominant_sweep=(),
            n_replicates=2,
            methods=("stouffer", "pearson", "tippett", "cstouffer"),
        )
        for row in run_semisynth_sweep(cfg, 21).rows:
            assert 0.0 <= row.recall_at_fdr <= 1.0
            assert 0.0 <= row.f1 <= 1.0
