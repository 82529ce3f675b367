"""Tests for the experiment engines: calibrated power curves and the
semi-synthetic detection sweep."""

import datetime
import math
import types

import numpy as np
import pytest
from scipy import special

from fedsurv.errors import ConfigError, DomainError
from fedsurv.evaluation import alarms_from_growth, alarms_from_pvalues
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
from fedsurv import combine, experiments, numerics
from fedsurv.combine import METHOD_IDS, EvidenceSet, combine_by_id
from fedsurv.experiments import _method_pvalues, _simulate_method_pvalues
from fedsurv.federation import FederationConfig, run_federation, site_compute_report
from fedsurv.numerics import EXACT_MAX_N
from fedsurv.semisynth import (
    CountSeries,
    ShareVector,
    date_range,
    moving_average,
    normalized_entropy,
    poisson_sample,
    scale_magnitude,
    split_multinomial,
)
from fedsurv.surge import SurgeHypothesis, SurgeWindow, exact_p_value, window_totals

from support import NUMERICS_UFUNCS


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("methods", ()),
            ("methods", ("fisher", "fisher")),
            ("methods", ("centralized", "stouffer", "centralized")),
            ("theta_grid", (0.5, 0.5)),
            ("theta_grid", (0.5, 0.3, 0.5)),
        ],
    )
    def test_rejects_empty_or_repeated_entries(self, field, value):
        with pytest.raises(ConfigError, match=field):
            PowerCurveConfig(**{field: value})

    @pytest.mark.parametrize("theta", [-1.0, -2.0, float("nan"), float("inf")])
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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_total", float("inf")),
            ("n_total", 200.5),
            ("calibration_reps", 1000.5),
            ("calibration_reps", float("inf")),
            ("power_reps", 1000.5),
            ("power_reps", float("inf")),
        ],
    )
    def test_rejects_non_integer_count(self, field, value):
        with pytest.raises(ConfigError):
            PowerCurveConfig(**{field: value})


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
        th, rate = calibrate_threshold(sample, 0.4)
        assert rate == pytest.approx(0.4)
        assert 0.02 < th <= 0.03

    @pytest.mark.parametrize(
        "sample, alpha, name",
        [
            ([0.1, 0.2], 2.0, "alpha"),
            ([0.1, 0.2], float("nan"), "alpha"),
            ([0.1, 0.2], 0.0, "alpha"),
            ([0.1, 0.2], 1.0, "alpha"),
            ([0.1, float("inf")], 0.05, "null_pvalues"),
            ([-5.0, 0.2], 0.05, "null_pvalues"),
            ([0.2, 1.5], 0.05, "null_pvalues"),
            (["a"], 0.05, "null_pvalues"),
            ([[0.1, 0.2]], 0.05, "null_pvalues"),
        ],
    )
    def test_rejects_what_is_not_a_p_value_sample_or_level(self, sample, alpha, name):
        with pytest.raises(DomainError, match=name):
            calibrate_threshold(sample, alpha)


class TestOneMethodRule:
    """`combine.check_method` is the one rule for a method name: each entry
    point that takes one rejects an unknown name with its message, listing
    the entry point's own vocabulary."""

    @pytest.mark.parametrize(
        "make, allowed",
        [
            (lambda m: combine.combine_methods([m], [[0.5]]), METHOD_IDS),
            (lambda m: FederationConfig(method=m), METHOD_IDS),
            (lambda m: PowerCurveConfig(methods=(m,)), POWER_METHODS),
            (lambda m: SemisynthConfig(methods=(m,)), POWER_METHODS),
        ],
        ids=["combine_methods", "FederationConfig", "PowerCurveConfig", "SemisynthConfig"],
    )
    @pytest.mark.parametrize("method", ["nope", 3])
    def test_unknown_method_is_rejected_with_one_message(self, make, allowed, method):
        with pytest.raises(ConfigError) as err:
            make(method)
        assert str(err.value) == f"unknown method {method!r}; expected one of {allowed}"


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


class TestPowerSlices:
    """The power engine draws a batch whole and scores it in slices of as
    many replicates as fit ``_POWER_SLICE_SITE_WINDOWS`` site-windows; the
    slicing must not change a p-value."""

    CFG = PowerCurveConfig(
        n_total=120, shares=(0.5, 0.3, 0.2), methods=("centralized", "fisher", "lancaster")
    )

    def draws(self, seed, theta_alt, reps):
        """The batch's (N, reps) baseline and window totals, in the engine's
        draw order."""
        cfg = self.CFG
        rng = np.random.default_rng(seed)
        lam = cfg.baseline_rate * np.asarray(cfg.shares)
        base = rng.poisson(lam[:, None, None], size=(3, cfg.hypothesis.baseline_len, reps))
        test = rng.poisson(lam[:, None] * (1.0 + theta_alt), size=(3, reps))
        c = base.sum(axis=1)
        return c, c + test

    @pytest.mark.parametrize("budget, sizes", [(2, [1] * 7), (7, [2, 2, 2, 1]), (9, [3, 3, 1])])
    def test_each_replicate_scored_once_within_budget(self, monkeypatch, budget, sizes):
        monkeypatch.setattr(experiments, "_POWER_SLICE_SITE_WINDOWS", budget)
        calls = []
        real = experiments._method_pvalues

        def spy(methods, c_site, n_site, hyp, largest):
            p_central, rows = real(methods, c_site, n_site, hyp, largest)
            calls.append((c_site.copy(), n_site.copy(), rows))
            return p_central, rows

        monkeypatch.setattr(experiments, "_method_pvalues", spy)
        got = _simulate_method_pvalues(np.random.default_rng(23), self.CFG, 0.8, 7)
        assert [c.shape[1] for c, _, _ in calls] == sizes
        for c, n, _ in calls:
            assert c.shape == n.shape and (c.size <= budget or c.shape[1] == 1)
        want_c, want_n = self.draws(23, 0.8, 7)
        np.testing.assert_array_equal(np.concatenate([c for c, _, _ in calls], axis=1), want_c)
        np.testing.assert_array_equal(np.concatenate([n for _, n, _ in calls], axis=1), want_n)
        rows = np.concatenate([r for _, _, r in calls], axis=1)
        for method, row in zip(self.CFG.methods, rows):
            assert got[method].tobytes() == row.tobytes()

    def test_default_budget_slices_of_32768_replicates_at_two_sites(self, monkeypatch):
        sizes = []

        def stub(methods, c_site, n_site, hyp, largest):
            sizes.append(c_site.shape)
            return np.zeros(c_site.shape[1]), np.zeros((len(methods), c_site.shape[1]))

        monkeypatch.setattr(experiments, "_method_pvalues", stub)
        cfg = PowerCurveConfig(methods=("centralized",))
        _simulate_method_pvalues(np.random.default_rng(5), cfg, 0.5, cfg.calibration_reps)
        assert sizes == [(2, 32_768)] * 3 + [(2, 1_696)]

    @pytest.mark.parametrize("budget", [1, 61, 1 << 20])
    def test_run_does_not_depend_on_the_budget(self, monkeypatch, budget):
        cfg = PowerCurveConfig(theta_grid=(0.3, 1.0), calibration_reps=1000, power_reps=1000)
        want = run_power_curve(cfg, 31)
        monkeypatch.setattr(experiments, "_POWER_SLICE_SITE_WINDOWS", budget)
        got = run_power_curve(cfg, 31)
        assert got.points == want.points
        assert got.thresholds == want.thresholds
        assert got.calibration_rates == want.calibration_rates


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
            {"n_replicates": 2.5},
            {"n_replicates": float("inf")},
            {"entropy_sites": 4.5, "dominant_sweep": (0.6,)},
            {"entropy_sites": float("inf")},
            {"methods": ()},
            {"methods": ("fisher", "fisher")},
            {"site_sweep": (2, 2)},
            {"site_sweep": (2, 5, 2.0)},
            {"magnitude_sweep": (0.5, 0.5)},
            # compared as the setting string each row carries, "0.5" for both
            {"magnitude_sweep": (0.5, 0.5000001)},
            {"dominant_sweep": (0.4, 0.6, 0.4)},
            {"site_sweep": (), "magnitude_sweep": (), "dominant_sweep": ()},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ConfigError):
            SemisynthConfig(**kwargs)

    def test_thresholds_may_repeat(self):
        assert SemisynthConfig(thresholds=(0.1, 0.1)).thresholds == (0.1, 0.1)


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

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_monte_carlo_batch_in_slices(self, monkeypatch, budget):
        monkeypatch.setattr(experiments, "_POWER_SLICE_SITE_WINDOWS", budget)
        self.test_monte_carlo_batch()

    def test_site_reports(self):
        rng = np.random.default_rng(707)
        counts = tuple(int(k) for k in rng.poisson(np.linspace(20.0, 100.0, 30)))
        timeline = date_range(datetime.date(2024, 1, 1), len(counts), "daily")
        site = CountSeries("s", "daily", timeline, counts)
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
        combined = run_federation(parts, cfg)
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


class TestSweepGroups:
    """The sweep scores each point's replicates in groups of whole
    replicates that fit ``_SWEEP_GROUP_SITE_WINDOWS`` site-windows; the
    grouping must not change a score."""

    N_REPS = 7  # groups of 2 and 3 leave a ragged last group

    def windows_per_site(self, cfg):
        return builtin_wave_counts().length - cfg.hypothesis.baseline_len

    @pytest.mark.parametrize("n_sites", [2, 5])
    def test_rows_do_not_depend_on_group_size(self, monkeypatch, n_sites):
        cfg = SemisynthConfig(
            site_sweep=(n_sites,),
            magnitude_sweep=(),
            dominant_sweep=(),
            n_replicates=self.N_REPS,
        )
        replicate_site_windows = n_sites * self.windows_per_site(cfg)
        results = []
        for per_group in (1, 2, 3, self.N_REPS):
            budget = per_group * replicate_site_windows
            monkeypatch.setattr(experiments, "_SWEEP_GROUP_SITE_WINDOWS", budget)
            results.append(run_semisynth_sweep(cfg, 5).rows)
        for rows in results[1:]:
            assert rows == results[0]

    def test_default_budget_groups_of_20_8_4_and_2_replicates(self, monkeypatch):
        cfg = SemisynthConfig(
            magnitude_sweep=(), dominant_sweep=(), methods=("centralized",)
        )
        assert cfg.site_sweep == (2, 5, 10, 20) and cfg.n_replicates == 20
        k = self.windows_per_site(cfg)
        group_sizes = []
        real = experiments._method_pvalues

        def spy(methods, c_site, n_site, hyp, largest):
            group_sizes.append((c_site.shape[0], c_site.shape[1] // k))
            return real(methods, c_site, n_site, hyp, largest)

        monkeypatch.setattr(experiments, "_method_pvalues", spy)
        run_semisynth_sweep(cfg, 5)
        assert group_sizes == (
            [(2, 20)] + [(5, 8), (5, 8), (5, 4)] + [(10, 4)] * 5 + [(20, 2)] * 10
        )

    def test_each_replicate_scored_once_within_budget(self, monkeypatch):
        cfg = SemisynthConfig(
            site_sweep=(2, 5),
            magnitude_sweep=(),
            dominant_sweep=(),
            n_replicates=self.N_REPS,
            methods=("centralized", "fisher"),
        )
        l = cfg.hypothesis.baseline_len
        k = self.windows_per_site(cfg)
        # three 2-site replicates fit, but not two 5-site ones
        budget = 3 * 2 * k
        monkeypatch.setattr(experiments, "_SWEEP_GROUP_SITE_WINDOWS", budget)
        calls = []
        real = experiments._method_pvalues

        def spy(methods, c_site, n_site, hyp, largest):
            calls.append((c_site.copy(), n_site.copy()))
            return real(methods, c_site, n_site, hyp, largest)

        monkeypatch.setattr(experiments, "_method_pvalues", spy)
        seed = 5
        run_semisynth_sweep(cfg, seed)

        # each replicate's window totals, drawn through the public API from
        # the replicate's own branch of the seed tree
        def child(seq):
            return int(seq.generate_state(1, np.uint64)[0])

        prev = moving_average(builtin_wave_counts(), cfg.smoothing_window)
        scaled = scale_magnitude(prev, cfg.site_sweep_magnitude)
        expected = []
        point_seqs = np.random.SeedSequence(seed).spawn(len(cfg.site_sweep))
        for n_sites, point_seq in zip(cfg.site_sweep, point_seqs):
            for rep_seq in point_seq.spawn(self.N_REPS):
                sample_seq, split_seq = rep_seq.spawn(2)
                pooled = poisson_sample(scaled, child(sample_seq))
                sites = split_multinomial(pooled, ShareVector.equal(n_sites), child(split_seq))
                expected.append(window_totals(np.array([s.counts for s in sites]), l))

        group_sizes = []
        remaining = iter(expected)
        for c_site, n_site in calls:
            assert c_site.shape == n_site.shape and c_site.shape[1] % k == 0
            n_reps = c_site.shape[1] // k
            assert n_reps == 1 or c_site.size <= budget
            group_sizes.append(n_reps)
            for j in range(n_reps):
                want_c, want_n = next(remaining)
                np.testing.assert_array_equal(c_site[:, j * k : (j + 1) * k], want_c)
                np.testing.assert_array_equal(n_site[:, j * k : (j + 1) * k], want_n)
        assert next(remaining, None) is None
        assert group_sizes == [3, 3, 1] + [1] * self.N_REPS

    def test_one_growth_match_and_one_f1_match_per_group(self, monkeypatch):
        cfg = SemisynthConfig(
            site_sweep=(2, 5),
            magnitude_sweep=(),
            dominant_sweep=(),
            n_replicates=self.N_REPS,
            methods=("centralized", "fisher", "stouffer"),
        )
        alpha = cfg.hypothesis.alpha
        n_methods = len(cfg.methods)
        k = self.windows_per_site(cfg)
        # three 2-site replicates fit, but not two 5-site ones
        monkeypatch.setattr(experiments, "_SWEEP_GROUP_SITE_WINDOWS", 3 * 2 * k)
        events = []
        real_pvalues = experiments._method_pvalues
        real_pr_curves = experiments.pr_curves

        def spy_pvalues(methods, c_site, n_site, hyp, largest):
            p_central, rows = real_pvalues(methods, c_site, n_site, hyp, largest)
            events.append(("scored", p_central.copy(), rows.copy()))
            return p_central, rows

        def spy_pr_curves(p, truth, window, thresholds):
            events.append(("matched", np.array(p), truth, tuple(thresholds)))
            return real_pr_curves(p, truth, window, thresholds)

        monkeypatch.setattr(experiments, "_method_pvalues", spy_pvalues)
        monkeypatch.setattr(experiments, "pr_curves", spy_pr_curves)
        run_semisynth_sweep(cfg, 5)

        group_sizes = []
        pending = iter(events)
        for event in pending:
            assert event[0] == "scored"
            _, p_central, rows = event
            n_reps = p_central.size // k
            group_sizes.append(n_reps)
            rows = rows.reshape(n_methods, n_reps, k)
            # one growth match for the whole group, rows method-major
            kind, p, _, thresholds = next(pending)
            assert kind == "matched" and thresholds == cfg.thresholds
            assert p.shape == (n_methods * n_reps, k)
            np.testing.assert_array_equal(p, rows.reshape(-1, k))
            # then one F1 match for the whole group, the same rows, each
            # against its own replicate's central alarms
            kind, p, truth, thresholds = next(pending)
            assert kind == "matched" and thresholds == (alpha,)
            np.testing.assert_array_equal(p, rows.reshape(-1, k))
            central = p_central.reshape(n_reps, k)
            assert list(truth) == [
                alarms_from_pvalues(central[j], alpha) for _ in cfg.methods for j in range(n_reps)
            ]
        assert group_sizes == [3, 3, 1] + [1] * self.N_REPS
        matched = [e for e in events if e[0] == "matched"]
        assert len(matched) == 2 * len(group_sizes)

    def test_default_sweep_counts_one_pass_per_group(self, monkeypatch):
        """The group pass pinned by counts, not time, on the default sweep
        at seed 7 (43 groups): every combiner's normal quantiles come from
        one ``normal_quantile`` call per group (three Stouffers once called
        it each), the rows are matched in two ``pr_curves`` calls per group
        (one growth and one F1 call; there was one F1 call per replicate),
        and the Gamma inversions are those of combining the same groups
        one method at a time (299,389 here)."""
        real_quantile = numerics.normal_quantile
        real_methods = combine.combine_methods
        real_pr_curves = experiments.pr_curves
        counts = {"normal_quantile": 0, "pr_curves": 0}
        groups = []
        inverted = []
        real_inverse = special.gammainccinv

        def quantile_spy(p):
            counts["normal_quantile"] += 1
            return real_quantile(p)

        def methods_spy(methods, *args):
            groups.append((tuple(methods), args))
            return real_methods(methods, *args)

        def pr_curves_spy(*args):
            counts["pr_curves"] += 1
            return real_pr_curves(*args)

        def inverse_spy(a, x):
            inverted.append(np.size(x))
            return real_inverse(a, x)

        ufuncs = {name: getattr(special, name) for name in NUMERICS_UFUNCS}
        monkeypatch.setattr(
            numerics, "special", types.SimpleNamespace(**dict(ufuncs, gammainccinv=inverse_spy))
        )
        monkeypatch.setattr(numerics, "normal_quantile", quantile_spy)
        monkeypatch.setattr(combine, "combine_methods", methods_spy)
        monkeypatch.setattr(experiments, "pr_curves", pr_curves_spy)
        run_semisynth_sweep(SemisynthConfig(), 7)
        assert len(groups) == 43
        assert counts == {"normal_quantile": 43, "pr_curves": 86}
        batched = sum(inverted)

        # the same groups, one method at a time, from an empty memo
        monkeypatch.setattr(combine, "combine_methods", real_methods)
        monkeypatch.setattr(numerics, "_isf_memo", None)
        inverted.clear()
        for methods, args in groups:
            assert methods == METHOD_IDS
            for method in methods:
                combine.combine_matrix(method, *args)
        assert batched == sum(inverted)
