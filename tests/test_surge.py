import math

import numpy as np
import pytest

from fedsurv import numerics as nm
from fedsurv import surge
from fedsurv.errors import BoundsNotApplicableError, ConfigError, DomainError
from fedsurv.surge import PowerScenario, SurgeHypothesis, SurgeWindow

import oracles

HYP = SurgeHypothesis(theta=0.3, baseline_len=4, alpha=0.05)


def random_window(rng, lam, hyp, growth=1.0):
    baseline = tuple(int(x) for x in rng.poisson(lam, size=hyp.baseline_len))
    test = int(rng.poisson(lam * growth))
    return SurgeWindow(baseline, test)


class TestHypothesis:
    def test_derived_probabilities(self):
        assert HYP.rho == pytest.approx(4 / 5.3, abs=1e-15)
        assert HYP.q == pytest.approx(1.3 / 5.3, abs=1e-15)
        assert HYP.rho + HYP.q == pytest.approx(1.0, abs=1e-15)

    def test_validation(self):
        with pytest.raises(DomainError):
            SurgeHypothesis(theta=-0.1, baseline_len=4)
        with pytest.raises(DomainError):
            SurgeHypothesis(theta=0.3, baseline_len=0)
        with pytest.raises(DomainError):
            SurgeHypothesis(theta=0.3, baseline_len=4, alpha=1.0)
        for bad in (float("nan"), float("inf"), 2.5, True, 2**63):
            with pytest.raises(DomainError):
                SurgeHypothesis(theta=0.3, baseline_len=bad)
            with pytest.raises(DomainError):
                PowerScenario(n=bad, theta_alt=0.6, hypothesis=HYP)

    def test_integral_floats_are_stored_as_ints(self):
        hyp = SurgeHypothesis(theta=0.3, baseline_len=4.0)
        assert hyp == HYP and type(hyp.baseline_len) is int
        scn = PowerScenario(n=60.0, theta_alt=0.6, hypothesis=HYP)
        assert type(scn.n) is int
        # an integral-float length indexes like the int it stands for
        got = surge.window_totals(np.arange(8), hyp.baseline_len)
        want = surge.window_totals(np.arange(8), 4)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_window_validation(self):
        with pytest.raises(DomainError):
            SurgeWindow((1, -2, 3, 4), 0)


class TestExactPValue:
    def test_zero_test_count_gives_one(self):
        assert surge.exact_p_value(SurgeWindow((5, 5, 5, 5), 0), HYP) == 1.0

    def test_empty_window_gives_one(self):
        assert surge.exact_p_value(SurgeWindow((0, 0, 0, 0), 0), HYP) == 1.0

    def test_golden_window(self):
        p = surge.exact_p_value(SurgeWindow((10, 10, 10, 10), 20), HYP)
        assert 0.05 < p < 0.11
        assert p == pytest.approx(oracles.binom_cdf_bruteforce(40, 60, 4 / 5.3), abs=1e-13)
        assert p == pytest.approx(0.07878151308689932, abs=1e-13)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            surge.exact_p_value(SurgeWindow((1, 2), 3), HYP)

    def test_exact_kernel_up_to_cap_and_betainc_above(self):
        for n in (nm.EXACT_MAX_N, nm.EXACT_MAX_N + 1):
            c = round(n * HYP.rho) - 12
            p = surge.exact_p_value(SurgeWindow((c, 0, 0, 0), n - c), HYP)
            assert p == pytest.approx(oracles.binom_cdf_mpmath(c, n, HYP.rho), abs=1e-12)
            if n <= nm.EXACT_MAX_N:
                assert p == oracles.binom_cdf_fraction(c, n, HYP.rho)
            else:
                assert p == nm.binomial_cdf(c, n, HYP.rho)

    def test_nonincreasing_in_test_count(self):
        baseline = (8, 12, 9, 11)
        ps = [surge.exact_p_value(SurgeWindow(baseline, k), HYP) for k in range(0, 40)]
        assert all(a >= b - 1e-15 for a, b in zip(ps, ps[1:]))

    def test_super_uniform_under_null(self):
        # boundary null: test rate exactly (1+theta) * baseline rate
        rng = np.random.default_rng(314)
        lam, reps = 30.0, 20000
        c = rng.poisson(lam * HYP.baseline_len, size=reps)
        k = rng.poisson(lam * (1 + HYP.theta), size=reps)
        p = nm.binomial_cdf(c, c + k, HYP.rho)
        for alpha in (0.01, 0.05, 0.1):
            freq = float(np.mean(p <= alpha))
            sigma = math.sqrt(alpha * (1 - alpha) / reps)
            assert freq <= alpha + 3 * sigma


class TestWindowPValues:
    @staticmethod
    def scalar(c, n, hyp=HYP):
        baseline = (c,) + (0,) * (hyp.baseline_len - 1)
        return surge.exact_p_value(SurgeWindow(baseline, n - c), hyp)

    def test_elementwise_equal_to_exact_p_value(self):
        cap = nm.EXACT_MAX_N
        pairs = [(0, 0), (0, 1), (1, 1)]
        for n in (cap, cap + 1):
            pairs += [(0, n), (n, n), (n - 1, n), (round(n * HYP.rho) - 12, n)]
        pairs += pairs[::-1]  # repeated pairs are filled in by index
        c = np.array([c for c, _ in pairs])
        n = np.array([n for _, n in pairs])
        got = surge.window_p_values(c, n, HYP)
        assert got.shape == c.shape
        assert got.tolist() == [self.scalar(ci, ni) for ci, ni in pairs]

    def test_random_grid_and_shape(self):
        rng = np.random.default_rng(3)
        hyp = SurgeHypothesis(0.7, 3)
        n = rng.integers(0, 40, size=(6, 25))
        n[0, :3] = (nm.EXACT_MAX_N + 5, 2000, 0)
        c = rng.integers(0, n + 1)
        got = surge.window_p_values(c, n, hyp)
        assert got.shape == (6, 25)
        want = [
            [self.scalar(a, b, hyp) for a, b in zip(row_c, row_n)]
            for row_c, row_n in zip(c.tolist(), n.tolist())
        ]
        assert got.tolist() == want

    def test_empty_input(self):
        got = surge.window_p_values(np.zeros(0, dtype=int), np.zeros(0, dtype=int), HYP)
        assert got.shape == (0,)

    @pytest.mark.parametrize(
        "n, unused",
        [
            ([0, 1, 7, 120, nm.EXACT_MAX_N, nm.EXACT_MAX_N], "binomial_cdf"),
            ([nm.EXACT_MAX_N + 1, nm.EXACT_MAX_N + 1, 400, 2000], "binomial_cdf_exact"),
        ],
    )
    def test_tail_kernel_without_windows_is_not_called(self, n, unused, monkeypatch):
        n = np.array(n)
        c = np.round(n * HYP.rho).astype(int) - n // 10
        want = surge.window_p_values(c, n, HYP).tolist()

        def refuse(*args, **kwargs):
            raise AssertionError(f"numerics.{unused} was called")

        monkeypatch.setattr(nm, unused, refuse)
        assert surge.window_p_values(c, n, HYP).tolist() == want

    @pytest.mark.parametrize(
        "c, n, error",
        [
            ([-1, 2], [3, 3], DomainError),
            ([4, 1], [3, 3], DomainError),
            ([1, 1], [3, -3], DomainError),
            ([1.5], [3], DomainError),
            ([True], [3], DomainError),
            ([1, 2], [3, 3, 3], ConfigError),
            ([[1, 2]], [3, 3], ConfigError),
        ],
    )
    def test_typed_errors(self, c, n, error):
        with pytest.raises(error):
            surge.window_p_values(np.array(c), np.array(n), HYP)


class TestWindowTotals:
    def test_window_sums_past_int64_raise(self):
        counts = np.array([[1, 2, 3], [0, 2**62, 2**62]])
        with pytest.raises(DomainError, match="window total overflows int64"):
            surge.window_totals(counts, 1)
        # the largest count bounds every sum: l + 1 of them fit exactly
        top = (2**63 - 1) // 3
        c, n = surge.window_totals(np.full(6, top), 2)
        assert c.tolist() == [2 * top] * 4 and n.tolist() == [3 * top] * 4

    def test_wrapped_prefix_sums_give_exact_windows(self):
        # the series total is 2**64, past int64, but every window fits
        c, n = surge.window_totals(np.full(8, 2**61), 1)
        assert c.tolist() == [2**61] * 7 and n.tolist() == [2**62] * 7


class TestGaussianPValue:
    def test_mean_point_is_half(self):
        # n=21, c=16 puts c/n exactly at rho for theta=0.25, l=4
        hyp = SurgeHypothesis(theta=0.25, baseline_len=4)
        assert hyp.rho == pytest.approx(16 / 21, abs=1e-15)
        w = SurgeWindow((4, 4, 4, 4), 5)
        assert surge.gaussian_p_value(w, hyp) == pytest.approx(0.5, abs=1e-12)

    def test_against_erf_reference(self):
        w = SurgeWindow((10, 10, 10, 10), 20)
        rho = HYP.rho
        z = (40 - 60 * rho) / math.sqrt(60 * rho * (1 - rho))
        assert surge.gaussian_p_value(w, HYP) == pytest.approx(
            oracles.normal_cdf_erf(z), abs=1e-14
        )
        zy = (40.5 - 60 * rho) / math.sqrt(60 * rho * (1 - rho))
        assert surge.gaussian_p_value(w, HYP, yates=True) == pytest.approx(
            oracles.normal_cdf_erf(zy), abs=1e-14
        )

    def test_yates_never_below_plain(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            w = random_window(rng, rng.uniform(2, 60), HYP, growth=rng.uniform(0.5, 3))
            assert surge.gaussian_p_value(w, HYP, yates=True) >= surge.gaussian_p_value(w, HYP)

    def test_empty_window_degenerate(self):
        assert surge.gaussian_p_value(SurgeWindow((0, 0, 0, 0), 0), HYP) == 1.0

    def test_tracks_exact_within_first_order_term(self):
        rng = np.random.default_rng(2718)
        checked = 0
        for _ in range(2000):
            lam = rng.uniform(3, 80)
            w = random_window(rng, lam, HYP, growth=rng.uniform(0.8, 2.5))
            n, c = w.total, w.baseline_total
            if n == 0 or c == 0 or c == n:
                continue
            sigma = math.sqrt(n * HYP.rho * (1 - HYP.rho))
            z = (c - n * HYP.rho) / sigma
            if abs(z) > 6:
                continue
            checked += 1
            err = surge.exact_p_value(w, HYP) - surge.gaussian_p_value(w, HYP)
            term = surge.diagnostics(w, HYP).gaussian_first_order_error
            assert abs(err - term) <= 1.0 / n
        assert checked > 1500


class TestCriticalValue:
    def test_golden_by_exhaustive_scan(self):
        got = surge.critical_value(60, HYP)
        # independent scan with the brute-force tail oracle
        expected = next(
            k for k in range(61) if oracles.binom_tail_bruteforce(k, 60, HYP.q) <= HYP.alpha
        )
        assert got == expected == 21

    def test_matches_exhaustive_scan_random(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            n = int(rng.integers(1, 400))
            hyp = SurgeHypothesis(
                theta=float(rng.choice([0.1, 0.3, 1.0])),
                baseline_len=int(rng.choice([2, 4, 8])),
                alpha=float(rng.uniform(0.005, 0.2)),
            )
            got = surge.critical_value(n, hyp)
            expected = n + 1
            for k in range(n + 1):
                if oracles.binom_tail_bruteforce(k, n, hyp.q) <= hyp.alpha:
                    expected = k
                    break
            assert got == expected

    def test_alpha_monotonicity(self):
        for n in (17, 60, 203):
            prev = None
            for alpha in (0.001, 0.01, 0.05, 0.2, 0.5, 0.9):
                k = surge.critical_value(n, SurgeHypothesis(0.3, 4, alpha))
                if prev is not None:
                    assert k <= prev
                prev = k

    def test_alpha_near_one_floor(self):
        # tail(0) = 1 exceeds any alpha < 1, so the threshold bottoms out at 1
        k = surge.critical_value(60, SurgeHypothesis(0.3, 4, alpha=1 - 1e-9))
        assert k == 1

    def test_unattainable_returns_n_plus_one(self):
        # n=1: tail(1) = q ~ 0.245 > alpha
        assert surge.critical_value(1, HYP) == 2

    def test_integral_float_n_gives_an_int(self):
        got = surge.critical_value(100.0, HYP)
        assert got == 33 and type(got) is int
        for bad in (0, 2.5, True, float("nan")):
            with pytest.raises(DomainError):
                surge.critical_value(bad, HYP)


class TestPower:
    def test_power_at_null_is_conservative(self):
        for n in (50, 200, 500):
            scn = PowerScenario(n=n, theta_alt=HYP.theta, hypothesis=HYP)
            assert surge.power_exact(scn) <= HYP.alpha + 1e-12

    def test_power_saturates_for_extreme_growth(self):
        scn = PowerScenario(n=200, theta_alt=1e6, hypothesis=HYP)
        assert surge.power_exact(scn) > 0.999

    def test_golden_against_monte_carlo(self):
        scn = PowerScenario(n=200, theta_alt=0.6, hypothesis=HYP)
        got = surge.power_exact(scn)
        rng = np.random.default_rng(123456)
        reps = 10**6
        k_cr = surge.critical_value(200, HYP)
        draws = rng.binomial(200, scn.q_alt, size=reps)
        mc = float(np.mean(draws >= k_cr))
        sigma = math.sqrt(mc * (1 - mc) / reps)
        assert got == pytest.approx(mc, abs=3 * sigma)

    def test_monotone_in_theta_alt_and_n(self):
        powers = [
            surge.power_exact(PowerScenario(200, t, HYP)) for t in np.arange(0.3, 1.31, 0.1)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(powers, powers[1:]))
        by_n = [surge.power_exact(PowerScenario(n, 0.6, HYP)) for n in (100, 200, 400, 800)]
        assert all(a <= b + 1e-12 for a, b in zip(by_n, by_n[1:]))

    def test_approx_terms_structure(self):
        scn = PowerScenario(n=200, theta_alt=0.6, hypothesis=HYP)
        terms = surge.power_approx_terms(scn)
        assert terms.continuity < 0
        assert surge.power_approx(scn) == pytest.approx(
            nm.normal_cdf(terms.magnitude + terms.type_one + terms.continuity), abs=1e-15
        )

    def test_approx_reduces_to_alpha_at_null_boundary(self):
        scn = PowerScenario(n=10**12, theta_alt=HYP.theta, hypothesis=HYP)
        terms = surge.power_approx_terms(scn)
        assert terms.magnitude == 0.0
        assert terms.type_one == pytest.approx(-nm.normal_quantile(1 - HYP.alpha), abs=1e-12)
        assert surge.power_approx(scn) == pytest.approx(HYP.alpha, abs=1e-6)

    def test_approx_tracks_exact_at_golden_point(self):
        scn = PowerScenario(n=200, theta_alt=0.6, hypothesis=HYP)
        assert abs(surge.power_approx(scn) - surge.power_exact(scn)) <= 0.03

    def test_approx_tracks_exact_within_sawtooth_envelope(self):
        # The integer critical value quantizes the rejection region; the
        # analytic formula lands anywhere inside the skipped half-count on
        # either side, so the gap is bounded by the normal density peak
        # times the half-count in z units, plus higher-order slack.
        for n in (100, 200, 500):
            for l in (2, 4, 8):
                hyp = SurgeHypothesis(0.3, l, 0.05)
                for tp in np.arange(0.3, 1.01, 0.1):
                    scn = PowerScenario(n, float(tp), hyp)
                    sigma_alt = math.sqrt(n * scn.q_alt * (1 - scn.q_alt))
                    envelope = 0.2 / sigma_alt + 0.01
                    gap = abs(surge.power_approx(scn) - surge.power_exact(scn))
                    assert gap <= envelope


class TestDiagnostics:
    def test_boundary_rejected(self):
        with pytest.raises(BoundsNotApplicableError):
            surge.diagnostics(SurgeWindow((0, 0, 0, 0), 5), HYP)
        with pytest.raises(BoundsNotApplicableError):
            surge.diagnostics(SurgeWindow((2, 3, 1, 2), 0), HYP)
        with pytest.raises(BoundsNotApplicableError):
            surge.diagnostics(SurgeWindow((0, 0, 0, 0), 0), HYP)

    def test_kl_zero_at_matching_split(self):
        hyp = SurgeHypothesis(theta=0.25, baseline_len=4)
        d = surge.diagnostics(SurgeWindow((4, 4, 4, 4), 5), hyp)
        assert d.kl == pytest.approx(0.0, abs=1e-15)
        assert d.log_p_upper == pytest.approx(0.0, abs=1e-12)

    def test_kl_direction_matches_observed_vs_null_order(self):
        w = SurgeWindow((10, 10, 10, 10), 20)
        d = surge.diagnostics(w, HYP)
        c, n, rho = 40, 60, HYP.rho
        forward = (c / n) * math.log(c / (n * rho)) + ((n - c) / n) * math.log(
            (n - c) / (n * (1 - rho))
        )
        swapped = rho * math.log(rho * n / c) + (1 - rho) * math.log(
            (1 - rho) * n / (n - c)
        )
        assert d.kl == pytest.approx(forward, abs=1e-15)
        assert abs(forward - swapped) > 1e-4

    def test_golden_bracket(self):
        w = SurgeWindow((10, 10, 10, 10), 20)
        d = surge.diagnostics(w, HYP)
        log_p = math.log(surge.exact_p_value(w, HYP))
        assert d.log_p_lower <= log_p <= d.log_p_upper

    def test_bracket_on_random_depressed_windows(self):
        rng = np.random.default_rng(909)
        tried = 0
        while tried < 300:
            n = int(rng.integers(5, 800))
            c = int(rng.integers(1, n))
            rho = float(rng.uniform(0.1, 0.9))
            if c / n >= rho:
                continue
            theta_l = rho_to_hyp(rho)
            w = SurgeWindow(tuple([c] + [0] * (theta_l.baseline_len - 1)), n - c)
            d = surge.diagnostics(w, theta_l)
            if d.log_p_lower < -600:
                # p-value below double-precision range; nothing to compare
                continue
            tried += 1
            log_p = math.log(surge.exact_p_value(w, theta_l))
            assert d.log_p_lower - 1e-9 <= log_p <= d.log_p_upper + 1e-12

    def test_rounding_term_and_skew_assembly(self):
        w = SurgeWindow((10, 10, 10, 10), 20)
        d = surge.diagnostics(w, HYP)
        rho = HYP.rho
        sigma = math.sqrt(60 * rho * (1 - rho))
        z = (40 - 60 * rho) / sigma
        skew = (1 - 2 * rho) * (1 - z * z) / 6
        phi = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
        # epsilon_r is exactly 1/2: the z-score reconstructs the integer count
        expected = (skew + 0.5) * phi / sigma
        assert d.gaussian_first_order_error == pytest.approx(expected, abs=1e-14)


def rho_to_hyp(rho: float) -> SurgeHypothesis:
    """Build a hypothesis whose null probability equals the given rho."""
    l = max(1, math.ceil(rho / (1 - rho)))
    theta = l / rho - 1 - l
    if theta < 0:  # float edge when rho/(1-rho) is integral
        l += 1
        theta = l / rho - 1 - l
    return SurgeHypothesis(theta=theta, baseline_len=l)
