import math

import numpy as np
import pytest

from fedsurv import numerics as nm
from fedsurv.errors import DomainError
from fedsurv.surge import SurgeHypothesis

import oracles


class TestBinomialCdf:
    def test_empty_sample_is_total_mass(self):
        assert nm.binomial_cdf(0, 0, 0.5) == 1.0

    def test_full_support_is_one(self):
        for n in (1, 7, 500):
            assert nm.binomial_cdf(n, n, 0.3) == 1.0

    def test_golden_interior_point(self):
        # 61-term brute-force sum, frozen at double precision
        got = nm.binomial_cdf(40, 60, 4 / 5.3)
        assert got == pytest.approx(0.07878151308689932, abs=1e-14)
        assert got == pytest.approx(oracles.binom_cdf_mpmath(40, 60, 4 / 5.3), abs=1e-14)

    def test_matches_bruteforce_on_random_grid(self):
        rng = np.random.default_rng(20240611)
        for _ in range(300):
            n = int(rng.integers(1, 1001))
            c = int(rng.integers(0, n + 1))
            rho = float(rng.uniform(0.01, 0.99))
            assert nm.binomial_cdf(c, n, rho) == pytest.approx(
                oracles.binom_cdf_bruteforce(c, n, rho), abs=1e-12
            )

    def test_monotone_in_c(self):
        vals = [nm.binomial_cdf(c, 50, 0.37) for c in range(51)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 1.0

    def test_degenerate_rho(self):
        assert nm.binomial_cdf(0, 10, 0.0) == 1.0
        assert nm.binomial_cdf(3, 10, 1.0) == 0.0
        assert nm.binomial_cdf(10, 10, 1.0) == 1.0

    def test_c_above_n_rejected(self):
        with pytest.raises(DomainError):
            nm.binomial_cdf(4, 3, 0.5)

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            nm.binomial_cdf(1, 3, 1.5)
        with pytest.raises(DomainError):
            nm.binomial_cdf(1, 3, -0.1)

    def test_vectorized_agrees_with_scalar(self):
        rng = np.random.default_rng(99)
        n = 240
        c = rng.integers(0, n + 1, size=64)
        rho = rng.uniform(0.05, 0.95, size=64)
        vec = nm.binomial_cdf(c, n, rho)
        for i in range(64):
            assert vec[i] == nm.binomial_cdf(int(c[i]), n, float(rho[i]))


# every null rho the suite's hypotheses use
HYPOTHESIS_RHOS = sorted(
    {SurgeHypothesis(theta, l).rho for theta in (0.1, 0.25, 0.3, 1.0) for l in (2, 4, 8)}
)


class TestBinomialCdfBatchError:
    GRID_N = tuple(range(1, 21)) + (33, 50, 64, 100, 101, 150, 200, 250, 299, 300)

    def test_row_oracle_equals_fraction_oracle(self):
        rho = HYPOTHESIS_RHOS[3]
        for n in (1, 33, nm.EXACT_MAX_N):
            row = oracles.binom_cdf_fraction_all(n, rho)
            for c in (0, n // 2, n):
                assert row[c] == oracles.binom_cdf_fraction(c, n, rho)

    def test_relative_error_bound_against_exact_tail(self):
        """The betainc path against the correctly rounded exact tail, for
        every c at each n on the grid and every hypothesis rho. Measured
        maximum relative error with scipy 1.17.1: 5.0e-14 (394 ulps), at
        n = 299, c = 68, rho = 4 / 5.1 (theta 0.1, l = 4); the bound leaves
        room for other scipy builds."""
        worst = 0.0
        for rho in HYPOTHESIS_RHOS:
            for n in self.GRID_N:
                want = np.array(oracles.binom_cdf_fraction_all(n, rho))
                got = nm.binomial_cdf(np.arange(n + 1), n, rho)
                assert want.min() > 0.0
                worst = max(worst, float(np.max(np.abs(got - want) / want)))
        assert worst <= 1e-12


class TestBinomialCdfExact:
    def test_equals_fraction_oracle_on_random_grid(self):
        rng = np.random.default_rng(20261018)
        rhos = HYPOTHESIS_RHOS * 6 + [float(r) for r in rng.uniform(0.0, 1.0, size=60)]
        for rho in rhos:
            n = int(rng.integers(1, nm.EXACT_MAX_N + 1))
            c = int(rng.integers(0, n + 1))
            want = oracles.binom_cdf_fraction(c, n, rho)
            assert nm.binomial_cdf_exact(c, n, rho) == want, (c, n, rho)

    def test_equals_fraction_oracle_at_boundary_counts(self):
        for rho in HYPOTHESIS_RHOS + [1e-3, 0.5, 0.999]:
            for n in (1, 2, 33, nm.EXACT_MAX_N):
                for c in (0, n - 1, n):
                    want = oracles.binom_cdf_fraction(c, n, rho)
                    assert nm.binomial_cdf_exact(c, n, rho) == want, (c, n, rho)

    def test_golden_window_is_correctly_rounded(self):
        # 50-digit value 0.0023558386513823368738..., rounded to the nearest double
        rho = SurgeHypothesis(0.3, 4).rho
        got = nm.binomial_cdf_exact(63, 101, rho)
        assert got == 0.002355838651382337
        assert got == oracles.binom_cdf_fraction(63, 101, rho)
        assert got == oracles.binom_cdf_mpmath(63, 101, rho)

    def test_degenerate_inputs(self):
        assert nm.binomial_cdf_exact(0, 0, 0.5) == 1.0
        assert nm.binomial_cdf_exact(0, 10, 0.0) == 1.0
        assert nm.binomial_cdf_exact(3, 10, 1.0) == 0.0
        assert nm.binomial_cdf_exact(10, 10, 1.0) == 1.0

    def test_bad_input_rejected(self):
        bad = [(4, 3, 0.5), (-1, 3, 0.5), (1.5, 3, 0.5), (1, 3, 1.5), (1, 3, -0.1), (1, 3, math.nan)]
        for c, n, rho in bad:
            with pytest.raises(DomainError):
                nm.binomial_cdf_exact(c, n, rho)


class TestCdfTable:
    """The per-rho table behind ``binomial_cdf_exact``'s batch form."""

    RHOS = HYPOTHESIS_RHOS + [1e-3, 0.999]

    def test_every_row_equals_fraction_oracle(self):
        # rho = 1e-3 and 0.999 push the far tails into underflow
        for rho in self.RHOS:
            for n in TestBinomialCdfBatchError.GRID_N:
                got = nm.binomial_cdf_exact(np.arange(n + 1), n, rho)
                assert got.tolist() == oracles.binom_cdf_fraction_all(n, rho), (n, rho)

    def test_growth_order_does_not_change_values(self):
        rho = HYPOTHESIS_RHOS[0]
        at_once = nm._CdfTable(rho)
        at_once.lookup(np.array([0]), np.array([nm.EXACT_MAX_N]))
        grown = nm._CdfTable(rho)
        for top in (10, 11, 57, 200, nm.EXACT_MAX_N):
            grown.lookup(np.array([0]), np.array([top]))
        assert grown.values.size == at_once.values.size
        assert grown.values.tolist() == at_once.values.tolist()

    def test_batch_equals_scalar_calls(self):
        rng = np.random.default_rng(5)
        n = rng.integers(0, 120, size=(4, 30))
        c = rng.integers(0, n + 1)
        rho = HYPOTHESIS_RHOS[-1]
        got = nm.binomial_cdf_exact(c, n, rho)
        assert got.shape == (4, 30)
        want = [[nm.binomial_cdf_exact(a, b, rho) for a, b in zip(*row)] for row in zip(c, n)]
        assert got.tolist() == want
        assert type(nm.binomial_cdf_exact(3, 10, rho)) is float

    def test_above_cap_rejected(self):
        with pytest.raises(DomainError):
            nm.binomial_cdf_exact(0, nm.EXACT_MAX_N + 1, 0.5)
        with pytest.raises(DomainError):
            nm.binomial_cdf_exact(np.array([0, 1]), np.array([2, nm.EXACT_MAX_N + 1]), 0.5)


class TestNormal:
    def test_symmetry_at_zero(self):
        assert nm.normal_cdf(0.0) == 0.5

    def test_saturation(self):
        assert nm.normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_golden_lower_tail(self):
        assert nm.normal_cdf(-1.6449) == pytest.approx(oracles.normal_cdf_erf(-1.6449), abs=1e-15)
        assert nm.normal_cdf(-1.6449) == pytest.approx(0.05, abs=2e-5)

    def test_matches_erf_reference(self):
        for z in np.linspace(-10, 10, 401):
            assert nm.normal_cdf(float(z)) == pytest.approx(
                oracles.normal_cdf_erf(float(z)), abs=1e-14
            )

    def test_complement_identity(self):
        for z in np.linspace(-10, 10, 101):
            assert nm.normal_cdf(float(z)) + nm.normal_cdf(float(-z)) == pytest.approx(
                1.0, abs=1e-14
            )

    def test_quantile_median(self):
        assert nm.normal_quantile(0.5) == 0.0

    def test_quantile_golden(self):
        assert nm.normal_quantile(0.05) == pytest.approx(
            oracles.normal_quantile_bisect(0.05), abs=1e-12
        )
        assert nm.normal_quantile(0.05) == pytest.approx(-1.6449, abs=1e-4)

    def test_quantile_round_trip(self):
        rng = np.random.default_rng(7)
        for p in list(rng.uniform(1e-6, 1 - 1e-6, 50)) + [0.123]:
            assert nm.normal_cdf(nm.normal_quantile(float(p))) == pytest.approx(p, abs=1e-12)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.2):
            with pytest.raises(DomainError):
                nm.normal_quantile(bad)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            nm.normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            nm.normal_cdf(float("inf"))

    def test_pdf_matches_formula(self):
        for z in (-3.0, -0.5, 0.0, 1.7):
            assert nm.normal_pdf(z) == pytest.approx(
                math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi), abs=1e-16
            )

