import ast
import functools
import math
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from fedsurv import numerics as nm
from fedsurv.errors import DomainError, FedsurvError
from fedsurv.surge import SurgeHypothesis

import oracles
from support import NUMERICS_UFUNCS, nudged_special, package_env

SRC = Path(nm.__file__).resolve().parent


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

    @pytest.mark.parametrize("n", [10**17, 2 * 10**18])
    def test_lost_tail_near_the_mean_raises_naming_the_total(self, n):
        # betainc returns NaN here; 1e15 still has a value
        assert nm.binomial_cdf(int(10**15 * 0.75), 10**15, 0.75) == pytest.approx(0.5, abs=1e-6)
        with pytest.raises(DomainError, match=f"at window total n = {n} "):
            nm.binomial_cdf(int(n * 0.75), n, 0.75)
        with pytest.raises(DomainError, match=f"at window total n = {n} "):
            nm.binomial_cdf(np.array([3, int(n * 0.75)]), np.array([10, n]), 0.75)

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


# the table's exactness rhos: every hypothesis rho, exact ties at 0.5, and
# tails that reach zero and the subnormal range
EXACT_RHOS = HYPOTHESIS_RHOS + [0.5, 1e-5, 0.999, 0.999999]

# the rho whose table ships with the package
DEFAULT_RHO = SurgeHypothesis().rho


@functools.cache
def bigint_reference(rho: float) -> list[float]:
    return oracles.binom_cdf_table_bigint(nm.EXACT_MAX_N, rho)


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

    def test_every_entry_equals_bigint_reference(self):
        # 0.999 and 0.999999 drive the low tails to zero and through the
        # subnormal range; at 0.5 exact ties take the exact fallback. The
        # shipped rho is among them, as its file is checked against this
        # builder
        assert DEFAULT_RHO in EXACT_RHOS
        for rho in EXACT_RHOS:
            table = nm._CdfTable(rho)
            table.lookup(np.array([0]), np.array([nm.EXACT_MAX_N]))
            assert table.values.tolist() == bigint_reference(rho), rho

    def test_fallback_takes_ties_at_one_half(self, monkeypatch):
        calls = []
        real = nm._exact_cdf

        def spy(c, n, a, b, e):
            calls.append((c, n))
            return real(c, n, a, b, e)

        monkeypatch.setattr(nm, "_exact_cdf", spy)
        table = nm._CdfTable(0.5)
        table.lookup(np.array([0]), np.array([nm.EXACT_MAX_N]))
        assert calls
        assert table.values.tolist() == bigint_reference(0.5)

    def test_forced_fallback_stays_exact(self, monkeypatch):
        """With 64 fraction bits most small tails cannot be certified from
        the fixed-point row and take the exact sum; rows up to 120 at five
        of the rhos keep the test quick."""
        top = 120
        calls = []
        real = nm._exact_cdf

        def spy(c, n, a, b, e):
            calls.append((c, n))
            return real(c, n, a, b, e)

        monkeypatch.setattr(nm, "_FRACTION_BITS", 64)
        monkeypatch.setattr(nm, "_exact_cdf", spy)
        nm._cdf_table.cache_clear()
        try:
            n = np.repeat(np.arange(top + 1), np.arange(1, top + 2))
            c = np.arange(n.size) - n * (n + 1) // 2
            for rho in (HYPOTHESIS_RHOS[0], HYPOTHESIS_RHOS[-1], 0.5, 1e-5, 0.999999):
                got = nm.binomial_cdf_exact(c, n, rho)
                assert got.tolist() == bigint_reference(rho)[: n.size], rho
        finally:
            nm._cdf_table.cache_clear()
        assert len(calls) > 1000

    def test_fixed_point_rows_bracket_exact_tails(self):
        """Every fixed-point entry G of row n holds F 2**P - n < G <= F 2**P
        for the exact tail F."""
        for rho in (HYPOTHESIS_RHOS[0], 0.5, 1e-5, 0.999999):
            table = nm._CdfTable(rho)
            scale = 1 << table._p
            a, d = rho.as_integer_ratio()
            for n in range(1, 61):
                table.lookup(np.array([0]), np.array([n]))
                for c, g in enumerate(table._grown[0]):
                    exact = Fraction(
                        sum(math.comb(n, j) * a**j * (d - a) ** (n - j) for j in range(c + 1)),
                        d**n,
                    )
                    assert exact * scale - n < g <= exact * scale, (rho, n, c)

    def test_fixed_point_interval_certified_only_when_it_rounds_once(self):
        """`_fixed_to_float(g, n, p)` answers a double only if every x in
        [g, g + n) / 2**p rounds to it. Half the cases sit on or near a
        rounding midpoint: below it, adding n often carries into g's top 64
        bits and across the midpoint; on or above it, only the bits below
        the top 64 tell g from the midpoint."""
        rnd = random.Random(1150)
        p = 80
        certified = 0
        for _ in range(4000):
            size = rnd.randrange(56, 82)
            n = rnd.randrange(1, 301)
            g = rnd.getrandbits(size) | 1 << (size - 1)
            if rnd.random() < 0.5:
                cut = size - 53  # bits below the double's 53
                off = rnd.choice((-1, 0, 1)) * rnd.randrange(1, 400)
                g = (g >> cut << cut) + (1 << (cut - 1)) + off
            got = nm._fixed_to_float(g, n, p)
            low = float(Fraction(g, 1 << p))
            # the supremum of the interval, approached from below
            high = float(Fraction(((g + n) << 64) - 1, 1 << (p + 64)))
            if got is not None:
                assert got == low == high, (g, n)
                certified += 1
            else:
                # and no double only when g and g + n themselves round apart
                assert float(Fraction(g + n, 1 << p)) != low, (g, n)
        assert certified > 2000

    def test_growth_order_does_not_change_values(self):
        rho = HYPOTHESIS_RHOS[0]
        at_once = nm._CdfTable(rho)
        at_once.lookup(np.array([0]), np.array([nm.EXACT_MAX_N]))
        grown = nm._CdfTable(rho)
        for top in (10, 11, 57, 200, nm.EXACT_MAX_N):
            grown.lookup(np.array([0]), np.array([top]))
        assert grown.values.size == at_once.values.size
        assert grown.values.tolist() == at_once.values.tolist()

    # a rho with no shipped table, which the tests below grow
    FRESH_RHO = 0.6180339887498949

    def test_interrupted_growth_leaves_the_table_whole(self, monkeypatch):
        """An interrupt partway through a growth, inside row 80 of a table
        that had 20 rows, leaves the table as it was: the lookups after it,
        inside and past the rows it had and past where it stopped, equal a
        fresh builder's bits."""
        table = nm._CdfTable(self.FRESH_RHO)
        table.lookup(np.array([0]), np.array([20]))
        real, calls = nm._fixed_to_float, []

        def interrupting(g, n, p):
            calls.append(n)
            if len(calls) == 3000:
                raise KeyboardInterrupt
            return real(g, n, p)

        monkeypatch.setattr(nm, "_fixed_to_float", interrupting)
        with pytest.raises(KeyboardInterrupt):
            table.lookup(np.array([0]), np.array([120]))
        monkeypatch.setattr(nm, "_fixed_to_float", real)
        assert 70 < calls[-1] < 90
        fresh = nm._CdfTable(self.FRESH_RHO)
        for top in (5, 50, 120):
            c, n = _every_entry(top)
            assert table.lookup(c, n).tobytes() == fresh.lookup(c, n).tobytes(), top

    def test_threads_growing_one_table_get_the_builders_bits(self):
        """Threads that grow one fresh table to different sizes at once,
        switching as often as the interpreter allows, each get the bits a
        table grown in one thread holds."""
        tops = (40, 150, 90, 150, 10, 120)
        table = nm._CdfTable(self.FRESH_RHO)
        start = threading.Barrier(len(tops), timeout=30)
        got, errors = {}, []

        def grow(top):
            start.wait()
            try:
                got[top] = table.lookup(*_every_entry(top))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=grow, args=(top,)) for top in tops]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        fresh = nm._CdfTable(self.FRESH_RHO)
        for top in sorted(set(tops)):
            assert got[top].tobytes() == fresh.lookup(*_every_entry(top)).tobytes(), top

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


def _every_entry(top: int) -> tuple[np.ndarray, np.ndarray]:
    """(c, n) of every table entry of rows 0..top, in table order."""
    n = np.repeat(np.arange(top + 1), np.arange(1, top + 2))
    return np.arange(n.size) - n * (n + 1) // 2, n


def _built(rho: float) -> nm._CdfTable:
    table = nm._CdfTable(rho)
    table.lookup(np.array([0]), np.array([nm.EXACT_MAX_N]))
    return table


@pytest.fixture
def fresh_tables():
    """An empty table cache before and after the test."""
    nm._cdf_table.cache_clear()
    yield
    nm._cdf_table.cache_clear()


class TestShippedTable:
    """The default hypothesis's table ships as a file that
    ``binomial_cdf_exact`` maps read-only instead of building it."""

    REWRITE = "PYTHONPATH=src python tools/write_cdf_table.py"

    def test_file_equals_the_builder_bit_for_bit(self):
        path = nm._table_path(DEFAULT_RHO)
        assert path.name == "0x1.826a439f656f2p-1.npy"
        shipped = np.load(path)
        built = _built(DEFAULT_RHO).values
        top = nm.EXACT_MAX_N
        assert shipped.shape == ((top + 1) * (top + 2) // 2,) == built.shape, self.REWRITE
        assert shipped.dtype == np.dtype("<f8"), self.REWRITE
        same = shipped.astype(float).tobytes() == built.tobytes()
        assert same, f"{path.name} differs from _CdfTable; rewrite it with: {self.REWRITE}"

    def test_mapped_read_only_at_the_first_lookup(self, fresh_tables):
        table = nm._cdf_table(DEFAULT_RHO)
        assert isinstance(table, nm._ShippedTable)
        assert isinstance(table.values.base, np.memmap)  # file-backed
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0] = 0.5

    def test_import_maps_nothing(self):
        code = (
            "from fedsurv import cli, numerics\n"
            "assert numerics._cdf_table.cache_info().currsize == 0\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr

    def test_lookup_builds_nothing(self, monkeypatch, fresh_tables):
        calls = []
        monkeypatch.setattr(nm._CdfTable, "_grow", lambda self, top: calls.append(top))
        monkeypatch.setattr(nm, "_exact_cdf", lambda *args: calls.append(args))
        top = nm.EXACT_MAX_N
        got = nm.binomial_cdf_exact(np.arange(top + 1), top, DEFAULT_RHO)
        assert not calls
        assert got.tolist() == bigint_reference(DEFAULT_RHO)[-(top + 1) :]

    def test_any_rho_with_a_file_is_mapped(self, tmp_path, monkeypatch, fresh_tables):
        monkeypatch.setattr(nm, "_TABLE_DIR", tmp_path)
        built = _built(0.25).values
        np.save(nm._table_path(0.25), built)
        assert isinstance(nm._cdf_table(0.25), nm._ShippedTable)
        assert isinstance(nm._cdf_table(0.5), nm._CdfTable)
        n = np.repeat(np.arange(nm.EXACT_MAX_N + 1), np.arange(1, nm.EXACT_MAX_N + 2))
        c = np.arange(n.size) - n * (n + 1) // 2
        assert nm.binomial_cdf_exact(c, n, 0.25).tobytes() == built.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros(nm._TABLE_ENTRIES - 1),
            np.zeros(nm._TABLE_ENTRIES + 1),
            np.zeros(nm._TABLE_ENTRIES, dtype=np.float32),
            np.zeros(nm._TABLE_ENTRIES, dtype=">f8"),
            np.zeros((1, nm._TABLE_ENTRIES)),
        ],
        ids=["short", "long", "float32", "big-endian", "2-D"],
    )
    def test_wrong_size_or_dtype_raises(self, tmp_path, monkeypatch, fresh_tables, bad):
        monkeypatch.setattr(nm, "_TABLE_DIR", tmp_path)
        np.save(nm._table_path(0.25), bad)
        with pytest.raises(FedsurvError, match="shipped table"):
            nm.binomial_cdf_exact(1, 2, 0.25)

    def test_truncated_file_raises(self, tmp_path, monkeypatch, fresh_tables):
        monkeypatch.setattr(nm, "_TABLE_DIR", tmp_path)
        path = nm._table_path(0.25)
        np.save(path, _built(0.25).values)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FedsurvError, match="cannot be mapped"):
            nm.binomial_cdf_exact(1, 2, 0.25)


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



class TestGamma:
    def test_lower_and_upper_match_mpmath(self):
        for a, x in ((0.5, 0.1), (1.0, 2.0), (2.5, 0.7), (7.0, 12.3), (1e-6, 0.4), (40.0, 35.0)):
            assert nm.gamma_cdf(a, x) == pytest.approx(
                oracles.chi2_cdf_mpmath(2 * x, 2 * a), rel=1e-13, abs=1e-300
            )
            assert nm.gamma_sf(a, x) == pytest.approx(
                oracles.chi2_sf_mpmath(2 * x, 2 * a), rel=1e-13, abs=1e-300
            )

    def test_complement_identity(self):
        a = np.array([0.3, 1.0, 4.0, 9.5])
        x = np.array([0.05, 1.0, 3.0, 20.0])
        assert nm.gamma_cdf(a, x) + nm.gamma_sf(a, x) == pytest.approx(1.0, abs=1e-15)

    def test_isf_lands_on_the_mpmath_tail(self):
        # the upper tail at the returned quantile, in 40-digit arithmetic
        for a, p in ((0.25, 1e-12), (1.0, 0.05), (3.5, 0.5), (12.0, 0.97), (2.0, 1e-300)):
            x = nm.gamma_isf(a, p)
            assert oracles.chi2_sf_mpmath(2 * x, 2 * a) == pytest.approx(p, rel=1e-12)

    def test_isf_inverts_sf(self):
        rng = np.random.default_rng(31)
        a = rng.uniform(0.1, 30.0, 50)
        p = rng.uniform(1e-9, 1 - 1e-9, 50)
        assert nm.gamma_sf(a, nm.gamma_isf(a, p)) == pytest.approx(p, rel=1e-11)

    def test_edges(self):
        assert nm.gamma_sf(2.0, 0.0) == 1.0
        assert nm.gamma_cdf(2.0, 0.0) == 0.0
        assert nm.gamma_sf(2.0, math.inf) == 0.0
        assert nm.gamma_isf(2.0, 1.0) == 0.0
        assert nm.gamma_isf(2.0, 0.0) == math.inf

    def test_scalars_in_scalar_out_arrays_broadcast(self):
        for fn in (nm.gamma_cdf, nm.gamma_sf, nm.gamma_isf):
            assert isinstance(fn(2.0, 0.5), float)
            got = fn(np.array([[1.0], [3.0]]), np.array([0.2, 0.4, 0.6]))
            assert got.shape == (2, 3)
            assert got[1, 2] == fn(3.0, 0.6)

    def test_domain(self):
        nan, inf = math.nan, math.inf
        for fn in (nm.gamma_cdf, nm.gamma_sf, nm.gamma_isf):
            for a, x in ((nan, 0.5), (0.0, 0.5), (-1.0, 0.5), (inf, 0.5), (2.0, nan), (2.0, -0.1)):
                with pytest.raises(DomainError):
                    fn(a, x)
        for p in (1.0 + 1e-12, inf):
            with pytest.raises(DomainError):
                nm.gamma_isf(2.0, p)

    @pytest.mark.parametrize("direction", [math.inf, -math.inf], ids=["up", "down"])
    def test_probabilities_clamped(self, monkeypatch, direction):
        # scipy returns exactly 0 or 1 at these points; a build one ulp off
        # must not leak a probability outside [0, 1]
        edges = [
            (nm.gamma_cdf, (2.0, 0.0)),
            (nm.gamma_cdf, (2.0, math.inf)),
            (nm.gamma_sf, (2.0, 0.0)),
            (nm.gamma_sf, (2.0, math.inf)),
            (nm.normal_cdf, (-40.0,)),
            (nm.normal_cdf, (40.0,)),
            (nm.binomial_cdf, (0, 5, 0.0)),
            (nm.binomial_cdf, (0, 5, 1.0)),
        ]
        exact = [fn(*args) for fn, args in edges]
        assert sorted(set(exact)) == [0.0, 1.0]
        outward = 1.0 if direction > 0 else 0.0
        monkeypatch.setattr(nm, "special", nudged_special(direction))
        for (fn, args), want in zip(edges, exact):
            got = fn(*args)
            assert 0.0 <= got <= 1.0
            if want == outward:
                assert got == want


def _split_everything(monkeypatch):
    """Every inversion of two cells or more split across three threads."""
    monkeypatch.setattr(nm, "_SPLIT_MIN_CELLS", 1)
    monkeypatch.setattr(nm, "_usable_cpus", lambda: 3)


def _special_with(monkeypatch, gammainccinv):
    """`numerics.special` with its Gamma inverse replaced."""
    ufuncs = {name: getattr(special, name) for name in NUMERICS_UFUNCS}
    stand_in = types.SimpleNamespace(**dict(ufuncs, gammainccinv=gammainccinv))
    monkeypatch.setattr(nm, "special", stand_in)


class TestGammaIsfMemo:
    """``gamma_isf`` reads repeated pairs from a fixed-size memo, looks
    cells up a fixed-size block at a time and inverts a block's misses in
    one call, split across threads."""

    @pytest.mark.parametrize(
        "slots, block, split",
        [
            pytest.param(slots, block, split, id=f"{slots}-{block}" + "-split" * split)
            for split in (False, True)
            for slots, block in [(1, 7), (2, 1 << 15), (1 << 15, 7), (1 << 15, 1 << 15)]
        ],
    )
    def test_every_memo_state_gives_the_ufunc_bits(self, monkeypatch, slots, block, split):
        if split:  # even a 7-cell block splits, into uneven chunks
            _split_everything(monkeypatch)
        monkeypatch.setattr(nm, "_ISF_MEMO_SLOTS", slots)
        monkeypatch.setattr(nm, "_ISF_BLOCK", block)
        monkeypatch.setattr(nm, "_isf_memo", None)
        rng = np.random.default_rng(61)
        # -0.0 and 0.0 are two keys with one quantile
        p = rng.choice([0.0, -0.0, 1.0, 1e-300, 0.3, 0.5, 0.97], size=(40, 9))
        a = rng.choice([1e-6, 0.5, 1.0, 2.5, 40.0], size=(40, 1))
        for _ in range(3):  # cold, then warm
            got = nm.gamma_isf(a, p)
            assert got.shape == (40, 9)
            assert got.tobytes() == special.gammainccinv(a, p).tobytes()

    def test_failed_inversion_leaves_the_memo_whole(self, monkeypatch):
        """An inversion that raises partway through a call (an interrupt, a
        MemoryError, scipy's errstate) must leave no slot answering for a
        pair with bits it was not given: the calls after it, on pairs the
        memo held before and pairs of the failed call, scalars too, get the
        ufunc bits."""
        armed = [False]

        def flaky(a, x):
            if armed[0]:
                armed[0] = False
                raise FloatingPointError("stand-in failure")
            return special.gammainccinv(a, x)

        _special_with(monkeypatch, flaky)
        rng = np.random.default_rng(64)
        held = (rng.uniform(0.5, 20.0, size=8192), rng.uniform(size=8192))
        fresh = (rng.uniform(0.5, 20.0, size=8192), rng.uniform(size=8192))
        nm.gamma_isf(*held)
        armed[0] = True
        with pytest.raises(FloatingPointError):
            nm.gamma_isf(*fresh)
        a, p = (np.concatenate(pair) for pair in zip(held, fresh))
        for _ in range(2):
            assert nm.gamma_isf(a, p).tobytes() == special.gammainccinv(a, p).tobytes()
        for k in (0, 8191, 8192, 16383):
            got = nm.gamma_isf(float(a[k]), float(p[k]))
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == special.gammainccinv(a[k], p[k]).tobytes()

    def test_worker_failure_reaches_the_caller_and_leaves_the_memo_whole(self, monkeypatch):
        armed = [True]

        def fails_in_workers(a, x):
            if armed[0] and threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("stand-in worker failure")
            return special.gammainccinv(a, x)

        _special_with(monkeypatch, fails_in_workers)
        _split_everything(monkeypatch)
        rng = np.random.default_rng(65)
        held = (rng.uniform(0.5, 20.0, size=300), rng.uniform(size=300))
        fresh = (rng.uniform(0.5, 20.0, size=300), rng.uniform(size=300))
        armed[0] = False
        nm.gamma_isf(*held)
        armed[0] = True
        running = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker"):
            nm.gamma_isf(*fresh)
        assert threading.active_count() == running
        armed[0] = False
        a, p = (np.concatenate(pair) for pair in zip(held, fresh))
        for _ in range(2):
            assert nm.gamma_isf(a, p).tobytes() == special.gammainccinv(a, p).tobytes()

    def test_split_call_runs_in_threads_it_joins(self, monkeypatch):
        threads = set()

        def spy(a, x):
            threads.add(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.05)  # still running unless joined
            return special.gammainccinv(a, x)

        _special_with(monkeypatch, spy)
        _split_everything(monkeypatch)
        rng = np.random.default_rng(66)
        a, p = rng.uniform(0.5, 20.0, size=100), rng.uniform(size=100)
        running = threading.active_count()
        assert nm.gamma_isf(a, p).tobytes() == special.gammainccinv(a, p).tobytes()
        assert threading.active_count() == running
        assert len(threads) == 3 and threading.current_thread() in threads

    def test_failure_in_the_callers_chunk_waits_for_every_worker(self, monkeypatch):
        caller, finished = threading.current_thread(), []

        def fails_in_the_caller(a, x):
            if threading.current_thread() is caller:
                raise FloatingPointError("stand-in caller failure")
            time.sleep(0.05)  # still running unless waited for
            finished.append(threading.current_thread())
            return special.gammainccinv(a, x)

        _split_everything(monkeypatch)
        running = threading.active_count()
        with pytest.raises(FloatingPointError, match="caller"):
            nm._split_inverse(fails_in_the_caller, np.full(9, 2.5), np.full(9, 0.3))
        assert len(finished) == 2
        assert threading.active_count() == running

    @pytest.mark.parametrize("split", [True, False], ids=["split-everything", "default-size"])
    def test_a_call_below_two_chunks_runs_in_the_calling_thread(self, monkeypatch, split):
        threads = set()

        def spy(a, x):
            threads.add(threading.current_thread())
            return special.gammainccinv(a, x)

        if split:
            _split_everything(monkeypatch)
        else:
            monkeypatch.setattr(nm, "_usable_cpus", lambda: 3)
        rng = np.random.default_rng(68)
        size = 2 * nm._SPLIT_MIN_CELLS - 1
        a, p = rng.uniform(0.5, 20.0, size=size), rng.uniform(size=size)
        running = threading.active_count()
        assert nm._split_inverse(spy, a, p).tobytes() == special.gammainccinv(a, p).tobytes()
        assert threads == {threading.current_thread()}
        assert threading.active_count() == running

    def test_import_starts_no_thread(self):
        code = (
            "import threading\n"
            "from fedsurv import cli\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("slots", [1 << 15, 1], ids=["cold", "one-slot"])
    def test_one_inversion_per_block_of_its_distinct_misses(self, monkeypatch, slots):
        """The inverse gets exactly the distinct pairs that a block misses,
        each once, in one call per block that misses any."""
        calls = []  # (block, cells inverted)
        blocks = []  # (the block's pairs, the pairs the memo held before it)

        def spy(a, x):
            calls.append((len(blocks) - 1, list(zip(a.tolist(), x.tolist()))))
            return special.gammainccinv(a, x)

        def spy_block(inverse, a, p, out):
            memo = nm._isf_memo
            keys = memo[1][:2] if memo is not None and memo[0] is inverse else np.zeros((2, 0))
            held = set(zip(keys[0].view(float).tolist(), keys[1].view(float).tolist()))
            blocks.append((set(zip(a.tolist(), p.tolist())), held))
            real_block(inverse, a, p, out)

        real_block = nm._isf_block
        _special_with(monkeypatch, spy)
        monkeypatch.setattr(nm, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(nm, "_isf_block", spy_block)
        monkeypatch.setattr(nm, "_ISF_MEMO_SLOTS", slots)
        monkeypatch.setattr(nm, "_ISF_BLOCK", 64)
        rng = np.random.default_rng(67)
        a = rng.choice([0.5, 1.0, 2.5, 40.0], size=300)
        p = rng.choice(np.linspace(0.05, 0.95, 19), size=300)
        for _ in range(2):  # cold, then warm
            assert nm.gamma_isf(a, p).tobytes() == special.gammainccinv(a, p).tobytes()
        want = [(k, pairs - held) for k, (pairs, held) in enumerate(blocks) if pairs - held]
        assert [k for k, _ in calls] == [k for k, _ in want]
        for (_, cells), (_, missed) in zip(calls, want):
            assert sorted(cells) == sorted(missed)
        assert len(blocks) == 10 and calls

    def test_peak_memory_does_not_grow_with_cells(self):
        """2**20 fresh pairs against 2**16: beyond the returned array, the
        scratch is one block's."""
        rng = np.random.default_rng(62)
        nm.gamma_isf(np.ones(2), np.full(2, 0.5))  # the memo exists
        scratch = []
        for n in (1 << 16, 1 << 20):
            a = rng.uniform(0.5, 20.0, size=n)
            p = rng.uniform(size=n)
            tracemalloc.start()
            try:
                out = nm.gamma_isf(a, p)
                scratch.append(tracemalloc.get_traced_memory()[1] - out.nbytes)
            finally:
                tracemalloc.stop()
        assert scratch[1] <= scratch[0] + 64 * 1024, scratch

    def test_memo_does_not_grow_over_fresh_pairs(self):
        # each call stores 4,096 new pairs, 96 KB if the memo kept them all
        rng = np.random.default_rng(63)
        nm.gamma_isf(np.ones(2), np.full(2, 0.5))
        held = []
        tracemalloc.start()
        try:
            for _ in range(50):
                nm.gamma_isf(rng.uniform(0.5, 20.0, size=4096), rng.uniform(size=4096))
                held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert held[-1] - held[0] <= 32 * 1024, held
        assert nm._isf_memo[1].shape == (3, nm._ISF_MEMO_SLOTS)


def _scipy_imports(path: Path) -> list[str]:
    """The import statements, and the ``importlib.import_module`` and
    ``__import__`` calls on a literal name, of a module that bring in scipy,
    as written."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("importlib.import_module", "import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            names = [str(node.args[0].value)]
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            found.append(ast.unparse(node))
    return found


class TestSingleSpecialFunctionLayer:
    def test_only_numerics_imports_scipy(self):
        modules = sorted(SRC.glob("*.py"))
        assert SRC / "numerics.py" in modules
        offenders = {
            p.name: found
            for p in modules
            if p.name != "numerics.py" and (found := _scipy_imports(p))
        }
        assert offenders == {}
        assert _scipy_imports(SRC / "numerics.py")

    def test_every_form_of_scipy_import_is_found(self, tmp_path):
        forms = [
            "import scipy",
            "import numpy, scipy.special as sp",
            "from scipy import special",
            "from scipy.special._ufuncs import ndtr",
            "importlib.import_module('scipy.special._ufuncs')",
            "import_module('scipy')",
            "__import__('scipy.special')",
        ]
        module = tmp_path / "m.py"
        module.write_text("\n".join(forms + ["import scipyx", "from . import scipy"]), encoding="utf-8")
        assert _scipy_imports(module) == forms

    def test_nudged_namespace_covers_every_ufunc_numerics_calls(self):
        tree = ast.parse((SRC / "numerics.py").read_text(encoding="utf-8"))
        called = {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "special"
        }
        assert called == set(NUMERICS_UFUNCS)


def _in_child(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter, which sees no module this one
    imported; fails the test unless it exits 0."""
    proc = subprocess.run([sys.executable, "-c", code], env=package_env(), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


# a sys.meta_path finder that fails scipy.special._ufuncs while the
# scipy.special in sys.modules is not the package, which has a __file__
_BLOCK_PRIVATE_UFUNCS = """
import importlib.abc, sys
class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy.special._ufuncs" and not hasattr(sys.modules.get("scipy.special"), "__file__"):
            raise ImportError("blocked")
sys.meta_path.insert(0, Block())
"""


class TestUfuncImport:
    """``numerics`` loads scipy's compiled ufuncs without the
    ``scipy.special`` package. What this interpreter holds depends on which
    test modules ran first, so each import test runs in a child."""

    def test_cli_loads_no_special_package(self):
        _in_child(
            "import sys\n"
            "import fedsurv.cli\n"
            "from fedsurv import numerics\n"
            "assert numerics.special.__name__ == 'scipy.special._ufuncs'\n"
            "skipped = ('scipy.special', 'scipy._lib.array_api_compat', 'numpy.f2py', 'numpy.testing')\n"
            "assert not [m for m in skipped if m in sys.modules], sys.modules\n"
            "assert 'numpy.random' in sys.modules\n"
        )

    def test_a_later_import_gets_the_package_with_the_same_ufuncs(self):
        _in_child(
            "from fedsurv import cli, numerics\n"
            "import scipy.special\n"
            "assert scipy.special is not numerics.special\n"
            "assert scipy.special.__file__.endswith('__init__.py')\n"
            "assert scipy.special._ufuncs is numerics.special\n"
            f"for name in {NUMERICS_UFUNCS!r}:\n"
            "    assert getattr(scipy.special, name) is getattr(numerics.special, name), name\n"
        )

    def test_a_package_imported_first_is_used_as_it_is(self):
        _in_child(
            "import scipy.special\n"
            "from fedsurv import numerics\n"
            "assert numerics.special is scipy.special\n"
        )

    def test_falls_back_to_the_package_with_the_golden_bytes(self, tmp_path):
        data = Path(__file__).parent / "data"
        out = tmp_path / "report.json"
        proc = _in_child(
            _BLOCK_PRIVATE_UFUNCS
            + "from fedsurv import cli, numerics\n"
            + "assert numerics.special is sys.modules['scipy.special']\n"
            + "assert numerics.special.__file__.endswith('__init__.py')\n"
            + f"assert cli.main(['test', '--config', {str(data / 'golden_config.json')!r}]) == 0\n"
            + f"argv = ['--config', {str(data / 'golden_federation_config.json')!r}, '--out', {str(out)!r}]\n"
            + "assert cli.main(['federation', '--seed', '2024'] + argv) == 0\n"
        )
        assert proc.stdout == (data / "golden_test.csv").read_bytes()
        assert out.read_bytes() == (data / "golden_federation.json").read_bytes()
        alarms = tmp_path / "report.alarms.csv"
        assert alarms.read_bytes() == (data / "golden_federation.alarms.csv").read_bytes()

    def test_the_tests_that_swap_it_pass_on_the_compiled_ufuncs(self):
        # numerics is imported before pytest, so every module sees _ufuncs
        tests = Path(__file__).parent
        files = [str(tests / name) for name in ("test_cli.py", "test_combine.py", "test_numerics.py")]
        select = "ScipyLastDigits or probabilities_clamped or golden_fixture_does_not_depend_on_scipy_betainc"
        proc = _in_child(
            "import sys\n"
            "from fedsurv import numerics\n"
            "import pytest\n"
            "assert numerics.special.__name__ == 'scipy.special._ufuncs'\n"
            f"code = pytest.main(['-q', '-p', 'no:cacheprovider', '-o', 'addopts=', '-k', {select!r}] + {files!r})\n"
            "assert numerics.special.__name__ == 'scipy.special._ufuncs'\n"
            "sys.exit(code)\n"
        )
        assert b"\n13 passed, " in proc.stdout, proc.stdout.decode()[-300:]

    def test_falls_back_when_the_private_module_lacks_a_ufunc(self, monkeypatch):
        # a scipy that moved one of the six out of _ufuncs; scipy.special,
        # imported by this interpreter, stays bound on the scipy package
        monkeypatch.delitem(sys.modules, "scipy.special")
        monkeypatch.setitem(sys.modules, "scipy.special._ufuncs", types.ModuleType("scipy.special._ufuncs"))
        assert nm._special_ufuncs() is special
        assert "scipy.special" not in sys.modules  # the stub is gone
