import math
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from scipy import special

from fedsurv import combine as cb
from fedsurv import numerics
from fedsurv.errors import ConfigError, DomainError
from fedsurv.combine import CombinedResult, EvidenceSet

import oracles
from support import NUMERICS_UFUNCS, nudged_special


def ev(ps, **kw):
    return EvidenceSet(tuple(ps), **kw)


# Bad combiner context for two sites, each rejected with ConfigError by
# EvidenceSet and by combine_matrix alike (TestOneContextRule)
BAD_SHARES = (
    (0.6, 0.6),
    (1.2, -0.2),
    (1.5, -0.5),
    (1.0,),
    (float("nan"), 1.0),
    (float("inf"), 1.0),
)
BAD_TOTALS = (float("nan"), float("inf"), -1, 0, 2.5, True, "ten", 10**400)
BAD_RHOS = (0.0, 1.0, -0.5, 1.5, float("nan"), "0.5")


class TestEvidenceSet:
    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            EvidenceSet(())

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            ev([0.5, 1.2])
        with pytest.raises(DomainError):
            ev([0.5, float("nan")])

    def test_share_validation(self):
        for bad in BAD_SHARES:
            with pytest.raises(ConfigError):
                ev([0.01, 0.5], shares=bad)

    def test_boundary_pvalues_accepted(self):
        s = ev([0.0, 1.0])
        assert s.p_values == (0.0, 1.0)

    def test_non_finite_total_count_rejected(self):
        for bad in BAD_TOTALS:
            with pytest.raises(ConfigError):
                ev([0.5, 0.5], total_count=bad)

    def test_integral_float_total_is_stored_as_int(self):
        got = ev([0.5, 0.5], total_count=50.0)
        assert got.total_count == 50 and type(got.total_count) is int

    def test_nested_values_rejected(self):
        with pytest.raises(ConfigError):
            ev([[0.5, 0.5]])
        with pytest.raises(ConfigError):
            ev([0.5, 0.5], shares=[[0.5, 0.5], [0.5, 0.5]])

    def test_total_count_beyond_a_double_rejected(self):
        with pytest.raises(ConfigError):
            ev([0.1, 0.2], shares=(0.5, 0.5), total_count=10**400)


class TestStouffer:
    def test_identity_at_single_site(self):
        assert cb.combine_by_id("stouffer", ev([0.3])).p == pytest.approx(0.3, abs=1e-14)

    def test_neutral_at_half(self):
        assert cb.combine_by_id("stouffer", ev([0.5, 0.5, 0.5])).p == pytest.approx(0.5, abs=1e-14)

    def test_golden_two_sites(self):
        z = oracles.normal_quantile_bisect(0.05)
        expected = oracles.normal_cdf_erf(2 * z / math.sqrt(2))
        got = cb.combine_by_id("stouffer", ev([0.05, 0.05]))
        assert got.p == pytest.approx(expected, abs=1e-11)
        assert got.p == pytest.approx(0.0100, abs=2e-4)
        assert got.statistic == pytest.approx(2 * z, abs=1e-10)


class TestFisher:
    def test_identity_at_single_site(self):
        assert cb.combine_by_id("fisher", ev([0.3])).p == pytest.approx(0.3, abs=1e-13)

    def test_all_ones_boundary(self):
        r = cb.combine_by_id("fisher", ev([1.0, 1.0, 1.0]))
        assert r.statistic == pytest.approx(0.0, abs=1e-12)
        assert r.p == pytest.approx(1.0, abs=1e-12)

    def test_golden_two_sites(self):
        x = -4.0 * math.log(0.05)
        expected = oracles.chi2_sf_even_closed_form(x, 4)
        got = cb.combine_by_id("fisher", ev([0.05, 0.05]))
        assert got.p == pytest.approx(expected, abs=1e-12)
        assert got.p == pytest.approx(0.01748, abs=5e-6)


class TestPearson:
    def test_tiny_pvalues_drive_p_to_zero(self):
        assert cb.combine_by_id("pearson", ev([1e-12, 1e-12])).p < 1e-20

    def test_identity_at_single_site(self):
        # chi-square(2) CDF at -2*log(0.7) is exactly 0.3
        assert cb.combine_by_id("pearson", ev([0.3])).p == pytest.approx(0.3, abs=1e-13)

    def test_golden_two_sites(self):
        x = -4.0 * math.log(0.95)
        expected = 1.0 - oracles.chi2_sf_even_closed_form(x, 4)
        got = cb.combine_by_id("pearson", ev([0.05, 0.05]))
        assert got.p == pytest.approx(expected, abs=1e-12)


class TestTippett:
    def test_identity_at_single_site(self):
        assert cb.combine_by_id("tippett", ev([0.23])).p == pytest.approx(0.23, abs=1e-14)

    def test_closed_form(self):
        got = cb.combine_by_id("tippett", ev([0.05, 0.7]))
        assert got.p == pytest.approx(1 - 0.95**2, abs=1e-14)

    def test_zero_minimum(self):
        assert cb.combine_by_id("tippett", ev([0.0, 0.4, 0.9])).p == 0.0


class TestWeightedStouffer:
    def test_requires_shares(self):
        with pytest.raises(ConfigError):
            cb.combine_by_id("wstouffer", ev([0.5, 0.5]))

    def test_single_site_identity(self):
        assert cb.combine_by_id("wstouffer", ev([0.17], shares=(1.0,))).p == pytest.approx(
            0.17, abs=1e-14
        )

    def test_equal_shares_reduce_to_stouffer(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ps = rng.uniform(1e-6, 1 - 1e-6, size=n)
            e = ev(ps, shares=(1.0 / n,) * n)
            assert cb.combine_by_id("wstouffer", e).p == pytest.approx(
                cb.combine_by_id("stouffer", ev(ps)).p, abs=1e-12
            )


class TestCorrectedStouffer:
    def test_requires_context(self):
        with pytest.raises(ConfigError):
            cb.combine_by_id("cstouffer", ev([0.5, 0.5], shares=(0.5, 0.5)))
        with pytest.raises(ConfigError):
            cb.combine_by_id(
                "cstouffer", ev([0.5, 0.5], shares=(0.5, 0.5), total_count=0, rho=0.7)
            )
        with pytest.raises(ConfigError):
            cb.combine_by_id("cstouffer", ev([0.5, 0.5], shares=(0.5, 0.5), total_count=50))

    def test_single_site_equals_weighted(self):
        e = ev([0.2], shares=(1.0,), total_count=40, rho=0.7)
        assert cb.combine_by_id("cstouffer", e).p == pytest.approx(
            cb.combine_by_id("wstouffer", e).p, abs=1e-14
        )

    def test_correction_is_negative_and_vanishes(self):
        ps = [0.3, 0.4, 0.2]
        shares = (0.5, 0.3, 0.2)
        base = cb.combine_by_id("wstouffer", ev(ps, shares=shares)).p
        prev_gap = None
        for n in (10, 100, 10000, 10**8):
            got = cb.combine_by_id("cstouffer", ev(ps, shares=shares, total_count=n, rho=0.75)).p
            assert got < base
            gap = base - got
            if prev_gap is not None:
                assert gap < prev_gap
            prev_gap = gap
        assert prev_gap < 1e-4


class TestWFisher:
    def test_requires_shares(self):
        with pytest.raises(ConfigError):
            cb.combine_by_id("wfisher", ev([0.5, 0.5]))

    def test_single_site_identity(self):
        got = cb.combine_by_id("wfisher", ev([0.31], shares=(1.0,)))
        assert got.p == pytest.approx(0.31, abs=1e-12)

    def test_equal_shares_reduce_to_fisher(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            ps = rng.uniform(1e-9, 1 - 1e-9, size=n)
            e = ev(ps, shares=(1.0 / n,) * n)
            assert cb.combine_by_id("wfisher", e).p == pytest.approx(
                cb.combine_by_id("fisher", ev(ps)).p, abs=1e-12
            )

    def test_golden_unequal_shares(self):
        # composed oracle: bisected Gamma quantiles + even-df chi-square tail
        ps = (0.05, 0.5)
        shares = (0.8, 0.2)
        x = sum(
            oracles.gamma_quantile_bisect(1 - p, s * 2, 0.5) for p, s in zip(ps, shares)
        )
        expected = oracles.chi2_sf_even_closed_form(x, 4)
        got = cb.combine_by_id("wfisher", ev(ps, shares=shares))
        assert got.statistic == pytest.approx(x, abs=1e-8)
        assert got.p == pytest.approx(expected, abs=1e-9)

    def test_zero_share_site_drops_out(self):
        got = cb.combine_by_id("wfisher", ev([0.5, 0.03], shares=(0.0, 1.0)))
        # surviving site holds shape N=2; compare against direct formula
        x = 2 * float(
            __import__("scipy.special", fromlist=["gammainccinv"]).gammainccinv(2.0, 0.03)
        )
        assert got.statistic == pytest.approx(x, abs=1e-10)

    def test_printed_half_shape_variant_is_miscalibrated(self):
        # The self-consistent transform uses Gamma shape s_i*N so the null
        # statistic is chi-square(2N). Halving the shapes (an alternative
        # reading) yields total df N referred to a 2N-df distribution,
        # which is visibly conservative under the uniform null.
        from scipy import special

        rng = np.random.default_rng(171)
        m = 20000
        p_mat = rng.uniform(size=(2, m))
        crit = oracles.KS_K_ALPHA_01 / math.sqrt(m)

        ours = cb.combine_matrix("wfisher", p_mat, (0.5, 0.5))
        assert oracles.ks_statistic_uniform(ours) < crit

        halved_stat = (2.0 * special.gammainccinv(0.5, p_mat)).sum(axis=0)
        halved_p = special.gammaincc(2.0, halved_stat / 2.0)
        assert oracles.ks_statistic_uniform(halved_p) > 10 * crit


class TestGoods:
    def test_equal_shares_reduce_to_fisher(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            ps = rng.uniform(1e-9, 1 - 1e-9, size=n)
            e = ev(ps, shares=(1.0 / n,) * n)
            assert cb.combine_by_id("goods", e).p == pytest.approx(
                cb.combine_by_id("fisher", ev(ps)).p, abs=1e-12
            )

    def test_single_site_identity(self):
        got = cb.combine_by_id("goods", ev([0.4], shares=(1.0,)))
        assert got.p == pytest.approx(0.4, abs=1e-13)

    def test_golden_unequal_shares(self):
        x = -2 * (1.6 * math.log(0.05) + 0.4 * math.log(0.5))
        expected = oracles.chi2_sf_even_closed_form(x, 4)
        got = cb.combine_by_id("goods", ev([0.05, 0.5], shares=(0.8, 0.2)))
        assert got.statistic == pytest.approx(x, abs=1e-12)
        assert got.p == pytest.approx(expected, abs=1e-12)


class TestLancaster:
    def test_fisher_at_df_two(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            ps = rng.uniform(1e-9, 1 - 1e-9, size=n)
            # df_i = s_i * total = 2 at equal shares and total 2N
            e = ev(ps, shares=(1.0 / n,) * n, total_count=2 * n)
            got = cb.combine_by_id("lancaster", e)
            assert got.p == pytest.approx(cb.combine_by_id("fisher", ev(ps)).p, abs=1e-12)

    def test_single_site_identity_at_df_two(self):
        got = cb.combine_by_id("lancaster", ev([0.27], shares=(1.0,), total_count=2))
        assert got.p == pytest.approx(0.27, abs=1e-13)

    def test_golden_mixed_dfs(self):
        ps = (0.05, 0.5)
        dfs = (6.0, 2.0)
        x = sum(oracles.gamma_quantile_bisect(1 - p, d / 2, 0.5) for p, d in zip(ps, dfs))
        expected = oracles.chi2_sf_even_closed_form(x, 8)
        got = cb.combine_by_id("lancaster", ev(ps, shares=(0.75, 0.25), total_count=8))
        assert got.statistic == pytest.approx(x, abs=1e-8)
        assert got.p == pytest.approx(expected, abs=1e-9)

    def test_golden_fractional_dfs(self):
        # dfs (3.5, 2.1, 1.4): odd-half and fractional Gamma shapes and a
        # chi-square tail at 7 df, all against mpmath
        ps = (0.02, 0.4, 0.9)
        shares = (0.5, 0.3, 0.2)
        x = sum(
            oracles.gamma_quantile_bisect(1 - p, s * 7 / 2, 0.5) for p, s in zip(ps, shares)
        )
        got = cb.combine_by_id("lancaster", ev(ps, shares=shares, total_count=7))
        assert got.statistic == pytest.approx(x, abs=1e-8)
        assert got.p == pytest.approx(oracles.chi2_sf_mpmath(x, 7), abs=1e-10)

    def test_registry_rule_uses_count_proportional_dfs(self):
        # df_i = s_i * total_count = (8, 2), transformed with scipy directly
        from scipy import special

        e = ev([0.05, 0.5], shares=(0.8, 0.2), total_count=10)
        via_registry = cb.combine_by_id("lancaster", e)
        x = sum(2.0 * special.gammainccinv(d / 2.0, p) for p, d in ((0.05, 8.0), (0.5, 2.0)))
        assert via_registry.statistic == pytest.approx(x, abs=1e-12)
        assert via_registry.p == pytest.approx(special.gammaincc(5.0, x / 2.0), abs=1e-14)


class TestGammaTransformDedupe:
    """wfisher and lancaster invert each (p, shape) pair through
    ``numerics.gamma_isf``, whose memo inverts a repeated pair about once
    per process; the result must be the bits of inverting every cell on its
    own, whatever state the memo is in."""

    # a short list, so pairs repeat; 0, 1 and 1e-300 all land on a clamp edge
    P_VALUES = (0.0, 1.0, 1e-300, 0.5, 0.01, 0.3, 0.97)

    @staticmethod
    def shapes_and_total(method, shares, total_count):
        """Per-cell Gamma shapes (N, M) and, per column, the shape of the
        Gamma the summed statistic is referred to."""
        n = shares.shape[0]
        if method == "wfisher":
            return shares * n, [float(n)] * shares.shape[1]
        shapes = np.maximum(shares * total_count, 1e-6) / 2.0
        totals = []
        for j in range(shapes.shape[1]):
            acc = 0.0
            for i in range(n):
                acc += float(shapes[i, j])
            totals.append(acc)
        return shapes, totals

    @classmethod
    def per_cell_reference(cls, method, p_mat, shares, total_count):
        """special.gammainccinv cell by cell, summed over sites in row order."""
        shapes, totals = cls.shapes_and_total(method, shares, total_count)
        p = np.clip(p_mat, cb.CLAMP_EPS, 1.0 - cb.CLAMP_EPS)
        out = []
        for j in range(p.shape[1]):
            stat = 0.0
            for i in range(p.shape[0]):
                a = float(shapes[i, j])
                if a > 0.0:
                    stat += 2.0 * float(special.gammainccinv(a, float(p[i, j])))
            out.append(float(special.gammaincc(totals[j], stat / 2.0)))
        return out

    def batches(self):
        """Repetitive batches: p-values from a short list, shares from small
        window counts (zeros included), per-column and shared shares, M = 1."""
        rng = np.random.default_rng(2718)
        for n, m in ((1, 1), (2, 1), (5, 1), (3, 40), (8, 25), (20, 12)):
            p_mat = rng.choice(self.P_VALUES, size=(n, m))
            counts = rng.integers(0, 4, size=(n, m))
            counts[0] += counts.sum(axis=0) == 0
            per_column = counts / counts.sum(axis=0)
            totals = np.maximum(counts.sum(axis=0), 1)
            yield p_mat, per_column, totals
            yield p_mat, per_column[:, 0], totals

    @pytest.mark.parametrize("method", ["wfisher", "lancaster"])
    def test_equals_per_cell_reference(self, method):
        for p_mat, shares, totals in self.batches():
            got = cb.combine_matrix(method, p_mat, shares=shares, total_count=totals)
            share_mat = np.broadcast_to(shares.reshape(p_mat.shape[0], -1), p_mat.shape)
            want = self.per_cell_reference(method, p_mat, share_mat, totals)
            assert got.tolist() == want, (method, p_mat.shape, shares.ndim)

    @pytest.fixture(params=["cold", "warm", "one_slot", "small_blocks"])
    def memo_state(self, request, monkeypatch):
        """An empty memo; one filled by every batch first; a one-slot table,
        where every pair collides; blocks of 7 cells, so a batch spans many."""
        monkeypatch.setattr(numerics, "_isf_memo", None)
        if request.param == "warm":
            for method in ("wfisher", "lancaster"):
                for p_mat, shares, totals in self.batches():
                    cb.combine_matrix(method, p_mat, shares=shares, total_count=totals)
        elif request.param == "one_slot":
            monkeypatch.setattr(numerics, "_ISF_MEMO_SLOTS", 1)
        elif request.param == "small_blocks":
            monkeypatch.setattr(numerics, "_ISF_BLOCK", 7)

    @pytest.mark.parametrize("method", ["wfisher", "lancaster"])
    def test_equals_per_cell_reference_in_every_memo_state(self, method, memo_state):
        self.test_equals_per_cell_reference(method)

    @staticmethod
    def spy_inversions(monkeypatch) -> list:
        """Route numerics' gammainccinv through a spy; each call appends
        its (shape, p) pairs to the returned list."""
        seen = []
        real = special.gammainccinv

        def spy(a, x):
            seen.append(list(zip(np.ravel(a).tolist(), np.ravel(x).tolist())))
            return real(a, x)

        ufuncs = {name: getattr(special, name) for name in NUMERICS_UFUNCS}
        monkeypatch.setattr(numerics, "special", types.SimpleNamespace(**dict(ufuncs, gammainccinv=spy)))
        return seen

    @pytest.mark.parametrize("method", ["wfisher", "lancaster"])
    def test_kernel_sees_only_distinct_pairs(self, method, monkeypatch):
        seen = self.spy_inversions(monkeypatch)
        n_pairs = n_cells = 0
        for p_mat, shares, totals in self.batches():
            monkeypatch.setattr(numerics, "_isf_memo", None)
            seen.clear()
            cb.combine_matrix(method, p_mat, shares=shares, total_count=totals)
            share_mat = np.broadcast_to(shares.reshape(p_mat.shape[0], -1), p_mat.shape)
            shapes, _ = self.shapes_and_total(method, share_mat, totals)
            p = np.clip(p_mat, cb.CLAMP_EPS, 1.0 - cb.CLAMP_EPS)
            cells = [(a, q) for a, q in zip(shapes.ravel().tolist(), p.ravel().tolist()) if a > 0]
            (pairs,) = seen
            assert len(pairs) == len(set(pairs))
            assert set(pairs) == set(cells)
            n_pairs += len(pairs)
            n_cells += len(cells)
            # the same batch again is read from the memo whole
            seen.clear()
            cb.combine_matrix(method, p_mat, shares=shares, total_count=totals)
            assert sum(len(pairs) for pairs in seen) == 0
        assert n_pairs < n_cells / 2

    def test_threads_on_a_tiny_table_get_single_threaded_bits(self, monkeypatch):
        """Four threads, two per method, combine different batches many
        times over through a four-slot memo they keep overwriting; every
        result keeps its single-threaded bits."""
        monkeypatch.setattr(numerics, "_ISF_MEMO_SLOTS", 4)
        monkeypatch.setattr(numerics, "_ISF_BLOCK", 16)
        monkeypatch.setattr(numerics, "_isf_memo", None)
        batches = list(self.batches())[-4:]
        jobs = [(method, batches[k]) for k, method in enumerate(("wfisher", "lancaster") * 2)]
        want = [
            cb.combine_matrix(method, p_mat, shares=shares, total_count=totals).tobytes()
            for method, (p_mat, shares, totals) in jobs
        ]
        barrier = threading.Barrier(len(jobs), timeout=60)
        mismatches = []
        rounds = [0] * len(jobs)

        def work(k):
            method, (p_mat, shares, totals) = jobs[k]
            barrier.wait()
            for _ in range(100):
                got = cb.combine_matrix(method, p_mat, shares=shares, total_count=totals)
                if got.tobytes() != want[k]:
                    mismatches.append(k)
                rounds[k] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(jobs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert rounds == [100] * len(jobs)
        assert mismatches == []


class TestSharedProperties:
    ALL = list(cb.METHOD_IDS)

    @staticmethod
    def full_ev(ps, n_total=400):
        n = len(ps)
        return ev(ps, shares=(1.0 / n,) * n, total_count=n_total, rho=4 / 5.3)

    def test_monotone_in_each_pvalue(self):
        rng = np.random.default_rng(31)
        for method in self.ALL:
            for _ in range(30):
                n = int(rng.integers(2, 8))
                ps = list(rng.uniform(0.05, 0.95, size=n))
                base = cb.combine_by_id(method, self.full_ev(ps)).p
                i = int(rng.integers(0, n))
                ps[i] *= 0.5
                lower = cb.combine_by_id(method, self.full_ev(ps)).p
                assert lower <= base + 1e-12, method

    def test_permutation_invariance(self):
        rng = np.random.default_rng(33)
        ps = list(rng.uniform(0.01, 0.99, size=5))
        shares = (0.4, 0.25, 0.15, 0.12, 0.08)
        for method in self.ALL:
            e1 = ev(ps, shares=shares, total_count=300, rho=0.7)
            perm = [3, 0, 4, 2, 1]
            e2 = ev(
                [ps[i] for i in perm],
                shares=tuple(shares[i] for i in perm),
                total_count=300,
                rho=0.7,
            )
            assert cb.combine_by_id(method, e1).p == pytest.approx(
                cb.combine_by_id(method, e2).p, abs=1e-12
            ), method

    def test_total_on_boundary_evidence(self):
        for method in self.ALL:
            e = self.full_ev([0.0, 1.0, 0.5])
            r = cb.combine_by_id(method, e)
            assert isinstance(r, CombinedResult)
            assert 0.0 <= r.p <= 1.0
            assert math.isfinite(r.statistic)

    # numpy sums an (N, 1) column pairwise and an (N, M) matrix row by row;
    # the two orders part from N = 8 on, so the batch tests run N = 1..60
    # and compare bits
    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(4001)
        m = 7
        for n in range(1, 61):
            p_mat = rng.uniform(1e-6, 1 - 1e-6, size=(n, m))
            shares = tuple(float(s) for s in rng.dirichlet(np.ones(n)))
            for method in self.ALL:
                batch = cb.combine_matrix(
                    method, p_mat, shares=shares, total_count=500, rho=0.71
                )
                for j in range(m):
                    e = ev(p_mat[:, j], shares=shares, total_count=500, rho=0.71)
                    assert batch[j] == cb.combine_by_id(method, e).p, (method, n)

    def test_matrix_per_column_shares_agree_with_scalar(self):
        rng = np.random.default_rng(4002)
        m = 5
        for n in range(1, 61):
            p_mat = rng.uniform(1e-6, 1 - 1e-6, size=(n, m))
            share_mat = rng.dirichlet(np.ones(n), size=m).T
            totals = rng.integers(50, 900, size=m)
            for method in sorted(cb.SHARE_METHODS):
                batch = cb.combine_matrix(
                    method, p_mat, shares=share_mat, total_count=totals, rho=0.71
                )
                for j in range(m):
                    e = ev(
                        p_mat[:, j],
                        shares=tuple(share_mat[:, j]),
                        total_count=int(totals[j]),
                        rho=0.71,
                    )
                    assert batch[j] == cb.combine_by_id(method, e).p, (method, n)

    def test_zero_width_batch_is_empty(self):
        for method in self.ALL:
            for shares in ((0.25, 0.75), np.empty((2, 0))):
                got = cb.combine_matrix(
                    method, np.empty((2, 0)), shares=shares, total_count=np.empty(0), rho=0.7
                )
                assert got.shape == (0,), method

    def test_unknown_method_rejected(self):
        # a non-string method id is a config error too, not a TypeError
        for method in ("median", ["fisher"], {"fisher": 1}, 7):
            with pytest.raises(ConfigError):
                cb.combine_by_id(method, ev([0.5]))

    def test_matrix_rejects_negative_shares(self):
        p_mat = np.array([[0.2, 0.6], [0.4, 0.01]])
        for method in sorted(cb.SHARE_METHODS):
            for shares in BAD_SHARES + ([[0.5, np.nan], [0.5, 1.0]],):
                with pytest.raises(ConfigError):
                    cb.combine_matrix(method, p_mat, shares=shares, total_count=50, rho=0.7)

    def test_totals_below_one_rejected_on_both_paths(self):
        # an empty pooled window is no evidence: it must not read as p = 0 or 1
        p_mat = np.array([[0.2, 0.6], [0.4, 0.01]])
        for method in ("cstouffer", "lancaster"):
            for total in (0, (50, 0)):
                with pytest.raises(ConfigError):
                    cb.combine_matrix(
                        method, p_mat, shares=(0.5, 0.5), total_count=total, rho=0.7
                    )
            with pytest.raises(ConfigError):
                cb.combine_by_id(
                    method, ev([0.2, 0.4], shares=(0.5, 0.5), total_count=0, rho=0.7)
                )

    def test_totals_beyond_a_double_rejected(self):
        # a Python int too large for a double overflows numpy's conversion
        p_mat = np.array([[0.1], [0.2]])
        for method in ("cstouffer", "lancaster"):
            for total in (10**400, [10**400]):
                with pytest.raises(ConfigError):
                    cb.combine_matrix(
                        method, p_mat, shares=(0.5, 0.5), total_count=total, rho=0.7
                    )

    def test_non_finite_totals_rejected(self):
        # an infinite total would turn lancaster's shapes into NaN and drop
        # cstouffer's continuity term without a word
        p_mat = np.array([[0.2, 0.6], [0.4, 0.01]])
        for method in ("cstouffer", "lancaster"):
            for total in (np.inf, np.nan, (50, np.inf), (np.nan, 50)):
                with pytest.raises(ConfigError):
                    cb.combine_matrix(
                        method, p_mat, shares=(0.5, 0.5), total_count=total, rho=0.7
                    )


class TestOneContextRule:
    """EvidenceSet checks every piece of context it is given, combine_matrix
    what its method reads, and both by the same rules."""

    GOOD = dict(shares=(0.5, 0.5), total_count=50, rho=0.7)

    @pytest.mark.parametrize(
        "context",
        [{"shares": s} for s in BAD_SHARES]
        + [{"total_count": t} for t in BAD_TOTALS]
        + [{"rho": r} for r in BAD_RHOS],
    )
    def test_both_paths_reject_alike(self, context):
        args = self.GOOD | context
        with pytest.raises(ConfigError):
            EvidenceSet((0.2, 0.4), **args)
        with pytest.raises(ConfigError):
            cb.combine_matrix("cstouffer", [[0.2], [0.4]], **args)

    def test_matrix_checks_only_what_the_method_reads(self):
        bad = dict(shares=BAD_SHARES[0], total_count=BAD_TOTALS[0], rho=BAD_RHOS[0])
        assert cb.combine_matrix("fisher", [[0.2], [0.4]], **bad).shape == (1,)
        with pytest.raises(ConfigError):
            cb.combine_matrix("wfisher", [[0.2], [0.4]], **bad)

    def test_built_evidence_combines_like_its_matrix(self):
        e = EvidenceSet((0.2, 0.4), shares=(0.25, 0.75), total_count=30.0, rho=0.7)
        for method in cb.METHOD_IDS:
            got = cb.combine_by_id(method, e).p
            want = cb.combine_matrix(method, [[0.2], [0.4]], (0.25, 0.75), 30, 0.7)[0]
            assert got == want, method


class TestCombineMethods:
    """``combine_methods`` scores many methods in one pass, checking the
    context once and computing each per-site transform once; every method
    keeps the bits it has when combined alone."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(2020)
        p_mat = rng.uniform(size=(4, 30)) ** 3
        p_mat[:, 0] = 0.0
        p_mat[:, 1] = 1.0
        # per-column shares with zero-share sites, and per-column totals
        shares = rng.dirichlet(np.ones(4), size=30).T
        shares[1, ::3] = 0.0
        shares /= shares.sum(axis=0)
        totals = rng.integers(1, 500, size=30)
        yield p_mat, shares, totals
        # one share vector, with a zero share, and one total for every column
        yield p_mat, np.array([0.5, 0.0, 0.3, 0.2]), 120
        # M = 1, and one site
        yield p_mat[:, :1], shares[:, :1], totals[:1]
        yield p_mat[:1], np.ones(1), 7

    @pytest.mark.parametrize("method", cb.METHOD_IDS)
    def test_each_method_equals_combine_matrix_bit_for_bit(self, method):
        for p_mat, shares, totals in self.cases():
            args = (p_mat, shares, totals, 0.7)
            combined = dict(zip(cb.METHOD_IDS, cb.combine_methods(cb.METHOD_IDS, *args)))
            p, stat = combined[method]
            assert p.tobytes() == cb.combine_matrix(method, *args).tobytes()
            ((_, alone),) = cb.combine_methods([method], *args)
            assert stat.tobytes() == alone.tobytes()

    def test_order_and_repeats_change_no_bit(self):
        for p_mat, shares, totals in self.cases():
            args = (p_mat, shares, totals, 0.7)
            forward = cb.combine_methods(cb.METHOD_IDS, *args)
            mixed = ("lancaster", "stouffer", "cstouffer", "lancaster", "goods", "fisher")
            want = dict(zip(cb.METHOD_IDS, forward))
            for method, (p, stat) in zip(mixed, cb.combine_methods(mixed, *args)):
                assert p.tobytes() == want[method][0].tobytes(), method
                assert stat.tobytes() == want[method][1].tobytes(), method

    def test_each_transform_is_computed_once(self, monkeypatch):
        calls = {"normal_quantile": 0, "gamma_isf": 0}
        for name in calls:
            real = getattr(numerics, name)

            def spy(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(numerics, name, spy)
        p_mat, shares, totals = next(self.cases())
        list(cb.combine_methods(cb.METHOD_IDS, p_mat, shares, totals, 0.7))
        # the three Stouffers share one quantile; each Gamma method inverts once
        assert calls == {"normal_quantile": 1, "gamma_isf": 2}

    def test_transforms_are_dropped_after_their_last_reader(self):
        """A pass over all nine methods, whose rows the caller stores as
        they come, peaks within two (N, M) arrays of the heaviest single
        method: each transform is freed once no later method reads it."""
        rng = np.random.default_rng(44)
        p_mat = rng.uniform(size=(4, 50_000))
        shares = rng.dirichlet(np.ones(4), size=50_000).T
        args = (p_mat, shares, rng.integers(1, 500, size=50_000), 0.7)
        rows = np.empty((len(cb.METHOD_IDS), 50_000))
        peaks = []
        for methods in [[m] for m in cb.METHOD_IDS] + [cb.METHOD_IDS]:
            tracemalloc.start()
            try:
                for row, (p, _) in zip(rows, cb.combine_methods(methods, *args)):
                    row[:] = p
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[-1] <= max(peaks[:-1]) + 2 * p_mat.nbytes, peaks

    def test_context_is_checked_once_for_the_methods_that_read_it(self):
        p_mat = [[0.2, 0.3], [0.4, 0.5]]
        bad = dict(shares=BAD_SHARES[0], total_count=BAD_TOTALS[0], rho=BAD_RHOS[0])
        assert len(list(cb.combine_methods(["fisher", "tippett"], p_mat, **bad))) == 2
        assert list(cb.combine_methods([], p_mat, **bad)) == []
        with pytest.raises(ConfigError, match="goods requires per-site shares"):
            cb.combine_methods(["fisher", "goods", "wfisher"], p_mat)
        with pytest.raises(ConfigError, match="lancaster requires total_count"):
            cb.combine_methods(["wfisher", "lancaster"], p_mat, shares=(0.5, 0.5))
        with pytest.raises(ConfigError, match="cstouffer requires rho"):
            cb.combine_methods(["cstouffer"], p_mat, shares=(0.5, 0.5), total_count=9)
        with pytest.raises(ConfigError, match="unknown method"):
            cb.combine_methods(["fisher", "nope"], [[2.0]])
        with pytest.raises(DomainError, match="p-values must lie in"):
            cb.combine_methods(["fisher"], [[2.0]])


class TestScipyLastDigits:
    """Every combiner but tippett takes its special functions from
    ``numerics``: pushing each scipy result there one ulp moves at least
    one combined p-value of every such method, and the clamp keeps every
    one inside [0, 1]."""

    @staticmethod
    def batch():
        rng = np.random.default_rng(1717)
        p_mat = rng.uniform(size=(6, 60))
        # columns that put the tails on 0 and 1 exactly
        p_mat[:, 0] = 0.0
        p_mat[:, 1] = 1.0
        p_mat[:, 2] = 1e-300
        shares = rng.dirichlet(np.ones(6), size=60).T
        totals = rng.integers(20, 400, size=60)
        return p_mat, shares, totals

    @pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
    def test_every_scipy_backed_combiner_moves_and_stays_in_range(self, monkeypatch, direction):
        p_mat, shares, totals = self.batch()
        args = dict(shares=shares, total_count=totals, rho=0.8)
        exact = {m: cb.combine_matrix(m, p_mat, **args) for m in cb.METHOD_IDS}
        monkeypatch.setattr(numerics, "special", nudged_special(direction))
        for method in cb.METHOD_IDS:
            got = cb.combine_matrix(method, p_mat, **args)
            assert ((got >= 0.0) & (got <= 1.0)).all(), method
            moved = (got != exact[method]).any()
            assert moved == (method != "tippett"), method

    @pytest.mark.parametrize("direction", [np.inf, -np.inf], ids=["up", "down"])
    def test_gamma_memo_follows_the_special_functions(self, monkeypatch, direction):
        """A memo warmed before a nudge must not answer for the nudged
        functions, nor one filled while nudged after the nudge is undone:
        the statistics, sums of ``gamma_isf`` quantiles alone, move and
        come back."""
        p_mat, shares, totals = self.batch()
        kernels = {
            "wfisher": lambda: next(cb.combine_methods(["wfisher"], p_mat, shares))[1],
            "lancaster": lambda: next(cb.combine_methods(["lancaster"], p_mat, shares, totals))[1],
        }
        exact = {m: stat().tobytes() for m, stat in kernels.items()}
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "special", nudged_special(direction))
            for method, stat in kernels.items():
                assert stat().tobytes() != exact[method], method
        for method, stat in kernels.items():
            assert stat().tobytes() == exact[method], method


class TestRecombinationIdentity:
    """Splitting a pooled window across sites and recombining the per-site
    Gaussian p-values with count-share weights must reproduce the pooled
    Gaussian p-value exactly, because the pooled score is the share-weighted
    sum of per-site scores. The continuity-corrected variant reproduces the
    pooled Yates p-value the same way."""

    @staticmethod
    def random_split(rng, hyp, yates):
        from fedsurv.surge import SurgeWindow, gaussian_p_value

        l = hyp.baseline_len
        while True:
            n_sites = int(rng.integers(2, 7))
            # per-site windows; keep every site populated and every z-score
            # far from the clamp region so the identity is exact
            windows = []
            for _ in range(n_sites):
                base = rng.poisson(12.0, size=l) + 1
                test = rng.poisson(12.0 * hyp.theta + 3.0) + 1
                windows.append(SurgeWindow(tuple(int(b) for b in base), int(test)))
            pooled = SurgeWindow(
                tuple(sum(w.baseline_counts[i] for w in windows) for i in range(l)),
                sum(w.test_count for w in windows),
            )
            zs = [
                abs(
                    oracles.normal_quantile_bisect(
                        min(max(gaussian_p_value(w, hyp, yates=yates), 1e-7), 1 - 1e-7)
                    )
                )
                for w in windows + [pooled]
            ]
            if max(zs) < 5.0:
                return windows, pooled

    def test_weighted_stouffer_recovers_pooled_gaussian(self):
        from fedsurv.surge import SurgeHypothesis, gaussian_p_value

        hyp = SurgeHypothesis(0.3, 4)
        rng = np.random.default_rng(555)
        for _ in range(60):
            windows, pooled = self.random_split(rng, hyp, yates=False)
            ps = [gaussian_p_value(w, hyp) for w in windows]
            shares = tuple(w.total / pooled.total for w in windows)
            got = cb.combine_by_id("wstouffer", ev(ps, shares=shares)).p
            assert got == pytest.approx(gaussian_p_value(pooled, hyp), abs=1e-11)

    def test_corrected_stouffer_recovers_pooled_yates(self):
        from fedsurv.surge import SurgeHypothesis, gaussian_p_value

        hyp = SurgeHypothesis(0.3, 4)
        rng = np.random.default_rng(556)
        for _ in range(60):
            windows, pooled = self.random_split(rng, hyp, yates=True)
            ps = [gaussian_p_value(w, hyp, yates=True) for w in windows]
            shares = tuple(w.total / pooled.total for w in windows)
            e = ev(ps, shares=shares, total_count=pooled.total, rho=hyp.rho)
            got = cb.combine_by_id("cstouffer", e).p
            assert got == pytest.approx(
                gaussian_p_value(pooled, hyp, yates=True), abs=1e-11
            )

    def test_plain_stouffer_does_not_recover_unequal_split(self):
        # sanity: the identity genuinely needs the share weights
        from fedsurv.surge import SurgeHypothesis, SurgeWindow, gaussian_p_value

        hyp = SurgeHypothesis(0.3, 4)
        w1 = SurgeWindow((40, 38, 41, 39), 20)
        w2 = SurgeWindow((2, 1, 2, 1), 1)
        pooled = SurgeWindow((42, 39, 43, 40), 21)
        ps = [gaussian_p_value(w, hyp) for w in (w1, w2)]
        unweighted = cb.combine_by_id("stouffer", ev(ps)).p
        weighted = cb.combine_by_id("wstouffer", 
            ev(ps, shares=(w1.total / pooled.total, w2.total / pooled.total))
        ).p
        target = gaussian_p_value(pooled, hyp)
        assert weighted == pytest.approx(target, abs=1e-11)
        # compare on the score scale; both p-values sit deep in one tail
        gap = abs(
            oracles.normal_quantile_bisect(unweighted)
            - oracles.normal_quantile_bisect(target)
        )
        assert gap > 0.05


class TestUniformNullCalibration:
    # quick fixed-seed check; the acceptance suite runs the full-size version
    def test_naive_methods_uniform_under_null(self):
        rng = np.random.default_rng(1001)
        m = 20000
        crit = oracles.KS_K_ALPHA_01 / math.sqrt(m)
        for n_sites in (2, 8):
            p_mat = rng.uniform(size=(n_sites, m))
            for method in ("stouffer", "fisher", "pearson", "tippett"):
                combined = cb.combine_matrix(method, p_mat)
                d = oracles.ks_statistic_uniform(combined)
                assert d < crit, (method, n_sites, d)


class TestWindowWeights:
    def test_shares_and_totals_of_window_counts(self):
        # the middle column is an empty pool: uniform shares and total 1
        n_site = np.array([[3, 0, 5], [1, 0, 0]])
        shares, totals = cb.window_weights(n_site)
        assert shares.tolist() == [[0.75, 0.5, 1.0], [0.25, 0.5, 0.0]]
        assert totals.tolist() == [4, 1, 5]
