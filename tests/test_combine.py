import math

import numpy as np
import pytest
from scipy import special

from fedsurv import combine as cb
from fedsurv.errors import ConfigError, DomainError
from fedsurv.combine import CombinedResult, EvidenceSet

import oracles


def ev(ps, **kw):
    return EvidenceSet(tuple(ps), **kw)


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
        with pytest.raises(ConfigError):
            ev([0.5, 0.5], shares=(0.6, 0.6))
        with pytest.raises(ConfigError):
            ev([0.5, 0.5], shares=(1.2, -0.2))
        with pytest.raises(ConfigError):
            ev([0.5, 0.5], shares=(1.0,))
        for bad in ((float("nan"), 1.0), (float("inf"), 1.0)):
            with pytest.raises(ConfigError):
                ev([0.01, 0.5], shares=bad)

    def test_boundary_pvalues_accepted(self):
        s = ev([0.0, 1.0])
        assert s.p_values == (0.0, 1.0)


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

        ours = cb.wfisher_matrix(p_mat, (0.5, 0.5))[0]
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
    """wfisher and lancaster invert each distinct (p, shape) pair of a batch
    once; the result must be the bits of inverting every cell on its own."""

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

    @pytest.mark.parametrize("method", ["wfisher", "lancaster"])
    def test_kernel_sees_only_distinct_pairs(self, method, monkeypatch):
        real = special.gammainccinv
        seen = []

        def spy(a, x):
            seen.append(list(zip(np.ravel(a).tolist(), np.ravel(x).tolist())))
            return real(a, x)

        monkeypatch.setattr(cb.special, "gammainccinv", spy)
        n_pairs = n_cells = 0
        for p_mat, shares, totals in self.batches():
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
        assert n_pairs < n_cells / 2


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
            for shares in ((1.5, -0.5), (float("nan"), 1.0), [[0.5, np.nan], [0.5, 1.0]]):
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
