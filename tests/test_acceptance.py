"""Release gate: ten independent end-to-end checks.

Each test covers one release criterion, deterministically seeded and
self-contained, so a verbose run reads as a ten-line scorecard. Statistical
checks pin their tolerance, timed checks their wall-clock budget, and every
budget assert sits after the correctness asserts it accompanies.
"""

import math
import subprocess
import sys
import time

import numpy as np

from fedsurv import numerics
from fedsurv.combine import METHOD_IDS, SHARE_METHODS, combine_matrix
from fedsurv.experiments import (
    PowerCurveConfig,
    SemisynthConfig,
    run_power_curve,
    run_semisynth_sweep,
)
from fedsurv.semisynth import normalized_entropy
from fedsurv.surge import (
    PowerScenario,
    SurgeHypothesis,
    SurgeWindow,
    critical_value,
    exact_p_value,
    gaussian_p_value,
    power_approx,
    power_exact,
)

from support import package_env


def test_c01_exact_pvalue_matches_bruteforce_tail_sum():
    """1,000 random windows against an independent log-space tail summation."""
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for _ in range(1000):
        l = int(rng.choice([2, 4, 8]))
        theta = float(rng.choice([0.1, 0.3, 1.0]))
        hyp = SurgeHypothesis(theta, l)
        c = int(rng.integers(0, 901))
        k = int(rng.integers(0, 1001 - c))
        baseline = rng.multinomial(c, [1.0 / l] * l)
        window = SurgeWindow(tuple(int(x) for x in baseline), k)
        n = c + k
        log_rho, log_q = math.log(hyp.rho), math.log(hyp.q)
        # exact integer coefficients keep the oracle's own error near 1e-13;
        # float lgamma differences at n ~ 1000 would eat the whole tolerance
        terms = []
        comb = 1
        for j in range(c + 1):
            log_term = math.log(comb) + j * log_rho + (n - j) * log_q
            terms.append(math.exp(log_term) if log_term > -745.0 else 0.0)
            comb = comb * (n - j) // (j + 1)
        oracle = math.fsum(terms)
        worst = max(worst, abs(exact_p_value(window, hyp) - oracle))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12, f"worst |library - oracle| = {worst:.3e}, tolerance 1e-12"
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c02_pooled_zscore_recombines_from_site_zscores():
    """Splitting a window over sites and recombining share-weighted normal
    quantiles reproduces the pooled quantile, plain and continuity-corrected."""
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(5151)
    worst = 0.0
    for i in range(1000):
        n_sites = 2 + i % 9
        while True:
            l = int(rng.choice([2, 4, 8]))
            theta = float(rng.choice([0.1, 0.3, 1.0]))
            hyp = SurgeHypothesis(theta, l)
            rho = hyp.rho
            pooled = rng.poisson(rng.uniform(80.0, 300.0), size=l + 1)
            probs = rng.dirichlet(np.ones(n_sites))
            per_site = np.vstack([rng.multinomial(int(x), probs) for x in pooled])
            n_i = per_site.sum(axis=0)
            if (n_i == 0).any():
                continue
            c_i = per_site[:l].sum(axis=0)
            z_i = (c_i - rho * n_i) / np.sqrt(n_i * rho * (1 - rho))
            n_tot = int(n_i.sum())
            z_pool = (int(c_i.sum()) - rho * n_tot) / math.sqrt(n_tot * rho * (1 - rho))
            # quantile roundtrips lose precision in the far tails, so keep
            # every z-score moderate; redraws are rare at these intensities
            if np.abs(z_i).max() <= 4.5 and abs(z_pool) <= 4.5:
                break
        windows = [
            SurgeWindow(tuple(int(x) for x in per_site[:l, j]), int(per_site[l, j]))
            for j in range(n_sites)
        ]
        pooled_window = SurgeWindow(tuple(int(x) for x in pooled[:l]), int(pooled[l]))
        shares = n_i / n_tot
        for yates in (False, True):
            site_q = np.array(
                [
                    numerics.normal_quantile(gaussian_p_value(w, hyp, yates=yates))
                    for w in windows
                ]
            )
            lhs = numerics.normal_quantile(gaussian_p_value(pooled_window, hyp, yates=yates))
            rhs = float(np.sqrt(shares) @ site_q)
            if yates:
                rhs += (1 - n_sites) / (2.0 * math.sqrt(rho * (1 - rho) * n_tot))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10, f"worst recombination residual = {worst:.3e}, tolerance 1e-10"
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c03_every_combiner_is_uniform_under_the_null():
    """Each combiner fed i.i.d. uniforms passes a 1%-level KS uniformity
    check over 100,000 replicates, at 2 and at 8 sites."""
    budget = 60.0
    start = time.perf_counter()
    m = 100_000
    crit = 1.6276 / math.sqrt(m)
    rng = np.random.default_rng(30001)
    for n_sites in (2, 8):
        p_matrix = rng.uniform(size=(n_sites, m))
        shares = np.full((n_sites, m), 1.0 / n_sites)
        totals = np.full(m, 800.0)
        for method in METHOD_IDS:
            if method == "cstouffer":
                # the finite-count correction deliberately shifts this
                # variant's null at small totals; probe its limit instead
                combined = combine_matrix(
                    method, p_matrix, shares=shares,
                    total_count=np.full(m, 1e9), rho=4.0 / 5.3,
                )
            elif method == "lancaster":
                combined = combine_matrix(
                    method, p_matrix, shares=shares, total_count=totals
                )
            elif method in SHARE_METHODS:
                combined = combine_matrix(method, p_matrix, shares=shares)
            else:
                combined = combine_matrix(method, p_matrix)
            srt = np.sort(combined)
            hi = np.arange(1, m + 1) / m
            d = max(float((hi - srt).max()), float((srt - hi + 1.0 / m).max()))
            assert d <= crit, (
                f"{method} at {n_sites} sites: KS statistic {d:.5f} "
                f"exceeds the 1% critical value {crit:.5f}"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c04_power_formula_tracks_exact_power():
    """The analytic power formula against the exact binomial-tail power on
    a 24-point grid, with the exact power itself validated by simulation.

    The integer critical value moves in unit steps as n grows, so exact
    power rides a sawtooth the smooth formula cannot fully track; the
    widest grid gap measures how far the two are allowed to drift.
    """
    budget = 120.0
    start = time.perf_counter()
    hyp = SurgeHypothesis(0.3, 4)

    # first pin down power_exact by Monte Carlo so the gap assert below
    # can only indict the approximation
    rng = np.random.default_rng(40440)
    draws = 1_000_000
    for n, theta_alt in ((100, 0.6), (200, 0.5), (500, 0.4)):
        scn = PowerScenario(n, theta_alt, hyp)
        reference = power_exact(scn)
        k_cr = critical_value(n, hyp)
        hits = rng.binomial(n, scn.q_alt, size=draws) >= k_cr
        mc = float(np.mean(hits))
        sigma = math.sqrt(reference * (1.0 - reference) / draws)
        assert abs(mc - reference) <= 3.0 * sigma, (
            f"n={n}, theta_alt={theta_alt}: Monte Carlo {mc:.6f} vs "
            f"exact {reference:.6f} differs by more than 3 sigma ({sigma:.2e})"
        )

    worst_gap = 0.0
    worst_at = None
    for n in (100, 200, 500):
        for i in range(8):
            theta_alt = round(0.3 + 0.1 * i, 1)
            scn = PowerScenario(n, theta_alt, hyp)
            gap = abs(power_approx(scn) - power_exact(scn))
            if gap > worst_gap:
                worst_gap, worst_at = gap, (n, theta_alt)
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"
    assert worst_gap <= 0.03, (
        f"max |approx - exact| = {worst_gap:.4f} at n={worst_at[0]}, "
        f"theta_alt={worst_at[1]}; required <= 0.03"
    )


def test_c05_two_site_combination_recovers_pooled_power():
    """With 200 expected counts split over two equal sites, combining loses
    almost nothing against pooling and gains decisively over one site.

    A million replicates for both calibration and evaluation keep the
    simulation error well under the 0.05 margins being asserted.
    """
    budget = 300.0
    start = time.perf_counter()
    cfg = PowerCurveConfig(calibration_reps=1_000_000, power_reps=1_000_000)
    result = run_power_curve(cfg, 21)
    power = {(pt.method, pt.theta_alt): pt.power for pt in result.points}
    grid = sorted({pt.theta_alt for pt in result.points})

    worst_loss = max(power[("centralized", t)] - power[("stouffer", t)] for t in grid)
    assert worst_loss <= 0.05, (
        f"pooled power beats the combined test by {worst_loss:.4f} somewhere "
        f"on the grid; allowed at most 0.05"
    )

    t_mid = min(grid, key=lambda t: abs(t - 0.6))
    single = power[("largest_site", t_mid)]
    for method in METHOD_IDS:
        margin = power[(method, t_mid)] - single
        assert margin >= 0.05, (
            f"{method} at theta_alt={t_mid}: only {margin:.4f} above the "
            f"single-site test; required >= 0.05"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c06_semisynthetic_sweeps_rank_methods_as_expected():
    """Three sweep claims on the built-in fixture: Fisher is the stable
    combiner as site count varies, share weighting pays off under a
    dominant site, and combined alarms track centralized alarms closely."""
    budget = 600.0
    start = time.perf_counter()
    cfg = SemisynthConfig(
        methods=("centralized", "largest_site", "stouffer", "fisher",
                 "wstouffer", "wfisher"),
        n_replicates=40,
    )
    result = run_semisynth_sweep(cfg, 3)
    rows = {(r.sweep, r.setting, r.method): r for r in result.rows}

    def spread(method):
        vals = [rows[("sites", s, method)].recall_at_fdr for s in ("2", "5", "10", "20")]
        return max(vals) - min(vals)

    fisher_spread = spread("fisher")
    stouffer_spread = spread("stouffer")
    assert fisher_spread <= 0.15, (
        f"fisher recall spread {fisher_spread:.3f} over the site sweep; allowed 0.15"
    )
    assert stouffer_spread > fisher_spread, (
        f"stouffer spread {stouffer_spread:.3f} should exceed fisher's "
        f"{fisher_spread:.3f}"
    )

    def recall(method):
        return rows[("entropy", "0.8", method)].recall_at_fdr

    assert recall("wstouffer") > recall("stouffer"), "share weighting should lift stouffer"
    assert recall("wfisher") > recall("fisher"), "share weighting should lift fisher"
    assert recall("wstouffer") > recall("largest_site"), (
        "weighted stouffer should beat the dominant site alone"
    )
    assert recall("wfisher") > recall("largest_site"), (
        "weighted fisher should beat the dominant site alone"
    )

    for method in ("stouffer", "fisher", "wstouffer", "wfisher"):
        score = rows[("magnitude", "1", method)].f1
        assert score >= 0.85, (
            f"{method} F1 vs centralized alarms is {score:.3f} on the "
            f"equal-share fixture; required >= 0.85"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c07_tail_bounds_bracket_exact_pvalue():
    """exp(-n*KL)/sqrt(2n) <= p <= exp(-n*KL) on 10,000 interior windows
    drawn below the expected baseline share, with zero violations."""
    budget = 10.0
    start = time.perf_counter()
    rng = np.random.default_rng(6001)
    kept = 0
    while kept < 10_000:
        n = int(rng.integers(2, 2001))
        rho = float(rng.uniform(0.15, 0.9))
        hi = min(int(math.floor(n * rho)), n - 1)
        if hi < 1:
            continue
        c = int(rng.integers(1, hi + 1))
        a = c / n
        kl = a * math.log(a / rho) + (1.0 - a) * math.log((1.0 - a) / (1.0 - rho))
        # past exp(-500) the regularized beta tail underflows before the
        # bounds do, which would flag arithmetic, not mathematics
        if n * kl > 500.0:
            continue
        p = numerics.binomial_cdf(c, n, rho)
        upper = math.exp(-n * kl)
        lower = upper / math.sqrt(2.0 * n)
        assert lower <= p <= upper, (
            f"violation at n={n}, c={c}, rho={rho!r}: "
            f"lower={lower:.3e}, p={p:.3e}, upper={upper:.3e}"
        )
        kept += 1
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c08_equal_shares_collapse_weighted_methods():
    """With equal shares the weighted combiners reduce to their unweighted
    ancestors to within 1e-12, across 1,000 random evidence sets."""
    budget = 5.0
    start = time.perf_counter()
    rng = np.random.default_rng(7007)
    worst = 0.0
    n_sets = 0
    for n_sites in range(2, 11):
        n_cols = 112 if n_sites == 2 else 111
        n_sets += n_cols
        p_matrix = rng.uniform(size=(n_sites, n_cols))
        shares = np.full((n_sites, n_cols), 1.0 / n_sites)
        for wide, plain in (
            ("wstouffer", "stouffer"),
            ("wfisher", "fisher"),
            ("goods", "fisher"),
        ):
            gap = np.abs(
                combine_matrix(wide, p_matrix, shares=shares)
                - combine_matrix(plain, p_matrix)
            ).max()
            worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    assert n_sets == 1000
    assert worst <= 1e-12, f"worst reduction gap = {worst:.3e}, tolerance 1e-12"
    assert elapsed < budget, f"took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c09_semisynth_runs_are_byte_identical(tmp_path):
    """Two seeded command-line sweep runs write byte-identical files."""
    payloads = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "fedsurv", "semisynth", "--seed", "42", "--out", str(out)],
            capture_output=True,
            text=True,
            env=package_env(),
        )
        assert proc.returncode == 0, proc.stderr
        payloads.append(out.read_bytes())
    assert len(payloads[0]) > 0
    assert payloads[0] == payloads[1], "same seed produced different bytes"


def test_c10_share_entropy_anchor():
    """One dominant site at 65% with four equal minors lands just under
    the 0.7 imbalance mark."""
    value = normalized_entropy((0.65, 0.0875, 0.0875, 0.0875, 0.0875))
    assert 0.69 < value < 0.71, f"normalized entropy {value!r} outside (0.69, 0.71)"
