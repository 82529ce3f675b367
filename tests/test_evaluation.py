import datetime
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from fedsurv import evaluation as ev
from fedsurv.errors import ConfigError, DomainError
from fedsurv.semisynth import PrevalenceSeries, date_range, period_step

import oracles

D0 = datetime.date(2024, 3, 4)


def prevalence(rates):
    return PrevalenceSeries("daily", date_range(D0, len(rates), "daily"), tuple(rates))


def curve_points(thresholds, precision, recall):
    """Rows of `pr_curves`' arrays as lists of (threshold, precision, recall)."""
    ths = sorted(float(th) for th in thresholds)
    return [list(zip(ths, p, r)) for p, r in zip(precision.tolist(), recall.tolist())]


class TestTypes:
    def test_alarm_series_must_be_sorted_unique(self):
        with pytest.raises(DomainError):
            ev.AlarmSeries((3, 1))
        with pytest.raises(DomainError):
            ev.AlarmSeries((2, 2))
        assert ev.AlarmSeries.of([5, 1, 5, 3]).period_indices == (1, 3, 5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None, 1.5, "3"])
    def test_alarm_series_rejects_non_integral_indices(self, bad):
        with pytest.raises(DomainError, match="alarm index must be an integer"):
            ev.AlarmSeries((bad,))
        with pytest.raises(DomainError, match="alarm index must be an integer"):
            ev.AlarmSeries((0, bad))
        with pytest.raises(DomainError, match="alarm index must be an integer"):
            ev.AlarmSeries.of([2, bad])

    def test_alarm_series_of_keeps_integral_values_as_ints(self):
        got = ev.AlarmSeries.of([3.0, np.int64(1), np.float64(2.0)])
        assert got.period_indices == (1, 2, 3)
        assert all(type(i) is int for i in got.period_indices)
        assert ev.AlarmSeries((1.0, 4)).period_indices == (1, 4)

    @pytest.mark.parametrize("bad", [True, np.bool_(False), 2**63])
    def test_alarm_series_rejects_bools_and_indices_past_int64(self, bad):
        with pytest.raises(DomainError, match="alarm index must be an integer"):
            ev.AlarmSeries((bad,))

    def test_match_window_validation(self):
        with pytest.raises(DomainError):
            ev.MatchWindow(-1, 2)
        for bad in (1.5, True, "1", None, float("nan"), 2**63):
            with pytest.raises(DomainError):
                ev.MatchWindow(bad, 2)
            with pytest.raises(DomainError):
                ev.MatchWindow(2, bad)
        assert ev.MatchWindow(np.int64(1), 0) == ev.MatchWindow(1, 0)
        # an integral float is an integer, stored as int
        window = ev.MatchWindow(1.0, 2)
        assert window == ev.MatchWindow(1, 2) and type(window.before) is int
        assert ev.MatchWindow.default_for("weekly") == ev.MatchWindow(1, 2)
        assert ev.MatchWindow.default_for("daily") == ev.MatchWindow(7, 14)

    def test_default_window_of_an_unknown_cadence_is_the_period_step_error(self):
        with pytest.raises(ConfigError) as want:
            period_step("monthly")
        with pytest.raises(ConfigError) as got:
            ev.MatchWindow.default_for("monthly")
        assert str(got.value) == str(want.value) and "cadence" in str(got.value)


class TestAlarmsFromPValues:
    @pytest.mark.parametrize(
        "threshold", [0.0, 1.0, float("nan"), 10**400, True], ids=["0", "1", "nan", "400-digit", "bool"]
    )
    def test_threshold_outside_open_unit_interval_rejected(self, threshold):
        # one threshold domain, (0, 1), as pr_curves and the configs use
        with pytest.raises(DomainError, match="^threshold must"):
            ev.alarms_from_pvalues([0.0, 0.5, 1.0], threshold)

    def test_golden_comparison(self):
        got = ev.alarms_from_pvalues([1.0, 0.04, 0.2, 0.01], 0.05)
        assert got.period_indices == (1, 3)

    def test_comparison_is_strict(self):
        assert len(ev.alarms_from_pvalues([0.05], 0.05)) == 0

    def test_invalid_pvalue_rejected(self):
        with pytest.raises(DomainError):
            ev.alarms_from_pvalues([0.5, 1.7], 0.05)


class TestAlarmsFromGrowth:
    def test_constant_prevalence_is_silent(self):
        got = ev.alarms_from_growth(prevalence([10.0] * 30), theta=0.0, l=4)
        assert len(got) == 0

    def test_golden_single_jump(self):
        got = ev.alarms_from_growth(prevalence([10, 10, 10, 10, 14.0]), theta=0.3, l=4)
        assert got.period_indices == (4,)

    def test_threshold_is_strict(self):
        # exact binary arithmetic: 10/8 - 1 is exactly 0.25
        got = ev.alarms_from_growth(prevalence([8, 8, 8, 8, 10.0]), theta=0.25, l=4)
        assert len(got) == 0
        got = ev.alarms_from_growth(prevalence([8, 8, 8, 8, 10.5]), theta=0.25, l=4)
        assert got.period_indices == (4,)

    def test_zero_baseline_never_alarms(self):
        got = ev.alarms_from_growth(prevalence([0, 0, 0, 0, 5.0]), theta=0.3, l=4)
        assert len(got) == 0

    def test_short_series_rejected(self):
        with pytest.raises(DomainError):
            ev.alarms_from_growth(prevalence([1.0, 2.0]), theta=0.3, l=4)

    def test_baseline_length_must_be_positive_integer(self):
        for bad in (0, 2.5, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="baseline length"):
                ev.alarms_from_growth(prevalence([10.0] * 8), theta=0.3, l=bad)

    @pytest.mark.parametrize("theta", [float("nan"), float("inf"), -float("inf"), -5.0, -1e-9])
    def test_theta_must_be_finite_and_nonnegative(self, theta):
        with pytest.raises(DomainError, match="theta"):
            ev.alarms_from_growth(prevalence([10, 10, 10, 10, 14.0]), theta=theta, l=4)

    def test_wave_fixture_matches_exact_recomputation(self):
        rng = np.random.default_rng(606)
        rates = [float(round(v, 3)) for v in 20 + 15 * np.sin(np.arange(80) / 5.0)]
        rates += [float(round(v, 3)) for v in rng.uniform(0.0, 40.0, size=40)]
        theta, l = 0.25, 7
        expected = []
        for t in range(l, len(rates)):
            base = oracles.mean_fraction([Fraction(str(r)) for r in rates[t - l : t]])
            if base > 0 and Fraction(str(rates[t])) > (1 + Fraction(1, 4)) * base:
                expected.append(t)
        got = ev.alarms_from_growth(prevalence(rates), theta=theta, l=l)
        assert got.period_indices == tuple(expected)


class TestMatchAlarms:
    W = ev.MatchWindow(1, 2)

    def test_identical_sets(self):
        truth = ev.AlarmSeries((3, 9, 20))
        assert ev.match_alarms(truth, truth, self.W) == (3, 0, 0)

    def test_late_prediction_matches(self):
        got = ev.match_alarms(ev.AlarmSeries((10,)), ev.AlarmSeries((11,)), self.W)
        assert got == (1, 0, 0)

    def test_one_to_one_golden(self):
        got = ev.match_alarms(ev.AlarmSeries((10, 12)), ev.AlarmSeries((11,)), self.W)
        assert got == (1, 0, 1)

    def test_asymmetric_window_honored(self):
        truth = ev.AlarmSeries((10,))
        assert ev.match_alarms(truth, ev.AlarmSeries((12,)), self.W).tp == 1
        assert ev.match_alarms(truth, ev.AlarmSeries((8,)), self.W) == (0, 1, 1)

    def test_count_identities_and_optimality_on_random_sets(self):
        rng = np.random.default_rng(2025)
        for _ in range(300):
            truth = ev.AlarmSeries.of(rng.integers(0, 25, size=rng.integers(0, 6)))
            pred = ev.AlarmSeries.of(rng.integers(0, 25, size=rng.integers(0, 6)))
            w = ev.MatchWindow(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            tp, fp, fn = ev.match_alarms(truth, pred, w)
            assert tp + fn == len(truth)
            assert tp + fp == len(pred)
            best = oracles.best_matching_bruteforce(
                truth.period_indices, pred.period_indices, w.before, w.after
            )
            assert tp == best

    def test_symmetry_only_with_symmetric_window(self):
        a = ev.AlarmSeries((5, 9))
        b = ev.AlarmSeries((7,))
        sym = ev.MatchWindow(2, 2)
        assert ev.match_alarms(a, b, sym).tp == ev.match_alarms(b, a, sym).tp
        asym = ev.MatchWindow(0, 2)
        assert ev.match_alarms(a, b, asym).tp == 1  # 5 matched two late
        assert ev.match_alarms(b, a, asym).tp == 1  # 7 matched by 9
        assert ev.match_alarms(ev.AlarmSeries((5,)), b, asym).tp == 1
        assert ev.match_alarms(b, ev.AlarmSeries((5,)), asym).tp == 0


class TestPRCurve:
    def test_perfect_predictor(self):
        truth = ev.AlarmSeries((2, 5, 11))
        ps = [0.9] * 14
        for t in truth.period_indices:
            ps[t] = 0.001
        precision, recall = ev.pr_curve(ps, truth, ev.MatchWindow(0, 0), [0.01, 0.05, 0.5])
        assert precision.tolist() == recall.tolist() == [1.0, 1.0, 1.0]

    def test_single_threshold_matches_direct_computation(self):
        rng = np.random.default_rng(7)
        ps = rng.uniform(size=40)
        truth = ev.AlarmSeries.of(rng.integers(0, 40, size=6))
        w = ev.MatchWindow(1, 2)
        precision, recall = ev.pr_curve(ps, truth, w, [0.3])
        counts = ev.match_alarms(truth, ev.alarms_from_pvalues(ps, 0.3), w)
        want_precision, want_recall = oracles.precision_recall(counts)
        assert precision.tolist() == [want_precision] and recall.tolist() == [want_recall]

    def test_thresholds_sorted_in_output(self):
        truth = ev.AlarmSeries((3,))
        # 0.1 raises no alarm, 0.6 only the true one at 3, 0.9 adds a false
        # one at 1; the columns follow the sorted thresholds
        ps = [0.95, 0.7, 0.95, 0.5, 0.95, 0.95]
        precision, recall = ev.pr_curve(ps, truth, ev.MatchWindow(0, 0), [0.9, 0.1, 0.6])
        assert precision.tolist() == [1.0, 1.0, 0.5]
        assert recall.tolist() == [0.0, 1.0, 1.0]

    def test_threshold_domain_enforced(self):
        with pytest.raises(DomainError):
            ev.pr_curve([0.5], ev.AlarmSeries((0,)), ev.MatchWindow(1, 1), [0.0])
        with pytest.raises(DomainError):
            ev.pr_curve([0.5], ev.AlarmSeries((0,)), ev.MatchWindow(1, 1), [])

    def test_empty_side_conventions(self):
        # no alarms raised: perfect precision, zero recall against real truth
        exact = ev.MatchWindow(0, 0)
        precision, recall = ev.pr_curve([0.9, 0.9], ev.AlarmSeries((0,)), exact, [0.1])
        assert (precision.tolist(), recall.tolist()) == ([1.0], [0.0])
        # empty truth: recall 1 by convention, precision punishes every alarm
        precision, recall = ev.pr_curve([0.01, 0.9], ev.AlarmSeries(()), exact, [0.1])
        assert (precision.tolist(), recall.tolist()) == ([0.0], [1.0])


class TestPRCurves:
    def test_matches_scalar_matching_on_random_inputs(self):
        rng = np.random.default_rng(4004)
        grid = (0.01, 0.05, 0.1, 0.3, 0.5, 0.9)
        for _ in range(400):
            n_series = int(rng.integers(1, 5))
            length = int(rng.integers(1, 30))
            thresholds = [float(t) for t in rng.choice(grid, size=rng.integers(1, 6))]
            # mix continuous values with exact threshold ties and a silent row
            p = rng.uniform(size=(n_series, length)) ** 2
            ties = rng.uniform(size=p.shape) < 0.3
            p[ties] = rng.choice(grid, size=int(ties.sum()))
            if rng.uniform() < 0.3:
                p[int(rng.integers(n_series))] = 1.0
            # truth may be empty and may sit past either end of the series
            truth = ev.AlarmSeries.of(rng.integers(-2, length + 2, size=rng.integers(0, 8)))
            window = ev.MatchWindow(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            precision, recall = ev.pr_curves(p, truth, window, thresholds)
            assert precision.shape == recall.shape == (n_series, len(thresholds))
            for row, got in zip(p, curve_points(thresholds, precision, recall)):
                want = oracles.pr_points_by_matching(row, truth, window, thresholds)
                assert got == want

    def test_window_clipped_at_both_ends(self):
        p = [[0.01, 0.9, 0.9, 0.9, 0.01]]
        truth = ev.AlarmSeries((0, 4))
        wide = ev.MatchWindow(3, 3)
        (got,) = curve_points([0.05], *ev.pr_curves(p, truth, wide, [0.05]))
        assert got[0] == (0.05, 1.0, 1.0)
        want = oracles.pr_points_by_matching(p[0], truth, wide, [0.05])
        assert got == want
        # truth alarms whose whole window lies outside the series match nothing
        outside = ev.AlarmSeries((-5, 9))
        (got,) = curve_points([0.05], *ev.pr_curves(p, outside, ev.MatchWindow(1, 1), [0.05]))
        assert got[0] == (0.05, 0.0, 0.0)

    def test_zero_extents_need_exact_hits(self):
        p = [[0.9, 0.01, 0.9, 0.01], [0.01, 0.9, 0.01, 0.9]]
        truth = ev.AlarmSeries((1, 3))
        exact, late = curve_points([0.05], *ev.pr_curves(p, truth, ev.MatchWindow(0, 0), [0.05]))
        assert exact[0] == (0.05, 1.0, 1.0)
        assert late[0] == (0.05, 0.0, 0.0)
        (late,) = curve_points([0.05], *ev.pr_curves(p[1:], truth, ev.MatchWindow(1, 0), [0.05]))
        assert late[0] == (0.05, 1.0, 1.0)

    def test_tie_with_threshold_does_not_alarm(self):
        truth = ev.AlarmSeries((0,))
        precision, recall = ev.pr_curves([[0.05, 0.04]], truth, ev.MatchWindow(0, 0), [0.05])
        assert curve_points([0.05], precision, recall)[0][0] == (0.05, 0.0, 0.0)

    def test_duplicate_unsorted_thresholds(self):
        p = [[0.2, 0.01, 0.5, 0.05]]
        truth = ev.AlarmSeries((1,))
        thresholds = [0.3, 0.05, 0.3, 0.02]
        precision, recall = ev.pr_curves(p, truth, ev.MatchWindow(1, 1), thresholds)
        (got,) = curve_points(thresholds, precision, recall)
        assert [pt[0] for pt in got] == [0.02, 0.05, 0.3, 0.3]
        want = oracles.pr_points_by_matching(p[0], truth, ev.MatchWindow(1, 1), thresholds)
        assert got == want

    def test_single_series_is_pr_curve(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            row = rng.uniform(size=25)
            truth = ev.AlarmSeries.of(rng.integers(0, 25, size=4))
            window = ev.MatchWindow(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            precision, recall = ev.pr_curves(row[None, :], truth, window, [0.1, 0.4])
            one_precision, one_recall = ev.pr_curve(row, truth, window, [0.1, 0.4])
            assert one_precision.shape == one_recall.shape == (2,)
            assert one_precision.tolist() == precision[0].tolist()
            assert one_recall.tolist() == recall[0].tolist()

    def test_no_series_gives_no_curves(self):
        truth = ev.AlarmSeries((1,))
        precision, recall = ev.pr_curves(np.ones((0, 5)), truth, ev.MatchWindow(1, 1), [0.1])
        assert precision.shape == recall.shape == (0, 1)

    def test_bad_pvalue_in_any_row_rejected(self):
        truth = ev.AlarmSeries((1,))
        for bad in (np.nan, -0.1, 1.5):
            for row in range(3):
                p = np.full((3, 6), 0.5)
                p[row, 4] = bad
                with pytest.raises(DomainError, match="p-values must lie in"):
                    ev.pr_curves(p, truth, ev.MatchWindow(1, 1), [0.1])

    def test_bad_thresholds_and_shapes_rejected(self):
        truth = ev.AlarmSeries((1,))
        for thresholds in ([], [0.0], [1.0], [0.1, float("nan")]):
            with pytest.raises(DomainError):
                ev.pr_curves([[0.5, 0.5]], truth, ev.MatchWindow(1, 1), thresholds)
        with pytest.raises(DomainError):
            ev.pr_curves([0.5, 0.5], truth, ev.MatchWindow(1, 1), [0.1])


class TestPRCurvesRestrictedTable:
    """`pr_curves` tabulates only the periods some clipped truth window
    covers; every case is checked against the scalar definition."""

    THRESHOLDS = (0.005, 0.02, 0.05, 0.3, 0.3, 0.9)

    def assert_matches_oracle(self, p, truth, window, thresholds=THRESHOLDS):
        precision, recall = ev.pr_curves(p, truth, window, thresholds)
        assert precision.shape == recall.shape == (len(p), len(thresholds))
        for row, got in zip(p, curve_points(thresholds, precision, recall)):
            assert got == oracles.pr_points_by_matching(row, truth, window, thresholds)

    def sparse_series(self, rng, n_series, length, n_alarms):
        """Silent rows with a few alarms, some tied with a threshold."""
        p = np.ones((n_series, length))
        for row in p:
            at = rng.choice(length, size=n_alarms, replace=False)
            row[at] = rng.choice([0.001, 0.01, 0.02, 0.04, 0.3, 0.5], size=n_alarms)
        return p

    @pytest.mark.parametrize("length", [254, 255, 256, 65_535, 65_536])
    def test_dtype_boundary_lengths_with_alarm_in_last_period(self, length):
        rng = np.random.default_rng(length)
        p = self.sparse_series(rng, 3, length, 40)
        p[:, -1] = [0.01, 0.001, 1.0]
        # the last period's window, windows with and without an alarm in
        # them, and a window that runs past the end of the series
        near_alarm = int(np.flatnonzero(p[0] < 1.0)[0])
        truth = ev.AlarmSeries.of([3, near_alarm, length // 2, length - 3, length - 1])
        self.assert_matches_oracle(p, truth, ev.MatchWindow(1, 2))
        self.assert_matches_oracle(p, truth, ev.MatchWindow(0, 0))

    def test_long_series_with_sparse_truth(self):
        rng = np.random.default_rng(1313)
        length = 5_000
        p = self.sparse_series(rng, 4, length, 300)
        truth = ev.AlarmSeries.of(rng.integers(0, length, size=12))
        self.assert_matches_oracle(p, truth, ev.MatchWindow(1, 2))
        # truth placed on alarms, so some windows do claim them
        on_alarms = ev.AlarmSeries.of(np.flatnonzero(p[0] < 0.05)[::7] + 1)
        self.assert_matches_oracle(p, on_alarms, ev.MatchWindow(1, 2))

    def test_overlapping_windows_clipped_at_both_ends(self):
        rng = np.random.default_rng(77)
        for length in (1, 2, 5, 9, 16):
            for _ in range(20):
                p = rng.uniform(size=(3, length)) ** 3
                truth = ev.AlarmSeries.of(
                    [-4, -1, 0, 1, length // 2, length - 2, length - 1, length + 1, length + 6]
                )
                self.assert_matches_oracle(p, truth, ev.MatchWindow(3, 3))
                self.assert_matches_oracle(p, truth, ev.MatchWindow(2, 5))

    def test_daily_window(self):
        rng = np.random.default_rng(714)
        window = ev.MatchWindow.default_for("daily")
        for _ in range(10):
            length = int(rng.integers(30, 400))
            p = rng.uniform(size=(5, length)) ** 4
            truth = ev.AlarmSeries.of(rng.integers(-10, length + 10, size=rng.integers(1, 25)))
            self.assert_matches_oracle(p, truth, window)

    def test_empty_truth(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=(4, 50)) ** 2
        p[1] = 1.0
        self.assert_matches_oracle(p, ev.AlarmSeries(()), ev.MatchWindow(1, 2))
        precision, recall = ev.pr_curves(p, ev.AlarmSeries(()), ev.MatchWindow(1, 2), [0.5])
        assert recall.tolist() == [[1.0]] * 4
        assert precision[1, 0] == 1.0 and precision[0, 0] == 0.0

    def test_stacked_rows_equal_separate_calls_bit_for_bit(self):
        rng = np.random.default_rng(2307)
        thresholds = [float(t) for t in np.geomspace(1e-4, 0.5, 12)] + [0.9]
        window = ev.MatchWindow(1, 2)
        for _ in range(20):
            length = int(rng.integers(20, 200))
            a = rng.uniform(size=(int(rng.integers(1, 6)), length)) ** 3
            b = rng.uniform(size=(int(rng.integers(1, 6)), length)) ** 5
            truth = ev.AlarmSeries.of(rng.integers(0, length, size=rng.integers(0, 20)))
            stacked = ev.pr_curves(np.vstack([a, b]), truth, window, thresholds)
            separate = [ev.pr_curves(x, truth, window, thresholds) for x in (a, b)]
            for got, parts in zip(stacked, zip(*separate)):
                assert got.tobytes() == np.concatenate(parts).tobytes()


class TestPRCurvesBlocks:
    """`pr_curves` matches a block of series at a time within a cell
    budget; the blocking must not change a bit, and its peak memory must
    not grow with the number of series."""

    def test_blocks_equal_one_unblocked_call(self, monkeypatch):
        rng = np.random.default_rng(1502)
        for window in (ev.MatchWindow(1, 2), ev.MatchWindow.default_for("daily")):
            for _ in range(15):
                n_series = int(rng.integers(1, 12))
                length = int(rng.integers(1, 300))
                p = rng.uniform(size=(n_series, length)) ** 4
                thresholds = [float(t) for t in rng.uniform(1e-4, 0.99, rng.integers(1, 9))]
                # truth spans clipped at both ends, some wholly outside
                truth = ev.AlarmSeries.of(rng.integers(-20, length + 20, size=rng.integers(0, 30)))
                monkeypatch.setattr(ev, "_MATCH_BLOCK_CELLS", 10**12)
                whole = ev.pr_curves(p, truth, window, thresholds)
                rows = np.zeros(length, dtype=bool)
                for t in truth.period_indices:
                    rows[max(t - window.before, 0) : t + window.after + 1] = True
                cells = (int(rows.sum()) + 1) * len(thresholds)
                # one series per block, then ragged blocks of 2, 3 and 5
                for per_block in (0, 2, 3, 5):
                    monkeypatch.setattr(ev, "_MATCH_BLOCK_CELLS", per_block * cells)
                    blocked = ev.pr_curves(p, truth, window, thresholds)
                    for got, want in zip(blocked, whole):
                        assert got.tobytes() == want.tobytes()

    @staticmethod
    def peaks(truths) -> list:
        """Peak traced memory of `pr_curves` on 220 and 2,200 series of 392
        periods, scored against `truths(n_series)`."""
        rng = np.random.default_rng(392)
        thresholds = [float(t) for t in np.geomspace(1e-4, 0.5, 10)]
        peaks = []
        for n_series in (220, 2_200):
            p = rng.uniform(size=(n_series, 392)) ** 4
            truth = truths(n_series)
            tracemalloc.start()
            try:
                ev.pr_curves(p, truth, ev.MatchWindow(1, 2), thresholds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peaks

    # truth alarms every fourth period, so their windows cover every period
    EVERY_FOURTH = tuple(range(1, 392, 4))

    def test_peak_memory_does_not_grow_with_series(self):
        """Only the (S, K) results grow with S, not the alarm mask or the
        next-alarm table."""
        peaks = self.peaks(lambda n_series: ev.AlarmSeries(self.EVERY_FOURTH))
        assert peaks[1] <= 1.5 * peaks[0], peaks

    def test_peak_memory_does_not_grow_with_series_of_per_row_truths(self):
        """With a different truth for every row, the span bounds do not
        grow with S either: they are built a block at a time."""
        peaks = self.peaks(
            lambda n_series: [
                ev.AlarmSeries(self.EVERY_FOURTH[: 98 - s % 7] + (392 + s,))
                for s in range(n_series)
            ]
        )
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestPRCurvesPerRowTruth:
    """With one truth per row, `pr_curves` equals one call per row, bit for
    bit, whatever the other rows' truths cover."""

    @staticmethod
    def per_row_calls(p, truths, window, thresholds):
        calls = [ev.pr_curves(row[None, :], t, window, thresholds) for row, t in zip(p, truths)]
        return tuple(np.concatenate(part) for part in zip(*calls))

    def test_equals_one_call_per_row(self, monkeypatch):
        rng = np.random.default_rng(2016)
        for _ in range(60):
            n_series = int(rng.integers(1, 9))
            length = int(rng.integers(1, 60))
            thresholds = [float(t) for t in rng.uniform(1e-3, 0.99, rng.integers(1, 6))]
            window = ev.MatchWindow(int(rng.integers(0, 4)), int(rng.integers(0, 4)))
            p = rng.uniform(size=(n_series, length)) ** 3
            # a row with no alarms, an empty truth, and truth partly or
            # wholly outside the series; some rows share a truth
            p[int(rng.integers(n_series))] = 1.0
            pool = [ev.AlarmSeries(()), ev.AlarmSeries((-9, length + 9))] + [
                ev.AlarmSeries.of(rng.integers(-3, length + 3, size=rng.integers(1, 12)))
                for _ in range(3)
            ]
            truths = [pool[int(i)] for i in rng.integers(len(pool), size=n_series)]
            want = self.per_row_calls(p, truths, window, thresholds)
            for budget in (10**12, 1):  # one block, then one series a block
                monkeypatch.setattr(ev, "_MATCH_BLOCK_CELLS", budget)
                got = ev.pr_curves(p, truths, window, thresholds)
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes()
            for row, t, got in zip(p, truths, curve_points(thresholds, *got)):
                assert got == oracles.pr_points_by_matching(row, t, window, thresholds)

    def test_one_shared_truth_per_row_equals_the_shared_call(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=(6, 80)) ** 4
        truth = ev.AlarmSeries.of(rng.integers(0, 80, size=10))
        window = ev.MatchWindow(1, 2)
        shared = ev.pr_curves(p, truth, window, [0.01, 0.2])
        per_row = ev.pr_curves(p, [truth] * 6, window, (0.01, 0.2))
        for a, b in zip(shared, per_row):
            assert a.tobytes() == b.tobytes()

    def test_empty_truths_and_no_alarms(self):
        p = np.array([[0.01, 0.9, 0.01], [1.0, 1.0, 1.0]])
        truths = [ev.AlarmSeries(()), ev.AlarmSeries((1,))]
        precision, recall = ev.pr_curves(p, truths, ev.MatchWindow(0, 0), [0.05])
        # no truth: recall 1; no alarms: precision 1 and recall 0
        assert precision.tolist() == [[0.0], [1.0]]
        assert recall.tolist() == [[1.0], [0.0]]

    def test_truth_count_and_type_checked(self):
        p = np.full((2, 5), 0.5)
        window = ev.MatchWindow(1, 1)
        with pytest.raises(DomainError, match="3 truth series given for 2 rows"):
            ev.pr_curves(p, [ev.AlarmSeries((1,))] * 3, window, [0.1])
        with pytest.raises(DomainError, match="truth must be an AlarmSeries"):
            ev.pr_curves(p, [ev.AlarmSeries((1,)), (1,)], window, [0.1])


class TestRecallAtFdr:
    def test_qualifying_point_found(self):
        assert ev.recall_at_fdr([1.0, 0.85], [0.8, 0.95], 0.1) >= 0.8

    def test_no_qualifying_point_gives_zero(self):
        assert ev.recall_at_fdr([0.7, 0.8], [0.9, 0.99], 0.1) == 0.0

    def test_linear_scan_oracle_and_monotonicity(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            precision = rng.uniform(size=8)
            recall = rng.uniform(size=8)
            prev = None
            for fdr in (0.5, 0.3, 0.2, 0.1, 0.05, 0.0):
                got = ev.recall_at_fdr(precision, recall, fdr)
                want = max(
                    [r for p, r in zip(precision, recall) if p >= 1 - fdr], default=0.0
                )
                assert got == want
                if prev is not None:
                    assert got <= prev
                prev = got

    def test_rows_equal_scalar_max_over_matching_points(self):
        rng = np.random.default_rng(515)
        thresholds = [0.01, 0.05, 0.1, 0.2, 0.5, 0.8]
        for _ in range(100):
            length = int(rng.integers(1, 30))
            p = rng.uniform(size=(int(rng.integers(1, 6)), length)) ** 3
            truth = ev.AlarmSeries.of(rng.integers(0, length, size=rng.integers(0, 6)))
            window = ev.MatchWindow(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            precision, recall = ev.pr_curves(p, truth, window, thresholds)
            for fdr in (0.0, 0.1, 0.5, 1.0):
                got = ev.recall_at_fdr(precision, recall, fdr)
                assert got.shape == (p.shape[0],)
                for row, value in zip(p, got.tolist()):
                    points = oracles.pr_points_by_matching(row, truth, window, thresholds)
                    want = max([r for _, q, r in points if q >= 1.0 - fdr], default=0.0)
                    assert value == want

    def test_empty_curve_rejected(self):
        for empty in ([], np.ones((3, 0)), 0.5):
            with pytest.raises(DomainError, match="empty curve"):
                ev.recall_at_fdr(empty, empty, 0.1)

    def test_domain(self):
        curve = np.full((2, 3), 0.5)
        for fdr in (-0.1, 1.1, float("nan")):
            with pytest.raises(DomainError, match="fdr"):
                ev.recall_at_fdr(curve, curve, fdr)
        for bad in (float("nan"), -0.1, 1.5):
            broken = curve.copy()
            broken[1, 2] = bad
            with pytest.raises(DomainError, match="precision/recall"):
                ev.recall_at_fdr(broken, curve, 0.1)
            with pytest.raises(DomainError, match="precision/recall"):
                ev.recall_at_fdr(curve, broken, 0.1)
        with pytest.raises(DomainError, match="shape"):
            ev.recall_at_fdr(curve, curve[:, :2], 0.1)


class TestF1:
    def test_goldens(self):
        assert ev.f1(1.0, 1.0) == 1.0
        assert ev.f1(0.5, 0.5) == 0.5
        assert ev.f1(0.9, 0.95) == pytest.approx(2 * 0.855 / 1.85, abs=1e-15)
        assert ev.f1(0.0, 0.0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            ev.f1(1.2, 0.5)
        for bad in (float("nan"), -0.1, 1.5):
            with pytest.raises(DomainError, match="precision/recall"):
                ev.f1([0.5, bad], [0.5, 0.5])
            with pytest.raises(DomainError, match="precision/recall"):
                ev.f1([0.5, 0.5], [bad, 0.5])
        with pytest.raises(DomainError, match="shape"):
            ev.f1([0.5, 0.5], [0.5])

    def test_elementwise_equals_python_formula_bit_for_bit(self):
        rng = np.random.default_rng(808)
        precision = rng.uniform(size=(7, 9))
        recall = rng.uniform(size=(7, 9))
        precision[rng.uniform(size=precision.shape) < 0.3] = 0.0
        recall[rng.uniform(size=recall.shape) < 0.3] = 0.0
        precision[0, :3] = recall[0, :3] = 0.0
        got = ev.f1(precision, recall)
        want = [
            [2.0 * p * r / (p + r) if p + r != 0.0 else 0.0 for p, r in zip(prow, rrow)]
            for prow, rrow in zip(precision.tolist(), recall.tolist())
        ]
        assert got.shape == precision.shape
        assert got.tobytes() == np.array(want).tobytes()
