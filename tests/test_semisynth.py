import datetime
import math
from fractions import Fraction

import numpy as np
import pytest

from fedsurv import semisynth as ss
from fedsurv.errors import ConfigError, DomainError
from fedsurv.federation import FederationConfig, run_federation

import oracles

D0 = datetime.date(2024, 1, 1)


def counts(values, period="daily", site_id="src"):
    return ss.CountSeries(
        site_id, period, ss.date_range(D0, len(values), period), tuple(values)
    )


def prevalence(rates, period="daily"):
    return ss.PrevalenceSeries(period, ss.date_range(D0, len(rates), period), tuple(rates))


class TestTypes:
    def test_count_series_validation(self):
        with pytest.raises(DomainError):
            counts([1, -2, 3])
        with pytest.raises(DomainError):
            counts([1.5, 2, 3])
        with pytest.raises(ConfigError):
            counts([1, 2], period="monthly")
        with pytest.raises(DomainError):
            ss.CountSeries("s", "daily", ss.date_range(D0, 3, "daily"), (1, 2))

    def test_timeline_spacing_enforced(self):
        ts = (D0, D0 + datetime.timedelta(days=2))
        with pytest.raises(DomainError):
            ss.CountSeries("s", "daily", ts, (1, 2))
        # the same gap is valid under no cadence
        weekly = ss.date_range(D0, 3, "weekly")
        assert ss.CountSeries("s", "weekly", weekly, (1, 2, 3)).length == 3
        with pytest.raises(DomainError):
            ss.CountSeries("s", "daily", weekly, (1, 2, 3))

    def test_prevalence_rejects_negative_rate(self):
        with pytest.raises(DomainError):
            prevalence([1.0, -0.5])
        with pytest.raises(DomainError):
            prevalence([1.0, float("nan")])

    def test_share_vector_validation(self):
        with pytest.raises(DomainError):
            ss.ShareVector((0.6, 0.6))
        with pytest.raises(DomainError):
            ss.ShareVector((1.2, -0.2))
        with pytest.raises(DomainError):
            ss.ShareVector(())
        assert ss.ShareVector.equal(4).shares == (0.25,) * 4


class TestMovingAverage:
    def test_constant_series_invariant(self):
        out = ss.moving_average(counts([5] * 5), 3)
        assert out.rates == (5.0,) * 5

    def test_window_one_is_identity(self):
        series = counts([3, 0, 9, 2])
        out = ss.moving_average(series, 1)
        assert out.rates == (3.0, 0.0, 9.0, 2.0)
        assert out.timestamps == series.timestamps

    def test_golden_window_longer_than_series(self):
        # all points fall back to trailing windows; oracle is exact rational
        # arithmetic over those windows
        values = [0, 7, 14, 7, 0]
        out = ss.moving_average(counts(values), 7)
        expected = [
            oracles.mean_fraction(values[max(0, i - 6) : i + 1]) for i in range(5)
        ]
        assert expected == [Fraction(0), Fraction(7, 2), Fraction(7), Fraction(7), Fraction(28, 5)]
        for got, want in zip(out.rates, expected):
            assert got == pytest.approx(float(want), abs=1e-15)

    def test_centered_interior_alignment(self):
        # a single spike must spread symmetrically, not lag
        out = ss.moving_average(counts([0, 0, 0, 10, 0, 0, 0]), 3)
        assert out.rates[2] == out.rates[4] == pytest.approx(10 / 3)
        assert out.rates[3] == pytest.approx(10 / 3)
        assert out.rates[1] == out.rates[5] == 0.0

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            ss.moving_average(counts([]), 3)
        with pytest.raises(DomainError):
            ss.moving_average(counts([1, 2, 3]), 0)
        for bad in (float("nan"), float("inf"), 2.5):
            with pytest.raises(DomainError):
                ss.moving_average(counts([1, 2, 3]), bad)

    def test_mean_preserved_within_edge_tolerance(self):
        rng = np.random.default_rng(90)
        for _ in range(25):
            n = int(rng.integers(20, 120))
            w = int(rng.integers(1, 10))
            values = [int(v) for v in rng.poisson(12.0, size=n)]
            out = ss.moving_average(counts(values), w)
            tol = (w / n) * max(values)
            assert abs(np.mean(out.rates) - np.mean(values)) <= tol


class TestPoissonSample:
    def test_zero_rates_give_zero_counts(self):
        out = ss.poisson_sample(prevalence([0.0] * 6), seed=1)
        assert out.counts == (0,) * 6

    def test_determinism(self):
        prev = prevalence([2.0, 5.0, 11.0, 3.5])
        a = ss.poisson_sample(prev, seed=987654321)
        b = ss.poisson_sample(prev, seed=987654321)
        c = ss.poisson_sample(prev, seed=987654322)
        assert a.counts == b.counts
        assert a.counts != c.counts

    @pytest.mark.parametrize("seed", [-1, 2.5, float("nan"), "7"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            ss.poisson_sample(prevalence([1.0, 2.0]), seed=seed)

    def test_sample_mean_tracks_rate(self):
        prev = prevalence([100.0] * 10_000)
        out = ss.poisson_sample(prev, seed=2024)
        assert abs(np.mean(out.counts) - 100.0) < 0.3

    def test_metadata_carried_through(self):
        prev = prevalence([1.0, 2.0], period="weekly")
        out = ss.poisson_sample(prev, seed=5, site_id="agg")
        assert (out.site_id, out.period, out.timestamps) == (
            "agg",
            "weekly",
            prev.timestamps,
        )

    def test_rate_past_numpy_limit_is_a_domain_error(self):
        # numpy draws at its limit and raises ValueError one step above it
        limit = ss._POISSON_MAX_RATE
        assert ss.poisson_sample(prevalence([limit, 1.0]), seed=3).counts[1] >= 0
        with pytest.raises(DomainError, match="Poisson rate"):
            ss.poisson_sample(prevalence([1.0, np.nextafter(limit, np.inf)]), seed=3)


class TestSplitMultinomial:
    def test_single_site_identity(self):
        src = counts([4, 0, 9, 2])
        (only,) = ss.split_multinomial(src, ss.ShareVector((1.0,)), seed=3)
        assert only.counts == src.counts
        assert only.timestamps == src.timestamps
        assert only.site_id == "src-1"

    def test_exact_conservation_every_period(self):
        rng = np.random.default_rng(44)
        src = counts([int(v) for v in rng.poisson(30.0, size=200)])
        shares = ss.ShareVector((0.5, 0.3, 0.15, 0.05))
        parts = ss.split_multinomial(src, shares, seed=77)
        assert len(parts) == 4
        for t in range(src.length):
            assert sum(p.counts[t] for p in parts) == src.counts[t]

    def test_moment_check_unbalanced_shares(self):
        shares = (0.65, 0.0875, 0.0875, 0.0875, 0.0875)
        src = counts([400] * 2000)
        parts = ss.split_multinomial(src, ss.ShareVector(shares), seed=11)
        total = sum(src.counts)
        for s_i, part in zip(shares, parts):
            sigma = math.sqrt(total * s_i * (1 - s_i)) / src.length
            assert abs(np.mean(part.counts) - s_i * 400) < 3 * sigma

    def test_zero_share_site_stays_empty(self):
        src = counts([50, 60, 70])
        parts = ss.split_multinomial(src, ss.ShareVector((0.0, 1.0)), seed=9)
        assert parts[0].counts == (0, 0, 0)
        assert parts[1].counts == src.counts

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ConfigError):
            ss.split_multinomial(counts([4, 5]), ss.ShareVector((0.5, 0.5)), seed=seed)

    def test_determinism(self):
        src = counts([25] * 40)
        sv = ss.ShareVector((0.7, 0.3))
        a = ss.split_multinomial(src, sv, seed=1234)
        b = ss.split_multinomial(src, sv, seed=1234)
        assert [p.counts for p in a] == [p.counts for p in b]

    def test_a_50_site_split_checks_its_timeline_once(self):
        src = counts([40] * 400, period="weekly")
        ss._check_timeline.cache_clear()
        parts = ss.split_multinomial(src, ss.ShareVector.equal(50), seed=2024)
        assert len(parts) == 50
        assert ss._check_timeline.cache_info()[:2] == (49, 1)  # hits, misses


class TestTimelineCoercion:
    def test_a_list_built_site_aligns_with_a_tuple_built_one(self):
        dates = ss.date_range(D0, 6, "weekly")
        listed = ss.CountSeries("a", "weekly", list(dates), (5, 6, 4, 5, 6, 13))
        tupled = ss.CountSeries("b", "weekly", dates, (5, 6, 4, 5, 6, 13))
        assert listed.timestamps == tupled.timestamps and isinstance(listed.timestamps, tuple)
        assert len(run_federation([listed, tupled], FederationConfig())) == 2
        rates = ss.PrevalenceSeries("weekly", list(dates), (1.0,) * 6)
        assert rates.timestamps == dates

    @pytest.mark.parametrize(
        "cls, values", [(ss.CountSeries, (1, 2)), (ss.PrevalenceSeries, (1.0, 2.0))]
    )
    def test_a_bad_timeline_raises_on_every_call(self, cls, values):
        ts = [D0, D0 + datetime.timedelta(days=2)]
        args = ("s",) if cls is ss.CountSeries else ()
        for _ in range(2):
            with pytest.raises(DomainError, match="strictly increasing with daily spacing"):
                cls(*args, "daily", ts, values)


class TestEmptyDraws:
    """numpy's samplers take an empty input as it is: the draw has the
    dtype and shape of any other, and the stream does not advance."""

    def test_empty_poisson_and_multinomial_draws(self, monkeypatch):
        generator, generators = ss._generator, []

        def recorded(seed):
            generators.append(generator(seed))
            return generators[-1]

        monkeypatch.setattr(ss, "_generator", recorded)
        pooled = ss._poisson_counts(prevalence([]), seed=5)
        table = ss._multinomial_table((), ss.ShareVector((0.5, 0.3, 0.2)), seed=5)
        assert (pooled.dtype, pooled.shape) == (np.int64, (0,))
        assert (table.dtype, table.shape) == (np.int64, (0, 3))
        first = generator(5).random()
        assert [g.random() for g in generators] == [first, first]


class TestScaleMagnitude:
    def test_identity_and_arithmetic(self):
        prev = prevalence([1.0, 2.0, 3.0])
        assert ss.scale_magnitude(prev, 1.0).rates == prev.rates
        assert ss.scale_magnitude(prev, 2.0).rates == (2.0, 4.0, 6.0)

    def test_nonpositive_multiplier_rejected(self):
        prev = prevalence([1.0])
        with pytest.raises(DomainError):
            ss.scale_magnitude(prev, 0.0)
        with pytest.raises(DomainError):
            ss.scale_magnitude(prev, -2.0)

    def test_sampling_mean_scales(self):
        prev = prevalence([80.0] * 4000)
        scaled = ss.scale_magnitude(prev, 0.1)
        out = ss.poisson_sample(scaled, seed=606)
        assert abs(np.mean(out.counts) - 8.0) < 3 * math.sqrt(8.0 / 4000)


class TestNormalizedEntropy:
    def test_equal_shares_hit_one(self):
        for n in (2, 3, 5, 16):
            assert ss.normalized_entropy(ss.ShareVector.equal(n)) == 1.0

    def test_degenerate_shares_hit_zero(self):
        assert ss.normalized_entropy((1.0, 0.0, 0.0, 0.0, 0.0)) == 0.0

    def test_golden_dominant_site_profile(self):
        shares = (0.65, 0.0875, 0.0875, 0.0875, 0.0875)
        direct = -sum(s * math.log(s) for s in shares) / math.log(5)
        got = ss.normalized_entropy(shares)
        assert got == pytest.approx(direct, abs=1e-14)
        assert got == pytest.approx(0.7038, abs=5e-4)
        assert 0.69 < got < 0.71

    def test_single_site_rejected(self):
        with pytest.raises(DomainError):
            ss.normalized_entropy((1.0,))
