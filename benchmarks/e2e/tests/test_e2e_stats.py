"""The percentile rule, quartile spread, and the comparison verdicts."""

import statistics

import pytest

import stats


def test_percentile_needs_ten_samples_beyond_it():
    for fraction, enough in ((0.90, 100), (0.95, 200), (0.99, 1000)):
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(list(range(enough - 1)), fraction)
        value = stats.percentile(list(range(enough)), fraction)
        assert value == enough - 11  # exactly ten samples above it
        assert stats.samples_beyond(enough, fraction) == 10


def test_percentile_sorts_and_counts_beyond():
    values = [5.0] * 90 + [100.0] * 11
    values.reverse()
    assert stats.percentile(values, 0.5) == 5.0
    assert stats.percentile(values, 0.90) == 100.0
    assert stats.percentile_or_zero(values[:50], 0.90) == 0.0


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 30.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    worse = stats.compare(base, [v * 1.2 for v in base], "lower", 0.1)
    assert worse["verdict"] == "worse"
    assert worse["ratio"] == pytest.approx(1.2)
    assert worse["ratio_base"] == pytest.approx(100.0)
    same = stats.compare(base, [v * 1.03 for v in base], "lower", 0.1)
    assert same["verdict"] == "within-bound"
    better = stats.compare(base, [v * 0.5 for v in base], "lower", 0.1)
    assert better["verdict"] == "better"
    # "higher is better": a drop beyond the bound is worse.
    drop = stats.compare(base, [v * 0.8 for v in base], "higher", 0.1)
    assert drop["verdict"] == "worse"
    # Base noisier than the bound, overlapping runs: unresolved.
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert stats.compare(noisy, [v * 1.02 for v in noisy], "lower",
                         0.1)["verdict"] == "unresolved"
    # Per-layer metrics carry no bound.
    assert stats.compare(base, base, "lower", None)["verdict"] == "reported"


def test_histogram_quantile_interpolates_inside_the_bucket():
    snapshot = {"boundaries": [1.0, 2.0, 4.0], "buckets": [50, 40, 10],
                "overflow": 0, "count": 100, "total": 150.0}
    assert stats.histogram_quantile(snapshot, 0.5) == pytest.approx(1.0)
    assert stats.histogram_quantile(snapshot, 0.7) == pytest.approx(1.5)
    assert stats.histogram_quantile(snapshot, 0.95) == pytest.approx(3.0)
    assert stats.histogram_quantile({}, 0.99) == 0.0
    before = dict(snapshot, buckets=[50, 0, 0], count=50, total=25.0)
    delta = stats.histogram_delta(snapshot, before)
    assert delta["buckets"] == [0, 40, 10] and delta["count"] == 50
