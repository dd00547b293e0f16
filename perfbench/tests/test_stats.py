import pytest

import stats


def test_p99_needs_ten_samples_beyond_it():
    # 1000 samples: nearest-rank p99 is the 990th, with 10 above it
    pct, value, n = stats.tail(range(1, 1001))
    assert (pct, value, n) == (99.0, 990, 1000)


def test_too_few_samples_for_p99_falls_back_down_the_ladder():
    # 999 samples leave only 9 above p99; p90 (rank 900) has 99 above it
    pct, value, n = stats.tail(range(1, 1000))
    assert (pct, value, n) == (90.0, 900, 999)


def test_tiny_sample_reports_the_maximum_with_its_count():
    pct, value, n = stats.tail([3.0, 1.0, 2.0])
    assert (pct, value, n) == (100.0, 3.0, 3)


def test_samples_beyond_counts_strictly_above_the_rank():
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.samples_beyond(20, 50.0) == 10
    assert stats.samples_beyond(19, 50.0) == 9


def test_nearest_rank_rejects_empty_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50.0)


def test_spread_is_interquartile_range_over_median():
    values = [10.0] * 4 + [11.0] * 2 + [12.0] * 4
    q1, _q2, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 11.0)
