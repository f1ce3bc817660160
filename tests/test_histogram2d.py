"""Unit tests for time-resolved histograms (the 'over time' figures)."""

import pytest

from repro.core.bins import BinScheme, LATENCY_US_BINS
from repro.core.histogram import Histogram
from repro.core.histogram2d import TimeSeriesHistogram
from repro.sim.engine import seconds


@pytest.fixture
def series():
    return TimeSeriesHistogram(BinScheme("s", (10, 20)), interval_ns=seconds(6))


class TestSlots:
    def test_insert_routes_to_time_slot(self, series):
        series.insert(seconds(1), 5)
        series.insert(seconds(7), 15)
        assert series.slot(0).counts == [1, 0, 0]
        assert series.slot(1).counts == [0, 1, 0]

    def test_slot_boundary_is_left_inclusive(self, series):
        series.insert(seconds(6), 5)  # exactly at the boundary -> slot 1
        assert series.slot(1).count == 1
        assert series.slot(0).count == 0

    def test_num_slots_spans_to_last_populated(self, series):
        series.insert(seconds(20), 5)
        assert series.num_slots == 4  # slots 0..3

    def test_empty_interior_slot_is_empty_histogram(self, series):
        series.insert(seconds(0), 5)
        series.insert(seconds(13), 5)
        assert series.slot(1).count == 0

    def test_negative_time_rejected(self, series):
        with pytest.raises(ValueError):
            series.insert(-1, 5)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            TimeSeriesHistogram(LATENCY_US_BINS, interval_ns=0)


class TestAggregation:
    def test_collapse_equals_flat_histogram(self, series):
        flat = Histogram(series.scheme)
        values = [(seconds(t), v) for t, v in
                  [(0, 5), (1, 15), (7, 25), (13, 5), (30, 15)]]
        for time_ns, value in values:
            series.insert(time_ns, value)
            flat.insert(value)
        collapsed = series.collapse()
        assert collapsed.counts == flat.counts
        assert collapsed.count == flat.count

    def test_count_totals(self, series):
        series.insert(seconds(0), 5)
        series.insert(seconds(7), 5)
        assert series.count == 2

    def test_matrix_shape(self, series):
        series.insert(seconds(0), 5)
        series.insert(seconds(13), 25)
        matrix = series.matrix()
        assert len(matrix) == 3
        assert all(len(row) == series.scheme.num_bins for row in matrix)

    def test_slot_counts_series(self, series):
        series.insert(seconds(0), 5)
        series.insert(seconds(0), 5)
        series.insert(seconds(7), 5)
        assert series.slot_counts() == [2, 1]


class TestRateVariation:
    def test_steady_rate_has_low_variation(self, series):
        for slot in range(10):
            for _ in range(100):
                series.insert(slot * seconds(6), 5)
        assert series.rate_variation() == 0.0

    def test_swinging_rate_detected(self, series):
        counts = [100, 100, 115, 100, 85, 100, 100]
        for slot, n in enumerate(counts):
            for _ in range(n):
                series.insert(slot * seconds(6), 5)
        # skip slot 0 warmup and the final partial slot
        variation = series.rate_variation(skip_slots=1)
        assert variation == pytest.approx((115 - 85) / 100, rel=0.05)

    def test_too_few_slots_returns_zero(self, series):
        series.insert(0, 5)
        assert series.rate_variation() == 0.0


class TestSerde:
    def test_to_dict_includes_slots(self, series):
        series.insert(seconds(0), 5)
        data = series.to_dict()
        assert data["interval_ns"] == seconds(6)
        assert "0" in data["slots"]
