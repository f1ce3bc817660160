"""Unit tests for the online histogram."""

import pytest

from repro.core.bins import BinScheme, IO_LENGTH_BINS, SEEK_DISTANCE_BINS
from repro.core.histogram import Histogram


@pytest.fixture
def small():
    return Histogram(BinScheme("s", (10, 20, 30)))


class TestInsert:
    def test_counts_land_in_right_bins(self, small):
        small.insert_many([5, 10, 15, 25, 99])
        assert small.counts == [2, 1, 1, 1]

    def test_count_total_track_inserts(self, small):
        small.insert_many([5, 15])
        assert small.count == 2
        assert small.total == 20

    def test_min_max(self, small):
        small.insert_many([7, 3, 22])
        assert small.min == 3
        assert small.max == 22

    def test_empty_stats(self, small):
        assert small.count == 0
        assert small.mean == 0.0
        assert small.min is None and small.max is None

    def test_mean(self, small):
        small.insert_many([10, 20])
        assert small.mean == 15.0

    def test_negative_values_supported(self):
        hist = Histogram(SEEK_DISTANCE_BINS)
        hist.insert(-1_000_000)
        hist.insert(1_000_000)
        assert hist.counts[0] == 1          # underflow side
        assert hist.counts[-1] == 1         # overflow bin


class TestDerivedStats:
    def test_fraction_in(self, small):
        small.insert_many([5, 15, 15, 25])
        assert small.fraction_in(10, 20) == pytest.approx(0.5)

    def test_fraction_in_empty(self, small):
        assert small.fraction_in(0, 100) == 0.0

    def test_fraction_in_whole_range(self, small):
        small.insert_many([1, 2, 3])
        assert small.fraction_in(float("-inf"), float("inf")) == 1.0

    def test_mode_bin_and_label(self, small):
        small.insert_many([15, 15, 5])
        assert small.mode_bin() == 1
        assert small.mode_label() == "20"

    def test_mode_tie_prefers_lowest(self, small):
        small.insert_many([5, 15])
        assert small.mode_bin() == 0

    def test_percentile_bin(self, small):
        small.insert_many([5] * 50 + [15] * 40 + [25] * 10)
        assert small.percentile_bin(0.5) == 0
        assert small.percentile_bin(0.9) == 1
        assert small.percentile_bin(0.99) == 2

    def test_percentile_upper_bound(self, small):
        small.insert_many([5] * 9 + [25])
        assert small.percentile_upper_bound(0.5) == 10.0

    def test_percentile_validation(self, small):
        small.insert(5)
        with pytest.raises(ValueError):
            small.percentile_bin(0.0)
        with pytest.raises(ValueError):
            small.percentile_bin(1.5)

    def test_percentile_empty_rejected(self, small):
        with pytest.raises(ValueError):
            small.percentile_bin(0.5)

    def test_nonzero_items(self, small):
        small.insert_many([5, 15, 15])
        assert small.nonzero_items() == [("10", 1), ("20", 2)]


class TestAlgebra:
    def test_merge_adds_counts(self, small):
        other = Histogram(small.scheme)
        small.insert_many([5, 15])
        other.insert_many([15, 99])
        merged = small.merge(other)
        assert merged.counts == [1, 2, 0, 1]
        assert merged.count == 4
        assert merged.min == 5
        assert merged.max == 99

    def test_merge_scheme_mismatch_rejected(self, small):
        with pytest.raises(ValueError):
            small.merge(Histogram(IO_LENGTH_BINS))

    def test_merge_with_empty(self, small):
        small.insert(5)
        merged = small.merge(Histogram(small.scheme))
        assert merged == small

    def test_merge_does_not_mutate(self, small):
        other = Histogram(small.scheme)
        small.insert(5)
        other.insert(15)
        small.merge(other)
        assert small.count == 1
        assert other.count == 1

    def test_reset(self, small):
        small.insert_many([5, 15])
        small.reset()
        assert small.count == 0
        assert small.counts == [0, 0, 0, 0]
        assert small.min is None

    def test_copy_is_independent(self, small):
        small.insert(5)
        dup = small.copy()
        dup.insert(15)
        assert small.count == 1
        assert dup.count == 2


class TestSerde:
    def test_equality(self, small):
        other = Histogram(small.scheme)
        assert small == other
        small.insert(5)
        assert small != other
