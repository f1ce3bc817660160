"""Unit tests for the guest page cache."""

import pytest

from repro.guest.pagecache import PageCache


@pytest.fixture
def cache():
    return PageCache(capacity_bytes=4 * 4096)  # 4 pages


class TestLookup:
    def test_miss_lists_missing_pages(self, cache):
        assert cache.lookup(1, 0, 8192) == [0, 1]

    def test_fill_then_hit(self, cache):
        cache.fill(1, [0, 1])
        assert cache.lookup(1, 0, 8192) == []
        assert cache.hits == 2

    def test_partial_hit(self, cache):
        cache.fill(1, [0])
        assert cache.lookup(1, 0, 8192) == [1]

    def test_files_are_distinct(self, cache):
        cache.fill(1, [0])
        assert cache.lookup(2, 0, 4096) == [0]

    def test_page_span_math(self, cache):
        # Bytes [4000, 4100) touch pages 0 and 1.
        assert cache.lookup(1, 4000, 100) == [0, 1]


class TestEviction:
    def test_lru_eviction_order(self, cache):
        cache.fill(1, [0, 1, 2, 3])
        cache.lookup(1, 0, 4096)          # touch page 0
        cache.fill(1, [4])                # evicts page 1 (LRU)
        assert cache.lookup(1, 0, 4096) == []
        assert cache.lookup(1, 4096, 4096) == [1]

    def test_dirty_eviction_reported(self, cache):
        cache.write(1, 0, 4096)
        evicted = cache.fill(1, [1, 2, 3, 4])
        assert evicted == [(1, 0)]
        assert cache.evicted_dirty == 1

    def test_clean_eviction_not_reported(self, cache):
        cache.fill(1, [0])
        evicted = cache.fill(1, [1, 2, 3, 4])
        assert evicted == []

    def test_resident_bounded_by_capacity(self, cache):
        cache.fill(1, list(range(100)))
        assert cache.resident_pages == 4


class TestDirtyTracking:
    def test_write_marks_dirty(self, cache):
        cache.write(1, 0, 8192)
        assert cache.dirty_pages() == {(1, 0), (1, 1)}

    def test_clean_clears_dirty(self, cache):
        cache.write(1, 0, 4096)
        cache.clean(1, 0)
        assert cache.dirty_pages() == set()

    def test_clean_missing_page_is_noop(self, cache):
        cache.clean(9, 9)

    def test_rewrite_keeps_dirty(self, cache):
        cache.write(1, 0, 4096)
        cache.fill(1, [0])     # fill of a dirty page must not lose dirt
        assert cache.dirty_pages() == {(1, 0)}

    def test_hit_rate(self, cache):
        cache.fill(1, [0])
        cache.lookup(1, 0, 4096)
        cache.lookup(1, 4096, 4096)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PageCache(capacity_bytes=100)
