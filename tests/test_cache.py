"""Unit tests for the array controller caches."""

import pytest

from repro.storage.cache import ReadCache, WriteBackCache


class TestReadCache:
    def make(self, lines=4, line_blocks=128, prefetch=8):
        return ReadCache(
            capacity_bytes=lines * line_blocks * 512,
            line_blocks=line_blocks,
            prefetch_lines=prefetch,
        )

    def test_miss_then_hit(self):
        cache = self.make()
        assert not cache.lookup(0, 8)
        cache.insert(0, 128)          # a full line becomes resident
        assert cache.lookup(0, 8)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_partial_insert_populates_nothing(self):
        """Sub-line transfers cannot validate a line (the asymmetry
        that favours large-I/O workloads on track-granular caches)."""
        cache = self.make()
        cache.insert(0, 8)
        assert not cache.lookup(0, 8)

    def test_hit_requires_every_line(self):
        cache = self.make()
        cache.insert(0, 128)          # line 0 only
        assert not cache.lookup(120, 16)  # spans lines 0 and 1

    def test_lru_eviction(self):
        cache = self.make(lines=2)
        cache.insert(0, 128)          # line 0
        cache.insert(128, 128)        # line 1
        cache.lookup(0, 1)            # touch line 0 -> line 1 is LRU
        cache.insert(256, 128)        # line 2 evicts line 1
        assert cache.lookup(0, 1)
        assert not cache.lookup(128, 1)

    def test_insert_spans_lines(self):
        cache = self.make()
        cache.insert(0, 256)          # lines 0 and 1
        assert cache.lookup(0, 1)
        assert cache.lookup(200, 1)

    def test_invalidate(self):
        cache = self.make()
        cache.insert(0, 128)
        cache.invalidate(0, 1)
        assert not cache.lookup(0, 1)

    def test_prefetch_hint_on_sequential_pattern(self):
        cache = self.make(prefetch=8)
        assert cache.prefetch_hint(0) is None   # nothing recent
        cache.lookup(0, 128)                    # notes access ending line 0
        hint = cache.prefetch_hint(128)         # next line continues
        assert hint == 8 * 128

    def test_no_hint_for_random_pattern(self):
        cache = self.make()
        cache.lookup(0, 8)
        assert cache.prefetch_hint(1_000_000) is None

    def test_hit_rate(self):
        cache = self.make()
        cache.insert(0, 128)
        cache.lookup(0, 8)
        cache.lookup(10_000, 8)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ReadCache(capacity_bytes=0)


class TestWriteBackCache:
    def test_accept_until_full(self):
        cache = WriteBackCache(capacity_bytes=1024)
        assert cache.accept(512)
        assert cache.accept(512)
        assert not cache.accept(1)
        assert cache.accepted == 2
        assert cache.rejected == 1

    def test_destage_frees_space(self):
        cache = WriteBackCache(capacity_bytes=1024)
        cache.accept(1024)
        cache.destaged(512)
        assert cache.accept(512)
        assert cache.dirty_bytes == 1024

    def test_over_destage_rejected(self):
        cache = WriteBackCache(capacity_bytes=1024)
        cache.accept(100)
        with pytest.raises(ValueError):
            cache.destaged(200)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            WriteBackCache(0)
