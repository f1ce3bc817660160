"""Array controller caches.

Two caches matter to the paper's results:

* The **read cache** with sequential prefetch.  Its presence is why the
  dual-VM experiment showed nothing on the Symmetrix ("likely due to
  the very large cache"), and disabling it on the CLARiiON CX3 is what
  exposed the 40x interference effect (§5.3).
* The **write-back cache**, which absorbs writes at cache latency and
  destages in the background ("problems with the write-back cache
  strategy" is one of the diagnoses §3.4 enables).

Both are modeled at cache-line granularity with LRU replacement.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

__all__ = ["ReadCache", "WriteBackCache", "DEFAULT_LINE_BLOCKS"]

#: Cache line size: 128 blocks = 64 KB, a typical array track size.
DEFAULT_LINE_BLOCKS = 128


class ReadCache:
    """LRU read cache with sequential-stream prefetch hinting.

    The cache stores line numbers (array LBA // line size).  A read is
    a hit only if *every* line it touches is resident.  The array asks
    :meth:`prefetch_hint` whether an access continues a recent stream;
    if so it fetches ahead and :meth:`insert`\\ s the lines on disk
    completion.
    """

    def __init__(self, capacity_bytes: int,
                 line_blocks: int = DEFAULT_LINE_BLOCKS,
                 prefetch_lines: int = 16,
                 stream_tracker_size: int = 64):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.line_blocks = line_blocks
        self.capacity_lines = max(1, capacity_bytes // (line_blocks * 512))
        self.prefetch_lines = prefetch_lines
        self._lines: "OrderedDict[int, None]" = OrderedDict()
        # Recent access positions for sequential-stream detection.
        self._recent_ends: "OrderedDict[int, None]" = OrderedDict()
        self._stream_tracker_size = stream_tracker_size
        # Counters.
        self.hits = 0
        self.misses = 0
        self.prefetches = 0

    # ------------------------------------------------------------------
    def line_of(self, lba: int) -> int:
        """Cache line index containing block ``lba``."""
        return lba // self.line_blocks

    def lookup(self, lba: int, nblocks: int) -> bool:
        """Hit test for a read; updates LRU order and hit counters."""
        first = self.line_of(lba)
        last = self.line_of(lba + nblocks - 1)
        resident = all(line in self._lines for line in range(first, last + 1))
        if resident:
            for line in range(first, last + 1):
                self._lines.move_to_end(line)
            self.hits += 1
        else:
            self.misses += 1
        self._note_access(lba, nblocks)
        return resident

    def insert(self, lba: int, nblocks: int) -> None:
        """Make the lines *fully covered* by ``[lba, lba+nblocks)``
        resident.

        A line is only valid when all of its data is present, so a
        transfer smaller than a line populates nothing — the reason a
        4-8 KB random workload cannot warm a track-granular cache
        while large transfers (prefetch, inflated reads) can.
        """
        first_byte_line = self.line_of(lba)
        first = (
            first_byte_line
            if lba == first_byte_line * self.line_blocks
            else first_byte_line + 1
        )
        end = lba + nblocks
        last = self.line_of(end - 1)
        if end != (last + 1) * self.line_blocks:
            last -= 1
        for line in range(first, last + 1):
            if line in self._lines:
                self._lines.move_to_end(line)
            else:
                self._lines[line] = None
                if len(self._lines) > self.capacity_lines:
                    self._lines.popitem(last=False)

    def invalidate(self, lba: int, nblocks: int) -> None:
        """Drop lines overlapping a write (write-through invalidation)."""
        first = self.line_of(lba)
        last = self.line_of(lba + nblocks - 1)
        for line in range(first, last + 1):
            self._lines.pop(line, None)

    # ------------------------------------------------------------------
    def prefetch_hint(self, lba: int) -> Optional[int]:
        """If ``lba`` continues a recent stream, how many blocks to fetch
        ahead (from the end of the access); otherwise ``None``."""
        line = self.line_of(lba)
        if line in self._recent_ends or (line - 1) in self._recent_ends:
            self.prefetches += 1
            return self.prefetch_lines * self.line_blocks
        return None

    def _note_access(self, lba: int, nblocks: int) -> None:
        end_line = self.line_of(lba + nblocks - 1)
        self._recent_ends[end_line] = None
        self._recent_ends.move_to_end(end_line)
        while len(self._recent_ends) > self._stream_tracker_size:
            self._recent_ends.popitem(last=False)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReadCache lines={len(self._lines)}/{self.capacity_lines} "
            f"hit_rate={self.hit_rate:.2f}>"
        )


class WriteBackCache:
    """Bounded dirty-byte accounting for write-back behaviour.

    The array asks :meth:`accept` per write: if the dirty watermark
    allows, the write completes at cache latency and is destaged in
    the background (the array calls :meth:`destaged` when the backing
    disk write finishes).  When the cache is saturated, writes go
    straight to disk — the "cache capacity at the disk subsystem"
    failure mode §3.4 mentions.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.dirty_bytes = 0
        self.accepted = 0
        self.rejected = 0

    def accept(self, nbytes: int) -> bool:
        """Try to absorb a write of ``nbytes``."""
        if self.dirty_bytes + nbytes > self.capacity_bytes:
            self.rejected += 1
            return False
        self.dirty_bytes += nbytes
        self.accepted += 1
        return True

    def destaged(self, nbytes: int) -> None:
        """Background destage of ``nbytes`` finished."""
        self.dirty_bytes -= nbytes
        if self.dirty_bytes < 0:
            raise ValueError("destaged more bytes than were dirty")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WriteBackCache dirty={self.dirty_bytes}/{self.capacity_bytes}>"
