"""Guest page / buffer cache model.

§3.6 leans on the existence of a guest buffer cache ("Assuming the
guest OS has a buffer cache, reuse distances will be non-trivially
long"), and the workloads differ in how much caching happens above the
block layer.  This is a straightforward LRU page cache with dirty-page
tracking; filesystems consult it before issuing block reads and use it
to absorb buffered writes until writeback.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Set, Tuple

__all__ = ["PageCache", "DEFAULT_PAGE_BYTES"]

#: 4 KiB pages, the guest kernels' common denominator.
DEFAULT_PAGE_BYTES = 4096


class PageCache:
    """LRU page cache keyed by (file_id, page_index)."""

    def __init__(self, capacity_bytes: int,
                 page_bytes: int = DEFAULT_PAGE_BYTES):
        if capacity_bytes < page_bytes:
            raise ValueError(
                f"capacity {capacity_bytes} smaller than one page "
                f"({page_bytes})"
            )
        self.page_bytes = page_bytes
        self.capacity_pages = capacity_bytes // page_bytes
        self._pages: "OrderedDict[Tuple[int, int], bool]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evicted_dirty = 0

    # ------------------------------------------------------------------
    def _pages_of(self, offset: int, nbytes: int) -> range:
        first = offset // self.page_bytes
        last = (offset + nbytes - 1) // self.page_bytes
        return range(first, last + 1)

    def lookup(self, file_id: int, offset: int, nbytes: int) -> List[int]:
        """Return the page indices of ``[offset, offset+nbytes)`` that
        MISS; hits are LRU-touched and counted."""
        missing: List[int] = []
        for page in self._pages_of(offset, nbytes):
            key = (file_id, page)
            if key in self._pages:
                self._pages.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
                missing.append(page)
        return missing

    def fill(self, file_id: int, pages: List[int]) -> List[Tuple[int, int]]:
        """Insert clean pages; returns evicted dirty (file_id, page)."""
        return self._insert(file_id, pages, dirty=False)

    def write(self, file_id: int, offset: int, nbytes: int) -> List[Tuple[int, int]]:
        """Buffer a write: mark pages dirty; returns evicted dirty pages."""
        return self._insert(
            file_id, list(self._pages_of(offset, nbytes)), dirty=True
        )

    def _insert(self, file_id: int, pages: List[int],
                dirty: bool) -> List[Tuple[int, int]]:
        evicted: List[Tuple[int, int]] = []
        for page in pages:
            key = (file_id, page)
            if key in self._pages:
                self._pages[key] = self._pages[key] or dirty
                self._pages.move_to_end(key)
            else:
                self._pages[key] = dirty
                if len(self._pages) > self.capacity_pages:
                    old_key, old_dirty = self._pages.popitem(last=False)
                    if old_dirty:
                        self.evicted_dirty += 1
                        evicted.append(old_key)
        return evicted

    # ------------------------------------------------------------------
    def dirty_pages(self) -> Set[Tuple[int, int]]:
        """All currently dirty (file_id, page) keys."""
        return {key for key, dirty in self._pages.items() if dirty}

    def clean(self, file_id: int, page: int) -> None:
        """Mark a page clean after writeback (no-op if evicted)."""
        key = (file_id, page)
        if key in self._pages:
            self._pages[key] = False

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PageCache pages={len(self._pages)}/{self.capacity_pages} "
            f"hit_rate={self.hit_rate:.2f}>"
        )
