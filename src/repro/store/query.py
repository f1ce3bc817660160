"""Range-query engine over stored epoch records.

Records are half-open time intervals ``[start_ns, end_ns)``; a query
``[t0, t1]`` (inclusive, in integer nanoseconds) selects every record
that overlaps it and then takes the *transitive closure*: the selected
span is widened to the union of the selected records and re-matched
until a fixpoint, so no unselected record overlaps the reported
covered span.  That closure is what makes compaction invisible:

    For any epoch sequence and any compaction schedule,
    ``query(t0, t1).service`` equals the bin-for-bin merge of exactly
    the **raw** epochs overlapping the returned covered span.

Proof sketch: every raw epoch lives inside exactly one stored record
(compaction only merges whole records), a record's span is contained in
the covered span iff it was selected (fixpoint), and the merge API is
exact and associative at every layer.  Because consecutive epochs abut
(``end_ns`` of one equals ``start_ns`` of the next) and records are
half-open, adjacency alone never chains the closure — only records that
genuinely straddle a selected span pull more in.  The identity is
Hypothesis-pinned in ``tests/test_store.py``.

:class:`QueryIndex` executes it: a reusable index over a fixed handle
set (the store caches one per mutation generation) whose selection runs
as numpy interval masks over pre-extracted bound arrays; the resulting
*cover* (chosen handles + covered span) is memoized per query window,
so the repeated/overlapping windows of a ``repro watch`` loop skip both
scan and closure.  Only the cover is cached — the merge always re-runs,
so every call returns a fresh, independently mutable service.

Merging goes through the codec's vectorized
:func:`~repro.store.codec.merge_collector_payloads` whenever the chosen
handles expose raw frame payloads (``raw()``), falling back to exact
per-record ``load()``/``merge()`` otherwise — the two are
bit-identical by construction.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as _np

from ..core.service import HistogramService
from .codec import merge_collector_payloads

__all__ = ["QueryIndex", "QueryResult"]

#: Distinct query windows whose covers a :class:`QueryIndex` memoizes.
COVER_CACHE_SIZE = 64


class QueryResult:
    """Outcome of a range query: a merged service plus its provenance."""

    __slots__ = ("service", "covered_start_ns", "covered_end_ns",
                 "records", "epochs")

    def __init__(self, service: HistogramService,
                 covered_start_ns: Optional[int],
                 covered_end_ns: Optional[int],
                 records: int, epochs: int):
        #: Exact merge of every selected record, one collector per disk.
        self.service = service
        #: Span actually covered (union of selected records), or
        #: ``(None, None)`` when nothing matched.
        self.covered_start_ns = covered_start_ns
        self.covered_end_ns = covered_end_ns
        #: Stored records merged (post-compaction granules).
        self.records = records
        #: Raw source epochs those records aggregate.
        self.epochs = epochs

    @property
    def disks(self) -> List[Tuple[str, str]]:
        """Sorted ``(vm, vdisk)`` keys present in the result."""
        return [key for key, _collector in self.service.collectors()]

    def to_dict(self) -> Dict:
        """JSON-ready document (per-disk snapshot dicts + provenance)."""
        return {
            "covered_start_ns": self.covered_start_ns,
            "covered_end_ns": self.covered_end_ns,
            "records": self.records,
            "epochs": self.epochs,
            "disks": {
                f"{vm}/{vdisk}": collector.to_dict()
                for (vm, vdisk), collector in self.service.collectors()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<QueryResult epochs={self.epochs} "
                f"records={self.records} disks={len(self.disks)} "
                f"span=[{self.covered_start_ns},{self.covered_end_ns})>")


def merge_handles(chosen: List) -> HistogramService:
    """Merge sorted chosen handles into a per-disk service.

    ``chosen`` must be sorted by ``(vm, vdisk, start_ns, end_ns, seq)``
    — a deterministic merge order.  Each disk's records are reduced
    straight from their raw frames by the vectorized codec merge,
    without intermediate collectors.
    """
    service: Optional[HistogramService] = None
    for key, group in groupby(chosen, key=lambda h: (h.vm, h.vdisk)):
        collector = merge_collector_payloads([h.raw() for h in group])
        if service is None:
            service = HistogramService(window_size=collector.window_size,
                                       time_slot_ns=collector.time_slot_ns)
        service.adopt(key, collector)
    return service if service is not None else HistogramService()


def _result(chosen: List, epochs: int) -> QueryResult:
    if not chosen:
        return QueryResult(HistogramService(), None, None, 0, 0)
    covered_start = min(h.start_ns for h in chosen)
    covered_end = max(h.end_ns for h in chosen)
    return QueryResult(merge_handles(chosen), covered_start, covered_end,
                       len(chosen), epochs)


class QueryIndex:
    """Reusable range-query index over a *fixed* set of record handles.

    Built once per store mutation generation
    (:meth:`HistogramStore.query` caches one and drops it on
    append/checkpoint/compact/retire), it pre-extracts every handle's
    interval bounds into numpy arrays so the closure fixpoint runs as
    vectorized interval masks, and memoizes the resulting cover per
    ``(start, end, vm, vdisk)`` window in a small LRU.  The merge is
    *never* cached: each :meth:`query` call re-merges the cover and
    returns a fresh service the caller may freely mutate.
    """

    def __init__(self, handles: Iterable):
        self.handles: List = list(handles)
        self._cover_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._vm_index: Dict[str, int] = {}
        self._vdisk_index: Dict[str, int] = {}
        n = len(self.handles)
        self._starts = _np.fromiter((h.start_ns for h in self.handles),
                                    dtype=_np.int64, count=n)
        self._ends = _np.fromiter((h.end_ns for h in self.handles),
                                  dtype=_np.int64, count=n)
        for attr, index in (("vm", self._vm_index),
                            ("vdisk", self._vdisk_index)):
            codes = _np.empty(n, dtype=_np.int32)
            for i, h in enumerate(self.handles):
                value = getattr(h, attr)
                code = index.get(value)
                if code is None:
                    code = index[value] = len(index)
                codes[i] = code
            if attr == "vm":
                self._vm_codes = codes
            else:
                self._vdisk_codes = codes

    # ------------------------------------------------------------------
    def _select(self, start_ns: int, end_ns: int, vm: Optional[str],
                vdisk: Optional[str]) -> List:
        """Fixpoint-select the cover as vectorized interval masks."""
        if vm is not None:
            code = self._vm_index.get(vm)
            if code is None:
                return []
            base = self._vm_codes == code
        else:
            base = None
        if vdisk is not None:
            code = self._vdisk_index.get(vdisk)
            if code is None:
                return []
            mask = self._vdisk_codes == code
            base = mask if base is None else base & mask
        # Half-open selection [q_start, q_end) with q_end = t1 + 1: a
        # record whose span touches the inclusive integer t1 is in, one
        # starting at t1 + 1 is out.
        q_start = start_ns
        q_end = end_ns + 1
        while True:
            sel = (self._starts < q_end) & (self._ends > q_start)
            if base is not None:
                sel &= base
            if not sel.any():
                return []
            new_start = min(q_start, int(self._starts[sel].min()))
            new_end = max(q_end, int(self._ends[sel].max()))
            if new_start == q_start and new_end == q_end:
                break
            q_start, q_end = new_start, new_end
        return [self.handles[i] for i in _np.nonzero(sel)[0]]

    def _cover(self, start_ns: int, end_ns: int, vm: Optional[str],
               vdisk: Optional[str]) -> Tuple[List, int]:
        """Memoized ``(sorted chosen, epochs)`` for one query window."""
        key = (start_ns, end_ns, vm, vdisk)
        cached = self._cover_cache.get(key)
        if cached is not None:
            self._cover_cache.move_to_end(key)
            return cached
        chosen = self._select(start_ns, end_ns, vm, vdisk)
        chosen.sort(key=lambda h: (h.vm, h.vdisk, h.start_ns, h.end_ns,
                                   h.seq))
        cover = (chosen, sum(h.records for h in chosen))
        self._cover_cache[key] = cover
        if len(self._cover_cache) > COVER_CACHE_SIZE:
            self._cover_cache.popitem(last=False)
        return cover

    def query(self, start_ns: int, end_ns: int,
              vm: Optional[str] = None,
              vdisk: Optional[str] = None) -> QueryResult:
        """Select, close over, and merge the records overlapping
        ``[start_ns, end_ns]`` (the module docstring's contract);
        ``vm``/``vdisk`` filter the disk set before selection."""
        if end_ns < start_ns:
            raise ValueError(
                f"query end {end_ns} precedes query start {start_ns}"
            )
        chosen, epochs = self._cover(start_ns, end_ns, vm, vdisk)
        return _result(chosen, epochs)
