"""Time-resolved histograms — the "over time" figures.

Figure 4(d) (outstanding I/Os over time) and Figure 6(c) (latency over
time) plot a separate histogram for each fixed wall-clock interval
("Time (in 6 sec intervals)" on the paper's axes).  A
:class:`TimeSeriesHistogram` maintains one :class:`Histogram` per
interval, opening new intervals lazily as time advances.  Space grows
with the number of *intervals*, not the number of commands, so the
constant-space-per-command property of the online approach is kept.

The class doubles as the general 2-D histogram primitive: the first
dimension is time (fixed-width bins) and the second is any
:class:`BinScheme`.  The paper notes (§3.6) that full metric-vs-metric
2-D correlation is out of scope for the online service — that remains
true here; arbitrary 2-D correlation lives in trace post-processing
(:mod:`repro.analysis.offline`).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as _np

from .bins import BinScheme
from .histogram import Histogram, _plain

__all__ = ["TimeSeriesHistogram"]


def _as_array(values) -> _np.ndarray:
    """``values`` as an array that keeps every element exact: a list
    numpy would widen to floats stays Python ints (object dtype)."""
    if isinstance(values, _np.ndarray):
        return values
    arr = _np.asarray(values)
    return arr if arr.dtype.kind in "iu" else _np.array(values, dtype=object)


class TimeSeriesHistogram:
    """Per-interval histograms over a fixed interval width.

    Parameters
    ----------
    scheme:
        Bin scheme of the value dimension.
    interval_ns:
        Width of each time slot in simulated nanoseconds (the paper's
        figures use 6-second slots).
    name:
        Optional display name.
    """

    def __init__(self, scheme: BinScheme, interval_ns: int,
                 name: Optional[str] = None):
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        self.scheme = scheme
        self.interval_ns = int(interval_ns)
        self.name = name if name is not None else f"{scheme.name}_over_time"
        self._slots: Dict[int, Histogram] = {}
        self._max_slot = -1

    # ------------------------------------------------------------------
    def insert(self, time_ns: int, value: int) -> None:
        """Record ``value`` observed at simulated time ``time_ns``."""
        if time_ns < 0:
            raise ValueError(f"negative time {time_ns}")
        slot = time_ns // self.interval_ns
        hist = self._slots.get(slot)
        if hist is None:
            hist = Histogram(self.scheme, name=f"{self.name}[{slot}]")
            self._slots[slot] = hist
        hist.insert(value)
        if slot > self._max_slot:
            self._max_slot = slot

    def insert_many(self, times_ns, values) -> None:
        """Record a batch of ``(time, value)`` observations.

        Slots are computed as one array; a batch that lands in a single
        slot (the common case — collector batches are short relative
        to the 6-second intervals) hands its values straight to that
        slot histogram's batch kernel, and one that straddles slots is
        grouped by a stable sort of its slots (completion times arrive
        unsorted) and split where the slot changes.  A negative time
        raises before any slot changes.  Times numpy cannot hold as
        integers loop :meth:`insert`.
        """
        n = len(times_ns)
        if not n:
            return
        times = _np.asarray(times_ns)
        exact = (times.dtype.kind == "i"
                 or times.dtype.kind == "u" and times.dtype.itemsize <= 4)
        lo = int(times.min()) if exact else min(_plain(times_ns))
        if lo < 0:
            raise ValueError(f"negative time {lo}")
        if not exact:
            for time_ns, value in zip(_plain(times_ns), _plain(values)):
                self.insert(time_ns, value)
            return
        interval = self.interval_ns
        lo_slot = lo // interval
        hi_slot = int(times.max()) // interval
        if lo_slot == hi_slot:
            self._slot_histogram(lo_slot).insert_many(values)
        else:
            slots = times // interval
            order = _np.argsort(slots, kind="stable")
            ordered = slots[order]
            starts = _np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            cuts = _np.concatenate([[0], starts, [n]]).tolist()
            picked = _as_array(values)[order]
            # Slots open in order of first appearance, as a scalar
            # loop opens them.
            groups = sorted(range(len(cuts) - 1),
                            key=lambda g: int(order[cuts[g]]))
            for g in groups:
                self._slot_histogram(int(ordered[cuts[g]])).insert_many(
                    picked[cuts[g]:cuts[g + 1]])
        if hi_slot > self._max_slot:
            self._max_slot = hi_slot

    def _slot_histogram(self, slot: int) -> Histogram:
        """The live histogram for ``slot``, creating it if needed."""
        hist = self._slots.get(slot)
        if hist is None:
            hist = Histogram(self.scheme, name=f"{self.name}[{slot}]")
            self._slots[slot] = hist
        return hist

    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Number of time slots spanned (including empty interior ones)."""
        return self._max_slot + 1

    @property
    def count(self) -> int:
        """Total observations across all slots."""
        return sum(h.count for h in self._slots.values())

    def slot(self, index: int) -> Histogram:
        """Histogram for time slot ``index`` (empty histogram if none)."""
        hist = self._slots.get(index)
        if hist is None:
            return Histogram(self.scheme, name=f"{self.name}[{index}]")
        return hist

    def slots(self) -> List[Histogram]:
        """All slot histograms from slot 0 through the last populated slot."""
        return [self.slot(index) for index in range(self.num_slots)]

    def collapse(self) -> Histogram:
        """Merge every slot into one whole-run histogram.

        A test invariant: ``collapse()`` must equal the plain 1-D
        histogram fed the same stream.
        """
        merged = Histogram(self.scheme, name=self.name)
        for hist in self._slots.values():
            merged = merged.merge(hist)
        return merged

    def copy(self) -> "TimeSeriesHistogram":
        """Independent deep copy (snapshots for merge/reporting)."""
        dup = TimeSeriesHistogram(self.scheme, self.interval_ns,
                                  name=self.name)
        dup._slots = {slot: hist.copy() for slot, hist in self._slots.items()}
        dup._max_slot = self._max_slot
        return dup

    def merge(self, other: "TimeSeriesHistogram") -> "TimeSeriesHistogram":
        """Return a new time series combining this one and ``other``.

        Both must share the value bin scheme and the interval width.
        Slots are merged pair-wise (union of populated slots), so the
        merge is exact, associative and commutative — any partition of
        an observation stream by source (e.g. per virtual disk)
        recombines to byte-identical :meth:`to_dict` output.  The
        merged series keeps this series' display name.
        """
        if self.scheme != other.scheme:
            raise ValueError(
                f"cannot merge schemes {self.scheme.name!r} and "
                f"{other.scheme.name!r}"
            )
        if self.interval_ns != other.interval_ns:
            raise ValueError(
                f"cannot merge interval {self.interval_ns} with "
                f"{other.interval_ns}"
            )
        merged = self.copy()
        for slot, hist in other._slots.items():
            mine = merged._slots.get(slot)
            if mine is None:
                dup = hist.copy()
                dup.name = f"{self.name}[{slot}]"
                merged._slots[slot] = dup
            else:
                merged._slots[slot] = mine.merge(hist)
        if other._max_slot > merged._max_slot:
            merged._max_slot = other._max_slot
        return merged

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TimeSeriesHistogram)
            and self.scheme == other.scheme
            and self.interval_ns == other.interval_ns
            and self._slots == other._slots
        )

    def matrix(self) -> List[List[int]]:
        """Rows = time slots, columns = value bins (the paper's surface)."""
        return [list(self.slot(index).counts) for index in range(self.num_slots)]

    def slot_counts(self) -> List[int]:
        """Observation count per slot — the I/O-rate-over-time series.

        §4.2 reads the rate variation ("as much as 15% over a 2 min
        period") straight off this series.
        """
        return [self.slot(index).count for index in range(self.num_slots)]

    def rate_variation(self, skip_slots: int = 1) -> float:
        """Peak-to-trough rate variation as a fraction of the mean.

        ``skip_slots`` drops warm-up intervals at the front, and the
        final (usually partial) interval is always dropped.  Returns
        0.0 when fewer than two full slots remain.
        """
        series = self.slot_counts()[skip_slots:-1] if self.num_slots > skip_slots + 1 else []
        if len(series) < 2:
            return 0.0
        mean = sum(series) / len(series)
        if mean == 0:
            return 0.0
        return (max(series) - min(series)) / mean

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-dict form for JSON export."""
        return {
            "name": self.name,
            "scheme": self.scheme.name,
            "edges": list(self.scheme.edges),
            "unit": self.scheme.unit,
            "interval_ns": self.interval_ns,
            "slots": {str(k): v.to_dict() for k, v in self._slots.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TimeSeriesHistogram {self.name!r} slots={self.num_slots} "
            f"n={self.count}>"
        )
