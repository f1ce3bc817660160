"""Per-disk streaming ingest state for the live daemon.

A :class:`DiskStream` turns an *unbounded, chunked* command stream into
exactly the collector state that a one-shot offline replay
(:func:`repro.parallel.trace_io.replay_columns`, itself pinned to the
scalar oracle :func:`repro.core.tracing.replay_into_collector`) of the
whole stream would produce.  Two pieces of state make that
exact:

* **Outstanding recovery.**  Offline replay computes the in-flight
  count at each issue as ``i - bisect_left(sorted_completion_times,
  issue_time)`` over the *whole* trace.  Streaming, a record ``j`` can
  only satisfy ``complete_j < issue_i`` if ``issue_j <= complete_j <
  issue_i`` — i.e. ``j`` precedes ``i`` in issue order, so it has
  already arrived.  The stream therefore carries the lifetime issue
  count, a count of completions permanently below the issue watermark,
  and the small sorted set of completion times still at or above it;
  each batch is one vectorized ``searchsorted`` against that set.

* **Epoch continuation.**  :meth:`seal` hands the current collector to
  the epoch ledger and remembers it as a *seed*; the next batch lazily
  creates a fresh collector via
  :meth:`~repro.core.collector.VscsiStatsCollector.fresh_continuation`,
  which inherits the previous end block, last arrival time and
  look-behind ring.  The values inserted across all epochs are then
  exactly the single-run values, and since every exported statistic is
  additive, merging the epoch snapshots is byte-identical to never
  having rotated.  (The outstanding-recovery state lives here, outside
  the collector, so it survives rotation for the same reason.)

Frames for one disk must arrive in non-decreasing ``(issue, serial)``
order across frames (within a frame the stream sorts for you); an
out-of-order frame raises :class:`~repro.live.protocol.ProtocolError`
and is dropped whole, leaving prior state untouched.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as _np

from ..core.collector import DEFAULT_TIME_SLOT_NS, VscsiStatsCollector
from ..core.window import DEFAULT_WINDOW_SIZE
from ..parallel.trace_io import TraceColumns
from .protocol import ProtocolError, sort_columns_for_stream

__all__ = ["DiskStream"]


class DiskStream:
    """Streaming characterization state for one ``(vm, vdisk)`` pair."""

    __slots__ = (
        "window_size", "time_slot_ns", "collector",
        "records", "rejected_batches", "dropped_records",
        "_seed", "_issued", "_done_below", "_pending", "_watermark",
    )

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE,
                 time_slot_ns: int = DEFAULT_TIME_SLOT_NS):
        self.window_size = window_size
        self.time_slot_ns = time_slot_ns
        #: Live collector for the current epoch (lazily created).
        self.collector: Optional[VscsiStatsCollector] = None
        #: Lifetime records ingested (across every epoch).
        self.records = 0
        #: Batches rejected for protocol violations (out-of-order).
        self.rejected_batches = 0
        #: Records dropped by backpressure (counted by the owner).
        self.dropped_records = 0
        self._seed: Optional[VscsiStatsCollector] = None
        self._issued = 0          # lifetime issues ingested
        self._done_below = 0      # completions permanently < watermark
        self._pending: List[int] = []  # sorted completes >= watermark
        self._watermark: Optional[Tuple[int, int]] = None

    # ------------------------------------------------------------------
    def _ensure_collector(self) -> VscsiStatsCollector:
        if self.collector is None:
            if self._seed is not None:
                self.collector = self._seed.fresh_continuation()
            else:
                self.collector = VscsiStatsCollector(
                    window_size=self.window_size,
                    time_slot_ns=self.time_slot_ns,
                )
        return self.collector

    def ingest(self, columns: TraceColumns) -> int:
        """Apply one batch of completed commands; returns the count.

        The batch is sorted internally by ``(issue, serial)``; its
        first command must not precede the stream watermark.  On a
        violation the whole batch is rejected (no partial state).
        """
        n = len(columns)
        if not n:
            return 0
        ordered = sort_columns_for_stream(columns)
        first = (int(ordered.issue_ns[0]), int(ordered.serial[0]))
        if self._watermark is not None and first < self._watermark:
            self.rejected_batches += 1
            raise ProtocolError(
                f"out-of-order batch: first command (issue={first[0]}, "
                f"serial={first[1]}) precedes the stream watermark "
                f"(issue={self._watermark[0]}, serial={self._watermark[1]})"
            )
        outstanding, last_issue = self._outstanding(ordered)

        # The collector hooks apply the one size rule themselves: a
        # small frame loops the scalar hooks, a large one takes the
        # numpy kernels, to the same state either way.
        collector = self._ensure_collector()
        collector.on_issue_batch(
            ordered.issue_ns, ordered.is_read, ordered.lba,
            ordered.nblocks, outstanding,
        )
        # Completion order never affects the snapshot (latency bins and
        # time slots are additive), so completions go in batch order.
        collector.on_complete_batch(
            ordered.complete_ns, ordered.is_read,
            _np.subtract(ordered.complete_ns, ordered.issue_ns),
        )

        self._issued += n
        self.records += n
        self._watermark = (last_issue, int(ordered.serial[-1]))
        return n

    def _outstanding(self, ordered: TraceColumns):
        issue = _np.asarray(ordered.issue_ns, dtype=_np.int64)
        complete = _np.sort(_np.asarray(ordered.complete_ns,
                                        dtype=_np.int64))
        pending = _np.asarray(self._pending, dtype=_np.int64)
        candidates = _np.concatenate([pending, complete])
        candidates.sort(kind="stable")
        below = _np.searchsorted(candidates, issue, side="left")
        outstanding = (
            self._issued + _np.arange(len(issue), dtype=_np.int64)
            - (self._done_below + below)
        )
        last_issue = int(issue[-1])
        drop = int(_np.searchsorted(candidates, last_issue, side="left"))
        self._done_below += drop
        self._pending = candidates[drop:].tolist()
        return outstanding, last_issue

    # ------------------------------------------------------------------
    def seal(self) -> Optional[VscsiStatsCollector]:
        """Close the current epoch for this disk.

        Returns the epoch's collector (``None`` if the disk saw no
        commands this epoch) and arms lazy creation of the next
        epoch's continuation collector.  The outstanding-recovery
        state is stream-lifetime and is *not* reset.
        """
        collector = self.collector
        if collector is not None:
            self._seed = collector
            self.collector = None
        return collector

    @property
    def epoch_records(self) -> int:
        """Records ingested in the current (unsealed) epoch."""
        return self.collector.commands if self.collector is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DiskStream records={self.records} "
                f"pending_completes={len(self._pending)}>")
