"""Trace replay: turn a captured vSCSI trace back into offered load.

The tracing framework (§1) exists so analyses can happen offline; its
natural counterpart is *replay* — regenerating the captured workload
against a different (or reconfigured) storage stack to answer "what
would this workload see on that array?".  Two timing models:

* ``timing="recorded"`` (open loop): each command is issued at its
  captured issue timestamp (optionally time-scaled).  Burstiness and
  interarrival structure are preserved exactly, so the replayed
  arrival-side histograms (size, seek, interarrival) match the
  original bit for bit; only the environment-dependent metrics
  (latency, and outstanding counts under different latencies) change —
  the §3.7 taxonomy again.
* ``timing="closed"``: commands are re-issued with a fixed number in
  flight, probing the target's capacity rather than reproducing the
  original tempo.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..core.tracing import TraceRecord
from ..hypervisor.vscsi import VScsiDevice
from ..scsi.request import ScsiRequest
from ..sim.engine import Engine
from .base import Workload

__all__ = ["TraceReplayWorkload"]


class TraceReplayWorkload(Workload):
    """Replays :class:`TraceRecord` streams against a virtual disk."""

    name = "trace-replay"

    def __init__(self, engine: Engine, device: VScsiDevice,
                 records: Iterable[TraceRecord],
                 timing: str = "recorded",
                 time_scale: float = 1.0,
                 outstanding: int = 8):
        if timing not in ("recorded", "closed"):
            raise ValueError(
                f"timing must be 'recorded' or 'closed', got {timing!r}"
            )
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        if outstanding < 1:
            raise ValueError(f"outstanding must be >= 1, got {outstanding}")
        self.engine = engine
        self.device = device
        from ..parallel.trace_io import TraceColumns, columns_to_records

        if isinstance(records, TraceColumns):
            records = columns_to_records(records)
        self.records: List[TraceRecord] = sorted(
            records, key=lambda r: (r.issue_ns, r.serial)
        )
        self.timing = timing
        self.time_scale = time_scale
        self.outstanding = outstanding
        self._next_index = 0
        self._running = False
        self.completed = 0

    @classmethod
    def from_trace_file(cls, engine: Engine, device: VScsiDevice,
                        path, **kwargs) -> "TraceReplayWorkload":
        """Replay a captured ``VSCSITR1`` binary trace file.

        Loads through the zero-copy columnar reader
        (:func:`repro.parallel.read_binary_columns`), so the per-record
        cost is one batch conversion rather than a ``struct.unpack``
        per command.
        """
        from ..parallel.trace_io import read_binary_columns

        return cls(engine, device, read_binary_columns(path), **kwargs)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("replay already started")
        if not self.records:
            raise ValueError("nothing to replay: empty trace")
        self._running = True
        if self.timing == "recorded":
            # Every issue event is scheduled here — before any runtime
            # completion event — so same-time issues fire in record
            # order and before same-time completions.
            origin = self.records[0].issue_ns
            for record in self.records:
                self.engine.schedule(
                    int((record.issue_ns - origin) * self.time_scale),
                    lambda record=record: self._issue(record))
        else:
            for _ in range(min(self.outstanding, len(self.records))):
                self._issue_next_closed()

    def stop(self) -> None:
        self._running = False

    # ------------------------------------------------------------------
    def _issue(self, record: TraceRecord,
               on_done=None) -> Optional[ScsiRequest]:
        if not self._running:
            return None
        request = ScsiRequest(record.is_read, record.lba, record.nblocks,
                              tag="replay")
        request.on_complete(self._on_complete if on_done is None else on_done)
        self.device.issue(request)
        return request

    def _issue_next_closed(self) -> None:
        if self._next_index >= len(self.records):
            return
        record = self.records[self._next_index]
        self._next_index += 1
        self._issue(record, on_done=self._closed_complete)

    def _on_complete(self, _request: ScsiRequest) -> None:
        self.completed += 1

    def _closed_complete(self, _request: ScsiRequest) -> None:
        self.completed += 1
        if self._running:
            self._issue_next_closed()

    @property
    def finished(self) -> bool:
        return self.completed >= len(self.records)
