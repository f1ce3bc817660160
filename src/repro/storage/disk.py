"""Mechanical disk service-time model.

The interference results in the paper (Fig. 6) come down to two facts
about spinning disks:

1. A *sequential* read stream is served from the drive's firmware
   read-ahead buffer at interface speed — tens of microseconds per
   command — because the head never moves.
2. The moment an unrelated stream interleaves, the head is pulled
   away, the read-ahead window is invalidated, and every "sequential"
   command now pays a full seek plus rotational latency — milliseconds.

The model therefore tracks head position and a read-ahead window, and
computes per-command service time as::

    buffer hit:   overhead + bytes / interface_rate
    otherwise:    overhead + seek(distance) + rotation/2 + bytes / media_rate

Seek time uses the standard square-root curve between track-to-track
and full-stroke times.  Commands are serviced one at a time in FIFO
order, so queueing delay under concurrency emerges naturally.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from ..sim.engine import Engine, NS_PER_SEC

__all__ = ["DiskModel", "Disk"]


@dataclass(frozen=True)
class DiskModel:
    """Drive parameters.

    Defaults approximate a mid-2000s 10k-rpm FC enterprise drive of
    the kind populating the paper's EMC arrays.
    """

    capacity_blocks: int = 286_749_488        # ~146 GB of 512 B blocks
    rpm: int = 10_000
    track_to_track_ms: float = 0.4
    full_stroke_ms: float = 9.5
    media_mbps: float = 80.0                  # sustained media rate, MB/s
    interface_mbps: float = 400.0             # FC interface rate, MB/s
    readahead_blocks: int = 2_048             # 1 MB firmware read-ahead
    overhead_us: float = 60.0                 # per-command controller overhead
    hit_overhead_us: float = 10.0             # overhead on a buffer hit

    @property
    def half_rotation_ns(self) -> int:
        """Average rotational latency (half a revolution) in ns."""
        return int(60.0 / self.rpm / 2.0 * NS_PER_SEC)

    def seek_ns(self, distance_blocks: int) -> int:
        """Seek time for a head move of ``distance_blocks``.

        Square-root interpolation between track-to-track and
        full-stroke; zero distance costs nothing.
        """
        if distance_blocks <= 0:
            return 0
        fraction = min(1.0, distance_blocks / self.capacity_blocks)
        seek_ms = self.track_to_track_ms + (
            self.full_stroke_ms - self.track_to_track_ms
        ) * math.sqrt(fraction)
        return int(seek_ms * 1e6)

    def media_transfer_ns(self, nbytes: int) -> int:
        """Time to move ``nbytes`` off the platter."""
        return int(nbytes / (self.media_mbps * 1e6) * NS_PER_SEC)

    def interface_transfer_ns(self, nbytes: int) -> int:
        """Time to move ``nbytes`` over the interface (buffer hits)."""
        return int(nbytes / (self.interface_mbps * 1e6) * NS_PER_SEC)


class Disk:
    """A single spindle servicing one command at a time.

    ``submit(lba, nblocks, is_read, on_done)`` queues a command; the
    callback fires when the platter transfer finishes.  Two queueing
    disciplines are modeled:

    * ``"fifo"`` — strict arrival order;
    * ``"sstf"`` — shortest-seek-time-first, the effect of SCSI tagged
      command queueing: the firmware picks the queued command nearest
      the head.  Starvation is bounded by an age limit (a command that
      has waited ``sstf_starvation_limit`` services is taken next
      regardless), as real firmware does.
    """

    def __init__(self, engine: Engine, model: Optional[DiskModel] = None,
                 name: str = "disk", scheduling: str = "fifo",
                 sstf_starvation_limit: int = 16):
        if scheduling not in ("fifo", "sstf"):
            raise ValueError(
                f"scheduling must be 'fifo' or 'sstf', got {scheduling!r}"
            )
        self.engine = engine
        self.model = model if model is not None else DiskModel()
        self.name = name
        self.scheduling = scheduling
        self.sstf_starvation_limit = sstf_starvation_limit
        self._head_block = 0
        self._readahead_end: Optional[int] = None  # exclusive end of the window
        # Entries: (lba, nblocks, is_read, on_done, age_counter_base).
        self._queue: Deque[Tuple[int, int, bool, Callable[[], None], int]] = deque()
        self._busy = False
        self._services = 0
        # Lifetime counters.
        self.commands = 0
        self.buffer_hits = 0
        self.busy_ns = 0
        self.max_queue = 0

    # ------------------------------------------------------------------
    def submit(self, lba: int, nblocks: int, is_read: bool,
               on_done: Callable[[], None]) -> None:
        """Queue one command for service."""
        if not 0 <= lba < self.model.capacity_blocks:
            raise ValueError(f"LBA {lba} outside disk {self.name!r}")
        self._queue.append((lba, nblocks, is_read, on_done, self._services))
        if len(self._queue) > self.max_queue:
            self.max_queue = len(self._queue)
        if not self._busy:
            self._service_next()

    # ------------------------------------------------------------------
    def _pick_next(self) -> Tuple[int, int, bool, Callable[[], None], int]:
        """Dequeue per the scheduling discipline."""
        if self.scheduling == "fifo" or len(self._queue) == 1:
            return self._queue.popleft()
        # SSTF with starvation bound: the oldest command wins once it
        # has been passed over for too many service slots.
        oldest = self._queue[0]
        if self._services - oldest[4] >= self.sstf_starvation_limit:
            return self._queue.popleft()
        best_index = 0
        best_distance = None
        for index, entry in enumerate(self._queue):
            distance = abs(entry[0] - self._head_block)
            if best_distance is None or distance < best_distance:
                best_distance = distance
                best_index = index
        self._queue.rotate(-best_index)
        chosen = self._queue.popleft()
        self._queue.rotate(best_index)
        return chosen

    def _service_next(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        lba, nblocks, is_read, on_done, _age = self._pick_next()
        self._services += 1
        service_ns = self._service_time_ns(lba, nblocks, is_read)
        self.commands += 1
        self.busy_ns += service_ns

        def finish() -> None:
            self._busy = False
            on_done()
            self._service_next()

        self.engine.schedule(service_ns, finish)

    def _service_time_ns(self, lba: int, nblocks: int, is_read: bool) -> int:
        model = self.model
        nbytes = nblocks * 512
        end = lba + nblocks

        hit = (
            is_read
            and self._readahead_end is not None
            and self._head_block <= lba
            and end <= self._readahead_end
        )
        if hit:
            self.buffer_hits += 1
            # Stream continues: slide the window forward from this read.
            self._head_block = end
            self._readahead_end = end + model.readahead_blocks
            return int(model.hit_overhead_us * 1_000) + model.interface_transfer_ns(
                nbytes
            )

        distance = abs(lba - self._head_block)
        service = int(model.overhead_us * 1_000) + model.media_transfer_ns(nbytes)
        if distance:
            service += model.seek_ns(distance) + model.half_rotation_ns
        self._head_block = end
        if is_read:
            # Firmware read-ahead re-arms behind any read.
            self._readahead_end = end + model.readahead_blocks
        else:
            # A write repositions the head and trashes the window.
            self._readahead_end = None
        return service

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Disk {self.name!r} q={self.queue_depth} cmds={self.commands}>"
