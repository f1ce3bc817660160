"""External (non-virtualized) initiator load on shared storage.

§3.7: "even if only one VM is loaded up on an ESX host, isolation
cannot be guaranteed since the target storage might be busy servicing
requests from unrelated (perhaps non-virtualized) initiator hosts."

An :class:`ExternalInitiator` drives the :class:`StorageArray`
directly — *below* the hypervisor, bypassing every vSCSI hook — so its
traffic is invisible to the histograms while still consuming spindle
time.  The test suite uses it to assert exactly that §3.7 property:
the monitored VM's latency histogram shifts while its size/seek
histograms (and the command count attributable to it) do not.
"""

from __future__ import annotations

import random as _random
from typing import Optional

from ..scsi.commands import SECTOR_BYTES
from ..sim.engine import Engine
from ..storage.array import StorageArray
from .base import Workload

__all__ = ["ExternalInitiator"]


class ExternalInitiator(Workload):
    """Closed-loop raw load on an array from outside the hypervisor.

    Parameters
    ----------
    engine / array:
        Where to run and what to load.
    region_start_blocks / region_blocks:
        The LUN region this host owns (defaults to the array's tail
        half, away from any virtual-disk extents allocated from 0).
    io_bytes / read_fraction / random_fraction / outstanding:
        Iometer-style pattern parameters.
    """

    name = "external-initiator"

    def __init__(self, engine: Engine, array: StorageArray,
                 region_start_blocks: Optional[int] = None,
                 region_blocks: Optional[int] = None,
                 io_bytes: int = 8192,
                 read_fraction: float = 1.0,
                 random_fraction: float = 1.0,
                 outstanding: int = 32,
                 rng: Optional[_random.Random] = None):
        if io_bytes % SECTOR_BYTES:
            raise ValueError(f"io_bytes {io_bytes} not sector-aligned")
        if outstanding < 1:
            raise ValueError(f"outstanding must be >= 1, got {outstanding}")
        self.engine = engine
        self.array = array
        self.io_sectors = io_bytes // SECTOR_BYTES
        half = array.capacity_blocks // 2
        self.region_start = (
            region_start_blocks if region_start_blocks is not None else half
        )
        self.region_blocks = (
            region_blocks
            if region_blocks is not None
            else array.capacity_blocks - self.region_start
        )
        if self.region_start + self.region_blocks > array.capacity_blocks:
            raise ValueError("region exceeds the LUN")
        if self.region_blocks < self.io_sectors:
            raise ValueError("region smaller than one I/O")
        self.read_fraction = read_fraction
        self.random_fraction = random_fraction
        self.outstanding = outstanding
        self.rng = rng if rng is not None else _random.Random(0)
        self._cursor = 0
        self._running = False
        self.completed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            raise RuntimeError("initiator already started")
        self._running = True
        for _ in range(self.outstanding):
            self._issue_next()

    def stop(self) -> None:
        self._running = False

    def _next_op(self) -> tuple:
        """Draw the next ``(lba, nblocks, is_read, on_done)`` access."""
        span = self.region_blocks - self.io_sectors
        if self.random_fraction and self.rng.random() < self.random_fraction:
            offset = self.rng.randrange(0, span + 1)
            offset -= offset % self.io_sectors
        else:
            offset = self._cursor
            self._cursor += self.io_sectors
            if self._cursor > span:
                self._cursor = 0
        is_read = (
            self.read_fraction >= 1.0
            or self.rng.random() < self.read_fraction
        )
        return (
            self.region_start + offset,
            self.io_sectors,
            is_read,
            self._on_complete,
        )

    def _issue_next(self) -> None:
        self.array.submit(*self._next_op())

    def _on_complete(self) -> None:
        self.completed += 1
        if self._running:
            self._issue_next()
