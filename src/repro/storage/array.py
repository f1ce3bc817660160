"""The storage array: spindles + RAID layout + controller caches.

A :class:`StorageArray` exports a single logical LUN.  The hypervisor
carves virtual-disk extents out of it (see
:mod:`repro.hypervisor.vdisk`), so multiple VMs naturally share the
spindles — the precondition for the paper's multi-VM interference
study (§3.7, §5.3).

Two presets reproduce Table 1 / §5.3:

* :func:`symmetrix` — RAID-5, very large read and write caches with
  aggressive prefetch.  On this box the dual-VM experiment shows no
  large latency change.
* :func:`clariion_cx3` — RAID-0 with a 2.5 GB read cache that can be
  disabled (``read_cache=False``), which is how the paper forced all
  I/Os to the spindles for Figure 6.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim.engine import Engine, us
from .cache import ReadCache, WriteBackCache
from .disk import Disk, DiskModel
from .raid import PhysicalOp, Raid0, Raid5, RaidLayout

__all__ = ["StorageArray", "symmetrix", "clariion_cx3"]


class StorageArray:
    """A block target servicing logical accesses against a RAID group.

    Parameters
    ----------
    engine:
        The simulation engine.
    layout:
        RAID layout mapping logical extents to spindle operations.
    disk_model:
        Parameters for every spindle in the group.
    read_cache / write_cache:
        Optional controller caches.
    transport_us:
        Fixed fabric round-trip added to every command (the 4 Gb SAN
        in Table 1).
    """

    def __init__(self, engine: Engine, layout: RaidLayout,
                 disk_model: Optional[DiskModel] = None,
                 read_cache: Optional[ReadCache] = None,
                 write_cache: Optional[WriteBackCache] = None,
                 cache_hit_us: float = 120.0,
                 transport_us: float = 50.0,
                 link_mbps: float = 400.0,
                 destage_batch: int = 16,
                 destage_interval_us: float = 50_000.0,
                 disk_scheduling: str = "fifo",
                 name: str = "array"):
        self.engine = engine
        self.layout = layout
        self.name = name
        model = disk_model if disk_model is not None else DiskModel()
        self.disks: List[Disk] = [
            Disk(engine, model, name=f"{name}.disk{i}",
                 scheduling=disk_scheduling)
            for i in range(layout.ndisks)
        ]
        self.read_cache = read_cache
        self.write_cache = write_cache
        self.cache_hit_ns = us(cache_hit_us)
        self.transport_ns = us(transport_us)
        self.link_mbps = link_mbps
        self.capacity_blocks = layout.capacity_blocks(model.capacity_blocks)
        # Lazy, LBA-sorted destaging of write-cache contents: real
        # controllers sort dirty tracks before writing them back, which
        # is what keeps random-write destage from saturating spindles.
        self.destage_batch = destage_batch
        self.destage_interval_ns = us(destage_interval_us)
        self._destage_pending: List[tuple] = []  # (lba, nblocks)
        self._destage_armed = False
        # Counters.
        self.reads = 0
        self.writes = 0
        self.read_cache_hits = 0
        self.write_cache_hits = 0
        self.destage_batches = 0

    # ------------------------------------------------------------------
    def submit(self, lba: int, nblocks: int, is_read: bool,
               on_done: Callable[[], None]) -> None:
        """Service one logical access; ``on_done`` fires at completion."""
        if lba < 0 or lba + nblocks > self.capacity_blocks:
            raise ValueError(
                f"access [{lba}, {lba + nblocks}) outside LUN of "
                f"{self.capacity_blocks} blocks"
            )
        if is_read:
            self.reads += 1
            self._submit_read(lba, nblocks, on_done)
        else:
            self.writes += 1
            self._submit_write(lba, nblocks, on_done)

    def _link_transfer_ns(self, nblocks: int) -> int:
        """Fabric transfer time for the payload (the 4 Gb SAN link) —
        why a 1 MB command takes visibly longer than a 64 KB one even
        when both are absorbed by cache (Figure 5(a))."""
        return int(nblocks * 512 / (self.link_mbps * 1e6) * 1e9)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _submit_read(self, lba: int, nblocks: int,
                     on_done: Callable[[], None]) -> None:
        cache = self.read_cache
        if cache is not None:
            if cache.lookup(lba, nblocks):
                self.read_cache_hits += 1
                self.engine.schedule(
                    self.cache_hit_ns + self._link_transfer_ns(nblocks),
                    on_done,
                )
                return
            prefetch_blocks = cache.prefetch_hint(lba)
        else:
            prefetch_blocks = None

        def demand_complete() -> None:
            if cache is not None:
                cache.insert(lba, nblocks)
            on_done()

        self._run_physical(self.layout.map(lba, nblocks, True), demand_complete)

        # Background prefetch: fetch ahead of the demand access and
        # populate the cache on completion; no one waits on it.
        if prefetch_blocks:
            start = lba + nblocks
            span = min(prefetch_blocks, self.capacity_blocks - start)
            if span > 0:
                def prefetch_complete() -> None:
                    assert cache is not None
                    cache.insert(start, span)

                self._run_physical(
                    self.layout.map(start, span, True), prefetch_complete
                )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def _submit_write(self, lba: int, nblocks: int,
                      on_done: Callable[[], None]) -> None:
        nbytes = nblocks * 512
        if self.read_cache is not None:
            # Coherence: lines partially overwritten become stale and
            # are dropped; lines fully covered by the write hold the
            # new data and stay (or become) resident.
            self.read_cache.invalidate(lba, nblocks)
            self.read_cache.insert(lba, nblocks)
        if self.write_cache is not None and self.write_cache.accept(nbytes):
            self.write_cache_hits += 1
            self.engine.schedule(
                self.cache_hit_ns + self._link_transfer_ns(nblocks), on_done
            )
            self._destage_pending.append((lba, nblocks))
            if not self._destage_armed:
                self._destage_armed = True
                self.engine.schedule(self.destage_interval_ns,
                                     self._destage_tick)
            return
        self._run_physical(self.layout.map(lba, nblocks, False), on_done)

    def _destage_tick(self) -> None:
        """Write back a sorted batch of cached writes.

        Sorting by LBA keeps spindle seeks short (elevator order), and
        parity for cached writes is computed in the controller ("fast
        write"), so only the data and parity *writes* hit the disks —
        no read-modify-write reads.
        """
        self._destage_armed = False
        if not self._destage_pending:
            return
        self._destage_pending.sort(key=lambda entry: entry[0])
        batch = self._destage_pending[: self.destage_batch]
        del self._destage_pending[: self.destage_batch]
        self.destage_batches += 1
        for lba, nblocks in batch:
            nbytes = nblocks * 512
            ops = [
                op
                for op in self.layout.map(lba, nblocks, False)
                if not op.is_read
            ]

            def destage_complete(done_bytes: int = nbytes) -> None:
                assert self.write_cache is not None
                self.write_cache.destaged(done_bytes)

            self._run_physical(ops, destage_complete)
        if self._destage_pending:
            self._destage_armed = True
            self.engine.schedule(self.destage_interval_ns, self._destage_tick)

    # ------------------------------------------------------------------
    def _run_physical(self, ops: List[PhysicalOp],
                      on_all_done: Callable[[], None]) -> None:
        """Issue spindle ops; fire once all finish (+ transport time)."""
        remaining = [len(ops)]
        if remaining[0] == 0:
            self.engine.schedule(self.transport_ns, on_all_done)
            return

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self.engine.schedule(self.transport_ns, on_all_done)

        for op in ops:
            self.disks[op.disk_index].submit(
                op.lba, op.nblocks, op.is_read, one_done
            )

    # ------------------------------------------------------------------
    def total_disk_commands(self) -> int:
        """Spindle-level commands serviced (includes parity and prefetch)."""
        return sum(d.commands for d in self.disks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StorageArray {self.name!r} disks={len(self.disks)} "
            f"r/w={self.reads}/{self.writes}>"
        )


# ----------------------------------------------------------------------
# Table 1 / §5.3 presets
# ----------------------------------------------------------------------
def symmetrix(engine: Engine, name: str = "symmetrix") -> StorageArray:
    """EMC Symmetrix-like box: RAID-5, very large caches, deep prefetch.

    §5.3: the dual-VM experiment showed no large latency change here,
    "likely due to the very large cache and the striping pattern".
    """
    return StorageArray(
        engine,
        layout=Raid5(ndisks=16),
        disk_model=DiskModel(),
        read_cache=ReadCache(
            capacity_bytes=32 * 1024**3, prefetch_lines=32
        ),
        write_cache=WriteBackCache(capacity_bytes=8 * 1024**3),
        name=name,
    )


def clariion_cx3(engine: Engine, read_cache: bool = True,
                 name: str = "cx3") -> StorageArray:
    """EMC CLARiiON CX3-like box: RAID-0, 2.5 GB read cache.

    ``read_cache=False`` reproduces the paper's forcing step: "we had
    to turn off the CX3 read cache forcing all I/Os to hit the disk"
    (§5.3) — the configuration behind Figure 6.
    """
    model = DiskModel(
        rpm=15_000,
        track_to_track_ms=0.3,
        full_stroke_ms=7.5,
        media_mbps=95.0,
    )
    return StorageArray(
        engine,
        layout=Raid0(ndisks=12),
        disk_model=model,
        read_cache=(
            ReadCache(capacity_bytes=int(2.5 * 1024**3), prefetch_lines=16)
            if read_cache
            else None
        ),
        write_cache=WriteBackCache(capacity_bytes=512 * 1024**2),
        name=name,
    )
