"""The SSD as a block target — drop-in beneath the hypervisor's vdisks.

:class:`SsdArray` exports the exact request interface of
:class:`~repro.storage.array.StorageArray` (``submit`` /
``capacity_blocks`` / ``name``), so
``EsxServer.create_vdisk`` can carve extents out of either without
knowing which technology sits below — the precondition for the
``ssd_vs_disk`` experiment replaying one workload against both.

Service timing comes from the channel model: every flash op planned by
the :class:`~repro.storage.ssd.ftl.Ftl` is queued on its channel, and
each channel services one op at a time (the same serial-server shape as
:class:`~repro.storage.disk.Disk`, minus the head).  A host command
completes when its last flash op finishes plus a fixed transport time.

Completion telemetry: immediately before a command's ``on_done``
callback runs, the array publishes ``(wa_pct, gc_pause_us)`` for that
command; the vSCSI layer fetches it with
:meth:`take_completion_telemetry` and feeds the ``write_amp_pct`` and
``gc_pause_us`` histogram families.  Mechanical backends have no such
method, so their vdisks report both families empty — that contrast is
itself the fingerprint the analysis layer keys on.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ...sim.engine import Engine, us
from .ftl import Ftl, SsdModel

__all__ = ["SsdArray", "ssd_array"]


class _Channel:
    """One flash channel: a serial server with a FIFO op queue."""

    __slots__ = ("engine", "name", "_queue", "_busy")

    def __init__(self, engine: Engine, name: str):
        self.engine = engine
        self.name = name
        self._queue: Deque[Tuple[int, Callable[[], None]]] = deque()
        self._busy = False

    def submit(self, service_ns: int, on_done: Callable[[], None]) -> None:
        self._queue.append((service_ns, on_done))
        if not self._busy:
            self._service_next()

    def _service_next(self) -> None:
        if self._busy or not self._queue:
            return
        self._busy = True
        service_ns, on_done = self._queue.popleft()

        def finish() -> None:
            self._busy = False
            on_done()
            self._service_next()

        self.engine.schedule(service_ns, finish)


class SsdArray:
    """A flash block target servicing logical accesses through a DFTL.

    Parameters
    ----------
    engine:
        The simulation engine.
    model:
        Flash geometry, cache sizing and timing (:class:`SsdModel`).
    prefill:
        Map every logical page up front, as a drive restored from an
        image — overwrites then invalidate pages immediately, so GC
        pressure (and measurable write amplification) appears within a
        short run instead of only after a full drive write.
    transport_us:
        Fixed link round-trip added to every command.
    """

    def __init__(self, engine: Engine, model: Optional[SsdModel] = None,
                 prefill: bool = True, transport_us: float = 20.0,
                 name: str = "ssd"):
        self.engine = engine
        self.name = name
        self.model = model = model if model is not None else SsdModel()
        self.ftl = Ftl(model, name=name)
        if prefill:
            self.ftl.prefill()
        self.channels: List[_Channel] = [
            _Channel(engine, name=f"{name}.ch{i}")
            for i in range(model.channels)
        ]
        self.transport_ns = us(transport_us)
        self.capacity_blocks = model.capacity_blocks
        # Counters.
        self.reads = 0
        self.writes = 0
        # (wa_pct, gc_pause_us) of the command whose on_done is running.
        self._telemetry: Optional[Tuple[Optional[int], Optional[int]]] = None

    # ------------------------------------------------------------------
    def submit(self, lba: int, nblocks: int, is_read: bool,
               on_done: Callable[[], None]) -> None:
        """Service one logical access; ``on_done`` fires at completion."""
        if lba < 0 or lba + nblocks > self.capacity_blocks:
            raise ValueError(
                f"access [{lba}, {lba + nblocks}) outside SSD of "
                f"{self.capacity_blocks} blocks"
            )
        if is_read:
            self.reads += 1
            ops = self.ftl.read(lba, nblocks)
            wa_pct: Optional[int] = None
            gc_pause_us: Optional[int] = None
        else:
            self.writes += 1
            ops, gc_ns = self.ftl.write(lba, nblocks)
            wa_pct = self.ftl.wa_pct()
            gc_pause_us = gc_ns // 1_000 if gc_ns else None

        remaining = [len(ops)]

        def complete() -> None:
            self._telemetry = (wa_pct, gc_pause_us)
            on_done()

        if not remaining[0]:
            self.engine.schedule(self.transport_ns, complete)
            return

        def one_done() -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                self.engine.schedule(self.transport_ns, complete)

        channels = self.channels
        for channel_index, service_ns in ops:
            channels[channel_index].submit(service_ns, one_done)

    # ------------------------------------------------------------------
    def take_completion_telemetry(self) -> Tuple[Optional[int],
                                                 Optional[int]]:
        """``(wa_pct, gc_pause_us)`` for the command whose completion
        callback is currently running; fetch-and-clear.

        The engine is single-threaded and completions run their
        callbacks synchronously, so the value set immediately before
        ``on_done`` is exactly the one the vSCSI layer reads inside it.
        """
        telemetry = self._telemetry
        self._telemetry = None
        return telemetry if telemetry is not None else (None, None)

    # ------------------------------------------------------------------
    def write_amplification(self) -> float:
        return self.ftl.write_amplification()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SsdArray {self.name!r} channels={len(self.channels)} "
            f"r/w={self.reads}/{self.writes} "
            f"wa={self.ftl.write_amplification():.2f}>"
        )


# ----------------------------------------------------------------------
# Preset
# ----------------------------------------------------------------------
def ssd_array(engine: Engine, capacity_blocks: int = 2_097_152,
              prefill: bool = True, name: str = "ssd",
              **model_overrides) -> SsdArray:
    """An enterprise-flash preset sized for the characterization bed.

    ``capacity_blocks`` is the logical LUN size in 512 B sectors
    (default 1 GiB); further :class:`SsdModel` fields pass through as
    keyword overrides (e.g. ``op_ratio=0.07`` to study WA under tight
    over-provisioning).
    """
    model = SsdModel(capacity_blocks=capacity_blocks, **model_overrides)
    return SsdArray(engine, model=model, prefill=prefill, name=name)
