"""The vSCSI emulation layer — the paper's instrumentation point.

§2-§3: the guest's LSI/Bus Logic driver traps into the VMM, device
emulation decodes the command, and ESX "is able to inspect each I/O in
flight on a per-virtual machine, per-virtual disk basis."  The
:class:`VScsiDevice` is that inspection point: every command passes
through :meth:`issue`, where — *if enabled* — the histogram service
and the trace framework observe it; completions flow back through the
same object.

The observation deliberately sees only what a hypervisor can see:
op, LBA, length, timestamps and the in-flight count.  Time spent in
guest OS queues is invisible (a stated limit of the approach, §6).
"""

from __future__ import annotations

from typing import Optional

from ..core.service import HistogramService
from ..core.tracing import TraceBuffer
from ..scsi.queue import PendingQueue
from ..scsi.request import ScsiRequest
from ..sim.engine import Engine
from .vdisk import VirtualDisk

__all__ = ["VScsiDevice"]


class VScsiDevice:
    """One emulated SCSI target: a virtual disk as seen by one VM.

    Parameters
    ----------
    engine:
        Simulation engine.
    vm_name / vdisk:
        Identity of the (VM, virtual disk) pair.
    service:
        The host-wide :class:`HistogramService` (hooks are cheap no-ops
        while disabled).
    device_queue_depth:
        Concurrency the hypervisor allows toward the backing device;
        excess commands wait in the per-VM pending queue (§2).
    """

    def __init__(self, engine: Engine, vm_name: str, vdisk: VirtualDisk,
                 service: HistogramService,
                 device_queue_depth: Optional[int] = None):
        self.engine = engine
        self.vm_name = vm_name
        self.vdisk = vdisk
        self.service = service
        self.queue = PendingQueue(depth_limit=device_queue_depth)
        self.queue.set_dispatcher(self._dispatch)
        self.trace: Optional[TraceBuffer] = None
        self.commands = 0
        # Flash backends publish per-command FTL telemetry (WA percent,
        # GC pause) for the command whose completion callback is about
        # to run; mechanical backends don't have the method and the
        # completion path skips the fetch entirely.
        self._take_telemetry = getattr(
            vdisk.backing, "take_completion_telemetry", None)

    # ------------------------------------------------------------------
    # Tracing control (§1: "a simple virtual SCSI command tracing
    # framework")
    # ------------------------------------------------------------------
    def start_trace(self, max_records: Optional[int] = None) -> TraceBuffer:
        """Begin tracing commands on this virtual disk."""
        self.trace = TraceBuffer(max_records=max_records)
        return self.trace

    def stop_trace(self) -> Optional[TraceBuffer]:
        """Stop tracing; returns the collected buffer."""
        buffer, self.trace = self.trace, None
        return buffer

    # ------------------------------------------------------------------
    # I/O path
    # ------------------------------------------------------------------
    def issue(self, request: ScsiRequest) -> None:
        """Accept a command from the guest driver."""
        self.commands += 1
        self.queue.submit(request)

    def issue_cdb(self, cdb: bytes, tag: str = "") -> ScsiRequest:
        """Accept a raw Command Descriptor Block, as the emulated LSI
        Logic adapter would receive it from the guest driver (§2), and
        decode it into an in-flight request."""
        from ..scsi.commands import parse_cdb

        parsed = parse_cdb(cdb)
        request = ScsiRequest(parsed.is_read, parsed.lba, parsed.nblocks,
                              tag=tag)
        self.issue(request)
        return request

    def _dispatch(self, request: ScsiRequest) -> None:
        """Send a command to the backing device (past any queueing)."""
        now = self.engine.now
        request.mark_issued(now)
        # Outstanding *other* commands at arrival (§3.3): this request
        # was just added to the in-flight set, so subtract it.
        outstanding_before = self.queue.outstanding - 1
        self.service.record_issue(
            self.vm_name,
            self.vdisk.name,
            now,
            request.is_read,
            request.lba,
            request.nblocks,
            outstanding_before,
        )
        backing_lba = self.vdisk.translate(request.lba, request.nblocks)
        self.vdisk.backing.submit(
            backing_lba,
            request.nblocks,
            request.is_read,
            lambda: self._complete(request),
        )

    def _complete(self, request: ScsiRequest) -> None:
        now = self.engine.now
        assert request.issue_ns is not None
        wa_pct = gc_pause_us = None
        if self._take_telemetry is not None:
            wa_pct, gc_pause_us = self._take_telemetry()
        self.service.record_complete(
            self.vm_name,
            self.vdisk.name,
            now,
            request.is_read,
            now - request.issue_ns,
            wa_pct=wa_pct,
            gc_pause_us=gc_pause_us,
        )
        if self.trace is not None:
            self.trace.append(
                request.issue_ns,
                now,
                request.lba,
                request.nblocks,
                request.is_read,
            )
        # Retire from the in-flight set *before* the request's own
        # callbacks run: a workload continuation may immediately issue
        # its next command, and the outstanding count it observes must
        # no longer include this one.
        self.queue.complete(request)
        request.mark_completed(now)

    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Commands in flight at the device right now."""
        return self.queue.outstanding

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VScsiDevice {self.vm_name}/{self.vdisk.name} "
            f"outstanding={self.outstanding}>"
        )
