"""The histogram statistics *service* — what shipped as ``vscsiStats``.

The service owns one :class:`VscsiStatsCollector` per (VM, virtual
disk) pair.  Faithful to §5.2:

* The service is **off by default**; the hooks on the I/O path reduce
  to a single predicate when disabled (the paper leans on the branch
  predictor for the same effect).
* Collector data structures are **created lazily** on the first
  command observed after enabling, so regular data structures don't
  grow and there is no cache pressure while the service is off.
* Enable/disable is per virtual disk or global, mirroring the
  "command line utility to enable and disable these stats".
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, Optional, Tuple

from .collector import DEFAULT_TIME_SLOT_NS, VscsiStatsCollector
from .window import DEFAULT_WINDOW_SIZE

__all__ = ["HistogramService", "DiskKey"]

#: Collectors are keyed by (vm_name, vdisk_name).
DiskKey = Tuple[str, str]


class HistogramService:
    """Registry and lifecycle manager for per-vdisk collectors.

    The vSCSI layer calls :meth:`record_issue` / :meth:`record_complete`
    unconditionally; both return immediately when stats are disabled
    for the target disk.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE,
                 time_slot_ns: int = DEFAULT_TIME_SLOT_NS):
        self.window_size = window_size
        self.time_slot_ns = time_slot_ns
        self.enabled = False
        self._collectors: Dict[DiskKey, VscsiStatsCollector] = {}
        self._per_disk_enabled: Dict[DiskKey, bool] = {}

    # ------------------------------------------------------------------
    # Lifecycle (the command-line surface)
    # ------------------------------------------------------------------
    def enable(self, vm: Optional[str] = None, vdisk: Optional[str] = None) -> None:
        """Enable stats globally, or for one ``(vm, vdisk)`` pair."""
        if vm is None:
            self.enabled = True
        else:
            if vdisk is None:
                raise ValueError("enabling per-VM requires a vdisk name")
            self._per_disk_enabled[(vm, vdisk)] = True

    def disable(self, vm: Optional[str] = None, vdisk: Optional[str] = None) -> None:
        """Disable stats globally, or for one ``(vm, vdisk)`` pair.

        Per-disk disable *removes* the disk's entry; disabling a disk
        that was never enabled is a strict no-op.  The registry
        invariant is that it only ever holds ``True`` entries — a
        spurious ``False`` entry would be carried (and enumerated, and
        merged) forever for a disk the service never touched.
        """
        if vm is None:
            self.enabled = False
            self._per_disk_enabled.clear()
        else:
            if vdisk is None:
                raise ValueError("disabling per-VM requires a vdisk name")
            self._per_disk_enabled.pop((vm, vdisk), None)

    def is_enabled_for(self, vm: str, vdisk: str) -> bool:
        """Whether the hooks are live for this virtual disk."""
        return self.enabled or self._per_disk_enabled.get((vm, vdisk), False)

    def reset(self, vm: Optional[str] = None, vdisk: Optional[str] = None) -> None:
        """Zero collected stats (all disks, or one pair)."""
        if vm is None:
            for collector in self._collectors.values():
                collector.reset()
        else:
            key = (vm, vdisk or "")
            if key in self._collectors:
                self._collectors[key].reset()

    # ------------------------------------------------------------------
    # Hot-path hooks
    # ------------------------------------------------------------------
    def record_issue(self, vm: str, vdisk: str, time_ns: int, is_read: bool,
                     lba: int, nblocks: int, outstanding_before: int) -> None:
        """Observe a command arrival; no-op when disabled."""
        if not (self.enabled or self._per_disk_enabled.get((vm, vdisk), False)):
            return
        self._collector_for(vm, vdisk).on_issue(
            time_ns, is_read, lba, nblocks, outstanding_before
        )

    def record_complete(self, vm: str, vdisk: str, time_ns: int, is_read: bool,
                        latency_ns: int, wa_pct: Optional[int] = None,
                        gc_pause_us: Optional[int] = None) -> None:
        """Observe a command completion; no-op when disabled.

        ``wa_pct``/``gc_pause_us`` forward the backend's per-command FTL
        telemetry (flash backends only; see
        :meth:`VscsiStatsCollector.on_complete`).
        """
        if not (self.enabled or self._per_disk_enabled.get((vm, vdisk), False)):
            return
        self._collector_for(vm, vdisk).on_complete(
            time_ns, is_read, latency_ns, wa_pct=wa_pct,
            gc_pause_us=gc_pause_us)

    def _collector_for(self, vm: str, vdisk: str) -> VscsiStatsCollector:
        """Lazily allocate the collector for a disk (§5.2)."""
        key = (vm, vdisk)
        collector = self._collectors.get(key)
        if collector is None:
            collector = VscsiStatsCollector(
                window_size=self.window_size, time_slot_ns=self.time_slot_ns
            )
            self._collectors[key] = collector
        return collector

    # ------------------------------------------------------------------
    # Merging (shard recombination for parallel replay)
    # ------------------------------------------------------------------
    def merge(self, other: "HistogramService") -> "HistogramService":
        """Return a new service combining this one and ``other``.

        Collectors sharing a ``(vm, vdisk)`` key are merged
        (:meth:`VscsiStatsCollector.merge`); keys present on only one
        side are copied.  Exact, associative and commutative — shard a
        fleet of virtual disks across worker processes however you
        like and the merged :meth:`export_json` is byte-identical.
        """
        if (self.window_size != other.window_size
                or self.time_slot_ns != other.time_slot_ns):
            raise ValueError(
                "cannot merge services with different collector "
                f"configuration ({self.window_size}/{self.time_slot_ns} vs "
                f"{other.window_size}/{other.time_slot_ns})"
            )
        merged = HistogramService(window_size=self.window_size,
                                  time_slot_ns=self.time_slot_ns)
        merged.enabled = self.enabled or other.enabled
        for key, collector in self._collectors.items():
            peer = other._collectors.get(key)
            merged._collectors[key] = (
                collector.copy() if peer is None else collector.merge(peer)
            )
        for key, collector in other._collectors.items():
            if key not in self._collectors:
                merged._collectors[key] = collector.copy()
        return merged

    def adopt(self, key: DiskKey, collector: VscsiStatsCollector) -> None:
        """Install (or merge in) an externally built collector.

        This is how parallel replay hands a worker's per-vdisk
        collector back to a host-side service.
        """
        mine = self._collectors.get(key)
        self._collectors[key] = (
            collector if mine is None else mine.merge(collector)
        )

    def aggregate(self) -> VscsiStatsCollector:
        """Merge every collector into one host-wide aggregate view."""
        total = VscsiStatsCollector(window_size=self.window_size,
                                    time_slot_ns=self.time_slot_ns)
        for _key, collector in self.collectors():
            total = total.merge(collector)
        return total

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def collector(self, vm: str, vdisk: str) -> Optional[VscsiStatsCollector]:
        """Collector for a disk, or ``None`` if no data was gathered."""
        return self._collectors.get((vm, vdisk))

    def collectors(self) -> Iterator[Tuple[DiskKey, VscsiStatsCollector]]:
        """All (key, collector) pairs that have been allocated."""
        return iter(sorted(self._collectors.items()))

    def export_json(self) -> str:
        """Serialize every collector to a JSON document."""
        payload = {
            f"{vm}/{vdisk}": collector.to_dict()
            for (vm, vdisk), collector in self._collectors.items()
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def to_dict(self) -> Dict:
        """Full JSON-exportable snapshot of the service.

        Unlike :meth:`export_json` (whose ``vm/vdisk`` keys are the
        historical export format), disks are listed as explicit
        ``{"vm", "vdisk", "stats"}`` entries so names containing ``/``
        stay unambiguous.
        """
        return {
            "window_size": self.window_size,
            "time_slot_ns": self.time_slot_ns,
            "enabled": self.enabled,
            "disks": [
                {"vm": vm, "vdisk": vdisk, "stats": collector.to_dict()}
                for (vm, vdisk), collector in self.collectors()
            ],
        }

    def __eq__(self, other: object) -> bool:
        """Snapshot equality: configuration and per-disk collectors."""
        if not isinstance(other, HistogramService):
            return NotImplemented
        return (
            self.window_size == other.window_size
            and self.time_slot_ns == other.time_slot_ns
            and self.enabled == other.enabled
            and self._collectors == other._collectors
        )

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<HistogramService {state} disks={len(self._collectors)}>"
