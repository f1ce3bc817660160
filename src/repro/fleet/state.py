"""Merged fleet state: per-host epoch watermarks + payload history.

The fleet's exactness story has two layers.  The ``(session, seq)``
ack cache on each link deduplicates *retries* cheaply (the common
case: an ack lost to a broken connection).  This module provides the
second layer — per-``(host, epoch)`` watermarks — which makes the
*whole tree* idempotent: a re-parented uplink replaying its entire
history to a new parent, or a duplicate snapshot arriving through two
different regional nodes, is detected here and acknowledged without
being merged twice.  Together they give the acceptance guarantee: no
schedule of resets, crashes and replays loses or double-counts an
epoch.

Each host's epochs are kept raw, in the daemon's per-disk
:class:`~repro.live.epochs.RecordPile` of ``RPHCOL2`` records, so every
merged view is one vectorized reduce per disk
(:func:`~repro.live.epochs.merge_records`).  The pile folds a disk's
records into one past :data:`COMPACT_AT` — the merge is associative,
so the fold is exact and bounds memory at O(disks × hosts), not
O(epochs).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional, Set, Tuple

from ..core.collector import VscsiStatsCollector
from ..core.service import DiskKey
from ..live.epochs import COMPACT_AT, RecordPile, merge_records
from ..live.protocol import snapshot_extents

__all__ = ["COMPACT_AT", "FleetLedger", "HostState"]

#: Staleness samples retained for the percentile summary.
_STALENESS_SAMPLES = 4096


class HostState:
    """Everything one aggregator knows about one publishing host.

    The dedup core is ``watermark`` + ``sparse``: every epoch index
    ``<= watermark`` has been applied, plus the (usually empty) sparse
    set of applied indices above it — out-of-order delivery through
    different tree paths keeps the set small and it collapses back
    into the watermark as gaps fill.
    """

    __slots__ = ("watermark", "sparse", "pile", "records",
                 "epochs_applied", "last_epoch", "last_sealed_unix",
                 "last_applied_unix", "last_staleness", "via")

    def __init__(self, compact_at: int = COMPACT_AT):
        self.watermark = -1
        self.sparse: Set[int] = set()
        #: Per-disk raw RPHCOL2 records (folded past ``compact_at``).
        self.pile = RecordPile(compact_at)
        self.records = 0
        self.epochs_applied = 0
        self.last_epoch: Optional[int] = None
        self.last_sealed_unix: Optional[float] = None
        self.last_applied_unix: Optional[float] = None
        self.last_staleness: Optional[float] = None
        #: Session id of the link the latest snapshot arrived on.
        self.via: Optional[str] = None

    def seen(self, epoch: int) -> bool:
        return epoch <= self.watermark or epoch in self.sparse

    def mark(self, epoch: int) -> None:
        self.sparse.add(epoch)
        while self.watermark + 1 in self.sparse:
            self.watermark += 1
            self.sparse.discard(self.watermark)

    def to_dict(self) -> Dict:
        return {
            "watermark": self.watermark,
            "sparse": sorted(self.sparse),
            "epochs_applied": self.epochs_applied,
            "records": self.records,
            "last_epoch": self.last_epoch,
            "last_sealed_unix": self.last_sealed_unix,
            "last_applied_unix": self.last_applied_unix,
            "last_staleness_seconds": self.last_staleness,
            "via": self.via,
            "disks": len(self.pile.by_disk),
        }


class FleetLedger:
    """Deduplicated, mergeable history of every host's sealed epochs.

    Not thread-safe on its own — the owning
    :class:`~repro.fleet.aggregator.FleetAggregator` serializes access
    under its session lock.
    """

    def __init__(self, compact_at: int = COMPACT_AT):
        self.compact_at = compact_at
        self.hosts: Dict[str, HostState] = {}
        self.epochs_applied_total = 0
        self.duplicates_total = 0
        self.records_total = 0
        #: Recent (bounded) staleness samples in seconds: wall-clock
        #: age of each snapshot at the moment it was applied here.
        self.staleness_samples = deque(maxlen=_STALENESS_SAMPLES)
        # Staleness is a *duration*, so "now" must come from a clock
        # that cannot step: anchor the unix epoch once and advance it
        # with the monotonic clock.  An NTP step (or a VM migration
        # freezing the wall clock) would otherwise inject huge phantom
        # samples into the p99 reservoir.
        self._unix_anchor = time.time()
        self._mono_anchor = time.monotonic()

    # ------------------------------------------------------------------
    def seen(self, host: str, epoch: int) -> bool:
        state = self.hosts.get(host)
        return state is not None and state.seen(epoch)

    def apply(self, header: Dict, payload: bytes,
              via: Optional[str] = None,
              now: Optional[float] = None,
              records: Optional[List[Tuple[DiskKey, bytes]]] = None
              ) -> Tuple[bool, Optional[float]]:
        """Merge one snapshot; returns ``(applied, staleness_seconds)``.

        ``records`` are the snapshot's ``(disk key, record)`` pairs when
        the caller has already sliced them out of ``payload``.  A
        ``(host, epoch)`` already recorded is a duplicate: counted,
        not merged, ``(False, None)``.  Staleness is measured against
        the header's ``sealed_unix`` when present; when ``now`` is not
        supplied it is derived from the ledger's monotonic-anchored
        timeline (immune to wall-clock steps), and negative deltas —
        the publisher's clock running ahead of ours — clamp to zero.
        """
        host = header["host"]
        epoch = header["epoch"]
        state = self.hosts.get(host)
        if state is None:
            state = self.hosts[host] = HostState(self.compact_at)
        if state.seen(epoch):
            self.duplicates_total += 1
            return False, None
        state.mark(epoch)
        if records is None:
            records = snapshot_extents(header, payload)
        for key, record in records:
            state.pile.add(key, record)
        records = int(header.get("records", 0))
        state.records += records
        state.epochs_applied += 1
        state.last_epoch = epoch
        state.via = via
        self.epochs_applied_total += 1
        self.records_total += records
        if now is None:
            now = self._unix_anchor + (time.monotonic() - self._mono_anchor)
        state.last_applied_unix = now
        staleness = None
        sealed = header.get("sealed_unix")
        if isinstance(sealed, (int, float)):
            state.last_sealed_unix = float(sealed)
            staleness = max(0.0, now - float(sealed))
            state.last_staleness = staleness
            self.staleness_samples.append(staleness)
        return True, staleness

    # ------------------------------------------------------------------
    # Merged views
    # ------------------------------------------------------------------
    def global_pairs(self) -> List[Tuple[DiskKey, VscsiStatsCollector]]:
        """Fleet-wide ``((vm, vdisk), collector)`` pairs, exactly merged
        across every host (one vectorized reduce per disk)."""
        return merge_records(pair for state in self.hosts.values()
                             for pair in state.pile.items())

    def host_collector(self, host: str) -> Optional[VscsiStatsCollector]:
        """One host's aggregate across its disks (the fleet analogue of
        ``HistogramService.aggregate``)."""
        state = self.hosts.get(host)
        if state is None or not state.pile.by_disk:
            return None
        ((_host, collector),) = merge_records(
            (host, record) for _key, record in state.pile.items())
        return collector

    def tenant_pairs(self) -> List[Tuple[str, VscsiStatsCollector]]:
        """Per-tenant (= per-VM) aggregates across every host and
        vdisk."""
        return merge_records((vm, record) for state in self.hosts.values()
                             for (vm, _vdisk), record in state.pile.items())

    # ------------------------------------------------------------------
    # Staleness
    # ------------------------------------------------------------------
    def staleness_summary(self) -> Dict:
        samples = sorted(self.staleness_samples)
        if not samples:
            return {"samples": 0, "p50": None, "p99": None, "max": None}

        def rank(q: float) -> float:
            index = min(len(samples) - 1,
                        max(0, int(q * len(samples) + 0.5) - 1))
            return samples[index]

        return {"samples": len(samples), "p50": rank(0.50),
                "p99": rank(0.99), "max": samples[-1]}

    def hosts_doc(self) -> Dict[str, Dict]:
        return {host: state.to_dict()
                for host, state in sorted(self.hosts.items())}
