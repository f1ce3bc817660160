"""Epoch-rotated snapshot ledger for the live daemon.

An *epoch* is the interval between two ``rotate`` operations.  A
sealed epoch is its bytes: sealing encodes each disk's collector once
into an ``RPHCOL2`` record (:func:`~repro.live.protocol.encode_extents`)
and the :class:`Epoch` keeps the extent list and the payload — the body
of the ``SNAPSHOT`` frame an uplink ships and the records the store
appends.  The collectors themselves stay only while the epoch is the
ledger's last (the analyzer, the ``rotate`` reply and ``scope=epoch``
read them); an older epoch decodes its payload when asked.

History is one per-disk :class:`RecordPile`: epochs retired past
``max_epochs`` fold their records into it, and ``merged()`` is one
vectorized :func:`~repro.store.codec.merge_collector_payloads` reduce
per disk over the pile plus every retained epoch's records.  Because
collectors merge exactly (associative, commutative, additive), that
reduce is byte-identical to a service that had seen those epochs'
commands in one run — the property the epoch tests pin.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.collector import DEFAULT_TIME_SLOT_NS, VscsiStatsCollector
from ..core.service import DiskKey, HistogramService
from ..core.window import DEFAULT_WINDOW_SIZE
from ..store.codec import (collector_from_bytes, collector_to_bytes,
                           merge_collector_payloads)
from .protocol import encode_extents, snapshot_extents

__all__ = ["COMPACT_AT", "Epoch", "EpochLedger", "RecordPile",
           "merge_records"]

#: Per-disk record count past which a :class:`RecordPile` folds the
#: disk's records into one.
COMPACT_AT = 32


def merge_records(pairs: Iterable[Tuple[object, bytes]]
                  ) -> List[Tuple[object, VscsiStatsCollector]]:
    """Exact merge of ``(key, record)`` pairs: one vectorized reduce per
    distinct key, sorted by key.  Re-key the pairs to merge across
    disks (per host, per VM)."""
    groups: Dict[object, List[bytes]] = {}
    for key, record in pairs:
        groups.setdefault(key, []).append(record)
    return [(key, merge_collector_payloads(records))
            for key, records in sorted(groups.items())]


class RecordPile:
    """Per-disk ``RPHCOL2`` records, folded into one record past
    ``compact_at`` — exact, the merge being associative — so a pile
    holds O(disks) records however many epochs it absorbs.

    A fold replaces a disk's list, never empties one in place, and
    :meth:`items` copies out, so a history taken under a lock stays
    valid after the lock is released.
    """

    __slots__ = ("compact_at", "by_disk")

    def __init__(self, compact_at: int = COMPACT_AT):
        self.compact_at = compact_at
        self.by_disk: Dict[DiskKey, List[bytes]] = {}

    def add(self, key: DiskKey, record: bytes) -> None:
        bucket = self.by_disk.setdefault(key, [])
        bucket.append(record)
        if len(bucket) > self.compact_at:
            self.by_disk[key] = [
                collector_to_bytes(merge_collector_payloads(bucket))]

    def items(self) -> List[Tuple[DiskKey, bytes]]:
        """Every ``(disk key, record)`` the pile holds."""
        return [(key, record) for key, bucket in self.by_disk.items()
                for record in bucket]


class Epoch:
    """One sealed collection interval, kept as its encoded records."""

    __slots__ = ("index", "disks", "payload", "records", "start_unix",
                 "sealed_unix", "persisted", "quarantined",
                 "start_ns", "end_ns", "config", "_service")

    def __init__(self, index: int, disks: List[Dict], payload: bytes,
                 records: int, sealed_unix: float,
                 start_unix: Optional[float] = None, *,
                 span_ns: Tuple[int, int],
                 service: Optional[HistogramService] = None,
                 config: Tuple[int, int] = (DEFAULT_WINDOW_SIZE,
                                            DEFAULT_TIME_SLOT_NS)):
        self.index = index
        #: ``{"vm", "vdisk", "off", "len"}`` per disk, into ``payload``.
        self.disks = disks
        #: One ``RPHCOL2`` record per disk, back to back.
        self.payload = payload
        self.records = records
        #: When this epoch opened (previous rotation, or ledger birth).
        self.start_unix = sealed_unix if start_unix is None else start_unix
        self.sealed_unix = sealed_unix
        #: Whether the epoch has been written to an attached store.
        self.persisted = False
        #: Whether a store failure diverted this epoch to a sidecar
        #: file instead (see :meth:`EpochLedger._quarantine`).  A
        #: quarantined epoch is never re-appended to the store — a
        #: partial first attempt may already have landed some disks in
        #: the WAL, and appending them again would double-count.
        self.quarantined = False
        self.start_ns, self.end_ns = span_ns
        #: ``(window_size, time_slot_ns)`` of a decoded :attr:`service`.
        self.config = config
        self._service = service

    @property
    def span_ns(self) -> Tuple[int, int]:
        """Half-open ``[start_ns, end_ns)`` span in integer nanoseconds.

        Non-empty even for an instantaneous rotation, and — for
        ledger-sealed epochs — exactly abutting the neighbouring
        epochs' spans (``end_ns`` of one equals ``start_ns`` of the
        next, never overlapping), the invariant the store's range-query
        closure proof relies on.
        """
        return self.start_ns, self.end_ns

    def extents(self) -> Iterator[Tuple[DiskKey, bytes]]:
        """``((vm, vdisk), record)`` per disk, sliced out of ``payload``."""
        return snapshot_extents({"disks": self.disks}, self.payload)

    @property
    def service(self) -> HistogramService:
        """The epoch's collectors: the sealed ones while this is its
        ledger's last epoch, else decoded from ``payload`` (uncached)."""
        service = self._service  # read once: a seal may clear it
        if service is not None:
            return service
        service = HistogramService(*self.config)
        for key, record in self.extents():
            service.adopt(key, collector_from_bytes(record))
        return service

    def to_dict(self) -> Dict:
        """Per-disk snapshot dicts plus epoch metadata."""
        return {
            "epoch": self.index,
            "records": self.records,
            "start_unix": self.start_unix,
            "sealed_unix": self.sealed_unix,
            "persisted": self.persisted,
            "quarantined": self.quarantined,
            "disks": {
                f"{vm}/{vdisk}": collector.to_dict()
                for (vm, vdisk), collector in self.service.collectors()
            },
        }


class EpochLedger:
    """Append-only history of sealed epochs."""

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE,
                 time_slot_ns: int = DEFAULT_TIME_SLOT_NS,
                 max_epochs: Optional[int] = None,
                 store=None):
        self.window_size = window_size
        self.time_slot_ns = time_slot_ns
        #: Keep at most this many sealed epochs (older ones fold their
        #: records into ``retired`` rather than being discarded, so
        #: lifetime totals stay exact).  ``None`` keeps everything.
        self.max_epochs = max_epochs
        self.epochs: List[Epoch] = []
        self.retired = RecordPile()
        self.retired_records = 0
        #: ``(epoch_index, start_unix, sealed_unix, records)`` for every
        #: epoch folded into ``retired`` — retirement keeps lifetime
        #: totals exact but used to forget *when* the data was
        #: collected; these spans preserve the covered intervals.
        self.retired_spans: List[Tuple[int, float, float, int]] = []
        self._next_index = 0
        #: Moment the currently filling epoch opened.  The integer-ns
        #: boundary is authoritative for spans: the float mirror exists
        #: only for human-readable ``*_unix`` fields (a double cannot
        #: represent today's unix time to the nanosecond, so advancing
        #: it by a clamped +1 ns would silently round away).
        self._epoch_open_ns = time.time_ns()
        self._epoch_open_unix = self._epoch_open_ns / 1e9
        #: Optional :class:`~repro.store.HistogramStore` — every sealed
        #: epoch is appended (and a not-yet-persisted epoch is written
        #: before being retired).  The ledger never closes it.
        self.store = store
        #: A store failure flips this and stays flipped: the ledger
        #: keeps sealing (in-memory history is intact) but persistence
        #: can no longer be trusted end to end.  Surfaced in the
        #: server's ``info`` and OpenMetrics exposition.
        self.degraded = False
        #: One ``{"epoch", "error", "quarantined"}`` entry per failed
        #: persist (``quarantined`` is the sidecar path, or ``None``
        #: when even the sidecar write failed).
        self.persist_errors: List[Dict] = []

    def service_of(self, pairs: Iterable[Tuple[DiskKey, VscsiStatsCollector]]
                   ) -> HistogramService:
        """A fresh service with this ledger's configuration holding
        ``pairs`` (collectors of one key merge)."""
        service = HistogramService(window_size=self.window_size,
                                   time_slot_ns=self.time_slot_ns)
        for key, collector in pairs:
            service.adopt(key, collector)
        return service

    def note_store_failure(self, message: str) -> None:
        """Record a store failure not tied to one epoch's seal
        (e.g. checkpoint/close at shutdown)."""
        self.degraded = True
        self.persist_errors.append(
            {"epoch": None, "error": message, "quarantined": None}
        )

    def _persist(self, epoch: Epoch) -> None:
        if self.store is None or epoch.persisted or epoch.quarantined:
            return
        try:
            start_ns, end_ns = epoch.span_ns
            # One group commit per epoch: every disk's record is
            # buffered into the WAL and sync=True lands the whole batch
            # with a single fsync — the epoch's durability point.
            self.store.append_epoch(epoch.extents(), start_ns, end_ns,
                                    sync=True)
        except (OSError, ValueError) as exc:
            # The store failed mid-seal (disk full, I/O error, closed
            # under our feet).  The epoch itself is fine — it lives in
            # memory and keeps answering queries — so degrade instead
            # of crashing: divert the snapshot to a sidecar file and
            # let ingestion continue.
            self._quarantine(epoch, exc)
        else:
            epoch.persisted = True

    def _quarantine(self, epoch: Epoch, exc: BaseException) -> None:
        """Divert a failed-persist epoch to a JSON sidecar.

        The sidecar (``<store>/quarantine/epoch-<index>.json``) holds
        the full per-disk snapshot plus the span, so an operator can
        re-import the epoch after fixing the store.  Written atomically
        and best-effort — under a real ``ENOSPC`` the sidecar volume
        is likely full too, in which case the failure is still
        recorded and the epoch still queryable in memory.
        """
        self.degraded = True
        epoch.quarantined = True
        entry: Dict = {"epoch": epoch.index,
                       "error": f"{type(exc).__name__}: {exc}",
                       "quarantined": None}
        try:
            directory = Path(self.store.path) / "quarantine"
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"epoch-{epoch.index:08d}.json"
            document = epoch.to_dict()
            document["span_ns"] = list(epoch.span_ns)
            document["error"] = entry["error"]
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_text(json.dumps(document, indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
            os.replace(tmp, path)
            entry["quarantined"] = str(path)
        except OSError:
            pass
        self.persist_errors.append(entry)

    def __len__(self) -> int:
        return len(self.epochs)

    def seal(self, pairs: Iterable[Tuple[DiskKey, VscsiStatsCollector]]) -> Epoch:
        """Seal one epoch from ``(disk key, collector)`` pairs.

        Each disk is encoded once; the store gets those records and an
        uplink ships them (:func:`~repro.live.protocol.encode_host_snapshot`).
        Empty epochs are legal (a rotation with no traffic) and still
        advance the epoch index, so epoch numbers align with rotation
        count.
        """
        service = self.service_of(pairs)
        disks, payload = encode_extents(service.collectors())
        records = sum(collector.commands
                      for _key, collector in service.collectors())
        # Clamp an instantaneous rotation to a non-empty span and
        # advance the open boundary to the *clamped* end, so the next
        # epoch starts where this one ended — spans abut, never
        # overlap.
        now_ns = time.time_ns()
        end_ns = max(now_ns, self._epoch_open_ns + 1)
        epoch = Epoch(self._next_index, disks, payload, records,
                      sealed_unix=end_ns / 1e9,
                      start_unix=self._epoch_open_unix,
                      span_ns=(self._epoch_open_ns, end_ns),
                      service=service,
                      config=(self.window_size, self.time_slot_ns))
        self._epoch_open_ns = end_ns
        self._epoch_open_unix = end_ns / 1e9
        self._next_index += 1
        if self.epochs:
            # Only the last epoch keeps its collectors.
            self.epochs[-1]._service = None
        self.epochs.append(epoch)
        self._persist(epoch)
        if self.max_epochs is not None and len(self.epochs) > self.max_epochs:
            old = self.epochs.pop(0)
            # A store attached after ``old`` was sealed hasn't seen it
            # yet — write it out before the individual epoch vanishes
            # into the retired pile.
            self._persist(old)
            for key, record in old.extents():
                self.retired.add(key, record)
            self.retired_records += old.records
            self.retired_spans.append(
                (old.index, old.start_unix, old.sealed_unix, old.records)
            )
        return epoch

    def epoch(self, index: int) -> Epoch:
        """Look up a sealed epoch by its index."""
        for epoch in self.epochs:
            if epoch.index == index:
                return epoch
        raise KeyError(f"no sealed epoch {index} "
                       f"(retained: {[e.index for e in self.epochs]})")

    @property
    def last(self) -> Optional[Epoch]:
        """The most recently sealed epoch, if any."""
        return self.epochs[-1] if self.epochs else None

    def history(self) -> Tuple[List[Tuple[DiskKey, bytes]], List[Epoch]]:
        """The retired pile's records and the retained epochs.

        Sealed epochs are never mutated and the pile's records are
        copied out, so a caller may capture this under the lock that
        serializes seals and fold it with :meth:`merged` after
        releasing that lock.
        """
        return self.retired.items(), list(self.epochs)

    def merged(self, history=None, live=()) -> HistogramService:
        """Exact merge of ``history`` (default: every sealed and
        retired epoch now) — one reduce per disk over every record —
        plus the ``live`` (unsealed) ``(key, collector)`` pairs.

        Always a freshly built service, never a view of the ledger.
        """
        retired, epochs = self.history() if history is None else history
        service = self.service_of(merge_records(itertools.chain(
            retired, *(epoch.extents() for epoch in epochs))))
        for key, collector in live:
            service.adopt(key, collector)
        return service

    @property
    def records(self) -> int:
        """Records across every sealed (and retired) epoch."""
        return self.retired_records + sum(e.records for e in self.epochs)

    @property
    def covered_span_unix(self) -> Tuple[Optional[float], Optional[float]]:
        """``(start, end)`` of everything the ledger has ever sealed,
        retired epochs included — ``(None, None)`` before the first
        seal."""
        starts = [span[1] for span in self.retired_spans]
        starts += [e.start_unix for e in self.epochs]
        ends = [span[2] for span in self.retired_spans]
        ends += [e.sealed_unix for e in self.epochs]
        if not starts:
            return None, None
        return min(starts), max(ends)

    def to_dict(self) -> Dict:
        """Ledger summary: counts, the covered span and the retired
        spans, so retirement no longer erases *when* history happened
        (only its per-epoch resolution)."""
        start, end = self.covered_span_unix
        return {
            "epochs_sealed": self._next_index,
            "epochs_retained": len(self.epochs),
            "records": self.records,
            "covered_start_unix": start,
            "covered_end_unix": end,
            "retired": {
                "records": self.retired_records,
                "spans": [
                    {"epoch": index, "start_unix": s, "sealed_unix": e,
                     "records": records}
                    for index, s, e, records in self.retired_spans
                ],
            },
            "persisting": self.store is not None,
            "degraded": self.degraded,
            "persist_failures": len(self.persist_errors),
        }
