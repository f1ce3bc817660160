"""Epoch-rotated snapshot ledger for the live daemon.

An *epoch* is the interval between two ``rotate`` operations.  Sealing
an epoch adopts every disk's collector into a fresh
:class:`~repro.core.service.HistogramService` (the same merge machinery
parallel replay uses), so a sealed epoch supports everything a service
does: per-disk lookup, JSON export, host-wide aggregation.  Rotation
never blocks queries on ingestion — clients read sealed epochs while
the current epoch keeps filling.

Because collectors merge exactly (associative, commutative, additive),
``merged()`` over any set of epochs is byte-identical to a service that
had seen those epochs' commands in one run — the property the epoch
tests pin.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.collector import DEFAULT_TIME_SLOT_NS, VscsiStatsCollector
from ..core.service import DiskKey, HistogramService
from ..core.window import DEFAULT_WINDOW_SIZE

__all__ = ["Epoch", "EpochLedger"]


class Epoch:
    """One sealed collection interval."""

    __slots__ = ("index", "service", "records", "start_unix",
                 "sealed_unix", "persisted", "quarantined",
                 "start_ns", "end_ns")

    def __init__(self, index: int, service: HistogramService,
                 records: int, sealed_unix: float,
                 start_unix: Optional[float] = None, *,
                 span_ns: Tuple[int, int]):
        self.index = index
        self.service = service
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
        #: Keep at most this many sealed epochs (older ones are folded
        #: into ``retired`` rather than discarded, so lifetime totals
        #: stay exact).  ``None`` keeps everything.
        self.max_epochs = max_epochs
        self.epochs: List[Epoch] = []
        self.retired = HistogramService(window_size=window_size,
                                        time_slot_ns=time_slot_ns)
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
            self.store.append_epoch(epoch.service, start_ns, end_ns,
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

        Empty epochs are legal (a rotation with no traffic) and still
        advance the epoch index, so epoch numbers align with rotation
        count.
        """
        service = HistogramService(window_size=self.window_size,
                                   time_slot_ns=self.time_slot_ns)
        records = 0
        for key, collector in pairs:
            service.adopt(key, collector)
            records += collector.commands
        # Clamp an instantaneous rotation to a non-empty span and
        # advance the open boundary to the *clamped* end, so the next
        # epoch starts where this one ended — spans abut, never
        # overlap.
        now_ns = time.time_ns()
        end_ns = max(now_ns, self._epoch_open_ns + 1)
        epoch = Epoch(self._next_index, service, records,
                      sealed_unix=end_ns / 1e9,
                      start_unix=self._epoch_open_unix,
                      span_ns=(self._epoch_open_ns, end_ns))
        self._epoch_open_ns = end_ns
        self._epoch_open_unix = end_ns / 1e9
        self._next_index += 1
        self.epochs.append(epoch)
        self._persist(epoch)
        if self.max_epochs is not None and len(self.epochs) > self.max_epochs:
            old = self.epochs.pop(0)
            # A store attached after ``old`` was sealed hasn't seen it
            # yet — write it out before the individual epoch vanishes
            # into the retired aggregate.
            self._persist(old)
            self.retired = self.retired.merge(old.service)
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

    def history(self) -> List[HistogramService]:
        """The retired aggregate, then each retained epoch's service.

        Sealed services are never mutated (retention replaces
        ``retired``), so a caller may capture this list under the lock
        that serializes seals and fold it with :meth:`merged` after
        releasing that lock.
        """
        return [self.retired] + [epoch.service for epoch in self.epochs]

    def merged(self, history: Optional[List[HistogramService]] = None
               ) -> HistogramService:
        """Exact merge of ``history`` (default: every sealed and
        retired epoch now).

        Always a freshly built service — callers may adopt the current
        (unsealed) collectors into it without disturbing the ledger.
        """
        total = HistogramService(window_size=self.window_size,
                                 time_slot_ns=self.time_slot_ns)
        for service in self.history() if history is None else history:
            total = total.merge(service)
        return total

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
        """Ledger summary: retained epoch metadata plus the retired
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
            "retained": [
                {"epoch": e.index, "start_unix": e.start_unix,
                 "sealed_unix": e.sealed_unix, "records": e.records,
                 "persisted": e.persisted, "quarantined": e.quarantined}
                for e in self.epochs
            ],
            "persisting": self.store is not None,
            "degraded": self.degraded,
            "persist_failures": len(self.persist_errors),
        }
