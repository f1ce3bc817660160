"""Virtual SCSI command tracing framework (§1, §3.6).

For analyses that cannot be done online in constant space — metric
correlations, temporal locality / reuse distance, exact size lists —
the paper provides a per-virtual-disk *command trace*.  Because the
instrumentation point is the hypervisor's vSCSI layer, traces cover
arbitrary unmodified guests.

This module provides:

* :class:`TraceRecord` — one SCSI command observation.
* :class:`TraceBuffer` — in-memory sink the vSCSI layer appends to.
* CSV and compact binary (fixed-record ``struct``) writers/readers.
* :func:`replay_into_collector` — rebuild the online histograms from a
  trace.  The invariant *online histograms == offline replay of the
  trace of the same stream* is property-tested; it is the correctness
  argument for the constant-space service.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, List, Optional, TextIO

from .collector import VscsiStatsCollector

__all__ = [
    "TraceRecord",
    "TraceBuffer",
    "write_csv",
    "read_csv",
    "write_binary",
    "read_binary",
    "replay_into_collector",
    "BINARY_RECORD_FORMAT",
]

#: Fixed binary record: serial, issue_ns, complete_ns, lba, nblocks,
#: flags (bit0 = read).  Little-endian, 40 bytes/record.
BINARY_RECORD_FORMAT = "<QqqqIB3x"
_RECORD_STRUCT = struct.Struct(BINARY_RECORD_FORMAT)
_BINARY_MAGIC = b"VSCSITR1"


@dataclass(frozen=True)
class TraceRecord:
    """One traced SCSI command, as seen at the vSCSI layer."""

    serial: int
    issue_ns: int
    complete_ns: int
    lba: int
    nblocks: int
    is_read: bool

    @property
    def latency_ns(self) -> int:
        """Issue-to-completion device latency in nanoseconds."""
        return self.complete_ns - self.issue_ns

    @property
    def length_bytes(self) -> int:
        """Transfer length in bytes (512-byte logical blocks)."""
        return self.nblocks * 512

    @property
    def last_block(self) -> int:
        """Last logical block touched by the command."""
        return self.lba + self.nblocks - 1

    @property
    def op(self) -> str:
        """``"R"`` or ``"W"`` — the direction of the command."""
        return "R" if self.is_read else "W"


class TraceBuffer:
    """In-memory trace sink attached to a virtual disk.

    Commands are appended at *completion* time so each record carries
    its full latency.  ``max_records`` (optional) caps memory; when the
    cap is hit the oldest records are **not** evicted — tracing simply
    stops and :attr:`dropped` counts the overflow, which mirrors how a
    bounded kernel trace buffer behaves.
    """

    def __init__(self, max_records: Optional[int] = None):
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        self.dropped = 0
        self._next_serial = 0

    def append(self, issue_ns: int, complete_ns: int, lba: int, nblocks: int,
               is_read: bool) -> Optional[TraceRecord]:
        """Append a completed command; returns the record or ``None``."""
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.dropped += 1
            return None
        record = TraceRecord(
            serial=self._next_serial,
            issue_ns=issue_ns,
            complete_ns=complete_ns,
            lba=lba,
            nblocks=nblocks,
            is_read=is_read,
        )
        self._next_serial += 1
        self.records.append(record)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def sorted_by_issue(self) -> List[TraceRecord]:
        """Records ordered by issue time (appends happen at completion,
        which can reorder relative to issue under queueing)."""
        return sorted(self.records, key=lambda r: (r.issue_ns, r.serial))


# ----------------------------------------------------------------------
# CSV format
# ----------------------------------------------------------------------
_CSV_HEADER = ["serial", "issue_ns", "complete_ns", "op", "lba", "nblocks"]


def write_csv(records: Iterable[TraceRecord], fileobj: TextIO) -> int:
    """Write records as CSV; returns the number written."""
    writer = csv.writer(fileobj)
    writer.writerow(_CSV_HEADER)
    count = 0
    for record in records:
        writer.writerow(
            [
                record.serial,
                record.issue_ns,
                record.complete_ns,
                record.op,
                record.lba,
                record.nblocks,
            ]
        )
        count += 1
    return count


def read_csv(fileobj: TextIO) -> List[TraceRecord]:
    """Read records written by :func:`write_csv`."""
    reader = csv.reader(fileobj)
    header = next(reader, None)
    if header != _CSV_HEADER:
        raise ValueError(f"not a vSCSI trace CSV (header {header!r})")
    records = []
    for row in reader:
        if not row:
            continue
        serial, issue_ns, complete_ns, op, lba, nblocks = row
        records.append(
            TraceRecord(
                serial=int(serial),
                issue_ns=int(issue_ns),
                complete_ns=int(complete_ns),
                lba=int(lba),
                nblocks=int(nblocks),
                is_read=(op == "R"),
            )
        )
    return records


# ----------------------------------------------------------------------
# Compact binary format
# ----------------------------------------------------------------------
def write_binary(records: Iterable[TraceRecord], fileobj: BinaryIO) -> int:
    """Write records in the compact fixed-size binary format.

    Field ranges are enforced by the ``struct`` format itself
    (``serial`` u64, timestamps and ``lba`` i64, ``nblocks`` u32 —
    out-of-range values raise :class:`struct.error`); on top of that a
    record whose completion precedes its issue (a negative latency,
    which no real vSCSI capture can produce) is rejected with
    :class:`ValueError`.
    """
    fileobj.write(_BINARY_MAGIC)
    count = 0
    for record in records:
        if record.complete_ns < record.issue_ns:
            raise ValueError(
                f"record {record.serial}: complete_ns {record.complete_ns} "
                f"precedes issue_ns {record.issue_ns} (negative latency)"
            )
        fileobj.write(
            _RECORD_STRUCT.pack(
                record.serial,
                record.issue_ns,
                record.complete_ns,
                record.lba,
                record.nblocks,
                1 if record.is_read else 0,
            )
        )
        count += 1
    return count


def read_binary(fileobj: BinaryIO) -> List[TraceRecord]:
    """Read records written by :func:`write_binary`.

    Rejects corrupt input: a bad magic, a truncated tail record, or a
    record whose completion precedes its issue (negative latency).
    """
    magic = fileobj.read(len(_BINARY_MAGIC))
    if magic != _BINARY_MAGIC:
        raise ValueError(f"not a vSCSI binary trace (magic {magic!r})")
    records = []
    while True:
        chunk = fileobj.read(_RECORD_STRUCT.size)
        if not chunk:
            break
        if len(chunk) != _RECORD_STRUCT.size:
            raise ValueError("truncated vSCSI binary trace")
        serial, issue_ns, complete_ns, lba, nblocks, flags = _RECORD_STRUCT.unpack(
            chunk
        )
        if complete_ns < issue_ns:
            raise ValueError(
                f"record {serial}: complete_ns {complete_ns} precedes "
                f"issue_ns {issue_ns} (negative latency)"
            )
        records.append(
            TraceRecord(
                serial=serial,
                issue_ns=issue_ns,
                complete_ns=complete_ns,
                lba=lba,
                nblocks=nblocks,
                is_read=bool(flags & 1),
            )
        )
    return records


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay_into_collector(
    records: Iterable[TraceRecord],
    collector: Optional[VscsiStatsCollector] = None,
) -> VscsiStatsCollector:
    """Rebuild online histograms by replaying a trace offline.

    The replay applies issues in issue-time order (with the number of
    still-inflight commands recomputed from the record timestamps) and
    completions at completion time, so the resulting collector state
    matches what the live service would have produced for the same
    stream.

    This is the scalar oracle every batched path is pinned against;
    :func:`repro.parallel.trace_io.replay_columns` is the fast
    columnar replay.
    """
    if collector is None:
        collector = VscsiStatsCollector()
    ordered = sorted(records, key=lambda r: (r.issue_ns, r.serial))
    # Event-merge issues and completions in time order.
    events = []  # (time, tiebreak, kind, record) with issues before completes at a tie
    for record in ordered:
        events.append((record.issue_ns, 0, record.serial, "issue", record))
        events.append((record.complete_ns, 1, record.serial, "complete", record))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    outstanding = 0
    for time_ns, _phase, _serial, kind, record in events:
        if kind == "issue":
            collector.on_issue(
                time_ns, record.is_read, record.lba, record.nblocks, outstanding
            )
            outstanding += 1
        else:
            collector.on_complete(time_ns, record.is_read, record.latency_ns)
            outstanding -= 1
    return collector
