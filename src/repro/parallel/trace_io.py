"""Zero-copy columnar I/O for the ``VSCSITR1`` binary trace format.

:func:`repro.core.tracing.read_binary` pays one ``struct.unpack`` and
one frozen-dataclass construction per record — a few microseconds each,
which dominates large replays.  This module instead maps the fixed
40-byte records straight into numpy column views
(``np.memmap``/``np.frombuffer`` with a structured dtype laid out
exactly like ``<QqqqIB3x``), so a million-record trace opens in
microseconds and feeds the vectorized batch kernels without ever
materializing per-record Python objects.

Also provided:

* :func:`write_shards` — split a multi-vdisk capture into one segment
  file per virtual disk plus a JSON manifest — the multi-disk trace
  container ``repro publish DIR`` streams.
* :func:`replay_columns` — the columnar twin of
  :func:`repro.core.tracing.replay_into_collector`; snapshots are
  byte-identical (property-tested).

The record <-> column conversions live here once —
:func:`buffer_to_columns` and :func:`columns_to_bytes` — and serve both
the trace-file reader/writer below and the live wire protocol
(:mod:`repro.live.protocol`), whose data-frame body is the same bytes.
"""

from __future__ import annotations

import json
import re
import struct
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as _np

from ..core.collector import VscsiStatsCollector
from ..core.tracing import BINARY_RECORD_FORMAT, TraceRecord

__all__ = [
    "TraceColumns",
    "TRACE_DTYPE",
    "MANIFEST_NAME",
    "buffer_to_columns",
    "columns_to_bytes",
    "columns_to_records",
    "load_manifest",
    "read_binary_columns",
    "records_to_columns",
    "replay_columns",
    "write_binary_columns",
    "write_shards",
]

_RECORD_STRUCT = struct.Struct(BINARY_RECORD_FORMAT)
_MAGIC = b"VSCSITR1"
_MAGIC_LEN = len(_MAGIC)

#: Manifest file name inside a sharded trace directory.
MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "vscsi-shard-manifest-v1"

#: Structured dtype mirroring ``<QqqqIB3x`` field for field (the three
#: pad bytes are absorbed by ``itemsize``), so a raw trace body can be
#: viewed as columns without copying.
TRACE_DTYPE = _np.dtype(
    {
        "names": ["serial", "issue_ns", "complete_ns", "lba", "nblocks",
                  "flags"],
        "formats": ["<u8", "<i8", "<i8", "<i8", "<u4", "u1"],
        "offsets": [0, 8, 16, 24, 32, 36],
        "itemsize": _RECORD_STRUCT.size,
    }
)
assert TRACE_DTYPE.itemsize == _RECORD_STRUCT.size

#: The integer fields in column order: ``(name, dtype, lowest,
#: highest)`` — the value ranges of ``<QqqqI``.
_INT_FIELDS = (
    ("serial", _np.dtype("<u8"), 0, 2**64 - 1),
    ("issue_ns", _np.dtype("<i8"), -2**63, 2**63 - 1),
    ("complete_ns", _np.dtype("<i8"), -2**63, 2**63 - 1),
    ("lba", _np.dtype("<i8"), -2**63, 2**63 - 1),
    ("nblocks", _np.dtype("<u4"), 0, 2**32 - 1),
)


class TraceColumns:
    """A trace as six parallel columns instead of record objects.

    Every producer in this package hands out numpy arrays — zero-copy
    views when the trace was read from a file or a frame — typed
    ``u8`` serial, ``i8`` timestamps and LBA, ``u4`` nblocks and
    ``bool`` ``is_read`` (the decoded bit 0 of the on-disk flags
    byte).  The class itself is a plain holder and converts nothing.
    """

    __slots__ = ("serial", "issue_ns", "complete_ns", "lba", "nblocks",
                 "is_read")

    def __init__(self, serial, issue_ns, complete_ns, lba, nblocks, is_read):
        self.serial = serial
        self.issue_ns = issue_ns
        self.complete_ns = complete_ns
        self.lba = lba
        self.nblocks = nblocks
        self.is_read = is_read

    def __len__(self) -> int:
        return len(self.serial)

    def columns(self) -> Tuple:
        """The six columns in record-field order."""
        return (self.serial, self.issue_ns, self.complete_ns, self.lba,
                self.nblocks, self.is_read)


def _validate_latencies(issue_ns, complete_ns) -> None:
    """Reject records whose completion precedes their issue."""
    bad = _np.nonzero(_np.asarray(complete_ns) < _np.asarray(issue_ns))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"record at index {i}: complete_ns {int(complete_ns[i])} "
            f"precedes issue_ns {int(issue_ns[i])} (negative latency)"
        )


def _checked_column(values, field: str, dtype, lo: int, hi: int):
    """``values`` as a ``dtype`` array, or :class:`ValueError` naming
    the first entry outside ``[lo, hi]`` — a cast alone would wrap it
    silently (or not, depending on the numpy version)."""
    arr = _np.asarray(values)
    if arr.dtype.kind in "iu":
        # One vectorized comparison per bound the source dtype can
        # actually violate (none at all when it already is ``dtype``).
        info = _np.iinfo(arr.dtype)
        bad = None
        if info.min < lo:
            bad = arr < lo
        if info.max > hi:
            bad = arr > hi if bad is None else bad | (arr > hi)
        if bad is None or not bad.any():
            return arr.astype(dtype, copy=False)
        index = int(bad.argmax())
    else:
        # Python ints that do not all fit one 64-bit type are inferred
        # as float64/object, which is lossy: check and convert from
        # the source instead.
        index = next((i for i, v in enumerate(values)
                      if not lo <= v <= hi), None)
        if index is None:
            return _np.asarray(values, dtype=dtype)
    raise ValueError(
        f"record at index {index}: {field} {values[index]} is outside "
        f"the on-disk range [{lo}, {hi}]"
    )


# ----------------------------------------------------------------------
# Records <-> columns <-> bytes
# ----------------------------------------------------------------------
def buffer_to_columns(buffer) -> TraceColumns:
    """View raw 40-byte records (no magic) as zero-copy columns.

    ``buffer`` is anything exporting the buffer protocol — ``bytes``, a
    ``memoryview`` over a received frame, a mapped file.  Raises
    :class:`ValueError` when it is not a whole number of records or
    holds a negative-latency record.
    """
    if len(buffer) % _RECORD_STRUCT.size:
        raise ValueError(
            f"data body of {len(buffer)} bytes is not a whole number of "
            f"{_RECORD_STRUCT.size}-byte records"
        )
    arr = _np.frombuffer(buffer, dtype=TRACE_DTYPE)
    _validate_latencies(arr["issue_ns"], arr["complete_ns"])
    return TraceColumns(
        arr["serial"],
        arr["issue_ns"],
        arr["complete_ns"],
        arr["lba"],
        arr["nblocks"],
        (arr["flags"] & 1).astype(bool),
    )


def columns_to_bytes(columns: TraceColumns) -> bytes:
    """Pack columns into raw 40-byte records (no magic).

    Each integer column is range-checked against its on-disk field
    (:class:`ValueError` naming field and index): one past a ceiling
    must fail loudly, never wrap.
    """
    arr = _np.zeros(len(columns), dtype=TRACE_DTYPE)
    for (field, dtype, lo, hi), values in zip(_INT_FIELDS, columns.columns()):
        arr[field] = _checked_column(values, field, dtype, lo, hi)
    arr["flags"] = _np.asarray(columns.is_read, dtype=bool)
    return arr.tobytes()


def read_binary_columns(path, mmap: bool = True) -> TraceColumns:
    """Open a binary trace file as zero-copy columns.

    ``mmap=True`` (default) maps the file so the OS pages records in
    on demand; ``mmap=False`` reads it into one bytes object first
    (still no per-record unpacking).

    Raises :class:`ValueError` on a bad magic, a truncated tail record
    or a negative-latency record — the same corruption the record
    reader rejects.
    """
    path = Path(path)
    size = path.stat().st_size
    if size < _MAGIC_LEN:
        raise ValueError(f"not a vSCSI binary trace: {path} too short")
    if (size - _MAGIC_LEN) % _RECORD_STRUCT.size:
        raise ValueError(f"truncated vSCSI binary trace: {path}")
    with path.open("rb") as fileobj:
        if fileobj.read(_MAGIC_LEN) != _MAGIC:
            raise ValueError(f"not a vSCSI binary trace: {path}")
        if mmap:
            body = _np.memmap(fileobj, dtype=_np.uint8, mode="r",
                              offset=_MAGIC_LEN)
        else:
            body = fileobj.read()
    return buffer_to_columns(body)


def write_binary_columns(columns: TraceColumns, path) -> int:
    """Write columns as a standard ``VSCSITR1`` trace file.

    Returns the number of records written; rejects what
    :func:`read_binary_columns` would refuse to read back
    (negative latency, out-of-range fields).
    """
    _validate_latencies(columns.issue_ns, columns.complete_ns)
    body = columns_to_bytes(columns)
    with Path(path).open("wb") as fileobj:
        fileobj.write(_MAGIC)
        fileobj.write(body)
    return len(columns)


def records_to_columns(records: Iterable[TraceRecord]) -> TraceColumns:
    """Transpose record objects into typed array columns (range-checked
    like :func:`columns_to_bytes`)."""
    rows = [(r.serial, r.issue_ns, r.complete_ns, r.lba, r.nblocks,
             r.is_read) for r in records]
    cols = list(zip(*rows)) if rows else [()] * 6
    return TraceColumns(
        *(_checked_column(values, *spec)
          for spec, values in zip(_INT_FIELDS, cols)),
        _np.asarray(cols[5], dtype=bool),
    )


def columns_to_records(columns: TraceColumns) -> List[TraceRecord]:
    """Materialize columns back into record objects (Python ints)."""
    cols = columns.columns()
    plain = [c.tolist() if hasattr(c, "tolist") else c for c in cols]
    return [
        TraceRecord(serial, issue, complete, lba, nblocks, bool(is_read))
        for serial, issue, complete, lba, nblocks, is_read in zip(*plain)
    ]


# ----------------------------------------------------------------------
# Columnar replay
# ----------------------------------------------------------------------
def replay_columns(
    columns: TraceColumns,
    collector: Optional[VscsiStatsCollector] = None,
) -> VscsiStatsCollector:
    """Rebuild online histograms from columns — zero object churn.

    The batch replay: byte-identical (property-tested) to the scalar
    event-merge oracle :func:`repro.core.tracing.replay_into_collector`.
    Issues are applied in (issue time, serial) order with the
    outstanding count recovered as *issues fired so far minus
    completions strictly earlier* (completions tie after issues), and
    completions in (completion time, serial) order.  Sorting is
    ``lexsort`` (stable, like Python's sort) and nothing leaves
    int64/bool columns on the way to the collector's batch hooks.
    """
    if collector is None:
        collector = VscsiStatsCollector()
    n = len(columns)
    if not n:
        return collector
    serial = _np.asarray(columns.serial)
    issue = _np.asarray(columns.issue_ns, dtype=_np.int64)
    complete = _np.asarray(columns.complete_ns, dtype=_np.int64)
    is_read = _np.asarray(columns.is_read, dtype=bool)
    order = _np.lexsort((serial, issue))
    issue_sorted = issue[order]
    outstanding = _np.arange(n, dtype=_np.int64) - _np.searchsorted(
        _np.sort(complete), issue_sorted, side="left"
    )
    collector.on_issue_batch(
        issue_sorted,
        is_read[order],
        _np.asarray(columns.lba, dtype=_np.int64)[order],
        _np.asarray(columns.nblocks, dtype=_np.int64)[order],
        outstanding,
    )
    corder = _np.lexsort((serial, complete))
    collector.on_complete_batch(
        complete[corder],
        is_read[corder],
        (complete - issue)[corder],
    )
    return collector


# ----------------------------------------------------------------------
# Sharded (per-vdisk) trace directories
# ----------------------------------------------------------------------
def _slug(text: str) -> str:
    """Filesystem-safe segment-name component."""
    return re.sub(r"[^A-Za-z0-9._-]+", "-", text) or "x"


def write_shards(
    streams: Mapping[Tuple[str, str], object],
    directory,
) -> Dict:
    """Split a multi-vdisk capture into per-vdisk segment files.

    ``streams`` maps ``(vm, vdisk)`` to that disk's commands — either
    an iterable of :class:`TraceRecord` (e.g. a
    :class:`~repro.core.tracing.TraceBuffer`) or a
    :class:`TraceColumns`.  Each stream becomes one standard
    ``VSCSITR1`` file, and ``manifest.json`` records the mapping and
    per-segment record counts (what the shard planner balances on).
    Returns the manifest dict.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    segments = []
    for index, ((vm, vdisk), stream) in enumerate(sorted(streams.items())):
        filename = f"{index:04d}_{_slug(vm)}_{_slug(vdisk)}.vscsitrace"
        if isinstance(stream, TraceColumns):
            columns = stream
        else:
            columns = records_to_columns(stream)
        count = write_binary_columns(columns, directory / filename)
        segments.append(
            {"vm": vm, "vdisk": vdisk, "file": filename, "records": count}
        )
    manifest = {
        "format": _MANIFEST_FORMAT,
        "record_bytes": _RECORD_STRUCT.size,
        "segments": segments,
    }
    (directory / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


def load_manifest(directory) -> Dict:
    """Read and sanity-check a sharded trace directory's manifest."""
    directory = Path(directory)
    path = directory / MANIFEST_NAME
    if not path.exists():
        raise ValueError(f"no {MANIFEST_NAME} in {directory}")
    manifest = json.loads(path.read_text())
    if manifest.get("format") != _MANIFEST_FORMAT:
        raise ValueError(
            f"unsupported shard manifest format {manifest.get('format')!r}"
        )
    for segment in manifest["segments"]:
        if not (directory / segment["file"]).exists():
            raise ValueError(f"manifest names missing segment {segment['file']!r}")
    return manifest
