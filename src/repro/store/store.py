"""``HistogramStore`` — the embedded, crash-safe epoch store facade.

Directory layout::

    <store>/
      MANIFEST.json        format marker, tier widths, live segment list
      wal.log              append-only WAL (torn tail truncated on open)
      seg-00000001.seg     immutable mmap-read segments (footer-indexed)
      ...

Write path: every appended epoch snapshot is framed (meta JSON +
:mod:`~repro.store.codec` collector record) into the WAL; once
``wal_seal_records`` accumulate, :meth:`checkpoint` seals them into a
new segment and truncates the WAL.  The crash discipline is strictly
ordered — segment durable, then manifest durable, then WAL truncated —
and every record carries a monotone global sequence number, so a crash
between any two steps recovers without loss *or* duplication (WAL
records whose ``seq`` already appears in a segment are discarded on
open).  Stray ``*.tmp`` / unreferenced segment files from a crashed
rewrite are swept on open.

Read path: :meth:`records` iterates segment footers plus the unsealed
WAL tail; :meth:`query` runs the transitive-closure range engine
(:mod:`repro.store.query`) over them.  :meth:`compact` executes a
:mod:`~repro.store.compactor` plan as a full atomic rewrite.

Opening anything that is not a store — a missing directory, an empty
one, a directory holding foreign files — raises :class:`ValueError`
naming the path; the store never plants files outside a directory it
created (mirroring ``read_binary_columns``'s magic/manifest checks).

Concurrency: recovery is destructive (it truncates a torn WAL tail and
sweeps unreferenced segment files), so a *writable* handle takes an
exclusive advisory lock on the store's ``LOCK`` file for its lifetime;
a second writable open — another process, or another handle in this
one — fails with :class:`ValueError` instead of corrupting the live
writer's WAL.  ``open(path, readonly=True)`` is the reader's mode:
it takes no lock, never truncates, never sweeps, rejects every
mutation, and may be pointed at a store a live daemon is writing
(``repro store query``/``inspect`` use it).
"""

from __future__ import annotations

import json
import os
import struct
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..core.collector import VscsiStatsCollector
from .codec import (
    COLLECTOR_MAGIC,
    COLLECTOR_MAGIC_V2,
    collector_from_bytes,
    collector_to_bytes,
    merge_collector_payloads,
)
from .compactor import DEFAULT_TIERS_NS, plan_compaction, select_retained
from .query import QueryIndex, QueryResult
from .segments import SegmentReader, write_segment
from .wal import WAL_MAGIC, WriteAheadLog, _fsync_dir, scan_wal

try:
    import fcntl
except ImportError:  # pragma: no cover - non-posix platforms
    fcntl = None

__all__ = ["LOCK_NAME", "MANIFEST_NAME", "HistogramStore", "StoreRecord"]

MANIFEST_NAME = "MANIFEST.json"
LOCK_NAME = "LOCK"
_MANIFEST_FORMAT = "repro-histstore-v1"
_SEGMENT_GLOB = "seg-*.seg"
_WAL_NAME = "wal.log"
_METALEN = struct.Struct("<I")


def _acquire_store_lock(path: Path):
    """Take the writer lock for the store at ``path``.

    Returns the open ``LOCK`` file object whose flock guards the
    store (held until :meth:`HistogramStore.close`), or ``None`` where
    ``fcntl`` is unavailable.  Raises :class:`ValueError` when another
    writable handle — in this process or any other — already holds it.
    """
    if fcntl is None:  # pragma: no cover - non-posix platforms
        return None
    fileobj = open(path / LOCK_NAME, "a+")
    try:
        fcntl.flock(fileobj.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
    except OSError:
        owner = ""
        try:
            fileobj.seek(0)
            owner = fileobj.read(64).strip()
        except OSError:  # pragma: no cover
            pass
        fileobj.close()
        raise ValueError(
            f"histogram store {path} is locked by another writer"
            + (f" (pid {owner})" if owner else "")
            + "; use open(path, readonly=True) for queries"
        ) from None
    try:
        fileobj.seek(0)
        fileobj.truncate()
        fileobj.write(f"{os.getpid()}\n")
        fileobj.flush()
    except OSError:  # pragma: no cover - lock still held, pid is advisory
        pass
    return fileobj


def _release_store_lock(fileobj) -> None:
    if fileobj is None:
        return
    try:
        fcntl.flock(fileobj.fileno(), fcntl.LOCK_UN)
    except OSError:  # pragma: no cover
        pass
    fileobj.close()


def _atomic_write_json(path: Path, document: Dict) -> None:
    """Durable atomic JSON replace (tmp + fsync + rename + dir fsync)."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fileobj:
        json.dump(document, fileobj, indent=2, sort_keys=True)
        fileobj.write("\n")
        fileobj.flush()
        os.fsync(fileobj.fileno())
    os.replace(tmp, path)
    _fsync_dir(path.parent)


class StoreRecord:
    """Handle to one stored record (segment entry or WAL tail entry)."""

    __slots__ = ("seq", "vm", "vdisk", "start_ns", "end_ns", "tier",
                 "records", "_reader", "_entry", "_payload")

    def __init__(self, seq, vm, vdisk, start_ns, end_ns, tier, records,
                 reader=None, entry=None, payload=None):
        self.seq = seq
        self.vm = vm
        self.vdisk = vdisk
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.tier = tier
        #: Raw source epochs aggregated in this record (1 for tier 0).
        self.records = records
        self._reader = reader
        self._entry = entry
        self._payload = payload

    def raw(self):
        """The framed codec payload, undecoded.

        A CRC-checked zero-copy view into the segment mmap for sealed
        records, the in-memory record bytes for WAL-tail records.  The
        view is only valid while the owning store stays open — copy
        (``bytes(...)``) to outlive it.
        """
        if self._payload is not None:
            return self._payload
        return self._reader.payload(self._entry)

    def load(self) -> VscsiStatsCollector:
        """Decode the record into a collector snapshot."""
        return collector_from_bytes(self.raw())

    def meta(self) -> Dict:
        return {"seq": self.seq, "vm": self.vm, "vdisk": self.vdisk,
                "start_ns": self.start_ns, "end_ns": self.end_ns,
                "tier": self.tier, "records": self.records}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<StoreRecord seq={self.seq} {self.vm}/{self.vdisk} "
                f"[{self.start_ns},{self.end_ns}) tier={self.tier}>")


def _wal_frame(meta: Dict, record: bytes) -> bytes:
    """General WAL payload framing: JSON meta + codec record.

    The append hot path writes the equivalent *binary* meta instead
    (see :data:`_META_BIN`); this JSON form remains both the fallback
    for metadata the binary layout cannot hold (names over 255 UTF-8
    bytes) and the legacy layout every recovery keeps reading.
    """
    meta_bytes = json.dumps(meta, sort_keys=True,
                            separators=(",", ":")).encode("utf-8")
    return _METALEN.pack(len(meta_bytes)) + meta_bytes + record


#: Binary append meta: marker (0x01 — never ``{``, so JSON metas stay
#: distinguishable), u8 vm/vdisk UTF-8 lengths, pad, u32 tier, u32
#: source-record count, then i64 seq/start_ns/end_ns, followed by the
#: vm and vdisk name bytes.  ~40 bytes against ~110 for the JSON form —
#: per-epoch framing overhead is real money at fleet ingest rates, and
#: the fixed layout also recovers faster than ``json.loads``.
_META_BIN = struct.Struct("<BBBxIIqqq")
_META_MARKER = 0x01

#: Field order of the in-memory meta tuples held in ``_wal_records``
#: (and the keys of the dict form that segment footers persist).
_META_KEYS = ("seq", "vm", "vdisk", "start_ns", "end_ns", "tier",
              "records")


def _wal_unframe(payload: bytes) -> Tuple[Dict, bytes]:
    if len(payload) < _METALEN.size:
        raise ValueError("corrupt WAL payload: no meta header")
    (meta_len,) = _METALEN.unpack_from(payload, 0)
    body = _METALEN.size + meta_len
    if body > len(payload):
        raise ValueError("corrupt WAL payload: meta past the end")
    if meta_len and payload[_METALEN.size] == _META_MARKER:
        if meta_len < _META_BIN.size:
            raise ValueError("corrupt WAL payload: short binary meta")
        (_marker, vm_len, vdisk_len, tier, records, seq, start_ns,
         end_ns) = _META_BIN.unpack_from(payload, _METALEN.size)
        names = _METALEN.size + _META_BIN.size
        if names + vm_len + vdisk_len != body:
            raise ValueError("corrupt WAL payload: meta names truncated")
        meta = {"seq": seq, "vm": payload[names:names + vm_len].decode("utf-8"),
                "vdisk": payload[names + vm_len:body].decode("utf-8"),
                "start_ns": start_ns, "end_ns": end_ns, "tier": tier,
                "records": records}
    else:
        meta = json.loads(payload[_METALEN.size:body].decode("utf-8"))
    return meta, payload[body:]


class HistogramStore:
    """Durable time-series store of histogram epoch snapshots."""

    def __init__(self, *_args, **_kwargs):
        raise TypeError(
            "use HistogramStore.create(path), HistogramStore.open(path) "
            "or HistogramStore.open_or_create(path)"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def _build(cls, path: Path, manifest: Dict, fsync: str,
               fsync_batch: int, wal_seal_records: int,
               readonly: bool = False) -> "HistogramStore":
        if wal_seal_records < 1:
            raise ValueError(
                f"wal_seal_records must be >= 1, got {wal_seal_records}"
            )
        store = object.__new__(cls)
        store.path = path
        store._manifest = manifest
        store._wal_seal_records = wal_seal_records
        store.readonly = readonly
        store._lock_file = None
        store._readers: List[SegmentReader] = []
        # Unsealed WAL-tail records as ``(meta tuple, payload)`` — the
        # meta stays a plain tuple (``_META_KEYS`` order) on the append
        # hot path and becomes a dict only when a checkpoint hands it
        # to :func:`write_segment`.
        store._wal_records: List[Tuple[Tuple, bytes]] = []
        store._wal: Optional[WriteAheadLog] = None
        store._wal_ro_size = len(WAL_MAGIC)
        store._index = None
        #: ``(vm, vdisk) -> (vm_len, vdisk_len, name bytes)`` cache for
        #: the binary append meta — the same disks repeat every epoch.
        store._name_bytes: Dict[Tuple[str, str], Tuple[int, int, bytes]] = {}
        store._closed = False
        store.appended_total = 0
        store.checkpoints_total = 0
        store.compactions_total = 0
        store.recovered_wal_records = 0
        store.truncated_wal_bytes = 0

        try:
            if not readonly:
                # Recovery below is destructive (WAL truncation, stray
                # sweep): refuse to run it under a live writer.
                store._lock_file = _acquire_store_lock(path)

                # Sweep strays from a crashed segment write / compaction.
                live = set(manifest["segments"])
                for stray in path.glob("*.tmp"):
                    stray.unlink()
                for candidate in path.glob(_SEGMENT_GLOB):
                    if candidate.name not in live:
                        candidate.unlink()

            for name in manifest["segments"]:
                store._readers.append(SegmentReader(path / name))
            max_seq = 0
            for reader in store._readers:
                for entry in reader.entries:
                    if entry.seq > max_seq:
                        max_seq = entry.seq

            if readonly:
                # Scan-only recovery: expose the intact WAL prefix
                # without truncating a live writer's (or anyone's) log.
                wal_path = path / _WAL_NAME
                payloads: List[bytes] = []
                if wal_path.exists() and wal_path.stat().st_size > 0:
                    payloads, store._wal_ro_size, _torn = scan_wal(wal_path)
            else:
                store._wal = WriteAheadLog(path / _WAL_NAME, fsync=fsync,
                                           fsync_batch=fsync_batch)
                store.truncated_wal_bytes = store._wal.truncated_bytes
                payloads = store._wal.recovered
            sealed_max_seq = max_seq
            for payload in payloads:
                meta, record = _wal_unframe(payload)
                seq = meta["seq"]
                if seq <= sealed_max_seq:
                    # Crash landed between sealing a segment and
                    # resetting the WAL: the record is already durable
                    # in a segment.
                    continue
                entry = ((seq, meta["vm"], meta["vdisk"], meta["start_ns"],
                          meta["end_ns"], meta["tier"], meta["records"]),
                         bytes(record))
                if seq <= max_seq:
                    # Duplicate WAL seq: a group-commit append failed
                    # *after* buffering its frame (the batch sync
                    # raised), so the store never advanced the sequence
                    # and the retry reused it.  Only the later frame
                    # was ever acknowledged — last write wins.
                    if store._wal_records \
                            and store._wal_records[-1][0][0] == seq:
                        store._wal_records[-1] = entry
                    continue
                store._wal_records.append(entry)
                max_seq = seq
            store.recovered_wal_records = len(store._wal_records)
            store._next_seq = max_seq + 1
        except BaseException:
            for reader in store._readers:
                reader.close()
            if store._wal is not None:
                store._wal.close()
            _release_store_lock(store._lock_file)
            raise
        return store

    @classmethod
    def create(cls, path, tiers_ns: Sequence[int] = DEFAULT_TIERS_NS,
               fsync: str = "batch", fsync_batch: int = 64,
               wal_seal_records: int = 512) -> "HistogramStore":
        """Initialize a new store in ``path`` (missing or empty dir)."""
        path = Path(path)
        if path.exists():
            if not path.is_dir():
                raise ValueError(
                    f"cannot create histogram store at {path}: "
                    f"not a directory"
                )
            if (path / MANIFEST_NAME).exists():
                raise ValueError(
                    f"cannot create histogram store at {path}: "
                    f"already a histogram store (use open)"
                )
            if any(path.iterdir()):
                raise ValueError(
                    f"cannot create histogram store at {path}: "
                    f"directory is not empty and holds no store manifest"
                )
        else:
            path.mkdir(parents=True)
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": 1,
            "created_unix": time.time(),
            "tiers_ns": [int(w) for w in tiers_ns],
            "next_segment": 1,
            "segments": [],
        }
        _atomic_write_json(path / MANIFEST_NAME, manifest)
        return cls._build(path, manifest, fsync, fsync_batch,
                          wal_seal_records)

    @staticmethod
    def _read_manifest(path: Path) -> Dict:
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise ValueError(
                f"not a histogram store: {path} has no {MANIFEST_NAME}"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"not a histogram store: {path} has an unreadable "
                f"{MANIFEST_NAME} ({exc})"
            ) from None
        if not isinstance(manifest, dict) \
                or manifest.get("format") != _MANIFEST_FORMAT:
            raise ValueError(
                f"not a histogram store: {path} manifest format is "
                f"{manifest.get('format') if isinstance(manifest, dict) else manifest!r}, "
                f"expected {_MANIFEST_FORMAT!r}"
            )
        return manifest

    @classmethod
    def open(cls, path, fsync: str = "batch", fsync_batch: int = 64,
             wal_seal_records: int = 512,
             readonly: bool = False) -> "HistogramStore":
        """Open an existing store; never creates or modifies a foreign
        directory — a missing, empty or unrecognized ``path`` raises
        :class:`ValueError` naming it.

        ``readonly=True`` opens without the writer lock and without
        recovery side effects (no WAL truncation, no stray sweep), so
        it is safe against a store a live daemon is writing; every
        mutating method then raises :class:`ValueError`.
        """
        path = Path(path)
        if not path.is_dir():
            raise ValueError(f"not a histogram store: {path} "
                             f"is not a directory")
        if not readonly:
            return cls._build(path, cls._read_manifest(path), fsync,
                              fsync_batch, wal_seal_records)
        # A live writer may checkpoint/compact between our manifest
        # read and the segment opens; re-read and retry on a vanished
        # segment (an opened mmap survives a later unlink, so only the
        # open itself can race).
        last_exc: Optional[BaseException] = None
        for _attempt in range(5):
            manifest = cls._read_manifest(path)
            try:
                return cls._build(path, manifest, fsync, fsync_batch,
                                  wal_seal_records, readonly=True)
            except FileNotFoundError as exc:
                last_exc = exc
        raise ValueError(
            f"cannot open histogram store {path} read-only: the "
            f"segment set keeps changing underneath ({last_exc})"
        )

    @classmethod
    def open_or_create(cls, path, **kwargs) -> "HistogramStore":
        """Open ``path`` as a store, creating it when missing/empty."""
        path = Path(path)
        if path.is_dir() and (path / MANIFEST_NAME).exists():
            return cls.open(path, **kwargs)
        return cls.create(path, **kwargs)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    @property
    def tiers_ns(self) -> Tuple[int, ...]:
        return tuple(self._manifest["tiers_ns"])

    def append(self, vm: str, vdisk: str, start_ns: int, end_ns: int,
               collector: Union[VscsiStatsCollector, bytes],
               sync: bool = False) -> int:
        """Persist one epoch snapshot; returns its sequence number.

        ``[start_ns, end_ns)`` is the epoch's half-open span in integer
        nanoseconds.  With ``sync=True`` the record is fsynced before
        returning regardless of the store's batching policy — the
        zero-acknowledged-loss durability point.

        ``collector`` may be an already-encoded codec record (either
        frame version, as :func:`~repro.store.codec.collector_to_bytes`
        writes them): it is stored as it is, so a node that received a
        record over the wire persists it without a decode/re-encode.
        Only the magic is checked here — whoever hands over bytes
        vouches that they decode.
        """
        if self._closed or self.readonly:
            self._check_writable()
        if type(start_ns) is not int:
            start_ns = int(start_ns)
        if type(end_ns) is not int:
            end_ns = int(end_ns)
        if end_ns <= start_ns:
            raise ValueError(
                f"epoch span must be non-empty: [{start_ns}, {end_ns})"
            )
        if start_ns < 0:
            raise ValueError(f"negative epoch start {start_ns}")
        vm = str(vm)
        vdisk = str(vdisk)
        seq = self._next_seq
        if isinstance(collector, (bytes, bytearray, memoryview)):
            record = bytes(collector)
            if record[:len(COLLECTOR_MAGIC)] not in (COLLECTOR_MAGIC,
                                                     COLLECTOR_MAGIC_V2):
                raise ValueError("not a collector record: bad magic")
        else:
            record = collector_to_bytes(collector)
        names = self._name_bytes.get((vm, vdisk))
        if names is None:
            vm_bytes = vm.encode("utf-8")
            vdisk_bytes = vdisk.encode("utf-8")
            if len(vm_bytes) > 255 or len(vdisk_bytes) > 255:
                names = ()  # binary meta can't hold it; JSON always can
            else:
                names = (len(vm_bytes), len(vdisk_bytes),
                         vm_bytes + vdisk_bytes)
            self._name_bytes[(vm, vdisk)] = names
        if names:
            meta_bytes = _META_BIN.pack(
                _META_MARKER, names[0], names[1], 0, 1,
                seq, start_ns, end_ns) + names[2]
            self._wal.append(b"".join((_METALEN.pack(len(meta_bytes)),
                                       meta_bytes, record)))
        else:
            self._wal.append(_wal_frame(
                {"seq": seq, "vm": vm, "vdisk": vdisk,
                 "start_ns": start_ns, "end_ns": end_ns, "tier": 0,
                 "records": 1}, record))
        if sync:
            self._wal.sync()
        self._next_seq += 1
        self.appended_total += 1
        self._wal_records.append(
            ((seq, vm, vdisk, start_ns, end_ns, 0, 1), record))
        self._index = None  # record set changed: drop the query index
        if len(self._wal_records) >= self._wal_seal_records:
            self.checkpoint()
        return seq

    def append_epoch(self, service, start_ns: int,
                     end_ns: int, sync: bool = False) -> int:
        """Persist every disk of a sealed epoch; returns the number of
        records appended.

        ``service`` is a :class:`~repro.core.service.HistogramService`
        or an iterable of ``((vm, vdisk), collector-or-record)`` pairs
        (see :meth:`append` for records), written in the order given.
        """
        if hasattr(service, "collectors"):
            service = service.collectors()
        count = 0
        for (vm, vdisk), collector in service:
            self.append(vm, vdisk, start_ns, end_ns, collector)
            count += 1
        if sync and count:
            self.sync()
        return count

    def sync(self) -> None:
        """Force the WAL durability point forward to now."""
        self._check_writable()
        self._wal.sync()

    def checkpoint(self) -> Optional[str]:
        """Seal the WAL tail into a new immutable segment.

        Returns the new segment's file name, or ``None`` when the WAL
        is empty.  Ordering — segment durable, manifest durable, WAL
        truncated — makes every crash window recoverable.
        """
        self._check_writable()
        if not self._wal_records:
            return None
        name = f"seg-{self._manifest['next_segment']:08d}.seg"
        write_segment(self.path / name,
                      ((dict(zip(_META_KEYS, meta)), record)
                       for meta, record in self._wal_records))
        self._manifest["next_segment"] += 1
        self._manifest["segments"].append(name)
        _atomic_write_json(self.path / MANIFEST_NAME, self._manifest)
        self._wal.reset()
        self._wal_records = []
        self._readers.append(SegmentReader(self.path / name))
        self._index = None  # handles now point at the sealed segment
        self.checkpoints_total += 1
        return name

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def records(self) -> Iterator[StoreRecord]:
        """Every live record: sealed segments first, then the WAL tail."""
        self._check_open()
        for reader in self._readers:
            for entry in reader.entries:
                yield StoreRecord(
                    entry.seq, entry.vm, entry.vdisk, entry.start_ns,
                    entry.end_ns, entry.tier, entry.records,
                    reader=reader, entry=entry,
                )
        for (seq, vm, vdisk, start_ns, end_ns, tier, records), record \
                in self._wal_records:
            yield StoreRecord(
                seq, vm, vdisk, start_ns, end_ns, tier, records,
                payload=record,
            )

    def tail(self, after_seq: int = -1) -> List[StoreRecord]:
        """Records with ``seq > after_seq``, in sequence order.

        The incremental read a watch loop performs between polls: keep
        the highest seq seen, re-open the store (a readonly open
        snapshots the segment set), and ``tail`` past the watermark.
        Sequence numbers are assigned monotonically at append time, so
        for a live tier-0 store this is exactly "the epochs sealed
        since last time".  Compaction folds old records into *new*
        (higher-seq, ``tier > 0``) granules — a tailer that must see
        raw epochs only should skip ``record.tier != 0``.
        """
        self._check_open()
        return sorted((h for h in self.records() if h.seq > after_seq),
                      key=lambda h: h.seq)

    def __len__(self) -> int:
        """Live record count (post-compaction granules)."""
        return (sum(len(r.entries) for r in self._readers)
                + len(self._wal_records))

    @property
    def epochs(self) -> int:
        """Raw source epochs represented across all live records."""
        return sum(h.records for h in self.records())

    def disks(self) -> List[Tuple[str, str]]:
        """Sorted distinct ``(vm, vdisk)`` keys present in the store."""
        return sorted({(h.vm, h.vdisk) for h in self.records()})

    def query(self, start_ns: int, end_ns: int,
              vm: Optional[str] = None,
              vdisk: Optional[str] = None) -> QueryResult:
        """Range query ``[start_ns, end_ns]`` (see
        :mod:`repro.store.query` for the exactness contract).

        Queries run through a cached :class:`QueryIndex` built over the
        current record set and invalidated by every mutation
        (append/checkpoint/compact/retire), so the repeated/overlapping
        windows of a watch loop skip re-scanning and re-closing."""
        self._check_open()
        if self._index is None:
            self._index = QueryIndex(self.records())
        return self._index.query(start_ns, end_ns, vm=vm, vdisk=vdisk)

    # ------------------------------------------------------------------
    # Compaction / retention
    # ------------------------------------------------------------------
    def compact(self, retain_before_ns: Optional[int] = None,
                tiers_ns: Optional[Sequence[int]] = None) -> Dict:
        """Fold records into coarser tiers (and optionally drop aged
        ones), rewriting the segment set atomically.

        Returns a summary dict.  The rewrite is all-or-nothing: the new
        segment lands durably, then the manifest flips to it, then old
        segment files are unlinked — a crash at any point leaves either
        the old store or the new one, never a blend.
        """
        self._check_writable()
        self.checkpoint()
        handles = sorted(self.records(),
                         key=lambda h: (h.start_ns, h.end_ns, h.vm,
                                        h.vdisk, h.seq))
        kept, dropped = select_retained(handles, retain_before_ns)
        plan = plan_compaction(
            kept, self.tiers_ns if tiers_ns is None else tiers_ns
        )
        summary = {
            "records_before": len(handles),
            "records_dropped": len(dropped),
            "merges": plan.merges,
            "records_after": len(plan.passthrough) + plan.merges,
        }
        if not plan.merged and not dropped and len(self._readers) <= 1:
            summary["rewritten"] = False
            return summary

        new_records: List[Tuple[Dict, bytes]] = []
        for h in plan.passthrough:
            # Verbatim frame copy — no decode/re-encode, and v1 frames
            # stay v1 in place.  The copy matters: the raw view points
            # into a segment mmap this rewrite is about to unlink.
            new_records.append((h.meta(), bytes(h.raw())))
        for group in plan.merged:
            members = sorted(group.members,
                             key=lambda h: (h.start_ns, h.end_ns, h.seq))
            merged = merge_collector_payloads([m.raw() for m in members])
            meta = {"seq": self._next_seq, "vm": group.vm,
                    "vdisk": group.vdisk, "start_ns": group.start_ns,
                    "end_ns": group.end_ns, "tier": group.tier,
                    "records": sum(m.records for m in members)}
            self._next_seq += 1
            new_records.append((meta, collector_to_bytes(merged)))
        new_records.sort(key=lambda pair: (pair[0]["start_ns"],
                                           pair[0]["end_ns"],
                                           pair[0]["vm"], pair[0]["vdisk"],
                                           pair[0]["seq"]))

        old_names = list(self._manifest["segments"])
        if new_records:
            name = f"seg-{self._manifest['next_segment']:08d}.seg"
            write_segment(self.path / name, new_records)
            self._manifest["next_segment"] += 1
            self._manifest["segments"] = [name]
        else:
            self._manifest["segments"] = []
        _atomic_write_json(self.path / MANIFEST_NAME, self._manifest)
        for reader in self._readers:
            reader.close()
        self._readers = []
        for old in old_names:
            (self.path / old).unlink()
        if new_records:
            self._readers.append(SegmentReader(self.path / name))
        self._index = None  # every segment handle was just replaced
        self.compactions_total += 1
        summary["rewritten"] = True
        return summary

    def retire_segments(self, before_ns: int) -> List[str]:
        """Unlink whole segments whose every record ended at or before
        ``before_ns`` — age-based retention without a rewrite.  Returns
        the deleted segment file names."""
        self._check_writable()
        doomed, survivors, kept_readers = [], [], []
        for reader in self._readers:
            if reader.entries and all(e.end_ns <= before_ns
                                      for e in reader.entries):
                doomed.append(reader)
            else:
                survivors.append(reader.path.name)
                kept_readers.append(reader)
        if not doomed:
            return []
        self._manifest["segments"] = survivors
        _atomic_write_json(self.path / MANIFEST_NAME, self._manifest)
        names = []
        for reader in doomed:
            names.append(reader.path.name)
            reader.close()
            reader.path.unlink()
        self._readers = kept_readers
        self._index = None  # retired handles must not serve queries
        return names

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def inspect(self) -> Dict:
        """Operational summary: segments, spans, tiers, WAL state."""
        self._check_open()
        segments = []
        for reader in self._readers:
            entries = reader.entries
            segments.append({
                "file": reader.path.name,
                "bytes": reader.path.stat().st_size,
                "records": len(entries),
                "epochs": sum(e.records for e in entries),
                "tiers": sorted({e.tier for e in entries}),
                "start_ns": min((e.start_ns for e in entries),
                                default=None),
                "end_ns": max((e.end_ns for e in entries), default=None),
            })
        all_handles = list(self.records())
        return {
            "path": str(self.path),
            "format": _MANIFEST_FORMAT,
            "readonly": self.readonly,
            "tiers_ns": list(self.tiers_ns),
            "segments": segments,
            "wal": {
                "records": len(self._wal_records),
                "bytes": (self._wal.size if self._wal is not None
                          else self._wal_ro_size),
                "recovered_records": self.recovered_wal_records,
                "truncated_bytes": self.truncated_wal_bytes,
            },
            "records": len(all_handles),
            "epochs": sum(h.records for h in all_handles),
            "start_ns": min((h.start_ns for h in all_handles),
                            default=None),
            "end_ns": max((h.end_ns for h in all_handles), default=None),
            "disks": [f"{vm}/{vdisk}" for vm, vdisk in self.disks()],
        }

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"histogram store {self.path} is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if self.readonly:
            raise ValueError(
                f"histogram store {self.path} is open read-only"
            )

    def close(self) -> None:
        """Flush the WAL, release every mapping and the writer lock."""
        if self._closed:
            return
        if self._wal is not None:
            self._wal.close()
        for reader in self._readers:
            reader.close()
        self._index = None
        _release_store_lock(self._lock_file)
        self._lock_file = None
        self._closed = True

    def __enter__(self) -> "HistogramStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (f"<HistogramStore {state} {self.path} "
                f"segments={len(self._readers)} "
                f"wal={len(self._wal_records)}>")
