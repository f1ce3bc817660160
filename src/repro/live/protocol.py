"""Wire protocol of the live characterization daemon.

Every message in both directions is a *frame*::

    +----------------+--------------+------------------+
    | length (u32 BE)| type (u8)    | payload          |
    +----------------+--------------+------------------+

``length`` covers the type byte plus the payload.  Request frames:

* ``CONTROL`` (0x02) — a UTF-8 JSON object ``{"op": ...}``; see
  ``docs/live.md`` for the op table.
* ``DATA_SEQ`` (0x03) — a run of completed SCSI commands for one
  virtual disk, with a retry identity.  Payload: ``u16 BE`` session-id
  length, session id (UTF-8), ``u64 BE`` sequence number (starting at
  1, incremented per frame), then the record body: ``u16 BE`` vm-name
  length, vm name (UTF-8), ``u16 BE`` vdisk-name length, vdisk name,
  then raw 40-byte ``VSCSITR1`` records (the exact on-disk layout of
  :data:`repro.core.tracing.BINARY_RECORD_FORMAT`, no magic).  Because
  the records *are* the columnar trace dtype, the server views them
  with ``np.frombuffer`` and lands directly in the collector's batch
  hooks — zero per-record parsing.  The server remembers, per session,
  the last sequence number and the exact response bytes it produced,
  so a client that lost an ack to a broken connection can resend the
  same frame and receive the original ack instead of double-ingesting
  — the mechanism behind :class:`repro.live.client.LiveStatsClient`'s
  idempotent retry.
* ``SNAPSHOT`` (0x04) — one epoch of one host (or cluster worker),
  with the same retry identity.  Payload: the ``DATA_SEQ`` session
  header, then ``u32 BE`` header length, a JSON header ``{"host",
  "epoch", "records", "start_ns", "end_ns", "sealed_unix", "disks":
  [{"vm", "vdisk", "off", "len"}, ...]}``, then the concatenated
  ``RPHCOL2`` collector records the extents point into.  A fleet
  uplink sends one per sealed epoch to a
  :class:`~repro.fleet.aggregator.FleetAggregator`; a cluster worker
  sends one per epoch down its fan-in pipe to the coordinator.

Response frames:

* ``OK`` (0x81) — UTF-8 JSON result object.
* ``TEXT`` (0x82) — raw UTF-8 text (the OpenMetrics exposition).
* ``ERROR`` (0xEE) — UTF-8 JSON ``{"error": message}``.

Malformed input raises :class:`ProtocolError`, which the server turns
into an ``ERROR`` response; so does any other request type.  Frames
above :data:`MAX_FRAME_BYTES` are rejected before any allocation, so a
corrupt length prefix cannot make the daemon balloon.

Epochs travel between tiers in ``SNAPSHOT`` frames — sealed and live
ones over the cluster's fan-in pipes, sealed ones up the fleet tree —
as one ``RPHCOL2`` collector record per disk behind a ``{vm, vdisk,
off, len}`` extent list (:func:`encode_extents`,
:func:`snapshot_extents`); the names travel beside the records, so any
name is carried exactly.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as _np

from ..core.tracing import BINARY_RECORD_FORMAT
from ..parallel.trace_io import (
    TraceColumns,
    buffer_to_columns,
    columns_to_bytes,
)
from ..store.codec import collector_to_bytes

__all__ = [
    "FRAME_CONTROL",
    "FRAME_DATA_SEQ",
    "FRAME_ERROR",
    "FRAME_OK",
    "FRAME_SNAPSHOT",
    "FRAME_TEXT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "RECORD_BYTES",
    "ProtocolError",
    "bytes_to_columns",
    "columns_to_bytes",
    "encode_extents",
    "encode_host_snapshot",
    "pack_control",
    "pack_data_seq",
    "pack_error",
    "pack_frame",
    "pack_ok",
    "pack_redirect",
    "pack_session_head",
    "pack_snapshot",
    "pack_text",
    "read_frame",
    "read_frame_view",
    "snapshot_extents",
    "sort_columns_for_stream",
    "unpack_control",
    "unpack_data_seq",
    "unpack_session_head",
    "unpack_snapshot",
]

PROTOCOL_VERSION = 1

FRAME_CONTROL = 0x02
FRAME_DATA_SEQ = 0x03
FRAME_SNAPSHOT = 0x04
FRAME_OK = 0x81
FRAME_TEXT = 0x82
FRAME_ERROR = 0xEE

#: Hard ceiling on one frame's (type + payload) size: a corrupt length
#: prefix must not turn into a multi-gigabyte allocation.  32 MiB is
#: room for ~800k records per data frame.
MAX_FRAME_BYTES = 32 * 1024 * 1024

#: Size of one wire record (identical to the trace-file record).
RECORD_BYTES = struct.calcsize(BINARY_RECORD_FORMAT)

_LEN = struct.Struct("!I")
_TYPE = struct.Struct("!B")
_NAME_LEN = struct.Struct("!H")
_SEQ = struct.Struct("!Q")


class ProtocolError(ValueError):
    """A malformed frame, name, body or command stream."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def pack_frame(ftype: int, payload: bytes = b"") -> bytes:
    """Serialize one frame (length prefix + type byte + payload)."""
    if not 0 <= ftype <= 0xFF:
        raise ProtocolError(f"frame type {ftype} out of range")
    body = _TYPE.pack(ftype) + payload
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return _LEN.pack(len(body)) + body


def read_frame(stream) -> Optional[Tuple[int, bytes]]:
    """Read one frame from a binary file object.

    Returns ``(type, payload)``, or ``None`` on a clean EOF at a frame
    boundary.  Raises :class:`ProtocolError` on a truncated frame, a
    zero-length body or an oversized length prefix.
    """
    head = stream.read(_LEN.size)
    if not head:
        return None
    if len(head) != _LEN.size:
        raise ProtocolError("truncated frame length prefix")
    (length,) = _LEN.unpack(head)
    if length < 1:
        raise ProtocolError("frame missing its type byte")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME_BYTES"
        )
    body = stream.read(length)
    if len(body) != length:
        raise ProtocolError("truncated frame body")
    return body[0], body[1:]


def read_frame_view(stream, head=None) -> Optional[Tuple[int, memoryview]]:
    """:func:`read_frame` for the server's zero-copy ingest path.

    Same contract, two allocation differences: the 4-byte length
    prefix is read into a caller-preallocated scratch buffer
    (``head``, a ``bytearray`` of at least 4 bytes, reused across
    every frame on a connection), and the payload is returned as a
    :class:`memoryview` over the single body read — no ``body[1:]``
    copy — so ``np.frombuffer`` downstream views the received bytes
    directly.
    """
    if head is None:
        head = bytearray(_LEN.size)
    got = 0
    while got < _LEN.size:
        n = stream.readinto(memoryview(head)[got:_LEN.size])
        if not n:
            if got == 0:
                return None
            raise ProtocolError("truncated frame length prefix")
        got += n
    (length,) = _LEN.unpack_from(head)
    if length < 1:
        raise ProtocolError("frame missing its type byte")
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds MAX_FRAME_BYTES"
        )
    body = stream.read(length)
    if len(body) != length:
        raise ProtocolError("truncated frame body")
    return body[0], memoryview(body)[1:]


# ----------------------------------------------------------------------
# Data frames
# ----------------------------------------------------------------------
def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ProtocolError(f"name of {len(raw)} bytes is too long")
    return _NAME_LEN.pack(len(raw)) + raw


def pack_session_head(session: str, seq: int) -> bytes:
    """The retry identity opening every sequenced frame (``DATA_SEQ``,
    ``SNAPSHOT``): ``u16 BE`` session-id length, session id
    (UTF-8), ``u64 BE`` sequence number >= 1."""
    if seq < 1:
        raise ProtocolError(f"sequence number must be >= 1, got {seq}")
    if not session:
        raise ProtocolError("session id must be non-empty")
    return _pack_name(session) + _SEQ.pack(seq)


def unpack_session_head(view: memoryview,
                        frame: str) -> Tuple[str, int, int]:
    """Parse :func:`pack_session_head` at the start of ``view``:
    ``(session, seq, offset past it)``; ``frame`` names the frame type
    in errors."""
    if len(view) < _NAME_LEN.size:
        raise ProtocolError(f"{frame} truncated in its session header")
    (slen,) = _NAME_LEN.unpack_from(view, 0)
    offset = _NAME_LEN.size
    if len(view) < offset + slen + _SEQ.size:
        raise ProtocolError(f"{frame} truncated in its session header")
    try:
        session = bytes(view[offset:offset + slen]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable session id: {exc}") from None
    offset += slen
    (seq,) = _SEQ.unpack_from(view, offset)
    if not session or seq < 1:
        raise ProtocolError(
            f"{frame} needs a non-empty session id and a sequence "
            f"number >= 1"
        )
    return session, seq, offset + _SEQ.size


def pack_data_seq(session: str, seq: int, vm: str, vdisk: str,
                  body: bytes) -> bytes:
    """Build a ``DATA_SEQ`` frame: raw records for one disk behind a
    retry identity.

    ``session`` names one logical publishing stream (it survives
    reconnects); ``seq`` starts at 1 and increments per frame.  A
    resend of the same ``(session, seq)`` is byte-identical, which is
    what lets the server deduplicate it.
    """
    if len(body) % RECORD_BYTES:
        raise ProtocolError(
            f"data body of {len(body)} bytes is not a whole number of "
            f"{RECORD_BYTES}-byte records"
        )
    return pack_frame(
        FRAME_DATA_SEQ,
        pack_session_head(session, seq)
        + _pack_name(vm) + _pack_name(vdisk) + body,
    )


def unpack_data_seq(payload) -> Tuple[str, int, str, str, memoryview]:
    """Split a ``DATA_SEQ`` payload into
    ``(session, seq, vm, vdisk, record bytes)``.

    The record bytes are a :class:`memoryview` over ``payload`` — never
    a copy — so a server that read the frame with
    :func:`read_frame_view` hands the received bytes straight to
    ``np.frombuffer``.  They compare equal to the equivalent ``bytes``
    and :func:`bytes_to_columns` accepts them.
    """
    view = memoryview(payload)
    session, seq, offset = unpack_session_head(view, "data frame")
    names = []
    for _ in range(2):
        if len(view) < offset + _NAME_LEN.size:
            raise ProtocolError("data frame truncated in its name header")
        (nlen,) = _NAME_LEN.unpack_from(view, offset)
        offset += _NAME_LEN.size
        if len(view) < offset + nlen:
            raise ProtocolError("data frame truncated in a name")
        try:
            names.append(bytes(view[offset:offset + nlen]).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"undecodable name: {exc}") from None
        offset += nlen
    body = view[offset:]
    if len(body) % RECORD_BYTES:
        raise ProtocolError(
            f"data body of {len(body)} bytes is not a whole number of "
            f"{RECORD_BYTES}-byte records"
        )
    return session, seq, names[0], names[1], body


# ----------------------------------------------------------------------
# Record body <-> columns
# ----------------------------------------------------------------------
def bytes_to_columns(body) -> TraceColumns:
    """View a data-frame body as zero-copy trace columns.

    Rejects bodies whose length is not a whole number of records and
    records whose completion precedes their issue (negative latency) —
    the same corruption the trace readers reject, here as a
    :class:`ProtocolError`.  The inverse, :func:`columns_to_bytes`, is
    :func:`repro.parallel.trace_io.columns_to_bytes` itself.
    """
    try:
        return buffer_to_columns(body)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None


def sort_columns_for_stream(columns: TraceColumns) -> TraceColumns:
    """Order columns by ``(issue_ns, serial)`` — the stream order.

    Live ingestion requires each disk's frames to arrive in
    non-decreasing ``(issue, serial)`` order (a real vSCSI capture
    point naturally emits them that way); publishers sort once before
    chunking so any trace, however stored, replays as a valid stream.
    """
    issue = _np.asarray(columns.issue_ns)
    serial = _np.asarray(columns.serial)
    # Most real streams (capture points, replayed trace files) arrive
    # already ordered; detecting that is one vectorized pass, much
    # cheaper than an O(n log n) lexsort plus six gather copies.
    if len(issue) < 2 or bool(
        _np.all(
            (issue[:-1] < issue[1:])
            | ((issue[:-1] == issue[1:]) & (serial[:-1] <= serial[1:]))
        )
    ):
        return columns
    order = _np.lexsort((serial, issue))
    return TraceColumns(*(_np.asarray(col)[order]
                          for col in columns.columns()))


# ----------------------------------------------------------------------
# Snapshot frames
# ----------------------------------------------------------------------
def encode_extents(pairs) -> Tuple[List[Dict], bytes]:
    """Encode ``((vm, vdisk), collector)`` pairs as ``(disks, payload)``.

    Each collector becomes one ``RPHCOL2`` record in ``payload`` and one
    ``{"vm", "vdisk", "off", "len"}`` entry in ``disks``, so a receiver
    slices per-disk records out without decoding
    (:func:`snapshot_extents`).
    """
    disks: List[Dict] = []
    chunks: List[bytes] = []
    offset = 0
    for (vm, vdisk), collector in pairs:
        record = collector_to_bytes(collector)
        disks.append({"vm": vm, "vdisk": vdisk,
                      "off": offset, "len": len(record)})
        chunks.append(record)
        offset += len(record)
    return disks, b"".join(chunks)


def snapshot_extents(header: Dict,
                     payload) -> Iterator[Tuple[Tuple[str, str], bytes]]:
    """Yield ``((vm, vdisk), record bytes)`` per extent of
    ``header["disks"]``, sliced out of ``payload``."""
    view = memoryview(payload)
    for extent in header["disks"]:
        key = (extent["vm"], extent["vdisk"])
        yield key, bytes(view[extent["off"]:extent["off"] + extent["len"]])


def pack_snapshot(session: str, seq: int, header: Dict,
                  payload: bytes) -> bytes:
    """Build a ``SNAPSHOT`` frame from an extent header + record bytes.

    ``session`` names one uplink→parent link (it survives reconnects)
    or one cluster worker's fan-in pipe (``worker-<i>``); ``seq``
    starts at 1 and increments per frame on that link.  A
    resend of the same ``(session, seq)`` must be byte-identical —
    that is what lets the parent answer it from the ack cache.
    """
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return pack_frame(
        FRAME_SNAPSHOT,
        pack_session_head(session, seq)
        + _LEN.pack(len(head)) + head + payload,
    )


def unpack_snapshot(payload) -> Tuple[str, int, Dict, memoryview]:
    """Split a ``SNAPSHOT`` payload into
    ``(session, seq, header, record bytes)``.

    The record bytes come back as a :class:`memoryview` over
    ``payload`` — never a copy — so a server that read the frame with
    ``read_frame_view`` slices per-disk extents zero-copy.  The header
    is validated structurally (host, epoch, extent bounds, one extent
    per disk) so a malformed frame is rejected before any state is
    touched.
    """
    view = memoryview(payload)
    session, seq, offset = unpack_session_head(view, "snapshot frame")
    if len(view) < offset + _LEN.size:
        raise ProtocolError("snapshot frame truncated in its header")
    (head_len,) = _LEN.unpack_from(view, offset)
    offset += _LEN.size
    if len(view) < offset + head_len:
        raise ProtocolError("snapshot frame truncated in its header")
    try:
        header = json.loads(bytes(view[offset:offset + head_len])
                            .decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable snapshot header: {exc}") from None
    offset += head_len
    body = view[offset:]
    _validate_header(header, len(body))
    return session, seq, header, body


def _validate_header(header: Dict, body_len: int) -> None:
    if not isinstance(header, dict):
        raise ProtocolError("snapshot header must be a JSON object")
    host = header.get("host")
    if not isinstance(host, str) or not host:
        raise ProtocolError('snapshot header needs a non-empty "host"')
    epoch = header.get("epoch")
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        raise ProtocolError('snapshot header needs an integer "epoch" >= 0')
    disks = header.get("disks")
    if not isinstance(disks, list):
        raise ProtocolError('snapshot header needs a "disks" extent list')
    seen = set()
    for extent in disks:
        if not isinstance(extent, dict):
            raise ProtocolError("snapshot extent must be a JSON object")
        off, length = extent.get("off"), extent.get("len")
        if (not isinstance(off, int) or not isinstance(length, int)
                or isinstance(off, bool) or isinstance(length, bool)
                or off < 0 or length < 0 or off + length > body_len):
            raise ProtocolError(
                f"snapshot extent {extent.get('vm')}/{extent.get('vdisk')} "
                f"overruns its {body_len}-byte payload"
            )
        if not isinstance(extent.get("vm"), str) \
                or not isinstance(extent.get("vdisk"), str):
            raise ProtocolError("snapshot extent needs vm and vdisk names")
        key = (extent["vm"], extent["vdisk"])
        if key in seen:
            # One record per disk per epoch: two would be merged into
            # one stored record but judged as two epochs by the
            # analyzer, and no encoder produces them.
            raise ProtocolError(
                f"snapshot header names disk {key[0]}/{key[1]} twice")
        seen.add(key)


def encode_host_snapshot(host: str, epoch) -> Tuple[Dict, bytes]:
    """The ``SNAPSHOT`` header and payload of one sealed
    :class:`~repro.live.epochs.Epoch` for ``host``.

    The payload is the epoch's own records (encoded once, at seal); the
    header wraps its extents.  ``sealed_unix`` rides along so every
    aggregator up the tree can measure snapshot staleness against its
    own clock.
    """
    payload = epoch.payload
    header = {
        "host": host,
        "epoch": epoch.index,
        "records": epoch.records,
        "start_ns": epoch.start_ns,
        "end_ns": epoch.end_ns,
        "sealed_unix": epoch.sealed_unix,
        "disks": epoch.disks,
    }
    if 23 + len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - huge hosts
        raise ProtocolError(
            f"snapshot payload of {len(payload)} bytes exceeds the frame "
            f"ceiling; rotate more often or split the host"
        )
    return header, payload


# ----------------------------------------------------------------------
# Control / response frames
# ----------------------------------------------------------------------
def pack_control(op: Dict) -> bytes:
    """Build a ``CONTROL`` frame from an op object."""
    return pack_frame(FRAME_CONTROL, json.dumps(op).encode("utf-8"))


def unpack_control(payload) -> Dict:
    """Parse a ``CONTROL`` payload; must be a JSON object with "op"."""
    try:
        if isinstance(payload, memoryview):
            payload = bytes(payload)
        op = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable control frame: {exc}") from None
    if not isinstance(op, dict) or not isinstance(op.get("op"), str):
        raise ProtocolError('control frame must be a JSON object with "op"')
    return op


def pack_ok(result: Dict) -> bytes:
    """Build an ``OK`` response frame."""
    return pack_frame(FRAME_OK, json.dumps(result).encode("utf-8"))


def pack_text(text: str) -> bytes:
    """Build a ``TEXT`` response frame (OpenMetrics exposition)."""
    return pack_frame(FRAME_TEXT, text.encode("utf-8"))


def pack_error(message: str) -> bytes:
    """Build an ``ERROR`` response frame."""
    return pack_frame(FRAME_ERROR,
                      json.dumps({"error": message}).encode("utf-8"))


def pack_redirect(message: str, host: str, port: int) -> bytes:
    """Build an ``ERROR`` frame carrying a cluster redirect target.

    A cluster worker answers a data frame for a disk it does not own
    with one of these; the client re-routes the frame to ``(host,
    port)`` (see :class:`repro.live.client.LiveStatsClient` and
    :mod:`repro.live.cluster`).  Non-cluster-aware clients see a plain
    error, which is the correct degradation.
    """
    return pack_frame(
        FRAME_ERROR,
        json.dumps({"error": message,
                    "redirect": [host, port]}).encode("utf-8"),
    )
