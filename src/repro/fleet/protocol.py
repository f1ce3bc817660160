"""Wire protocol of the fleet aggregation tier.

The fleet tier reuses the live daemon's framing verbatim (``u32 BE``
length, ``u8`` type, payload — :mod:`repro.live.protocol`) and adds one
request frame:

* ``SNAPSHOT`` (0x04) — one sealed epoch from one host, with retry
  identity.  Payload::

      u16 BE session-id length | session id (UTF-8) |
      u64 BE sequence number   |
      u32 BE header length     | header (JSON, UTF-8) |
      concatenated RPHCOL2 collector records

  The header is ``{"host", "epoch", "records", "start_ns", "end_ns",
  "sealed_unix", "disks": [{"vm", "vdisk", "off", "len"}, ...]}`` —
  the same extent scheme the cluster fan-in uses, so an aggregator
  slices per-disk records out of the payload without copying or
  decoding until merge time, and a regional node relays the header +
  payload upward byte-for-byte.

  ``(session, seq)`` is the DATA_SEQ exactly-once discipline from the
  live protocol: the sequence starts at 1, increments per frame on one
  link, and the receiver answers a retry of an already-processed frame
  from its ack cache.  Cross-link idempotence (a re-parented uplink
  replaying epochs a previous parent already forwarded) is handled one
  layer up by the per-``(host, epoch)`` watermarks in
  :class:`repro.fleet.state.FleetLedger`.

Control traffic uses the live ``CONTROL``/``OK``/``TEXT``/``ERROR``
frames unchanged; see :class:`repro.fleet.aggregator.FleetAggregator`
for the op table.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Tuple, Union

from ..live.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_extents,
    pack_frame,
    pack_session_head,
    snapshot_extents,
    unpack_session_head,
)
from ..live.session import rpc

__all__ = [
    "FRAME_SNAPSHOT",
    "encode_host_snapshot",
    "fleet_rpc",
    "pack_snapshot",
    "parse_parents",
    "snapshot_extents",
    "unpack_snapshot",
]

#: Request frame type of one sealed host epoch (see module docstring).
FRAME_SNAPSHOT = 0x04

_HEAD_LEN = struct.Struct("!I")


def pack_snapshot(session: str, seq: int, header: Dict,
                  payload: bytes) -> bytes:
    """Build a ``SNAPSHOT`` frame from an extent header + record bytes.

    ``session`` names one uplink→parent link (it survives reconnects);
    ``seq`` starts at 1 and increments per frame on that link.  A
    resend of the same ``(session, seq)`` must be byte-identical —
    that is what lets the parent answer it from the ack cache.
    """
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return pack_frame(
        FRAME_SNAPSHOT,
        pack_session_head(session, seq)
        + _HEAD_LEN.pack(len(head)) + head + payload,
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
    if len(view) < offset + _HEAD_LEN.size:
        raise ProtocolError("snapshot frame truncated in its header")
    (head_len,) = _HEAD_LEN.unpack_from(view, offset)
    offset += _HEAD_LEN.size
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
    """Encode one sealed :class:`~repro.live.epochs.Epoch` for ``host``.

    Each disk's collector becomes one ``RPHCOL2`` record and an extent
    entry (:func:`~repro.live.protocol.encode_extents`).
    ``sealed_unix`` rides along so every aggregator up the tree can
    measure snapshot staleness against its own clock.
    """
    disks, payload = encode_extents(epoch.service.collectors())
    header = {
        "host": host,
        "epoch": epoch.index,
        "records": epoch.records,
        "start_ns": epoch.start_ns,
        "end_ns": epoch.end_ns,
        "sealed_unix": epoch.sealed_unix,
        "disks": disks,
    }
    if 23 + len(payload) > MAX_FRAME_BYTES:  # pragma: no cover - huge hosts
        raise ProtocolError(
            f"snapshot payload of {len(payload)} bytes exceeds the frame "
            f"ceiling; rotate more often or split the host"
        )
    return header, payload


def parse_parents(spec: Union[str, List]) -> List[Tuple[str, int]]:
    """Parse an uplink parent list.

    Accepts ``"host:port"``, ``"host:port,host:port"``, or an already
    structured list of ``(host, port)``/``[host, port]`` pairs.  Order
    matters: the first entry is the preferred parent, the rest are
    failover targets.
    """
    if isinstance(spec, str):
        entries: List = [part for part in spec.split(",") if part.strip()]
    else:
        entries = list(spec)
    parents: List[Tuple[str, int]] = []
    for entry in entries:
        if isinstance(entry, str):
            host, sep, port = entry.strip().rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"parent {entry!r} is not of the form host:port")
            parents.append((host, int(port)))
        else:
            host, port = entry
            parents.append((str(host), int(port)))
    if not parents:
        raise ValueError("at least one uplink parent is required")
    return parents


#: One control round-trip against an aggregator: the parsed ``OK``
#: document or the ``TEXT`` payload (OpenMetrics); an ``ERROR`` response
#: raises :class:`~repro.live.session.LiveError`
#: (:func:`repro.live.session.rpc`).
fleet_rpc = rpc
