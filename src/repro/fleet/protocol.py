"""Wire protocol of the fleet aggregation tier.

The fleet tier speaks the live daemon's frames verbatim
(:mod:`repro.live.protocol`): children publish sealed epochs as
``SNAPSHOT`` (0x04) frames — an extent header plus ``RPHCOL2``
records behind the ``DATA_SEQ`` ``(session, seq)`` retry identity —
and control traffic uses ``CONTROL``/``OK``/``TEXT``/``ERROR``
unchanged; see :class:`repro.fleet.aggregator.FleetAggregator` for the
op table.  The frame's names are re-exported here.

``(session, seq)`` dedup answers a retry on one link from the ack
cache.  Cross-link idempotence (a re-parented uplink replaying epochs
a previous parent already forwarded) is handled one layer up by the
per-``(host, epoch)`` watermarks in
:class:`repro.fleet.state.FleetLedger`.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from ..live.protocol import (
    FRAME_SNAPSHOT,
    encode_host_snapshot,
    pack_snapshot,
    snapshot_extents,
    unpack_snapshot,
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
