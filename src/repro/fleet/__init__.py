"""``repro.fleet`` — hierarchical epoch-snapshot aggregation.

The fleet tier turns per-host characterization daemons into a global
view: hosts forward sealed epoch snapshots upward through an N-level
tree of :class:`FleetAggregator` nodes to a single root.  Every layer
merges with the same exact, associative histogram machinery the rest
of the repo is built on, so the root's global snapshot is
byte-identical to a single collector that had seen every record — and
the tree is free to be any shape, re-shape on failures, and replay on
reconnects without that identity breaking.

Quick tour::

    root     = FleetAggregator(port=7401, store="./fleethist")
    regional = FleetAggregator(port=7402,
                               parents=[("127.0.0.1", 7401)])
    uplink   = FleetUplink([("127.0.0.1", 7402)], host="esx-42")
    server   = LiveStatsServer(on_seal=uplink.on_seal)

See ``docs/fleet.md`` for the topology, frame flow, staleness model
and failure behavior, and ``repro fleet --help`` for the CLI.
"""

from .aggregator import FleetAggregator
from .protocol import (
    FRAME_SNAPSHOT,
    encode_host_snapshot,
    fleet_rpc,
    pack_snapshot,
    parse_parents,
    snapshot_extents,
    unpack_snapshot,
)
from .queries import (
    FAMILIES,
    histogram_percentile,
    percentile_doc,
    resolve_metric,
    topk,
)
from .state import COMPACT_AT, FleetLedger, HostState
from .uplink import FleetUplink

__all__ = [
    "COMPACT_AT",
    "FAMILIES",
    "FRAME_SNAPSHOT",
    "FleetAggregator",
    "FleetLedger",
    "FleetUplink",
    "HostState",
    "encode_host_snapshot",
    "fleet_rpc",
    "histogram_percentile",
    "pack_snapshot",
    "parse_parents",
    "percentile_doc",
    "resolve_metric",
    "snapshot_extents",
    "topk",
    "unpack_snapshot",
]
