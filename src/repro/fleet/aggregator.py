"""``FleetAggregator`` — one node of the hierarchical merge tree.

Every aggregator speaks the same protocol downward (children publish
``SNAPSHOT`` frames) and upward (an optional
:class:`~repro.fleet.uplink.FleetUplink` relays every *applied*
snapshot to its own parent, header and payload byte-for-byte).  A node
with no parents is the global root; give it a store and it persists
every applied host epoch, so the fleet's history survives restarts and
is queryable with the ordinary ``repro store`` tooling.

Exactness at this layer (see :mod:`repro.fleet.state` for the model):

* Per-link ``(session, seq)`` ack cache — the live daemon's
  :class:`~repro.live.session.SessionTable`: a retried frame is
  answered with the original ack bytes, never re-merged, and
  ``fleet-hello`` seeds the watermark on reconnect.
* Per-``(host, epoch)`` watermarks — a duplicate arriving through a
  *different* link (re-parented child, full replay) is acknowledged
  ``{"applied": false, "duplicate": true}`` and not merged.  Relay
  happens only on apply, so duplicates also never travel further up.

The control plane exposes the fleet queries: ``topk`` (hottest disks
by any metric spec), ``percentile`` (fleet-wide estimates from merged
bins), ``hosts``/``tenants`` rollups, ``status``, ``snapshot`` and the
OpenMetrics ``metrics`` exposition.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

from ..live.exposition import render_openmetrics
from ..live.protocol import (
    FRAME_CONTROL,
    FRAME_SNAPSHOT,
    ProtocolError,
    pack_ok,
    pack_text,
    snapshot_extents,
    unpack_control,
    unpack_snapshot,
)
from ..live.server import (
    build_analyzer,
    close_store,
    online_info,
    online_metrics,
    open_store,
    store_info,
    verdicts_doc,
)
from ..live.session import FrameServer, SessionTable
from ..store.codec import collector_from_bytes
from .queries import percentile_doc, topk
from .state import FleetLedger
from .uplink import FleetUplink

__all__ = ["FleetAggregator"]

class FleetAggregator:
    """One TCP aggregation node (root or regional).

    ``parents`` (optional) makes this a regional node relaying upward;
    ``store`` (a path or an open
    :class:`~repro.store.HistogramStore`) makes it persist applied
    epochs — typically only the root does.  ``online`` attaches an
    :class:`~repro.analysis.online.OnlineAnalyzer` that observes every
    *applied* host epoch (pass ``True``, a
    :class:`~repro.analysis.online.DriftConfig`, or an analyzer);
    typically only the root enables it, for the same reason only the
    cluster coordinator does — regional nodes see partial views.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 node: Optional[str] = None,
                 parents=None,
                 store=None,
                 idle_timeout: Optional[float] = 60.0,
                 online=False):
        self.host = host
        self.port = port
        self.node = node or f"agg-{uuid.uuid4().hex[:8]}"
        self.ledger = FleetLedger()

        self.store, self._owns_store = open_store(store)
        self.degraded = False
        self.persist_errors: List[Dict] = []

        self.analyzer = build_analyzer(online)
        self.analysis_errors_total = 0

        self.uplink: Optional[FleetUplink] = None
        if parents:
            self.uplink = FleetUplink(parents, host=self.node,
                                      node=self.node)
        self.role = "regional" if self.uplink is not None else "root"

        self._lock = threading.Lock()
        self._sessions = SessionTable("fleet-hello")
        self.duplicate_frames_total = 0
        self.frame_server = FrameServer(
            {FRAME_SNAPSHOT: self._handle_snapshot,
             FRAME_CONTROL: self._handle_control},
            idle_timeout, f"fleet-{self.node}")
        self._started = False
        self._closed = False
        self._started_unix: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "FleetAggregator":
        if self._started:
            raise RuntimeError("aggregator already started")
        self._started = True
        self._started_unix = time.time()
        self.port = self.frame_server.listen(self.host, self.port)[1]
        if self.uplink is not None:
            self.uplink.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def rejected_frames_total(self) -> int:
        return self.frame_server.rejected_frames_total

    def __enter__(self) -> "FleetAggregator":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.frame_server.close()
        if self.uplink is not None:
            self.uplink.drain(timeout=10.0)
            self.uplink.close()
        if self.store is not None and self._owns_store:
            close_store(self.store, lambda message:
                        self._note_persist_failure(None, message))

    # ------------------------------------------------------------------
    # Snapshot ingestion
    # ------------------------------------------------------------------
    def _handle_snapshot(self, payload) -> bytes:
        session, seq, header, body = unpack_snapshot(payload)
        with self._lock:
            response, fresh = self._sessions.serve(
                session, seq, lambda: self._apply(session, seq, header, body))
            if not fresh:
                self.duplicate_frames_total += 1
        return response

    def _apply(self, session: str, seq: int, header: Dict, body) -> bytes:
        """Merge one admitted snapshot (persist, analyse and relay it
        when it is new); its ack.  Under ``_lock``, so relays leave in
        apply order.  The frame is sliced into per-disk records once,
        for the ledger and the store alike."""
        records = sorted(snapshot_extents(header, body))
        applied, staleness = self.ledger.apply(header, body, via=session,
                                               records=records)
        doc = {"applied": applied, "duplicate": not applied,
               "host": header["host"], "epoch": header["epoch"],
               "seq": seq, "node": self.node}
        if staleness is not None:
            doc["staleness_seconds"] = staleness
        if applied and (self.store is not None
                        or self.analyzer is not None):
            self._record(header, records)
        if applied and self.uplink is not None:
            self.uplink.enqueue(header, body)
        return pack_ok(doc)

    def _record(self, header: Dict, records) -> None:
        """Persist, then analyse, one applied snapshot's sorted
        ``(disk key, record)`` pairs (root only).

        Each record is decoded once.  The decode is the validation that
        keeps an undecodable record out of the store, and its
        collectors are what the analyzer reads; what is persisted is
        the received bytes themselves.
        """
        try:
            pairs = [(key, collector_from_bytes(record))
                     for key, record in records]
        except ValueError as exc:
            if self.store is not None:
                self._note_persist_failure(header, str(exc))
            if self.analyzer is not None:
                self.analysis_errors_total += 1
            return
        if self.store is not None:
            self._persist(header, records)
        if self.analyzer is not None:
            self._observe(pairs)

    def _persist(self, header: Dict, records) -> None:
        """Append one applied snapshot's ``(key, record)`` pairs to the
        store as received.

        A store failure degrades instead of crashing — the snapshot is
        already merged in memory and acked exactly-once; losing its
        durability is recorded, not fatal.
        """
        try:
            start_ns = int(header.get("start_ns", 0))
            end_ns = max(int(header.get("end_ns", start_ns + 1)),
                         start_ns + 1)
            self.store.append_epoch(records, start_ns, end_ns, sync=True)
        except (OSError, ValueError) as exc:
            self._note_persist_failure(header, str(exc))

    def _observe(self, pairs) -> None:
        """Feed one applied host epoch's ``(key, collector)`` pairs to
        the online analyzer.

        The analyzer indexes epochs by the fleet-global apply sequence
        (host epoch numbers collide across hosts); a failing analysis
        stage is counted and never blocks the ack path.
        """
        try:
            self.analyzer.observe_epoch(
                pairs, index=self.ledger.epochs_applied_total - 1)
        except (OSError, ValueError):
            self.analysis_errors_total += 1

    def _note_persist_failure(self, header: Optional[Dict],
                              message: str) -> None:
        self.degraded = True
        if len(self.persist_errors) < 64:
            self.persist_errors.append({
                "host": header.get("host") if header else None,
                "epoch": header.get("epoch") if header else None,
                "error": message,
            })

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _handle_control(self, payload) -> bytes:
        op = unpack_control(payload)
        name = op["op"]
        if name == "ping":
            return pack_ok({"pong": True, "fleet": True, "node": self.node,
                            "role": self.role,
                            "hosts": len(self.ledger.hosts)})
        if name == "fleet-hello":
            # A replay of the declared watermark is acknowledged as a
            # seeded duplicate.
            doc = self._sessions.hello(op, lambda seq: pack_ok(
                {"applied": False, "duplicate": True, "seq": seq,
                 "node": self.node, "seeded": True}))
            return pack_ok(dict(doc, node=self.node))
        if name in ("status", "info"):
            return pack_ok(self.info())
        if name == "topk":
            return pack_ok(self.topk(metric=op.get("metric", "commands"),
                                     k=int(op.get("k", 10))))
        if name == "percentile":
            return pack_ok(self.percentile(
                family=op.get("family", "latency_us"),
                q=float(op.get("q", 0.99)),
                op_name=op.get("io", "all")))
        if name == "hosts":
            return pack_ok(self.host_rollup())
        if name == "tenants":
            return pack_ok(self.tenant_rollup())
        if name == "snapshot":
            return pack_ok(self.snapshot_dict())
        if name == "verdicts":
            return pack_ok(self.verdicts_dict())
        if name == "metrics":
            return pack_text(self.openmetrics())
        raise ProtocolError(f"unknown control op {name!r}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def topk(self, metric: str = "commands", k: int = 10) -> Dict:
        with self._lock:
            pairs = self.ledger.global_pairs()
        try:
            ranking = topk(pairs, metric, k)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return {"metric": metric, "k": k, "disks": len(pairs),
                "top": ranking}

    def percentile(self, family: str = "latency_us", q: float = 0.99,
                   op_name: str = "all") -> Dict:
        with self._lock:
            pairs = self.ledger.global_pairs()
        if not pairs:
            raise ProtocolError("no snapshots applied yet")
        aggregate = pairs[0][1]
        # Fold the per-disk merges into one fleet-wide collector; the
        # merge is exact, so the estimate equals one-shot aggregation.
        for _key, collector in pairs[1:]:
            aggregate = aggregate.merge(collector)
        try:
            return percentile_doc(aggregate, family, q, op=op_name)
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None

    def host_rollup(self) -> Dict:
        with self._lock:
            hosts = self.ledger.hosts_doc()
            for host in hosts:
                collector = self.ledger.host_collector(host)
                if collector is not None:
                    hosts[host]["commands"] = collector.commands
                    hosts[host]["bytes"] = collector.total_bytes
        return {"hosts": hosts}

    def tenant_rollup(self) -> Dict:
        with self._lock:
            tenants = {
                vm: {"commands": collector.commands,
                     "reads": collector.read_commands,
                     "writes": collector.write_commands,
                     "bytes": collector.total_bytes}
                for vm, collector in self.ledger.tenant_pairs()
            }
        return {"tenants": tenants}

    def snapshot_dict(self) -> Dict:
        """Global merged snapshot, same per-disk shape as the live
        daemon's documents — the byte-identity surface the tests pin."""
        with self._lock:
            pairs = self.ledger.global_pairs()
            meta = {
                "node": self.node,
                "role": self.role,
                "hosts": len(self.ledger.hosts),
                "epochs_applied": self.ledger.epochs_applied_total,
                "records": self.ledger.records_total,
            }
        meta["disks"] = {f"{vm}/{vdisk}": collector.to_dict()
                        for (vm, vdisk), collector in pairs}
        return meta

    def verdicts_dict(self) -> Dict:
        """Rolling per-disk drift verdicts (root ``verdicts`` query)."""
        with self._lock:
            doc = verdicts_doc(self)
        return dict(doc, node=self.node, role=self.role)

    def info(self) -> Dict:
        with self._lock:
            staleness = self.ledger.staleness_summary()
            children = self._sessions.describe(count="snapshots")
            doc = {
                "fleet": True,
                "node": self.node,
                "role": self.role,
                "address": list(self.address),
                "started_unix": self._started_unix,
                "hosts": len(self.ledger.hosts),
                "host_states": self.ledger.hosts_doc(),
                "children": len(children),
                "child_sessions": children,
                "epochs_applied_total": self.ledger.epochs_applied_total,
                "duplicate_snapshots_total": self.ledger.duplicates_total,
                "duplicate_frames_total": self.duplicate_frames_total,
                "rejected_frames_total": self.rejected_frames_total,
                "records_total": self.ledger.records_total,
                "connections_total": self.frame_server.connections_total,
                "staleness": staleness,
                "degraded": self.degraded,
                "persist_errors": list(self.persist_errors),
            }
            if self.analyzer is not None:
                doc["online"] = online_info(self)
        if self.uplink is not None:
            doc["uplink"] = self.uplink.info()
        if self.store is not None:
            doc["store"] = store_info(self.store, self._owns_store)
        return doc

    def openmetrics(self) -> str:
        """Fleet exposition: the global merge plus ``fleet_*``-style
        node counters (rendered under the shared ``live_`` prefix so
        one scraper config covers daemons and aggregators)."""
        with self._lock:
            pairs = self.ledger.global_pairs()
            staleness = self.ledger.staleness_summary()
            daemon = {
                "fleet_hosts": len(self.ledger.hosts),
                "fleet_children": len(self._sessions),
                "fleet_epochs_applied_total":
                    self.ledger.epochs_applied_total,
                "fleet_duplicate_snapshots_total":
                    self.ledger.duplicates_total,
                "fleet_records_total": self.ledger.records_total,
                "fleet_rejected_frames_total": self.rejected_frames_total,
                "fleet_degraded": 1 if self.degraded else 0,
                "fleet_persist_failures_total": len(self.persist_errors),
            }
            if staleness["p99"] is not None:
                daemon["fleet_staleness_p50_seconds"] = staleness["p50"]
                daemon["fleet_staleness_p99_seconds"] = staleness["p99"]
            verdicts = online_metrics(self, daemon)
        if self.uplink is not None:
            up = self.uplink.info()
            daemon["fleet_relayed_total"] = up["forwarded_total"]
            daemon["fleet_uplink_pending"] = up["pending"]
            daemon["fleet_uplink_reparents_total"] = up["reparents_total"]
        return render_openmetrics(pairs, daemon, verdicts=verdicts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else (
            "running" if self._started else "new")
        return (f"<FleetAggregator {self.role} {state} "
                f"{self.host}:{self.port} hosts={len(self.ledger.hosts)}>")
