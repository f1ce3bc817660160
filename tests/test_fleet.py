"""Fleet tier: hierarchical epoch-snapshot aggregation across hosts.

The invariant every scenario pins is the acceptance criterion of the
subsystem: **an N-level tree fed any schedule of deliveries — out of
order, duplicated through retries or re-parenting, interrupted by
injected link faults — converges to a global snapshot byte-identical
to a single collector that replayed the union of every host's
epochs.**  The merge is exact and associative, dedup is layered
(per-link ack cache + per-``(host, epoch)`` watermarks), so the tree's
shape and failure history are unobservable in the final state.
"""

import json
import socket
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import VscsiStatsCollector
from repro.core.tracing import TraceRecord, replay_into_collector
from repro.faults import FaultPlan, inject
from repro.fleet import (
    FleetAggregator,
    FleetLedger,
    FleetUplink,
    HostState,
    encode_host_snapshot,
    fleet_rpc,
    histogram_percentile,
    pack_snapshot,
    parse_parents,
    resolve_metric,
    snapshot_extents,
    topk,
    unpack_snapshot,
)
from repro.live import EpochLedger, LiveError, LiveStatsClient
from repro.live.epochs import RecordPile
from repro.live.protocol import (
    FRAME_ERROR,
    FRAME_OK,
    ProtocolError,
    pack_control,
    read_frame,
)
from repro.store import HistogramStore
from repro.store.codec import (
    collector_from_bytes,
    collector_to_bytes,
    merge_collector_payloads,
)


def _records(n, seed=7, start_serial=0, start_ns=0):
    """Deterministic synthetic trace in stream order."""
    state = seed
    out = []
    t = start_ns
    for i in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        t += 200 + state % 1500
        latency = 20_000 + (state >> 8) % 400_000
        out.append(TraceRecord(
            start_serial + i, t, t + latency,
            (state >> 3) % (1 << 28), 1 << (state % 6 + 3),
            state % 10 < 7,
        ))
    return out


def _collector(records):
    return replay_into_collector(records, VscsiStatsCollector())


def _host_epochs(host, n_epochs, per_epoch=25, seed=None, vm=None):
    """Seal ``n_epochs`` real epochs for one simulated host.

    Returns ``[(header, payload), ...]`` plus the per-disk raw records
    the one-shot comparison merges directly.
    """
    seed = seed if seed is not None else sum(map(ord, host))
    vm = vm or f"vm-{host}"
    ledger = EpochLedger()
    snapshots = []
    union = {}
    serial = 0
    for index in range(n_epochs):
        records = _records(per_epoch, seed=seed + index,
                           start_serial=serial,
                           start_ns=index * 60_000_000_000)
        serial += len(records)
        collector = _collector(records)
        key = (vm, "scsi0:0")
        epoch = ledger.seal([(key, collector)])
        snapshots.append(encode_host_snapshot(host, epoch))
        union.setdefault(key, []).append(collector_to_bytes(collector))
    return snapshots, union


def _merge_unions(*unions):
    merged = {}
    for union in unions:
        for key, records in union.items():
            merged.setdefault(key, []).extend(records)
    return merged


def _expected_disks(union):
    """One-shot merge of the union of all epoch records, per disk."""
    return {f"{vm}/{vdisk}": merge_collector_payloads(records).to_dict()
            for (vm, vdisk), records in sorted(union.items())}


def _canon(document):
    return json.dumps(document, sort_keys=True)


def _fast_uplink(parents, **kwargs):
    kwargs.setdefault("retry_backoff", 0.002)
    kwargs.setdefault("retry_backoff_cap", 0.02)
    kwargs.setdefault("jitter_seed", 1234)
    return FleetUplink(parents, **kwargs)


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestSnapshotProtocol:
    def test_roundtrip_preserves_bytes_and_header(self):
        (header, payload), _ = _host_epochs("esx-a", 1)[0][0], None
        frame = pack_snapshot("link-1", 3, header, payload)
        ftype, body = read_frame_bytes(frame)
        assert ftype == 0x04
        session, seq, got_header, got_payload = unpack_snapshot(body)
        assert (session, seq) == ("link-1", 3)
        assert got_header == json.loads(json.dumps(header))
        assert bytes(got_payload) == payload
        # The extents slice back to decodable collectors.
        for _key, record in snapshot_extents(got_header, got_payload):
            merge_collector_payloads([record])

    def test_rejects_bad_sequence_and_session(self):
        (header, payload), _ = _host_epochs("esx-a", 1)[0][0], None
        with pytest.raises(ProtocolError):
            pack_snapshot("link", 0, header, payload)
        with pytest.raises(ProtocolError):
            pack_snapshot("", 1, header, payload)

    @pytest.mark.parametrize("mutate", [
        lambda h: h.pop("host"),
        lambda h: h.__setitem__("host", ""),
        lambda h: h.__setitem__("epoch", -1),
        lambda h: h.__setitem__("epoch", True),
        lambda h: h.pop("disks"),
        lambda h: h["disks"][0].__setitem__("len", 1 << 30),
        lambda h: h["disks"][0].__setitem__("off", -4),
        lambda h: h["disks"][0].__setitem__("vm", 7),
        lambda h: h["disks"].append(dict(h["disks"][0])),
    ])
    def test_rejects_malformed_headers(self, mutate):
        (header, payload), _ = _host_epochs("esx-a", 1)[0][0], None
        header = json.loads(json.dumps(header))
        mutate(header)
        frame = pack_snapshot("link", 1, header, payload)
        _ftype, body = read_frame_bytes(frame)
        with pytest.raises(ProtocolError):
            unpack_snapshot(body)

    def test_parse_parents_forms(self):
        assert parse_parents("a:1") == [("a", 1)]
        assert parse_parents("a:1,b:2") == [("a", 1), ("b", 2)]
        assert parse_parents([("a", 1), ["b", "2"]]) == [("a", 1), ("b", 2)]
        with pytest.raises(ValueError):
            parse_parents("")
        with pytest.raises(ValueError):
            parse_parents("no-port")


def read_frame_bytes(frame):
    import io

    return read_frame(io.BytesIO(frame))


# ---------------------------------------------------------------------------
# Watermarks + ledger
# ---------------------------------------------------------------------------
class TestHostState:
    def test_in_order_advances_watermark(self):
        state = HostState()
        for epoch in range(5):
            assert not state.seen(epoch)
            state.mark(epoch)
        assert state.watermark == 4
        assert state.sparse == set()

    def test_out_of_order_parks_in_sparse_then_collapses(self):
        state = HostState()
        state.mark(0)
        state.mark(3)
        state.mark(2)
        assert state.watermark == 0
        assert state.sparse == {2, 3}
        assert state.seen(3) and not state.seen(1)
        state.mark(1)
        assert state.watermark == 3
        assert state.sparse == set()


class TestFleetLedger:
    def test_duplicates_counted_not_merged(self):
        snapshots, union = _host_epochs("esx-a", 3)
        ledger = FleetLedger()
        for header, payload in snapshots:
            applied, staleness = ledger.apply(header, payload)
            assert applied and staleness is not None
        for header, payload in snapshots:
            assert ledger.apply(header, payload) == (False, None)
        assert ledger.duplicates_total == 3
        assert ledger.epochs_applied_total == 3
        got = {f"{vm}/{vdisk}": collector.to_dict()
               for (vm, vdisk), collector in ledger.global_pairs()}
        assert _canon(got) == _canon(_expected_disks(union))

    def test_compaction_is_exact(self):
        """Each host's records live in the shared record pile, whose
        fold past ``compact_at`` is exact."""
        snapshots, union = _host_epochs("esx-a", 12, per_epoch=10)
        ledger = FleetLedger(compact_at=3)
        for header, payload in snapshots:
            ledger.apply(header, payload)
        pile = ledger.hosts["esx-a"].pile
        assert isinstance(pile, RecordPile)
        (bucket,) = pile.by_disk.values()
        assert len(bucket) <= 4  # compacted well below 12
        got = {f"{vm}/{vdisk}": collector.to_dict()
               for (vm, vdisk), collector in ledger.global_pairs()}
        assert _canon(got) == _canon(_expected_disks(union))

    def test_staleness_summary_percentiles(self):
        snapshots, _ = _host_epochs("esx-a", 4)
        ledger = FleetLedger()
        base = 1000.0
        for offset, (header, payload) in enumerate(snapshots):
            header = dict(header, sealed_unix=base)
            ledger.apply(header, payload, now=base + offset + 1)
        summary = ledger.staleness_summary()
        assert summary["samples"] == 4
        assert summary["max"] == pytest.approx(4.0)
        assert summary["p50"] == pytest.approx(2.0)
        assert summary["p99"] == pytest.approx(4.0)

    def test_rollups(self):
        a_snaps, a_union = _host_epochs("esx-a", 2, vm="tenant-1")
        b_snaps, b_union = _host_epochs("esx-b", 2, vm="tenant-1")
        ledger = FleetLedger()
        for header, payload in a_snaps + b_snaps:
            ledger.apply(header, payload)
        host = ledger.host_collector("esx-a")
        expected = merge_collector_payloads(
            [r for records in a_union.values() for r in records])
        assert host.to_dict() == expected.to_dict()
        tenants = ledger.tenant_pairs()
        assert [vm for vm, _ in tenants] == ["tenant-1"]
        both = merge_collector_payloads(
            [r for union in (a_union, b_union)
             for records in union.values() for r in records])
        assert tenants[0][1].commands == both.commands


# ---------------------------------------------------------------------------
# Satellite: the any-schedule byte-identity property
# ---------------------------------------------------------------------------
@st.composite
def delivery_schedules(draw):
    """Hosts × epochs, partitioned and delivered in any interleaving,
    with duplicates replayed as a retried link would."""
    n_hosts = draw(st.integers(min_value=1, max_value=3))
    shapes = [draw(st.integers(min_value=1, max_value=4))
              for _ in range(n_hosts)]
    slots = [(h, e) for h, count in enumerate(shapes)
             for e in range(count)]
    order = draw(st.permutations(slots))
    duplicates = draw(st.lists(
        st.integers(min_value=0, max_value=len(order) - 1),
        max_size=4))
    return shapes, order, duplicates


@given(delivery_schedules())
@settings(max_examples=40, deadline=None)
def test_any_interleaving_matches_one_shot_union(schedule):
    shapes, order, duplicates = schedule
    prepared = {}
    unions = []
    for index, count in enumerate(shapes):
        host = f"esx-{index}"
        # Two hosts share a VM name so cross-host per-disk merging is
        # exercised, not just concatenation of disjoint keys.
        vm = "shared-vm" if index < 2 else f"vm-{host}"
        snapshots, union = _host_epochs(host, count, per_epoch=8,
                                        seed=90 + index, vm=vm)
        prepared[index] = snapshots
        unions.append(union)
    deliveries = [order[i] for i in range(len(order))]
    for position in sorted(duplicates):
        deliveries.append(order[position])

    ledger = FleetLedger()
    applied = 0
    for host_index, epoch_index in deliveries:
        header, payload = prepared[host_index][epoch_index]
        ok, _staleness = ledger.apply(header, payload)
        applied += 1 if ok else 0

    assert applied == len(order)
    assert ledger.duplicates_total == len(deliveries) - len(order)
    got = {f"{vm}/{vdisk}": collector.to_dict()
           for (vm, vdisk), collector in ledger.global_pairs()}
    assert _canon(got) == _canon(_expected_disks(_merge_unions(*unions)))


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------
class TestQueries:
    def test_resolve_metric_vocabulary(self):
        assert resolve_metric("commands")(_collector(_records(5))) == 5
        fn = resolve_metric("io_length.read.count")
        assert fn(_collector(_records(50))) > 0
        with pytest.raises(ValueError):
            resolve_metric("no_such_family.read")
        with pytest.raises(ValueError):
            resolve_metric("latency_us.sideways")

    def test_topk_orders_and_breaks_ties_by_key(self):
        big = _collector(_records(60, seed=1))
        small = _collector(_records(10, seed=2))
        pairs = [(("vm-b", "d0"), small), (("vm-a", "d0"), big),
                 (("vm-c", "d0"), small)]
        ranked = topk(pairs, "commands", k=3)
        assert [row["vm"] for row in ranked] == ["vm-a", "vm-b", "vm-c"]
        assert ranked[0]["value"] == 60

    def test_histogram_percentile_tracks_cumulative_counts(self):
        collector = _collector(_records(200, seed=3))
        hist = collector.latency_us.all
        edge = histogram_percentile(hist, 0.5)
        assert edge is not None
        counted = 0
        for upper, count in zip(hist.scheme.edges, hist.counts):
            counted += count
            if upper >= edge:
                break
        assert counted * 2 >= hist.count
        with pytest.raises(ValueError):
            histogram_percentile(hist, 0.0)


# ---------------------------------------------------------------------------
# End-to-end trees
# ---------------------------------------------------------------------------
class TestFleetTree:
    def test_two_level_byte_identity(self):
        with FleetAggregator(port=0, node="root") as root:
            snapshots, union = _host_epochs("esx-a", 3)
            uplink = _fast_uplink([root.address], host="esx-a")
            with uplink:
                for header, payload in snapshots:
                    uplink.enqueue(header, payload)
                assert uplink.drain(timeout=10.0)
            doc = root.snapshot_dict()
            assert doc["epochs_applied"] == 3
            assert _canon(doc["disks"]) == _canon(_expected_disks(union))
            assert root.info()["staleness"]["samples"] == 3

    def test_three_level_relay_is_byte_identical(self):
        with FleetAggregator(port=0, node="root") as root:
            with FleetAggregator(port=0, node="reg-a",
                                 parents=[root.address]) as reg_a, \
                 FleetAggregator(port=0, node="reg-b",
                                 parents=[root.address]) as reg_b:
                hosts = {"esx-a": reg_a, "esx-b": reg_a, "esx-c": reg_b}
                unions = []
                start = time.time()
                for host, regional in hosts.items():
                    snapshots, union = _host_epochs(host, 2)
                    unions.append(union)
                    with _fast_uplink([regional.address],
                                      host=host) as uplink:
                        for header, payload in snapshots:
                            uplink.enqueue(dict(header,
                                                sealed_unix=time.time()),
                                           payload)
                        assert uplink.drain(timeout=10.0)
                for regional in (reg_a, reg_b):
                    assert regional.uplink.drain(timeout=10.0)
                elapsed = time.time() - start
            expected = _expected_disks(_merge_unions(*unions))
            doc = root.snapshot_dict()
            assert doc["hosts"] == 3
            assert doc["epochs_applied"] == 6
            assert _canon(doc["disks"]) == _canon(expected)
            # Staleness is the tree's own lag: one sample per applied
            # epoch, none older than the whole drain took.
            staleness = root.info()["staleness"]
            assert staleness["samples"] == 6
            assert staleness["max"] <= elapsed + 0.05

    def test_reparent_replay_never_double_counts(self):
        with FleetAggregator(port=0, node="root") as root:
            snapshots, union = _host_epochs("esx-a", 3)
            with _fast_uplink([root.address], host="esx-a") as uplink:
                for header, payload in snapshots[:2]:
                    uplink.enqueue(header, payload)
                assert uplink.drain(timeout=10.0)
                # Same-parent re-parent: generation bump + full replay.
                uplink.re_parent(index=0)
                uplink.enqueue(*snapshots[2])
                assert uplink.drain(timeout=10.0)
                assert uplink.reparents_total == 1
                assert uplink.duplicate_acks_total == 2
            info = root.info()
            assert info["epochs_applied_total"] == 3
            assert info["duplicate_snapshots_total"] == 2
            got = root.snapshot_dict()["disks"]
            assert _canon(got) == _canon(_expected_disks(union))

    def test_parent_crash_fails_over_without_loss(self):
        with FleetAggregator(port=0, node="root") as root:
            reg_a = FleetAggregator(port=0, node="reg-a",
                                    parents=[root.address]).start()
            with FleetAggregator(port=0, node="reg-b",
                                 parents=[root.address]) as reg_b:
                snapshots, union = _host_epochs("esx-a", 4)
                uplink = _fast_uplink([reg_a.address, reg_b.address],
                                      host="esx-a", failover_attempts=2)
                with uplink:
                    for header, payload in snapshots[:2]:
                        uplink.enqueue(header, payload)
                    assert uplink.drain(timeout=10.0)
                    reg_a.close()  # crash the primary
                    for header, payload in snapshots[2:]:
                        uplink.enqueue(header, payload)
                    assert uplink.drain(timeout=20.0)
                    assert uplink.reparents_total >= 1
                assert reg_b.uplink.drain(timeout=10.0)
            info = root.info()
            assert info["epochs_applied_total"] == 4
            got = root.snapshot_dict()["disks"]
            assert _canon(got) == _canon(_expected_disks(union))

    def test_ack_cache_answers_identical_retry(self):
        with FleetAggregator(port=0, node="root") as root:
            (header, payload), _ = _host_epochs("esx-a", 1)[0][0], None
            frame = pack_snapshot("link-1", 1, header, payload)
            with socket.create_connection(root.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(frame)
                first = read_frame(rfile)
                sock.sendall(frame)
                second = read_frame(rfile)
            assert first == second
            assert first[0] == FRAME_OK
            assert json.loads(first[1])["applied"] is True
            assert root.info()["epochs_applied_total"] == 1
            assert root.duplicate_frames_total == 1

    @pytest.mark.parametrize("server", ["daemon", "aggregator",
                                        "coordinator"])
    def test_close_does_not_wait_out_an_idle_child(self, server):
        """A client that got one answer and keeps its connection open
        leaves a handler thread blocked in a read; ``close()`` must shut
        the socket down, not sit in that thread's join timeout — on
        every frame server: the daemon, the aggregator and the cluster
        coordinator's control endpoint."""
        from repro.live import ClusterServer, LiveStatsServer

        if server == "daemon":
            node = LiveStatsServer(port=0, shards=1).start()
            address = node.address
        elif server == "aggregator":
            node = FleetAggregator(port=0, node="root").start()
            address = node.address
        else:
            node = ClusterServer(workers=1, online=False).start()
            address = node.control_address
        with socket.create_connection(address) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(pack_control({"op": "ping"}))
            assert read_frame(rfile)[0] == FRAME_OK
            handlers = list(node.frame_server._conns.values())
            assert handlers
            begin = time.monotonic()
            node.close()
            assert time.monotonic() - begin < 1.0
            sock.settimeout(1.0)
            assert read_frame(rfile) is None  # EOF, not a timeout
            assert not any(t.is_alive() for t in handlers)
            assert not node.frame_server._conns

    def test_sequence_gap_and_unknown_session_rejected(self):
        with FleetAggregator(port=0, node="root") as root:
            (header, payload), _ = _host_epochs("esx-a", 1)[0][0], None
            with socket.create_connection(root.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(pack_snapshot("link-x", 4, header, payload))
                ftype, body = read_frame(rfile)
            assert ftype == FRAME_ERROR
            assert "fleet-hello" in json.loads(body)["error"]
            assert root.info()["epochs_applied_total"] == 0

    def test_fleet_hello_seeds_the_watermark(self):
        with FleetAggregator(port=0, node="root") as root:
            (header, payload), _ = _host_epochs("esx-a", 1)[0][0], None
            with socket.create_connection(root.address) as sock:
                rfile = sock.makefile("rb")
                sock.sendall(pack_control({"op": "fleet-hello",
                                           "node": "link-r", "seq": 5}))
                ftype, body = read_frame(rfile)
                assert ftype == FRAME_OK
                assert json.loads(body)["seq"] == 5
                # A replay of the acked watermark is a duplicate...
                sock.sendall(pack_snapshot("link-r", 5, header, payload))
                ftype, body = read_frame(rfile)
                assert ftype == FRAME_OK
                assert json.loads(body)["duplicate"] is True
                # ...and seq+1 continues the stream gaplessly.
                sock.sendall(pack_snapshot("link-r", 6, header, payload))
                ftype, body = read_frame(rfile)
                assert ftype == FRAME_OK
                assert json.loads(body)["applied"] is True

    def test_queries_over_rpc(self):
        with FleetAggregator(port=0, node="root") as root:
            snapshots, _ = _host_epochs("esx-a", 2)
            with _fast_uplink([root.address], host="esx-a") as uplink:
                for header, payload in snapshots:
                    uplink.enqueue(header, payload)
                assert uplink.drain(timeout=10.0)
            ranked = fleet_rpc(root.address, {"op": "topk",
                                              "metric": "commands"})
            assert ranked["top"][0]["value"] > 0
            pct = fleet_rpc(root.address,
                            {"op": "percentile", "family": "latency_us",
                             "q": 0.9})
            assert pct["count"] > 0
            hosts = fleet_rpc(root.address, {"op": "hosts"})
            assert "esx-a" in hosts["hosts"]
            metrics = fleet_rpc(root.address, {"op": "metrics"})
            assert "live_fleet_epochs_applied_total" in metrics
            assert metrics.endswith("# EOF\n")
            with pytest.raises(LiveError):
                fleet_rpc(root.address, {"op": "topk",
                                         "metric": "bogus.metric"})

    def test_root_persists_global_series(self, tmp_path):
        store_dir = tmp_path / "fleethist"
        with FleetAggregator(port=0, node="root",
                             store=str(store_dir)) as root:
            snapshots, union = _host_epochs("esx-a", 2)
            with _fast_uplink([root.address], host="esx-a") as uplink:
                for header, payload in snapshots:
                    uplink.enqueue(header, payload)
                assert uplink.drain(timeout=10.0)
            assert not root.info()["degraded"]
        with HistogramStore.open(str(store_dir)) as store:
            assert store.epochs == 2
            result = store.query(0, 1 << 62)
            assert result.epochs == 2
            assert _canon(result.to_dict()["disks"]) \
                == _canon(_expected_disks(union))


# ---------------------------------------------------------------------------
# The persisting, analysing root: one decode, received bytes persisted
# ---------------------------------------------------------------------------
def _two_disk_snapshot(host="esx-a", epoch=0, seed=11):
    """One host epoch of two active disks, extents in *unsorted* key
    order (a relayed header is whatever its encoder wrote)."""
    records = {
        ("vm-z", "scsi0:0"): collector_to_bytes(
            _collector(_records(150, seed=seed))),
        ("vm-a", "scsi0:1"): collector_to_bytes(
            _collector(_records(150, seed=seed + 1))),
    }
    disks, offset = [], 0
    for (vm, vdisk), record in records.items():
        disks.append({"vm": vm, "vdisk": vdisk,
                      "off": offset, "len": len(record)})
        offset += len(record)
    header = {"host": host, "epoch": epoch, "records": 300,
              "start_ns": epoch * 10 ** 9, "end_ns": (epoch + 1) * 10 ** 9,
              "disks": disks}
    return header, b"".join(records.values()), records


def _deliver(root, session, seq, header, payload):
    """Hand one SNAPSHOT frame to ``root`` as its connection thread
    would; returns the ack document."""
    _ftype, body = read_frame_bytes(
        pack_snapshot(session, seq, header, payload))
    ftype, ack = read_frame_bytes(root._handle_snapshot(body))
    assert ftype == FRAME_OK
    return json.loads(ack)


class TestRootRecordPath:
    @pytest.fixture
    def root(self, tmp_path):
        root = FleetAggregator(node="root", store=str(tmp_path / "root"),
                               online=True)
        yield root
        root.close()

    def test_wal_is_byte_identical_to_decode_adopt_reencode(
            self, root, tmp_path):
        """What the root used to do — decode every record, adopt it
        into a service, ``append_epoch(service)`` — wrote these exact
        bytes; now the received records go in as they are, in the
        service's sorted key order."""
        from repro.core.service import HistogramService

        with HistogramStore.create(tmp_path / "reference") as reference:
            for epoch in range(3):
                header, payload, records = _two_disk_snapshot(
                    epoch=epoch, seed=20 + epoch)
                ack = _deliver(root, "link", epoch + 1, header, payload)
                assert ack["applied"] is True
                service = HistogramService()
                for key, record in records.items():
                    service.adopt(key, collector_from_bytes(record))
                reference.append_epoch(service, header["start_ns"],
                                       header["end_ns"], sync=True)
            assert (root.store.path / "wal.log").read_bytes() \
                == (reference.path / "wal.log").read_bytes()
        assert not root.degraded
        assert root.analyzer.epochs_seen == 3
        assert root.analyzer.verdicts_total == 6

    def test_each_record_decoded_once_and_duplicates_never(
            self, root, monkeypatch):
        from repro.fleet import aggregator

        decoded = []

        def counting(record):
            decoded.append(bytes(record))
            return collector_from_bytes(record)

        monkeypatch.setattr(aggregator, "collector_from_bytes", counting)
        header, payload, records = _two_disk_snapshot()
        assert _deliver(root, "link-1", 1, header, payload)["applied"]
        assert sorted(decoded) == sorted(records.values())
        # The same host epoch through another link, and a retry of the
        # first frame: acknowledged, not decoded, persisted or judged.
        assert _deliver(root, "link-2", 1, header, payload)["duplicate"]
        assert _deliver(root, "link-1", 1, header, payload)["applied"]
        assert len(decoded) == 2
        assert len(root.store) == 2
        assert root.analyzer.epochs_seen == 1

    def test_undecodable_record_counts_twice_and_is_never_written(
            self, root):
        header, payload, _records = _two_disk_snapshot()
        good = _deliver(root, "link", 1, header, payload)
        # Same extents, second record's bytes replaced by noise.
        cut = header["disks"][1]["off"]
        bad_header = dict(header, epoch=1)
        bad = _deliver(root, "link", 2, bad_header,
                       payload[:cut] + b"\x00" * (len(payload) - cut))
        assert root.analysis_errors_total == 1
        assert len(root.persist_errors) == 1 and root.degraded
        assert root.persist_errors[0]["epoch"] == 1
        # Nothing of the snapshot was written — not even its good
        # first record — and nothing was judged.
        assert len(root.store) == 2
        assert root.analyzer.epochs_seen == 1
        # The ack is what any applied snapshot gets.
        assert bad == dict(good, epoch=1, seq=2)

    def test_duplicate_extent_rejected_before_any_state(self, root):
        """A header naming one disk twice used to append both records,
        persist their merge and judge the disk twice in one epoch."""
        header, payload, _records = _two_disk_snapshot()
        twice = dict(header, disks=header["disks"] + [header["disks"][0]])
        root.start()
        with socket.create_connection(root.address) as sock:
            rfile = sock.makefile("rb")
            sock.sendall(pack_snapshot("link", 1, twice, payload))
            ftype, body = read_frame(rfile)
            assert ftype == FRAME_ERROR
            assert "twice" in json.loads(body)["error"]
            assert root.rejected_frames_total == 1
            assert root.ledger.epochs_applied_total == 0
            assert not root.ledger.seen("esx-a", 0)
            assert "link" not in root._sessions.describe()
            assert len(root.store) == 0
            assert root.analyzer.epochs_seen == 0
            # The corrected resend of the same sequence number applies.
            sock.sendall(pack_snapshot("link", 1, header, payload))
            ftype, body = read_frame(rfile)
        assert ftype == FRAME_OK
        assert json.loads(body)["applied"] is True
        assert root.analyzer.verdicts_total == 2


# ---------------------------------------------------------------------------
# Chaos: seeded fault schedules on the uplink
# ---------------------------------------------------------------------------
class TestFleetChaos:
    @pytest.mark.parametrize("seed", [11, 23, 37, 58, 71])
    def test_scattered_uplink_faults_converge_identically(self, seed):
        plan = FaultPlan.scattered(
            seed, sites=["fleet.uplink"],
            kinds=("reset", "partial", "delay", "error"),
            faults=3, horizon=6)
        snapshots, union = _host_epochs("esx-a", 4)
        expected = _expected_disks(union)
        with FleetAggregator(port=0, node="root") as root:
            with inject(plan):
                with _fast_uplink([root.address], host="esx-a",
                                  failover_attempts=2) as uplink:
                    for header, payload in snapshots:
                        uplink.enqueue(header, payload)
                    assert uplink.drain(timeout=30.0)
            info = root.info()
            assert info["epochs_applied_total"] == 4
            got = root.snapshot_dict()["disks"]
            assert _canon(got) == _canon(expected)

    def test_server_send_site_fires_on_an_aggregator(self):
        """The aggregator answers through the daemon's connection loop,
        so the ``live.server.send`` site reaches it: a truncated ack is
        retried, answered from the ack cache and applied once."""
        plan = FaultPlan().partial("live.server.send", at=1, fraction=0.3)
        snapshots, union = _host_epochs("esx-a", 4)
        with FleetAggregator(port=0, node="root") as root:
            with inject(plan) as injector:
                with _fast_uplink([root.address], host="esx-a") as uplink:
                    for header, payload in snapshots:
                        uplink.enqueue(header, payload)
                    assert uplink.drain(timeout=30.0)
            assert injector.fired
            assert root.info()["epochs_applied_total"] == 4
            assert root.duplicate_frames_total >= 1
            assert _canon(root.snapshot_dict()["disks"]) \
                == _canon(_expected_disks(union))

    def test_mid_tree_faults_with_failover_parents(self):
        plan = FaultPlan(name="uplink-resets")
        plan.reset("fleet.uplink", 1).reset("fleet.uplink", 2)
        snapshots, union = _host_epochs("esx-a", 3)
        with FleetAggregator(port=0, node="root") as root:
            with FleetAggregator(port=0, node="reg-a",
                                 parents=[root.address]) as reg_a, \
                 FleetAggregator(port=0, node="reg-b",
                                 parents=[root.address]) as reg_b:
                with inject(plan):
                    with _fast_uplink([reg_a.address, reg_b.address],
                                      host="esx-a",
                                      failover_attempts=1) as uplink:
                        for header, payload in snapshots:
                            uplink.enqueue(header, payload)
                        assert uplink.drain(timeout=30.0)
                for regional in (reg_a, reg_b):
                    assert regional.uplink.drain(timeout=10.0)
            info = root.info()
            assert info["epochs_applied_total"] == 3
            assert _canon(root.snapshot_dict()["disks"]) \
                == _canon(_expected_disks(union))


# ---------------------------------------------------------------------------
# Satellites riding along
# ---------------------------------------------------------------------------
class TestClusterInfoSatellite:
    def test_worker_sessions_and_snapshot_age(self):
        from repro.live import ClusterServer

        with ClusterServer(workers=2) as cluster:
            with LiveStatsClient(*cluster.address) as client:
                records = _records(40)
                from repro.parallel import records_to_columns

                client.publish_columns("vm", "d0",
                                       records_to_columns(records))
                client.rotate()
            info = cluster.info()
            assert set(info["worker_sessions"]) == {"0", "1"}
            assert sum(info["worker_sessions"].values()) >= 1
            ages = info["worker_snapshot_age"]
            assert set(ages) == {"0", "1"}
            assert all(age is None or age >= 0 for age in ages.values())
            assert any(age is not None for age in ages.values())


class TestClientJitterSatellite:
    def _sleeps(self, monkeypatch, **kwargs):
        client = LiveStatsClient(retries=4, retry_backoff=0.1,
                                 retry_backoff_cap=10.0, **kwargs)
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)

        def explode(_frame, _addr=None):
            raise OSError("down")

        monkeypatch.setattr(client, "_roundtrip", explode)
        with pytest.raises(OSError):
            client._data_roundtrip(b"frame")
        return slept

    def test_zero_jitter_reproduces_exact_exponential(self, monkeypatch):
        slept = self._sleeps(monkeypatch, retry_jitter=0.0)
        assert slept == [pytest.approx(0.1 * 2 ** i) for i in range(4)]

    def test_seeded_jitter_is_deterministic_and_bounded(self, monkeypatch):
        first = self._sleeps(monkeypatch, jitter_seed=99)
        second = self._sleeps(monkeypatch, jitter_seed=99)
        other = self._sleeps(monkeypatch, jitter_seed=100)
        assert first == second
        assert first != other
        for i, sleep in enumerate(first):
            full = 0.1 * 2 ** i
            assert full / 2 <= sleep <= full

    def test_jitter_range_validated(self):
        with pytest.raises(ValueError):
            LiveStatsClient(retry_jitter=1.5)

    def test_uplinks_jitter_decorrelated_by_node(self):
        up_a = FleetUplink([("127.0.0.1", 1)], node="node-a")
        up_b = FleetUplink([("127.0.0.1", 1)], node="node-b")
        assert [up_a._backoff.rng.random() for _ in range(4)] \
            != [up_b._backoff.rng.random() for _ in range(4)]
