"""Multi-process ingest edge: partition invariance, routing, crash chaos.

The cluster's load-bearing promise is byte-identity: however records
are partitioned across worker processes and rotation rounds, the
merged snapshots, the ``vscsi_*`` exposition block and the durable
store match a one-process run fed the same stream.  Hypothesis drives
the partition shapes in-process; the loopback tests pin the real
multi-process edge (SO_REUSEPORT and the fd-passing fallback), the
redirect protocol, and the dead-worker reassignment path.
"""

import io
import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import VscsiStatsCollector
from repro.core.tracing import TraceRecord, replay_into_collector
from repro.faults import FaultPlan, inject
from repro.live import (
    ClusterServer,
    HashRing,
    LiveConnectionError,
    LiveError,
    LiveStatsClient,
    LiveStatsServer,
    WorkerRouter,
)
from repro.live.cluster import merge_snapshots
from repro.live.epochs import EpochLedger
from repro.live.exposition import render_openmetrics
from repro.live.protocol import (
    FRAME_CONTROL,
    FRAME_OK,
    FRAME_SNAPSHOT,
    ProtocolError,
    columns_to_bytes,
    encode_extents,
    encode_host_snapshot,
    pack_control,
    pack_data_seq,
    pack_snapshot,
    read_frame,
    read_frame_view,
    sort_columns_for_stream,
    unpack_control,
    unpack_snapshot,
)
from repro.live.stream import DiskStream
from repro.parallel.trace_io import records_to_columns
from repro.store import HistogramStore
from repro.store.codec import collector_from_bytes


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


def _snapshot(collector):
    return json.dumps(collector.to_dict(), sort_keys=True)


_DISKS = [("vm0", "scsi0:0"), ("vm0", "scsi0:1"),
          ("vm1", "scsi0:0"), ("vm2", "ide0:0")]


def _publish_all(client, per_disk, frame_records=500):
    for (vm, vdisk), records in per_disk.items():
        result = client.publish_columns(vm, vdisk, records_to_columns(records),
                                        frame_records=frame_records)
        assert result["accepted"] == len(records), result


# ---------------------------------------------------------------------------
# Hash ring / router
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_ownership_is_deterministic(self):
        a = HashRing([0, 1, 2])
        b = HashRing([0, 1, 2])
        for vm, vdisk in _DISKS:
            assert a.owner(vm, vdisk) == b.owner(vm, vdisk)

    def test_removal_moves_only_the_dead_workers_disks(self):
        """Consistent hashing: disks owned by survivors stay put."""
        disks = [(f"vm{i}", f"d{j}") for i in range(40) for j in range(4)]
        full = HashRing([0, 1, 2, 3])
        owners = {d: full.owner(*d) for d in disks}
        without_2 = HashRing([0, 1, 3])
        moved = 0
        for disk, owner in owners.items():
            new_owner = without_2.owner(*disk)
            if owner == 2:
                assert new_owner != 2
                moved += 1
            else:
                assert new_owner == owner
        assert moved > 0  # worker 2 owned something in this corpus

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError, match="no workers"):
            HashRing([]).owner("vm", "d")

    def test_router_redirects_non_owned_disks_only(self):
        table = [[0, "127.0.0.1", 9000], [1, "127.0.0.1", 9001]]
        routers = [WorkerRouter(i) for i in (0, 1)]
        for router in routers:
            assert router.redirect_for("vm", "d") is None  # no table yet
            assert router.update(table, generation=1)
        for vm, vdisk in [(f"vm{i}", "d") for i in range(20)]:
            owner = HashRing([0, 1]).owner(vm, vdisk)
            for router in routers:
                target = router.redirect_for(vm, vdisk)
                if router.index == owner:
                    assert target is None
                else:
                    assert target == ("127.0.0.1", 9000 + owner)

    def test_stale_generation_never_rolls_back(self):
        router = WorkerRouter(0)
        assert router.update([[0, "h", 1], [1, "h", 2]], generation=3)
        assert not router.update([[0, "h", 1]], generation=2)
        assert router.generation == 3
        assert len(router.route_info()["workers"]) == 2


# ---------------------------------------------------------------------------
# Fan-in frame codec
# ---------------------------------------------------------------------------
class TestFaninCodec:
    """The fan-in pipe carries the shared frames: ``CONTROL``
    ``worker-hello``/``worker-bye`` around ``SNAPSHOT`` frames on the
    worker's ``worker-<i>`` session."""

    _HEADER = {"host": "worker-3", "epoch": 0, "records": 0, "disks": []}

    def test_roundtrip_all_types(self):
        hello = pack_control({"op": "worker-hello", "worker": 3,
                              "port": 99})
        snap = pack_snapshot("worker-3", 1, self._HEADER, b"payload!")
        bye = pack_control({"op": "worker-bye", "worker": 3})
        stream = io.BytesIO(hello + snap + bye)
        ftype, body = read_frame_view(stream)
        assert (ftype, unpack_control(body)) == (
            FRAME_CONTROL, {"op": "worker-hello", "worker": 3, "port": 99})
        ftype, body = read_frame_view(stream)
        assert ftype == FRAME_SNAPSHOT
        session, seq, header, payload = unpack_snapshot(body)
        assert (session, seq, header) == ("worker-3", 1, self._HEADER)
        assert bytes(payload) == b"payload!"
        ftype, body = read_frame_view(stream)
        assert (ftype, unpack_control(body)["op"]) == (FRAME_CONTROL,
                                                       "worker-bye")
        assert read_frame_view(stream) is None  # clean EOF

    def test_torn_frames_raise(self):
        frame = pack_snapshot("worker-3", 1, self._HEADER, b"x" * 64)
        with pytest.raises(ProtocolError, match="truncated frame length"):
            read_frame_view(io.BytesIO(frame[:2]))
        with pytest.raises(ProtocolError, match="truncated frame body"):
            read_frame_view(io.BytesIO(frame[:-5]))

    def test_encode_snapshot_extents_slice_back_exactly(self):
        per_disk = {}
        for i, key in enumerate(_DISKS):
            collector = replay_into_collector(
                _records(200, seed=i + 1), VscsiStatsCollector())
            per_disk[key] = collector
        epoch = EpochLedger().seal(list(per_disk.items()))
        header, payload = encode_host_snapshot("worker-1", epoch)
        assert header["host"] == "worker-1" and header["epoch"] == 0
        assert len(header["disks"]) == len(_DISKS)
        for extent in header["disks"]:
            key = (extent["vm"], extent["vdisk"])
            record = payload[extent["off"]:extent["off"] + extent["len"]]
            decoded = collector_from_bytes(record)
            assert _snapshot(decoded) == _snapshot(per_disk[key])


# ---------------------------------------------------------------------------
# Partition invariance (Hypothesis, in-process)
# ---------------------------------------------------------------------------
record_lists = st.lists(
    st.tuples(
        st.integers(0, 2_000_000),   # issue_ns
        st.integers(0, 300_000),     # latency_ns
        st.integers(0, 1 << 30),     # lba
        st.integers(1, 2048),        # nblocks
        st.booleans(),               # is_read
    ),
    min_size=1, max_size=100,
)


def _make_records(raw):
    records = [
        TraceRecord(serial, issue, issue + latency, lba, nblocks, is_read)
        for serial, (issue, latency, lba, nblocks, is_read)
        in enumerate(raw)
    ]
    return sorted(records, key=lambda r: (r.issue_ns, r.serial))


class TestClusterPartitionProperty:
    @settings(max_examples=30, deadline=None)
    @given(raw=record_lists, data=st.data())
    def test_any_worker_partition_merges_byte_identical(self, raw, data):
        """Tentpole acceptance: for any assignment of disks to workers
        and any rotation schedule, the coordinator's vectorized
        snapshot merge — fan-in frames and all — equals a one-process
        ledger run byte for byte, exposition included."""
        records = _make_records(raw)
        n = len(records)
        n_workers = data.draw(st.integers(1, 3), label="n_workers")
        n_disks = data.draw(st.integers(1, 3), label="n_disks")
        disk_of = data.draw(
            st.lists(st.integers(0, n_disks - 1), min_size=n,
                     max_size=n),
            label="disk_of")
        # Stable ownership: each disk lives on one worker — the
        # invariant the hash ring provides in the real cluster.
        worker_of = data.draw(
            st.lists(st.integers(0, n_workers - 1), min_size=n_disks,
                     max_size=n_disks),
            label="worker_of")
        n_epochs = data.draw(st.integers(1, 4), label="n_epochs")
        cuts = sorted(data.draw(
            st.lists(st.integers(0, n), min_size=n_epochs - 1,
                     max_size=n_epochs - 1),
            label="cuts"))
        bounds = [0] + cuts + [n]

        keys = [("vm", f"d{i}") for i in range(n_disks)]

        # Reference: one process, one DiskStream per disk, one ledger.
        ref_streams = {key: DiskStream() for key in keys}
        ref_ledger = EpochLedger()
        # Cluster: the same streams partitioned by owning worker; each
        # round's seals travel as encoded fan-in snapshots.
        cl_streams = {key: DiskStream() for key in keys}
        cl_ledger = EpochLedger()

        for epoch_index, (start, stop) in enumerate(zip(bounds,
                                                        bounds[1:])):
            span = records[start:stop]
            by_disk = {}
            for offset, record in enumerate(span):
                by_disk.setdefault(
                    disk_of[start + offset], []).append(record)
            pairs = []
            worker_pairs = {}
            for disk_index, disk_records in sorted(by_disk.items()):
                key = keys[disk_index]
                columns = records_to_columns(disk_records)
                ref_streams[key].ingest(columns)
                cl_streams[key].ingest(columns)
            for disk_index, key in enumerate(keys):
                sealed = ref_streams[key].seal()
                if sealed is not None:
                    pairs.append((key, sealed))
                cl_sealed = cl_streams[key].seal()
                if cl_sealed is not None:
                    worker_pairs.setdefault(
                        worker_of[disk_index], []).append((key, cl_sealed))
            ref_ledger.seal(pairs)
            snapshots = []
            for worker_index, wpairs in sorted(worker_pairs.items()):
                disks, payload = encode_extents(wpairs)
                header = {"host": f"worker-{worker_index}",
                          "epoch": epoch_index,
                          "records": sum(c.commands for _, c in wpairs),
                          "disks": disks}
                # Through the wire format, exactly as the coordinator
                # receives it: a SNAPSHOT frame on the worker's session.
                ftype, body = read_frame_view(io.BytesIO(pack_snapshot(
                    f"worker-{worker_index}", epoch_index + 1, header,
                    payload)))
                _session, _seq, rt_header, rt_payload = \
                    unpack_snapshot(body)
                snapshots.append((rt_header, bytes(rt_payload)))
            cl_ledger.seal(merge_snapshots(snapshots))

        reference = ref_ledger.merged()
        merged = cl_ledger.merged()
        ref_disks = dict(reference.collectors())
        got_disks = dict(merged.collectors())
        assert set(got_disks) == set(ref_disks)
        for key, collector in ref_disks.items():
            assert _snapshot(got_disks[key]) == _snapshot(collector)
        daemon = {"ingest_records_total": n}
        assert (render_openmetrics(merged.collectors(), daemon)
                == render_openmetrics(reference.collectors(), daemon))

    @settings(max_examples=15, deadline=None)
    @given(raw=record_lists, data=st.data())
    def test_retirement_keeps_lifetime_totals_exact(self, raw, data):
        """max_epochs retirement folds old epochs' records into the
        retired pile without losing a single command."""
        records = _make_records(raw)
        n = len(records)
        max_epochs = data.draw(st.integers(1, 3), label="max_epochs")
        n_epochs = data.draw(st.integers(1, 6), label="n_epochs")
        cuts = sorted(data.draw(
            st.lists(st.integers(0, n), min_size=n_epochs - 1,
                     max_size=n_epochs - 1),
            label="cuts"))
        bounds = [0] + cuts + [n]
        stream = DiskStream()
        ledger = EpochLedger(max_epochs=max_epochs)
        for epoch_index, (start, stop) in enumerate(zip(bounds,
                                                        bounds[1:])):
            chunk = records[start:stop]
            if chunk:
                stream.ingest(records_to_columns(chunk))
            sealed = stream.seal()
            pairs = [(("vm", "d"), sealed)] if sealed is not None else []
            disks, payload = encode_extents(pairs)
            ledger.seal(merge_snapshots([({"disks": disks}, payload)]))
        reference = replay_into_collector(records, VscsiStatsCollector())
        merged = ledger.merged().collector("vm", "d")
        assert merged is not None
        assert _snapshot(merged) == _snapshot(reference)


# ---------------------------------------------------------------------------
# Real multi-process cluster (loopback)
# ---------------------------------------------------------------------------
def _single_process_reference(per_disk, rotate_after_first=True,
                              frame_records=500, store=None):
    with LiveStatsServer(port=0, shards=2, store=store) as server:
        with LiveStatsClient(*server.address) as client:
            _publish_all(client, {k: v[:len(v) // 2]
                                  for k, v in per_disk.items()},
                         frame_records)
            if rotate_after_first:
                client.rotate()
            _publish_all(client, {k: v[len(v) // 2:]
                                  for k, v in per_disk.items()},
                         frame_records)
            return client.metrics(), client.snapshot(scope="all")


def _vscsi_lines(metrics):
    return [line for line in metrics.splitlines()
            if line.startswith("vscsi_")]


class TestClusterEndToEnd:
    def test_metrics_and_snapshot_byte_identical_to_single_process(self):
        """Acceptance: the merged exposition across 2 workers equals a
        one-process run — cumulative ``le`` buckets, gauge sums, every
        ``vscsi_*`` line byte for byte."""
        per_disk = {key: _records(1200, seed=11 + i)
                    for i, key in enumerate(_DISKS)}
        with ClusterServer(workers=2) as cluster:
            with LiveStatsClient(*cluster.address) as client:
                _publish_all(client, {k: v[:600]
                                      for k, v in per_disk.items()})
                client.rotate()
                _publish_all(client, {k: v[600:]
                                      for k, v in per_disk.items()})
                cluster_metrics = client.metrics()
                cluster_snap = client.snapshot(scope="all")
                info = client.info()
        assert info["workers_alive"] == [0, 1]
        # Both workers actually carried traffic, or the test proves
        # nothing about merging.
        worker_records = [doc["records_total"]
                          for doc in info["worker_info"].values()]
        assert all(r > 0 for r in worker_records), worker_records

        single_metrics, single_snap = _single_process_reference(per_disk)
        assert _vscsi_lines(cluster_metrics) == _vscsi_lines(single_metrics)
        assert cluster_snap["disks"] == single_snap["disks"]

    def test_store_contents_match_single_process_run(self, tmp_path):
        """``serve --store`` parity: the coordinator's single writer
        persists exactly what a one-process daemon would."""
        per_disk = {key: _records(800, seed=29 + i)
                    for i, key in enumerate(_DISKS[:2])}
        with ClusterServer(workers=2,
                           store=tmp_path / "cluster") as cluster:
            with LiveStatsClient(*cluster.address) as client:
                _publish_all(client, {k: v[:400]
                                      for k, v in per_disk.items()})
                client.rotate()
                _publish_all(client, {k: v[400:]
                                      for k, v in per_disk.items()})
        _single_process_reference(per_disk, store=tmp_path / "single")

        results = []
        for name in ("cluster", "single"):
            with HistogramStore.open(tmp_path / name,
                                     readonly=True) as store:
                result = store.query(0, (1 << 62))
                results.append({
                    f"{vm}/{vdisk}": _snapshot(collector)
                    for (vm, vdisk), collector
                    in result.service.collectors()
                })
        assert results[0] == results[1]
        reference = {
            f"{vm}/{vdisk}": _snapshot(replay_into_collector(
                records, VscsiStatsCollector()))
            for (vm, vdisk), records in per_disk.items()
        }
        assert results[0] == reference

    def test_fd_passing_fallback_serves_the_same_contract(self):
        per_disk = {key: _records(600, seed=41 + i)
                    for i, key in enumerate(_DISKS[:3])}
        with ClusterServer(workers=2, force_fd_passing=True) as cluster:
            assert cluster.fd_passing
            with LiveStatsClient(*cluster.address) as client:
                _publish_all(client, per_disk, frame_records=200)
                rotated = client.rotate()
                assert rotated["records"] == sum(
                    len(v) for v in per_disk.values())
                metrics = client.metrics()
        single_metrics, _snap = _single_process_reference(
            per_disk, rotate_after_first=False, frame_records=200)
        # Reference run rotates nothing; ours rotated once — histogram
        # content must still match exactly (epoch continuation).
        assert _vscsi_lines(metrics) == _vscsi_lines(single_metrics)

    def test_route_table_and_redirect_counters(self):
        with ClusterServer(workers=2) as cluster:
            with LiveStatsClient(*cluster.address) as client:
                table = client.route()
                assert table["generation"] >= 1
                assert [row[0] for row in table["workers"]] == [0, 1]
                _publish_all(client, {key: _records(300, seed=53 + i)
                                      for i, key in enumerate(_DISKS)},
                             frame_records=100)
                info = client.info()
        redirects = sum(doc["redirected_frames_total"]
                        for doc in info["worker_info"].values())
        # Four disks across two workers through one advertised address:
        # something must have bounced unless the kernel happened to
        # land every connection on the owner (vanishingly unlikely to
        # hold for all publishes, but tolerate 0 — the assertion that
        # matters is that every record was accepted above).
        assert redirects >= 0

    def test_slash_in_a_name_scrapes_like_single_process(self):
        """The live epoch crosses the fan-in with its names beside the
        records, not inside a ``vm/vdisk`` string: a VM named
        ``tenant/a`` scrapes exactly like a one-process daemon."""
        records = _records(44, seed=5)

        def run(server):
            with server:
                with LiveStatsClient(*server.address) as client:
                    client.publish_columns(
                        "tenant/a", "scsi0:0",
                        records_to_columns(records[:22]))
                    client.rotate()
                    client.publish_columns(
                        "tenant/a", "scsi0:0",
                        records_to_columns(records[22:]))
                    return (client.snapshot(scope="all"),
                            client.snapshot(scope="current"),
                            _vscsi_lines(client.metrics()))

        cluster = run(ClusterServer(workers=2))
        single = run(LiveStatsServer(port=0, shards=2))
        assert cluster[0]["disks"]["tenant/a/scsi0:0"]["commands"] == 44
        assert cluster == single

    def test_scrapes_and_rotations_keep_their_own_snapshots(self):
        """Scrapes and rotations run concurrently while a publisher
        streams; neither may take the other's fan-in snapshot.  A
        rotation that sealed a scrape's live copy would double-count,
        a scrape that took a sealed epoch would lose it: every scrape
        sees a running total that never falls or overshoots, and the
        end state equals offline replay."""
        per_disk = {key: _records(600, seed=91 + i)
                    for i, key in enumerate(_DISKS)}
        total = sum(len(v) for v in per_disk.values())
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ClusterServer(workers=2) as cluster:
                done = threading.Event()
                totals = {0: [], 1: []}

                def publish():
                    try:
                        with LiveStatsClient(*cluster.address) as client:
                            _publish_all(client, per_disk, frame_records=50)
                    finally:
                        done.set()

                def scrape(index):
                    while True:
                        disks = cluster.snapshot_dict(scope="all")["disks"]
                        totals[index].append(
                            sum(d["commands"] for d in disks.values()))
                        if done.is_set():
                            return

                threads = [threading.Thread(target=publish)] + [
                    threading.Thread(target=scrape, args=(i,))
                    for i in totals]
                for thread in threads:
                    thread.start()
                while True:
                    cluster.rotate()
                    if done.is_set():
                        break
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                cluster.rotate()
                assert cluster.ledger.records == total
                final = cluster.snapshot_dict(scope="all")["disks"]
        finally:
            sys.setswitchinterval(switch)
        for series in totals.values():
            assert series == sorted(series)
            assert all(value <= total for value in series)
        for (vm, vdisk), records in per_disk.items():
            assert final[f"{vm}/{vdisk}"] == replay_into_collector(
                records, VscsiStatsCollector()).to_dict()

    def test_cluster_enable_disable_gates_every_worker(self):
        with ClusterServer(workers=2) as cluster:
            with LiveStatsClient(*cluster.address) as client:
                client.disable()
                result = client.publish_columns(
                    "vmX", "d0", records_to_columns(_records(200)),
                    frame_records=100)
                assert result["accepted"] == 0
                assert result["ignored"] == 200
                client.enable()
                result = client.publish_columns(
                    "vmX", "d0", records_to_columns(_records(200)),
                    frame_records=100)
                assert result["accepted"] == 200


# ---------------------------------------------------------------------------
# Worker-crash chaos (the live.cluster.worker fault site)
# ---------------------------------------------------------------------------
def _await_alive(client, expected, deadline_s=10.0):
    """Poll ``info`` until the alive set settles; transport errors are
    expected while connections steer away from a dying listener."""
    deadline = time.monotonic() + deadline_s
    info = None
    while time.monotonic() < deadline:
        try:
            info = client.info()
        except (LiveError, OSError):
            time.sleep(0.05)
            continue
        if info["workers_alive"] == expected:
            return info
        time.sleep(0.05)
    raise AssertionError(
        f"workers_alive never settled to {expected}: "
        f"{info and info['workers_alive']}")


class TestWorkerCrashChaos:
    def test_startup_crash_shrinks_the_ring(self):
        """A worker that dies right after HELLO never joins the route
        table; the survivors carry the full corpus."""
        plan = FaultPlan().crash("live.cluster.worker", at=0,
                                 when={"worker_index": 1})
        with inject(plan):
            with ClusterServer(workers=2) as cluster:
                with LiveStatsClient(*cluster.address) as client:
                    _await_alive(client, [0])
                    per_disk = {key: _records(400, seed=61 + i)
                                for i, key in enumerate(_DISKS)}
                    _publish_all(client, per_disk, frame_records=100)
                    info = client.info()
                    assert info["workers_alive"] == [0]
                    assert info["worker_deaths_total"] == 1
                    rotated = client.rotate()
                    assert rotated["records"] == sum(
                        len(v) for v in per_disk.values())

    def test_rotate_crash_reassigns_hash_range(self):
        """Seeded chaos: worker 0 crashes on its first worker-rotate.
        The coordinator detects the dead fan-in, rebuilds the ring
        over the survivor and bumps the route generation; publishers
        are redirected and keep going via DATA_SEQ."""
        plan = FaultPlan().crash("live.cluster.worker", at=1,
                                 when={"worker_index": 0})
        per_disk = {key: _records(400, seed=71 + i)
                    for i, key in enumerate(_DISKS)}
        with inject(plan):
            with ClusterServer(workers=2) as cluster:
                with LiveStatsClient(*cluster.address) as client:
                    _publish_all(client, per_disk, frame_records=100)
                    generation = client.route()["generation"]
                    try:
                        client.rotate()
                    except (LiveConnectionError, LiveError, OSError):
                        # The control relay rode through the crashing
                        # worker; a fresh connection reaches a
                        # survivor.
                        time.sleep(0.3)
                        client.rotate()
                    info = _await_alive(client, [1])
                    assert info["worker_deaths_total"] == 1
                    assert client.route()["generation"] > generation
                    # The reassigned range ingests: every disk now
                    # lands on worker 1, wherever it lived before.
                    more = {key: _records(300, seed=81 + i,
                                          start_serial=400,
                                          start_ns=5_000_000)
                            for i, key in enumerate(_DISKS)}
                    _publish_all(client, more, frame_records=100)
                    survivor = client.info()["worker_info"]["1"]
                    assert survivor["records_total"] >= sum(
                        len(v) for v in more.values())

    def test_crash_is_deterministic_under_the_same_plan(self):
        """The same seeded plan produces the same death count and the
        same surviving worker — the chaos suite's reproducibility
        contract extended to process crashes."""
        outcomes = []
        plan_json = FaultPlan().crash(
            "live.cluster.worker", at=0,
            when={"worker_index": 0}).to_json()
        for _ in range(2):
            with inject(FaultPlan.from_json(plan_json)):
                with ClusterServer(workers=2) as cluster:
                    with LiveStatsClient(*cluster.address) as client:
                        info = _await_alive(client, [1])
                        outcomes.append(
                            (tuple(info["workers_alive"]),
                             info["worker_deaths_total"]))
        assert outcomes[0] == outcomes[1] == ((1,), 1)


# ---------------------------------------------------------------------------
# Client reconnect hello (satellite: ack-cache seeding on handoff)
# ---------------------------------------------------------------------------
class TestReconnectHello:
    def test_reconnect_seeds_watermark_on_fresh_server_process(self):
        """A client that reconnects to a brand-new server process on
        the same address declares its ack watermark first, so a
        replayed already-acked frame is answered from the seeded cache
        instead of being ingested twice."""
        records = _records(300)
        first = LiveStatsServer(port=0, shards=1).start()
        host, port = first.address
        client = LiveStatsClient(host, port)
        try:
            result = client.publish_columns(
                "vm", "d", records_to_columns(records), frame_records=1000)
            assert result["frames"] == 1  # seq=1, acked
            first.close()
            # A "brand-new server process" on the same address: fresh
            # ack cache, same port.
            second = LiveStatsServer(port=port, shards=1).start()
            try:
                # The first call trips over the stale cached
                # connection (control ops don't retry); the next one
                # reconnects, and the client must hello first
                # (state.seq > 0).
                try:
                    client.ping()
                except (LiveConnectionError, OSError):
                    pass
                assert client.ping()["pong"]
                state = client._peers[(host, port)]
                assert state.last_acked == 1
                # Replay the acked frame raw, exactly as the retry
                # path would after a lost ack: the hello-seeded cache
                # answers it without ingesting.
                columns = sort_columns_for_stream(
                    records_to_columns(records))
                frame = pack_data_seq(state.session, 1, "vm", "d",
                                      columns_to_bytes(columns))
                with socket.create_connection((host, port),
                                              timeout=10.0) as sock:
                    sock.sendall(frame)
                    ftype, payload = read_frame(sock.makefile("rb"))
                assert ftype == FRAME_OK
                ack = json.loads(payload.decode("utf-8"))
                assert ack == {"accepted": 0, "deduplicated": True}
                assert second.records_total == 0  # nothing re-ingested
            finally:
                second.close()
        finally:
            client.close()
            first.close()

    def test_publishing_resumes_after_server_restart(self):
        """The seeded watermark keeps the sequence stream gapless: the
        next frame after a restart is seq = watermark + 1 and is
        accepted normally."""
        first = LiveStatsServer(port=0, shards=1).start()
        host, port = first.address
        client = LiveStatsClient(host, port)
        try:
            client.publish_columns(
                "vm", "d", records_to_columns(_records(200)),
                frame_records=1000)
            first.close()
            second = LiveStatsServer(port=port, shards=1).start()
            try:
                result = client.publish_columns(
                    "vm", "d",
                    records_to_columns(_records(200, start_serial=200)),
                    frame_records=1000)
                assert result["accepted"] == 200
                assert second.records_total == 200
            finally:
                second.close()
        finally:
            client.close()
            first.close()
