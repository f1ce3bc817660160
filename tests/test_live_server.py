"""Loopback end-to-end tests for the live characterization daemon."""

import io
import json
import re
import socket
import struct
import sys
import threading
import time

import pytest

from repro.core.collector import VscsiStatsCollector
from repro.core.tracing import TraceRecord, replay_into_collector
from repro.live import LiveError, LiveStatsClient, LiveStatsServer
from repro.live.protocol import (
    FRAME_DATA_SEQ,
    FRAME_ERROR,
    FRAME_OK,
    MAX_FRAME_BYTES,
    RECORD_BYTES,
    pack_data_seq,
    pack_frame,
    read_frame,
)
from repro.parallel.trace_io import records_to_columns, replay_columns
from tests.wire import records_to_bytes


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


@pytest.fixture
def server():
    with LiveStatsServer(port=0, shards=2, idle_timeout=30.0) as srv:
        yield srv


@pytest.fixture
def client(server):
    with LiveStatsClient(*server.address) as cli:
        yield cli


class TestEndToEnd:
    def test_epoch_rotated_publish_matches_offline_replay(self, server,
                                                          client):
        """Acceptance: publish a trace in frames across rotated epochs;
        the aggregated snapshot is byte-identical to
        ``replay_into_collector`` over the same records."""
        records = _records(5000)
        splits = [0, 1500, 1501, 5000]
        for lo, hi in zip(splits, splits[1:]):
            result = client.publish_columns(
                "vm0", "d0", records_to_columns(records[lo:hi]),
                frame_records=700)
            assert result["accepted"] == hi - lo
            rotated = client.rotate()
            assert rotated["records"] == hi - lo
        assert client.info()["epochs_sealed"] == 3

        snap = client.snapshot(scope="all")
        offline = replay_into_collector(records, VscsiStatsCollector())
        assert snap["disks"]["vm0/d0"] == offline.to_dict()

    def test_unsealed_epoch_included_in_scope_all(self, server, client):
        records = _records(800)
        client.publish_columns("vm0", "d0", records_to_columns(records[:500]))
        client.rotate()
        client.publish_columns("vm0", "d0", records_to_columns(records[500:]))
        snap = client.snapshot(scope="all")
        offline = replay_columns(records_to_columns(records))
        assert snap["disks"]["vm0/d0"] == offline.to_dict()
        current = client.snapshot(scope="current")
        assert current["disks"]["vm0/d0"]["commands"] == 300

    def test_snapshot_by_epoch_index(self, server, client):
        client.publish_columns("vm0", "d0", records_to_columns(_records(100)))
        client.rotate()
        client.publish_columns(
            "vm0", "d0",
            records_to_columns(_records(50, start_serial=100, start_ns=10**9)))
        client.rotate()
        assert client.snapshot(scope="epoch", epoch=0)["records"] == 100
        assert client.snapshot(scope="epoch")["records"] == 50  # last
        with pytest.raises(LiveError):
            client.snapshot(scope="epoch", epoch=9)
        with pytest.raises(LiveError):
            client.snapshot(scope="bogus")

    def test_multi_disk_aggregate(self, server, client):
        a = _records(400, seed=1)
        b = _records(300, seed=2)
        client.publish_columns("vm1", "d0", records_to_columns(a))
        client.publish_columns("vm2", "d0", records_to_columns(b))
        snap = client.snapshot(scope="all", aggregate=True)
        assert set(snap["disks"]) == {"vm1/d0", "vm2/d0"}
        assert snap["aggregate"]["commands"] == 700

    def test_concurrent_clients(self, server):
        def publish(vm, seed):
            with LiveStatsClient(*server.address) as cli:
                cli.publish_columns(
                    vm, "d0", records_to_columns(_records(500, seed=seed)),
                    frame_records=64)

        threads = [threading.Thread(target=publish, args=(f"vm{i}", i))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with LiveStatsClient(*server.address) as cli:
            snap = cli.snapshot(scope="all")
            assert len(snap["disks"]) == 4
            assert all(d["commands"] == 500 for d in snap["disks"].values())

    def test_scrapes_and_rotations_keep_their_own_snapshots(self):
        """Scrapes and rotations run concurrently while a publisher
        streams.  A scrape reads the live epoch and the sealed history
        as one state: a rotation between the two reads would count the
        collectors it seals twice.  Every disk in every scrape equals
        offline replay of a prefix of that disk's records, and the end
        state equals replay of all of them."""
        per_disk = {(f"vm{i}", "d0"): _records(600, seed=91 + i)
                    for i in range(4)}
        scrapes = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with LiveStatsServer(port=0, shards=2) as server:
                done = threading.Event()
                live_pairs = server.live_pairs

                def slow_live_pairs():
                    pairs = live_pairs()
                    time.sleep(0.002)  # a rotation here seals these copies
                    return pairs

                server.live_pairs = slow_live_pairs

                def publish():
                    try:
                        with LiveStatsClient(*server.address) as cli:
                            for (vm, vdisk), records in per_disk.items():
                                cli.publish_columns(
                                    vm, vdisk, records_to_columns(records),
                                    frame_records=50)
                    finally:
                        done.set()

                def scrape():
                    while not done.is_set():
                        scrapes.append(
                            server.snapshot_dict(scope="all")["disks"])

                threads = [threading.Thread(target=publish),
                           threading.Thread(target=scrape),
                           threading.Thread(target=scrape)]
                for thread in threads:
                    thread.start()
                while not done.is_set():
                    server.rotate()
                    time.sleep(0.001)
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                server.rotate()
                scrapes.append(server.snapshot_dict(scope="all")["disks"])
        finally:
            sys.setswitchinterval(switch)
        for (vm, vdisk), records in per_disk.items():
            prefixes = {}
            for disks in scrapes:
                got = disks.get(f"{vm}/{vdisk}")
                if got is None:
                    continue
                n = got["commands"]
                if n not in prefixes:
                    prefixes[n] = replay_into_collector(
                        records[:n], VscsiStatsCollector()).to_dict()
                assert got == prefixes[n]
            assert scrapes[-1][f"{vm}/{vdisk}"]["commands"] == len(records)


class TestOpenMetrics:
    _BUCKET = re.compile(
        r'^(?P<name>\w+)_bucket\{(?P<labels>[^}]*),le="(?P<le>[^"]+)"\} '
        r"(?P<value>\d+)$"
    )

    def test_exposition_parses_and_buckets_are_cumulative(self, server,
                                                          client):
        client.publish_columns("vm0", "d0", records_to_columns(_records(2000)))
        client.rotate()
        client.publish_columns(
            "vm0", "d0",
            records_to_columns(_records(500, start_serial=2000,
                                        start_ns=10**10)))
        text = client.metrics()
        assert text.endswith("# EOF\n")

        series = {}
        counts = {}
        for line in text.splitlines():
            match = self._BUCKET.match(line)
            if match:
                key = (match["name"], match["labels"])
                series.setdefault(key, []).append(
                    (match["le"], int(match["value"]))
                )
            elif line and not line.startswith("#"):
                metric, value = line.rsplit(" ", 1)
                name, _, labels = metric.partition("{")
                if name.endswith("_count"):
                    counts[(name[: -len("_count")],
                            labels.rstrip("}"))] = int(value)
        assert series, "no histogram buckets in exposition"
        for key, buckets in series.items():
            values = [v for _, v in buckets]
            assert values == sorted(values), f"non-monotone buckets: {key}"
            assert buckets[-1][0] == "+Inf"
            assert counts[key] == values[-1], (
                f"{key}: _count must equal the +Inf bucket"
            )

        total = re.search(
            r'^vscsi_commands_total\{vm="vm0",vdisk="d0",op="all"\} (\d+)',
            text, re.M,
        )
        assert total and int(total.group(1)) == 2500
        assert "live_ingest_records_total 2500" in text

    def test_type_lines_precede_samples(self, server, client):
        client.publish_columns("vm0", "d0", records_to_columns(_records(50)))
        lines = client.metrics().splitlines()
        seen_types = set()
        for line in lines:
            if line.startswith("# TYPE "):
                seen_types.add(line.split(" ")[2])
            elif line and not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                base = re.sub(r"_(bucket|count|sum|total)$", "", name)
                assert (name in seen_types or base in seen_types
                        or f"{base}_total" in seen_types), name


class TestRobustness:
    def test_malformed_data_body_keeps_connection(self, server, client):
        ragged = (struct.pack("!H", 1) + b"s" + struct.pack("!Q", 1)
                  + struct.pack("!H", 2) + b"vm" + struct.pack("!H", 1)
                  + b"d" + b"\x00" * (RECORD_BYTES - 1))
        with pytest.raises(LiveError, match="whole number"):
            client._roundtrip(pack_frame(FRAME_DATA_SEQ, ragged))
        assert client.ping()["pong"]  # same connection still serves
        assert client.info()["rejected_frames_total"] == 1

    def test_negative_latency_rejected(self, server, client):
        bad = [TraceRecord(0, 1000, 10, 0, 8, True)]
        with pytest.raises(LiveError, match="negative latency"):
            client._roundtrip(pack_data_seq("s", 1, "vm", "d",
                                            records_to_bytes(bad)))
        assert client.ping()["pong"]

    def test_out_of_order_frame_rejected_batchwise(self, server, client):
        records = _records(200)
        client.publish_columns("vm0", "d0", records_to_columns(records[100:]))
        with pytest.raises(LiveError, match="out-of-order"):
            client.publish_columns(
                "vm0", "d0", records_to_columns(records[:100]))
        assert client.info()["records_total"] == 100
        assert client.info()["rejected_frames_total"] == 1
        snap = client.snapshot(scope="all")
        assert snap["disks"]["vm0/d0"]["commands"] == 100

    def test_unknown_frame_type_and_control_op(self, server, client):
        with pytest.raises(LiveError, match="unknown frame type"):
            client._roundtrip(pack_frame(0x55, b""))
        with pytest.raises(LiveError, match="unknown control op"):
            client._control("transmogrify")
        assert client.ping()["pong"]

    def test_unsequenced_data_frame_refused_then_sequenced_one_acked(
            self, server, client):
        """0x01, the retired unsequenced data frame, is an unknown type
        like any other; the same connection then ingests the same
        records as a ``DATA_SEQ`` frame, exactly as offline replay."""
        records = _records(100)
        body = records_to_bytes(records)
        names = struct.pack("!H", 3) + b"vm0" + struct.pack("!H", 2) + b"d0"
        client.ping()
        sock = client._sock
        with pytest.raises(LiveError, match="unknown frame type 0x01"):
            client._roundtrip(pack_frame(0x01, names + body))
        ack = client._roundtrip(pack_data_seq("s", 1, "vm0", "d0", body))
        assert ack["accepted"] == len(records)
        assert client._sock is sock
        snap = client.snapshot(scope="all")
        offline = replay_columns(records_to_columns(records))
        assert snap["disks"]["vm0/d0"] == offline.to_dict()

    def test_oversized_length_prefix_drops_connection(self, server):
        with socket.create_connection(server.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1) + b"x")
            rfile = sock.makefile("rb")
            ftype, _payload = read_frame(rfile)
            assert ftype == FRAME_ERROR
            assert read_frame(rfile) is None  # server hung up

    def test_idle_timeout_disconnects_silent_client(self):
        with LiveStatsServer(port=0, idle_timeout=0.3) as srv:
            with socket.create_connection(srv.address, timeout=5.0) as sock:
                start = time.monotonic()
                assert sock.recv(1) == b""  # EOF from the server
                assert time.monotonic() - start < 4.0

    def test_backpressure_drop_sheds_when_queue_full(self):
        srv = LiveStatsServer(port=0, shards=1, queue_depth=1,
                              backpressure="drop")
        srv.start()
        try:
            frame_a = pack_data_seq("a", 1, "vm", "d",
                                    records_to_bytes(_records(10)))[5:]
            frame_b = pack_data_seq(
                "b", 1, "vm", "d",
                records_to_bytes(_records(10, start_serial=10,
                                          start_ns=10**9)),
            )[5:]
            barriers = srv._pause_workers()
            acks = {}

            def send_a():
                acks["a"] = srv._handle_data_seq(frame_a)

            thread = threading.Thread(target=send_a)
            try:
                thread.start()  # fills the depth-1 queue, waits for ack
                deadline = time.monotonic() + 5.0
                while (srv._workers[0].queue.qsize() < 1
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
                acks["b"] = srv._handle_data_seq(frame_b)  # full: shed
            finally:
                srv._resume_workers(barriers)
            thread.join(timeout=5.0)

            ftype, payload = read_frame(io.BytesIO(acks["b"]))
            assert ftype == FRAME_OK
            assert json.loads(payload) == {
                "accepted": 0, "dropped": 10, "reason": "backpressure",
            }
            ftype, payload = read_frame(io.BytesIO(acks["a"]))
            assert (ftype, json.loads(payload)["accepted"]) == (FRAME_OK, 10)
            assert srv.dropped_records_total == 10
            assert srv.records_total == 10
        finally:
            srv.close()

    def test_drain_on_close_flushes_partial_epoch(self):
        srv = LiveStatsServer(port=0)
        srv.start()
        records = _records(600)
        with LiveStatsClient(*srv.address) as cli:
            cli.publish_columns(
                "vm0", "d0", records_to_columns(records), frame_records=100)
        srv.close()  # drains: the unsealed epoch must survive
        snap = srv.snapshot_dict(scope="all")
        offline = replay_columns(records_to_columns(records))
        assert snap["disks"]["vm0/d0"] == offline.to_dict()
        assert len(srv.ledger) == 1


class TestEvictedSession:
    """The shared session table's bound, forced down to one session."""

    @pytest.fixture(autouse=True)
    def one_session(self, monkeypatch):
        from repro.live import session

        monkeypatch.setattr(session, "MAX_SESSIONS", 1)

    def test_replay_after_eviction_is_refused_until_hello(self, server,
                                                          client):
        """B's first frame evicts A.  A replay of A's acked one-record
        seq 2 used to be ingested again; it is refused with the hello
        hint, and after ``hello(A, 2)`` it is answered as a duplicate
        and A's stream continues at seq 3."""
        records = _records(40)

        def frame(session, seq, vm, lo, hi):
            return pack_data_seq(session, seq, vm, "d0",
                                 records_to_bytes(records[lo:hi]))

        replay = frame("A", 2, "vm0", 10, 11)
        client._roundtrip(frame("A", 1, "vm0", 0, 10))
        client._roundtrip(replay)
        client._roundtrip(frame("B", 1, "vm1", 0, 10))
        before = client.info()["records_total"]
        with pytest.raises(LiveError, match="send hello after a reconnect"):
            client._roundtrip(replay)
        assert client.info()["records_total"] == before
        assert client._control("hello", session="A", seq=2)["seq"] == 2
        assert client._roundtrip(replay) == {"accepted": 0,
                                             "deduplicated": True}
        assert client._roundtrip(frame("A", 3, "vm0", 11, 40)) \
            == {"accepted": 29}
        assert client.info()["records_total"] == before + 29

    def test_evicted_publisher_recovers_with_hello(self, server, client):
        """The documented recovery: ``hello()``, then publish again
        from ``LiveError.partial``."""
        records = _records(300)
        client.publish_columns("vm0", "d0", records_to_columns(records[:100]),
                               frame_records=50)
        with LiveStatsClient(*server.address) as other:
            other.publish_columns("vm1", "d0", records_to_columns(records))
        rest = records[100:]
        with pytest.raises(LiveError) as refused:
            client.publish_columns("vm0", "d0", records_to_columns(rest),
                                   frame_records=50)
        assert refused.value.partial["frames"] == 0
        client.hello()
        result = client.publish_columns("vm0", "d0", records_to_columns(rest),
                                        frame_records=50)
        assert result["accepted"] == len(rest)
        snap = client.snapshot(scope="all")
        offline = replay_columns(records_to_columns(records))
        assert snap["disks"]["vm0/d0"] == offline.to_dict()


class TestRotateSeal:
    """What one rotation costs the data path and the codec."""

    def test_ingest_resumes_before_the_seal_persists(self, tmp_path):
        """The store's append blocks mid-rotation; a publish on another
        connection is still acked, because the workers resume right
        after the swap, before the epoch is encoded and persisted."""
        from repro.store import HistogramStore

        records = _records(600)
        entered, release = threading.Event(), threading.Event()
        with HistogramStore.create(tmp_path / "s") as store:
            append_epoch = store.append_epoch

            def blocking_append(*args, **kwargs):
                entered.set()
                release.wait(10.0)
                return append_epoch(*args, **kwargs)

            store.append_epoch = blocking_append
            with LiveStatsServer(port=0, shards=2, store=store,
                                 online=False) as srv:
                with LiveStatsClient(*srv.address) as cli:
                    cli.publish_columns("vm0", "d0",
                                        records_to_columns(records[:300]))
                rotation = threading.Thread(target=srv.rotate)
                acked = threading.Event()

                def publish():
                    with LiveStatsClient(*srv.address) as cli:
                        cli.publish_columns(
                            "vm0", "d0", records_to_columns(records[300:]))
                    acked.set()

                publisher = threading.Thread(target=publish)
                try:
                    rotation.start()
                    assert entered.wait(10.0)
                    publisher.start()
                    assert acked.wait(1.0)
                finally:
                    release.set()
                    rotation.join(10.0)
                    publisher.join(10.0)
                srv.rotate()
                snap = srv.snapshot_dict(scope="all")
        offline = replay_columns(records_to_columns(records))
        assert snap["disks"]["vm0/d0"] == offline.to_dict()

    def test_one_encode_per_disk_per_seal(self, tmp_path, monkeypatch):
        """A daemon with a store and an uplink-style ``on_seal`` encodes
        each disk once per rotation: the store appends the records the
        snapshot frame carries."""
        import repro.live.epochs
        import repro.live.protocol
        import repro.store.store
        from repro.live.protocol import encode_host_snapshot
        from repro.store.codec import collector_to_bytes

        calls = []

        def counting(collector):
            calls.append(1)
            return collector_to_bytes(collector)

        for module in (repro.live.epochs, repro.live.protocol,
                       repro.store.store):
            monkeypatch.setattr(module, "collector_to_bytes", counting)
        shipped = []
        with LiveStatsServer(
                port=0, shards=2, store=tmp_path / "s", online=False,
                on_seal=lambda epoch: shipped.append(
                    encode_host_snapshot("host-0", epoch))) as srv:
            with LiveStatsClient(*srv.address) as cli:
                for i in range(3):
                    cli.publish_columns(
                        f"vm{i}", "d0", records_to_columns(
                            _records(200, seed=40 + i)))
            del calls[:]
            srv.rotate()
            assert len(shipped) == 1
            assert len(shipped[0][0]["disks"]) == 3
            assert len(calls) == 3


class TestEnableDisable:
    def test_global_disable_ignores_traffic(self, server, client):
        client.disable()
        result = client.publish_columns(
            "vm0", "d0", records_to_columns(_records(40)))
        assert result["ignored"] == 40
        assert result["accepted"] == 0
        client.enable()
        assert client.publish_columns(
            "vm0", "d0",
            records_to_columns(_records(40, start_ns=10**9, start_serial=40))
        )["accepted"] == 40
        assert client.info()["ignored_records_total"] == 40

    def test_per_disk_gating(self):
        with LiveStatsServer(port=0, start_enabled=False) as srv:
            with LiveStatsClient(*srv.address) as cli:
                cli.enable(vm="vm1", vdisk="d0")
                assert cli.publish_columns(
                    "vm1", "d0", records_to_columns(_records(30))
                )["accepted"] == 30
                assert cli.publish_columns(
                    "vm2", "d0", records_to_columns(_records(30))
                )["ignored"] == 30
                # Satellite regression, over the wire: disabling a disk
                # that was never enabled is a no-op and must not mask a
                # later global enable.
                cli.disable(vm="vm3", vdisk="d0")
                cli.enable()
                assert cli.publish_columns(
                    "vm3", "d0", records_to_columns(_records(30))
                )["accepted"] == 30

    def test_rotate_with_no_traffic_is_legal(self, server, client):
        first = client.rotate()
        second = client.rotate()
        assert (first["epoch"], first["records"]) == (0, 0)
        assert second["epoch"] == 1
