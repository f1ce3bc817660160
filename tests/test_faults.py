"""Chaos suite: deterministic fault schedules over the live/store
stack.

The invariant every scenario here pins: **under any injected fault
schedule, no acknowledged record is lost or double-counted** — the
final merged histograms are byte-identical to a fault-free run.
Faults come from :mod:`repro.faults`: seeded schedules of connection
resets, short writes, ``ENOSPC`` on WAL/segment I/O and killed
workers, fired at hooks compiled into the client, server, store and
cluster workers.  Each bugfix that rode along with the fault plane has a
regression test here too.
"""

import errno
import json
import multiprocessing
import os
import time

import pytest

from repro.core.collector import VscsiStatsCollector
from repro.core.tracing import TraceRecord, replay_into_collector
from repro.faults import (
    ENV_VAR,
    FaultAction,
    FaultInjector,
    FaultPlan,
    activate_from_env,
    active,
    fire,
    inject,
)
from repro.live import (
    LiveConnectionError,
    LiveError,
    LiveStatsClient,
    LiveStatsServer,
)
from repro.live.protocol import ProtocolError, pack_data_seq
from repro.parallel import (
    records_to_columns,
    replay_columns,
)
from repro.store import HistogramStore
from repro.store.wal import WAL_MAGIC, WriteAheadLog, scan_wal


def _spawned_worker_entry(index):
    """Body of a spawned worker process (module-level: spawn pickles
    it by import path)."""
    activate_from_env()
    fire("live.cluster.worker", crashable=True, worker_index=index,
         point="start")


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


def _offline(records):
    """The scalar event-merge oracle over the whole stream."""
    return replay_into_collector(records, VscsiStatsCollector()).to_dict()


def _as_json(document):
    return json.loads(json.dumps(document, sort_keys=True))


def _fast_client(server, retries=6):
    return LiveStatsClient(*server.address, retries=retries,
                           retry_backoff=0.002, retry_backoff_cap=0.02)


# ----------------------------------------------------------------------
# The injector itself
# ----------------------------------------------------------------------
class TestInjector:
    def test_fire_is_noop_without_plan(self):
        assert active() is None
        assert fire("store.wal.append") is None

    def test_error_fires_at_exact_invocation_index(self):
        plan = FaultPlan().error("site.x", at=2, errno=errno.ENOSPC)
        with inject(plan) as injector:
            fire("site.x")
            fire("site.x")
            with pytest.raises(OSError) as excinfo:
                fire("site.x")
            assert excinfo.value.errno == errno.ENOSPC
            fire("site.x")  # index 3: nothing scheduled
            assert injector.count("site.x") == 4
            assert injector.fired == [("site.x", 2, "error")]

    def test_reset_and_partial_kinds(self):
        plan = (FaultPlan().reset("a", at=0)
                .partial("b", at=0, fraction=0.25))
        with inject(plan):
            with pytest.raises(ConnectionResetError):
                fire("a")
            action = fire("b")
            assert action is not None and action.kind == "partial"
            assert action.fraction == 0.25

    def test_when_clause_routes_by_context(self):
        plan = FaultPlan().error("w", at=0, when={"worker_index": 1})
        with inject(plan) as injector:
            assert fire("w", worker_index=0) is None  # mismatch: skipped
            assert injector.fired == []
        plan = FaultPlan().error("w", at=0, when={"worker_index": 1})
        with inject(plan):
            with pytest.raises(OSError):
                fire("w", worker_index=1)

    def test_crash_requires_crashable_context(self):
        # A crash fault in a non-crashable context must never exit the
        # test process — it is recorded and skipped.
        plan = FaultPlan().crash("w", at=0)
        with inject(plan) as injector:
            assert fire("w") is None
            assert injector.fired == [("w", 0, "crash")]

    def test_delay_sleeps_and_continues(self):
        plan = FaultPlan().delay("d", at=0, seconds=0.05)
        with inject(plan):
            t0 = time.monotonic()
            assert fire("d") is None
            assert time.monotonic() - t0 >= 0.04

    def test_scattered_is_deterministic(self):
        sites = ("live.client.send", "live.server.send")
        a = FaultPlan.scattered(99, sites, faults=4, horizon=10)
        b = FaultPlan.scattered(99, sites, faults=4, horizon=10)
        assert a.to_json() == b.to_json()
        assert len(a) >= 1
        assert FaultPlan.scattered(100, sites, faults=4,
                                   horizon=10).to_json() != a.to_json()

    def test_json_roundtrip_preserves_rules(self):
        plan = (FaultPlan(name="rt")
                .error("a", at=1, errno=errno.EIO, message="boom")
                .partial("b", at=0, fraction=0.75)
                .crash("c", at=2, exit_code=86, when={"worker_index": 0})
                .delay("d", at=3, seconds=0.5)
                .reset("e", at=4))
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_json() == plan.to_json()
        action = clone.lookup("c", 2)
        assert action.exit_code == 86 and action.when == {"worker_index": 0}

    def test_inject_restores_previous_state(self):
        assert active() is None
        os.environ.pop(ENV_VAR, None)
        with inject(FaultPlan().reset("x", at=0)):
            assert active() is not None
            assert ENV_VAR in os.environ
        assert active() is None
        assert ENV_VAR not in os.environ

    def test_activate_from_env(self, monkeypatch):
        plan = FaultPlan().error("y", at=0)
        monkeypatch.setenv(ENV_VAR, plan.to_json())
        injector = FaultInjector(FaultPlan.from_json(
            os.environ[ENV_VAR]))
        assert injector.plan.lookup("y", 0).kind == "error"
        # activate_from_env arms process state; exercise it through a
        # scratch module-global save/restore.
        import repro.faults.injector as inj_mod
        saved = inj_mod._ACTIVE
        try:
            inj_mod._ACTIVE = None
            assert activate_from_env() is not None
            with pytest.raises(OSError):
                fire("y")
        finally:
            inj_mod._ACTIVE = saved

    def test_plan_reaches_a_spawned_worker_through_the_environment(self):
        """A spawn child re-imports the world, so it inherits no
        injector: the plan reaches it through ``ENV_VAR`` alone.  The
        child does what ``live.cluster._worker_main`` does on entry."""
        plan = FaultPlan().crash("live.cluster.worker", at=0, exit_code=77,
                                 when={"worker_index": 1})
        with inject(plan):
            child = multiprocessing.get_context("spawn").Process(
                target=_spawned_worker_entry, args=(1,))
            child.start()
            child.join(timeout=60)
        assert child.exitcode == 77

    def test_bad_kind_and_fraction_rejected(self):
        with pytest.raises(ValueError):
            FaultAction("explode")
        with pytest.raises(ValueError):
            FaultAction("partial", fraction=0.0)
        with pytest.raises(ValueError):
            FaultPlan().reset("x", at=-1)


# ----------------------------------------------------------------------
# Chaos invariant: client <-> server loopback under seeded schedules
# ----------------------------------------------------------------------
_TRANSPORT_SITES = ("live.client.send", "live.client.recv",
                    "live.server.recv", "live.server.send")


class TestChaosLoopback:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_histograms_byte_identical_under_faults(self, seed):
        """The acceptance invariant: for every seeded schedule of
        resets and short writes across all four transport hook sites,
        every record is acknowledged exactly once and the final merged
        snapshot is byte-identical to a fault-free offline replay."""
        records = _records(3000, seed=seed)
        plan = FaultPlan.scattered(seed, _TRANSPORT_SITES,
                                   kinds=("reset", "partial"),
                                   faults=4, horizon=10)
        with LiveStatsServer(port=0, shards=2, idle_timeout=30.0) as server:
            with _fast_client(server) as client:
                with inject(plan) as injector:
                    result = client.publish_columns(
                        "vm0", "d0", records_to_columns(records),
                        frame_records=250)
                assert result["accepted"] == len(records)
                assert result["dropped"] == 0
                snap = client.snapshot(scope="all")
                info = client.info()
        assert injector.fired, f"schedule for seed {seed} never engaged"
        assert snap["disks"]["vm0/d0"] == _as_json(_offline(records))
        assert info["records_total"] == len(records)

    def test_lost_ack_is_answered_from_dedup_cache(self):
        """Truncate the ack of one data frame: the records were
        ingested, the client retries the frame, and the server answers
        from its per-session cache instead of ingesting twice."""
        records = _records(800)
        plan = FaultPlan().partial("live.server.send", at=1, fraction=0.3)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            with _fast_client(server) as client:
                with inject(plan):
                    result = client.publish_columns(
                        "vm0", "d0", records_to_columns(records),
                        frame_records=200)
                assert result["accepted"] == len(records)
                assert result["retried"] >= 1
                info = client.info()
                snap = client.snapshot(scope="all")
        assert info["duplicate_frames_total"] == 1
        assert info["records_total"] == len(records)
        assert snap["disks"]["vm0/d0"] == _as_json(_offline(records))

    def test_reset_before_send_retries_without_duplicate(self):
        """A frame reset before it reaches the server is simply
        resent; nothing was ingested, so no dedup is involved and
        nothing is double-counted."""
        records = _records(600)
        plan = FaultPlan().reset("live.client.send", at=1)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            with _fast_client(server) as client:
                with inject(plan):
                    result = client.publish_columns(
                        "vm0", "d0", records_to_columns(records),
                        frame_records=200)
                assert result["accepted"] == len(records)
                info = client.info()
        assert info["duplicate_frames_total"] == 0
        assert info["records_total"] == len(records)

    def test_retry_budget_exhaustion_surfaces(self):
        """With retry disabled, a transport fault fails the publish —
        carrying partial totals — instead of silently dropping data."""
        records = _records(1000)
        plan = FaultPlan().reset("live.client.send", at=2)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            with LiveStatsClient(*server.address, retries=0) as client:
                with inject(plan):
                    with pytest.raises(LiveError) as excinfo:
                        client.publish_columns(
                            "vm0", "d0", records_to_columns(records),
                            frame_records=250)
        partial = excinfo.value.partial
        assert partial["frames"] == 2
        assert partial["accepted"] == 500

    def test_sequencing_protocol_rejects_gaps_and_stale_frames(self):
        body = b""
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            with _fast_client(server) as client:
                client._roundtrip(pack_data_seq("s1", 1, "vm", "d", body))
                client._roundtrip(pack_data_seq("s1", 2, "vm", "d", body))
                with pytest.raises(LiveError, match="seq gap"):
                    client._roundtrip(pack_data_seq("s1", 4, "vm", "d",
                                                    body))
                with pytest.raises(LiveError, match="stale"):
                    client._roundtrip(pack_data_seq("s1", 1, "vm", "d",
                                                    body))


# ----------------------------------------------------------------------
# Satellite: connection hygiene after a failed round-trip
# ----------------------------------------------------------------------
class TestConnectionHygiene:
    def test_failed_send_discards_socket_and_reconnects(self):
        plan = FaultPlan().reset("live.client.send", at=0)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            client = LiveStatsClient(*server.address, retries=0)
            try:
                with inject(plan):
                    with pytest.raises(ConnectionResetError):
                        client.ping()  # control ops are never retried
                    # The poisoned connection was discarded...
                    assert client._sock is None
                    # ...so the next call reconnects and succeeds.
                    assert client.ping()["pong"] is True
            finally:
                client.close()

    def test_truncated_response_discards_socket(self):
        plan = FaultPlan().partial("live.server.send", at=0, fraction=0.4)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            client = LiveStatsClient(*server.address, retries=0)
            try:
                with inject(plan):
                    with pytest.raises(ProtocolError):
                        client.ping()
                    assert client._sock is None
                    assert client.ping()["pong"] is True
            finally:
                client.close()

    def test_server_eof_raises_connection_error_and_closes(self):
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            client = LiveStatsClient(*server.address, retries=0)
            client.connect()
        # Server gone: the round-trip must raise a ConnectionError
        # subclass and leave no half-dead socket behind.
        try:
            with pytest.raises((LiveConnectionError, OSError)):
                client.ping()
            assert client._sock is None
        finally:
            client.close()


# ----------------------------------------------------------------------
# Satellite: publish totals
# ----------------------------------------------------------------------
class TestPublishTotals:
    def test_empty_publish_sends_no_frame(self):
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            with _fast_client(server) as client:
                result = client.publish_columns(
                    "vm0", "d0", records_to_columns([]))
                assert result == {"records": 0, "frames": 0, "accepted": 0,
                                  "dropped": 0, "ignored": 0, "retried": 0}
                assert client.info()["frames_total"] == 0

    def test_midstream_failure_attaches_partial_totals(self):
        records = _records(1000)
        plan = FaultPlan().reset("live.client.send", at=2)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            with LiveStatsClient(*server.address, retries=0) as client:
                with inject(plan):
                    with pytest.raises(LiveError) as excinfo:
                        client.publish_columns(
                            "vm0", "d0", records_to_columns(records),
                            frame_records=250)
        exc = excinfo.value
        assert exc.partial == {"records": 1000, "frames": 2, "accepted": 500,
                               "dropped": 0, "ignored": 0, "retried": 0}
        assert isinstance(exc.__cause__, ConnectionResetError)

    def test_semantic_error_attaches_partial_totals(self):
        """An out-of-order stream is rejected server-side mid-publish;
        the raised LiveError still carries what was acked."""
        records = _records(400)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0) as server:
            with _fast_client(server) as client:
                client.publish_columns(
                    "vm0", "d0", records_to_columns(records),
                    frame_records=100)
                with pytest.raises(LiveError) as excinfo:
                    # Replaying the same records is out-of-order
                    # (watermark) — rejected on the first frame.
                    client.publish_columns(
                        "vm0", "d0", records_to_columns(records),
                        frame_records=100)
        assert excinfo.value.partial["frames"] == 0
        assert excinfo.value.partial["records"] == 400


# ----------------------------------------------------------------------
# Satellite: WAL closed/failed-append consistency
# ----------------------------------------------------------------------
class TestWalFaults:
    def test_append_and_sync_after_close_raise_clear_error(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(b"alpha")
        wal.close()
        with pytest.raises(ValueError, match="is closed"):
            wal.append(b"beta")
        with pytest.raises(ValueError, match="is closed"):
            wal.sync()
        with pytest.raises(ValueError, match="is closed"):
            wal.reset()
        wal.close()  # idempotent

    def test_failed_append_keeps_unsynced_consistent(self, tmp_path):
        plan = FaultPlan().error("store.wal.append", at=1,
                                 errno=errno.ENOSPC)
        wal = WriteAheadLog(tmp_path / "wal.log", fsync="batch",
                            fsync_batch=1000)
        with inject(plan):
            wal.append(b"first")
            before = wal._unsynced
            with pytest.raises(OSError) as excinfo:
                wal.append(b"never-durable")
            assert excinfo.value.errno == errno.ENOSPC
            # The failed record is not counted: sync() cannot claim
            # durability for something that never hit the file.
            assert wal._unsynced == before
            wal.sync()
        wal.close()
        payloads, _good, torn = scan_wal(tmp_path / "wal.log")
        assert payloads == [b"first"]
        assert torn == 0

    def test_partial_append_rolls_back_to_frame_boundary(self, tmp_path):
        plan = FaultPlan().partial("store.wal.append", at=1, fraction=0.5)
        wal = WriteAheadLog(tmp_path / "wal.log")
        with inject(plan):
            wal.append(b"one")
            size_before = wal.size
            with pytest.raises(OSError):
                wal.append(b"half-written-record")
            assert wal.size == size_before  # rolled back, chain intact
            wal.append(b"three")
        wal.close()
        payloads, _good, torn = scan_wal(tmp_path / "wal.log")
        assert payloads == [b"one", b"three"]
        assert torn == 0
        # Reopen: recovery sees a clean chain, nothing truncated.
        reopened = WriteAheadLog(tmp_path / "wal.log")
        assert reopened.recovered == [b"one", b"three"]
        assert reopened.truncated_bytes == 0
        reopened.close()

    def test_reset_clears_torn_state(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.append(b"sealed-away")
        wal._torn = True  # simulate an unrollbackable failed append
        with pytest.raises(ValueError, match="torn"):
            wal.sync()
        wal.reset()  # truncation erases the tear
        wal.append(b"fresh")
        wal.close()
        payloads, _good, _torn = scan_wal(tmp_path / "wal.log")
        assert payloads == [b"fresh"]

    def test_torn_close_still_closes_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal._torn = True
        wal.close()  # must not raise (sync is skipped) and must close
        assert wal.closed


# ----------------------------------------------------------------------
# Store seal under injected I/O errors
# ----------------------------------------------------------------------
def _collector_for(records):
    return replay_columns(records_to_columns(records))


class TestStoreFaults:
    def test_checkpoint_failure_leaves_store_intact(self, tmp_path):
        store = HistogramStore.create(tmp_path / "hist")
        try:
            store.append("vm", "d", 0, 10, _collector_for(_records(200)))
            plan = FaultPlan().error("store.segment.write", at=0,
                                     errno=errno.ENOSPC)
            with inject(plan):
                with pytest.raises(OSError):
                    store.checkpoint()
            # Nothing lost: the records are still WAL-backed and a
            # later checkpoint seals them normally.
            assert len(store) == 1
            store.checkpoint()
            assert len(store) == 1
            assert not list(tmp_path.glob("hist/*.tmp"))
        finally:
            store.close()

    def test_wal_sync_failure_surfaces(self, tmp_path):
        store = HistogramStore.create(tmp_path / "hist", fsync="always")
        plan = FaultPlan().error("store.wal.sync", at=0, errno=errno.EIO)
        try:
            with inject(plan):
                with pytest.raises(OSError):
                    store.append("vm", "d", 0, 10,
                                 _collector_for(_records(50)))
        finally:
            store.close()


# ----------------------------------------------------------------------
# Chaos over the batched (group-commit) WAL: acked appends always
# recover, exactly once, with the acknowledged contents
# ----------------------------------------------------------------------
class TestBatchedWalChaos:
    def test_failed_batch_sync_retry_recovers_acked_contents(self,
                                                             tmp_path):
        """An append whose group-commit sync fails leaves its frame
        buffered without advancing the sequence; the retried append
        reuses the seq, and recovery must keep the *acknowledged*
        (later) frame, not the abandoned one."""
        store = HistogramStore.create(tmp_path / "hist", fsync="batch",
                                      fsync_batch=2,
                                      wal_seal_records=10_000)
        abandoned = _collector_for(_records(30, seed=3))
        acked = _collector_for(_records(60, seed=5))
        plan = FaultPlan().error("store.wal.sync", at=0, errno=errno.EIO)
        try:
            store.append("vm", "d0", 0, 10, _collector_for(_records(20)))
            with inject(plan):
                # Second append crosses fsync_batch: the sync inside
                # the WAL append fails *after* the frame is buffered.
                with pytest.raises(OSError):
                    store.append("vm", "d0", 10, 20, abandoned)
            store.append("vm", "d0", 10, 20, acked)  # seq reused
        finally:
            store.close()

        with HistogramStore.open(tmp_path / "hist") as reopened:
            by_seq = {}
            for h in reopened.records():
                assert h.seq not in by_seq, "duplicate seq recovered"
                by_seq[h.seq] = h
            assert sorted(by_seq) == [1, 2]
            assert by_seq[2].load() == acked

    @pytest.mark.parametrize("seed", [3, 11, 27])
    def test_scattered_faults_lose_no_acked_append(self, tmp_path, seed):
        """Seeded error/partial schedules over the batched WAL sites:
        every append that returned recovers exactly once with its
        acknowledged contents; failed appends leave the store usable."""
        plan = FaultPlan.scattered(
            seed, ("store.wal.append", "store.wal.sync"),
            kinds=("error", "partial"), faults=4, horizon=30)
        store = HistogramStore.create(tmp_path / "hist", fsync="batch",
                                      fsync_batch=8,
                                      wal_seal_records=10_000)
        acked = {}
        with inject(plan):
            for i in range(40):
                collector = _collector_for(
                    _records(10, seed=seed * 100 + i, start_ns=i * 100))
                try:
                    seq = store.append("vm", "d0", i * 10, (i + 1) * 10,
                                       collector)
                except OSError:
                    continue
                acked[seq] = collector
        assert len(acked) >= 30  # the schedule failed only a few
        store.close()  # clean close: every acked frame reaches disk

        with HistogramStore.open(tmp_path / "hist") as reopened:
            recovered = {}
            for h in reopened.records():
                assert h.seq not in recovered, "duplicate seq recovered"
                recovered[h.seq] = h
            missing = set(acked) - set(recovered)
            assert not missing, f"lost acked seqs {sorted(missing)}"
            for seq, collector in acked.items():
                assert recovered[seq].load() == collector


# ----------------------------------------------------------------------
# Tentpole: the server degrades (and keeps ingesting) when its store
# fails mid-seal
# ----------------------------------------------------------------------
class TestDegradedServer:
    def test_enospc_mid_seal_quarantines_and_keeps_ingesting(self,
                                                             tmp_path):
        first = _records(500)
        second = _records(300, seed=11, start_serial=500,
                          start_ns=first[-1].issue_ns + 1)
        store_dir = tmp_path / "hist"
        plan = FaultPlan().error("store.wal.append", at=0,
                                 errno=errno.ENOSPC)
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0,
                             store=str(store_dir)) as server:
            with _fast_client(server) as client:
                client.publish_columns("vm0", "d0", records_to_columns(first))
                with inject(plan):
                    rotated = client.rotate()  # seal fails to persist
                assert rotated["records"] == len(first)

                info = client.info()
                assert info["degraded"] is True
                assert len(info["persist_errors"]) == 1
                quarantine = info["persist_errors"][0]["quarantined"]
                assert quarantine is not None

                # The epoch was diverted to a sidecar holding the full
                # snapshot — an operator can re-import it later.
                document = json.loads(
                    (store_dir / "quarantine" /
                     "epoch-00000000.json").read_text())
                assert document["epoch"] == 0
                assert document["disks"]["vm0/d0"] == _as_json(
                    _offline(first))

                # Degraded is visible in the exposition...
                text = client.metrics()
                assert "live_degraded 1" in text
                assert "live_persist_failures_total 1" in text

                # ...and ingestion continues: a later epoch persists
                # normally once the store works again.
                client.publish_columns("vm0", "d0", records_to_columns(second))
                rotated = client.rotate()
                assert rotated["records"] == len(second)
                snap = client.snapshot(scope="all")
                assert server.ledger.epochs[0].quarantined is True
                assert server.ledger.epochs[1].persisted is True

        # No acked record was lost in memory...
        assert snap["disks"]["vm0/d0"] == _as_json(
            _offline(first + second))
        # ...and the store holds exactly the non-quarantined epoch —
        # the quarantined one was never half-appended (no double
        # counting on re-import).
        store = HistogramStore.open(store_dir, readonly=True)
        try:
            total = sum(rec.load().commands for rec in store.records())
            assert total == len(second)
        finally:
            store.close()

    def test_fault_free_run_is_not_degraded(self, tmp_path):
        with LiveStatsServer(port=0, shards=1, idle_timeout=30.0,
                             store=str(tmp_path / "hist")) as server:
            with _fast_client(server) as client:
                client.publish_columns(
                    "vm0", "d0", records_to_columns(_records(100)))
                client.rotate()
                info = client.info()
        assert info["degraded"] is False
        assert info["persist_errors"] == []
        assert not (tmp_path / "hist" / "quarantine").exists()
