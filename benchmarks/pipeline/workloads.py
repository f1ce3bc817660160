"""The five ``bench_pipeline`` workloads.

Each workload does fixed work for a given ``--seconds``: its counts are
``seconds`` times a rate frozen on the 2-CPU reference host (so the
timed window there is about ``seconds`` long) and are never adjusted by
wall clock — a faster program finishes sooner, a slower one later.

Life cycle, driven by ``run.py``::

    set_up()      everything before the timed window (reported as
                  setup_s): corpus, oracle, processes, warm-up
    run()         the timed window
    tear_down()   stop and reap every process, collect their results
    verify()      compare every output with its reference

``set_up``/``tear_down`` may be repeated; only the last set-up is run.
All load generators are closed loops: a publisher sends its next frame
only after the ack of the previous one, and there are as many of them
as the reference host has CPUs (two).
"""

from __future__ import annotations

import hashlib
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from statistics import median

import corpus
from harness import (check_window, digest_disks, digest_verdicts, percentile,
                     store_bytes)
from tiers import Tier, Tree, reader_main, sim_main

from repro.analysis.online import OnlineAnalyzer
from repro.fleet import FleetUplink, snapshot_extents
from repro.live import LiveError, LiveStatsClient
from repro.live.protocol import RECORD_BYTES
from repro.store.codec import (collector_from_bytes, collector_to_bytes,
                               merge_collector_payloads)

#: Publisher threads = connections = CPUs of the reference host.
PUBLISHERS = 2

#: Share of the timed input that is first sent as a discarded warm-up.
WARMUP_SHARE = 0.1


class Workload:
    """Common bookkeeping; see the module docstring for the life cycle."""

    name = ""

    def __init__(self, seed, seconds, traced, workdir, trace, smoke=False,
                 tamper=False):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.trace = trace
        self.smoke = smoke
        #: Test hook: alter one generated input after its reference was
        #: computed, so ``verify`` must fail.
        self.tamper = tamper
        self.window_s = 0.0
        #: ``(seconds, commands, disk_epochs)`` per lap of the timed
        #: window (see ``end_to_end``).
        self.laps = []
        self.latencies_s = []
        self.store_bytes = 0
        self.stored_disk_epochs = 0
        self.attempted = 0
        self.failed = 0
        self.drift_events = 0
        self.results = {}
        self.layer = {}
        self._round = 0

    def scale(self, per_second, floor=1):
        return max(floor, round(per_second * self.seconds))

    def fresh_dir(self):
        self._round += 1
        path = self.workdir / f"{self.name}-{self._round}"
        path.mkdir(parents=True)
        return path

    # -- reporting -----------------------------------------------------
    def end_to_end(self):
        """Rates are the median over laps of work / lap time, not total
        work / window: the timed window is cut into equal pieces of
        work (rotate intervals, rounds, passes, repeats) because on a
        shared host interference arrives in bursts of a second or two,
        which shift a total but not a median."""
        check_window(self.window_s, self.smoke, self.name)
        return {
            "commands_per_s": self.headline_rate(),
            "epochs_per_s": median(e / s for s, _c, e in self.laps),
            "result_latency_ms_p50": 1e3 * median(self.latencies_s),
            "store_bytes_per_disk_epoch":
                self.store_bytes / self.stored_disk_epochs,
            "peak_rss_mb": sum(r["usage"]["maxrss_kb"]
                               for r in self.results.values()) / 1024.0,
        }

    def headline_rate(self):
        """``commands_per_s`` alone; needs nothing from ``verify``."""
        return median(c / s for s, c, _e in self.laps)

    def scoped(self):
        """This workload's own end-to-end numbers (ISSUE names)."""
        return {}

    def per_layer(self):
        layer = dict(self.layer)
        for tier, result in self.results.items():
            role = tier.split("-")[0]
            key = f"tiers.{role}_cpu_s"
            layer[key] = layer.get(key, 0.0) + result["usage"]["cpu_s"]
        return layer


# ----------------------------------------------------------------------
# Workloads that drive the leaf -> regional -> root tree
# ----------------------------------------------------------------------
class TreeWorkload(Workload):
    host_id = "host-0"
    with_leaf = True

    def start_tree(self):
        self.dir = self.fresh_dir()
        self.tree = Tree(self.dir, traced=self.traced, leaf=self.with_leaf,
                         host_id=self.host_id)
        self.clients = []
        if self.with_leaf:
            self.clients = [LiveStatsClient(*self.tree.leaf_address).connect()
                            for _ in range(PUBLISHERS + 1)]
            self.control = self.clients[-1]

    def tear_down(self):
        try:
            for client in self.clients:
                client.close()
            self.results = self.tree.stop()
            self.leaf_store_bytes = store_bytes(self.dir / "leaf-store")
            self.root_store_bytes = store_bytes(self.dir / "root-store")
        finally:
            self.tree.reap()
            shutil.rmtree(self.dir, ignore_errors=True)
        self.trace.extend(span for result in self.results.values()
                          for span in result["spans"])

    def publish(self, client, frames, frame_records, epoch=None):
        """Send ``frames`` one by one; returns ``(records acked, frames
        failed)``.  Runs on publisher threads, so it only counts
        locally."""
        acked = failed = 0
        for (vm, vdisk), columns in frames:
            try:
                with self.trace.span("live.server.publish", host=self.host_id,
                                     epoch=epoch):
                    totals = client.publish_columns(
                        vm, vdisk, columns, frame_records=frame_records,
                        sort=False)
            except (LiveError, OSError):
                failed += 1
                continue
            acked += totals["accepted"]
            failed += totals["accepted"] != len(columns)
        return acked, failed

    def uplinks(self):
        """``info()`` of every uplink in the tree (leaf's, regionals')."""
        return [result["info"]["uplink"] for result in self.results.values()
                if "uplink" in result["info"]]

    def tree_failures(self, expected_epochs):
        """Failures the tiers counted themselves, from ``info()``."""
        root = self.results["root"]["info"]
        failed = (expected_epochs - root["epochs_applied_total"]
                  + len(root["persist_errors"])
                  + root["online"]["analysis_errors_total"]
                  + root["rejected_frames_total"])
        failed += sum(uplink["retries_total"] for uplink in self.uplinks())
        if self.with_leaf:
            leaf = self.results["leaf"]["info"]
            failed += (leaf["rejected_frames_total"]
                       + (leaf["dropped_records_total"] > 0)
                       + len(leaf["persist_errors"])
                       + leaf["online"]["analysis_errors_total"]
                       + (not self.results["leaf"]["drained"]))
        return failed

    def tree_layer(self):
        root = self.results["root"]["info"]
        layer = {
            "analysis.online.errors_total":
                root["online"]["analysis_errors_total"],
            "fleet.uplink.retries_total":
                sum(u["retries_total"] for u in self.uplinks()),
            "fleet.uplink.reconnects_total":
                sum(u["reconnects_total"] for u in self.uplinks()),
        }
        applied = root["epochs_applied_total"]
        layer["fleet.state.dedup_ratio"] = applied / (
            applied + root["duplicate_snapshots_total"])
        staleness = root["staleness"]["p50"]
        layer["fleet.aggregator.staleness_ms_p50"] = 1e3 * (staleness or 0.0)
        if self.with_leaf:
            leaf = self.results["leaf"]["info"]
            layer["analysis.online.errors_total"] += \
                leaf["online"]["analysis_errors_total"]
            for counter in ("frames_total", "dropped_records_total",
                            "rejected_frames_total",
                            "duplicate_frames_total"):
                layer[f"live.server.{counter}"] = leaf[counter]
        for span, metric in (
                ("store.store.leaf_append", "store.store.leaf_append_ms_p50"),
                ("store.store.root_append", "store.store.root_append_ms_p50"),
                ("analysis.online.leaf_observe",
                 "analysis.online.leaf_observe_ms_p50"),
                ("analysis.online.root_observe",
                 "analysis.online.root_observe_ms_p50"),
                ("fleet.uplink.on_seal", "fleet.uplink.on_seal_ms_p50")):
            durations = self.trace.durations(span)
            if durations:
                layer[metric] = 1e3 * median(durations)
        busy = self.trace.durations("live.server.publish")
        if busy:
            layer["live.server.publish_busy_s"] = sum(busy)
        return layer

    def verify_global(self, expected):
        """Root state == reference, byte for byte, disk for disk."""
        return self.results["root"]["global"] == expected


class IngestBulk(TreeWorkload):
    """The per-command path: big frames, few epochs.

    A lap is the interval between two rotates."""

    name = "ingest_bulk"
    DISKS = 8
    FRAME_RECORDS = 32_768
    #: Frozen on the reference host: what one leaf core ingests per
    #: second (8 disks x 2.7 frames x 32 768 records, ~0.7 M commands).
    FRAMES_PER_DISK_PER_SECOND = 2.7
    #: One rotate per this many acked frames (two per publisher), so
    #: every lap holds the same work.
    FRAMES_PER_ROTATE = 4

    def set_up(self):
        frames = self.scale(self.FRAMES_PER_DISK_PER_SECOND)
        warm = max(1, round(WARMUP_SHARE * frames))
        self.rotates = self.DISKS * frames // self.FRAMES_PER_ROTATE
        streams = self.streams = corpus.bulk_streams(
            self.seed, self.DISKS, (warm + frames) * self.FRAME_RECORDS)
        keys = sorted(streams)
        share = len(keys) // PUBLISHERS

        def plan(first, last):
            """Per publisher, frames ``[first, last)`` of each of its
            disks, round-robin across the disks."""
            return [
                [(key, corpus.slice_columns(streams[key],
                                            f * self.FRAME_RECORDS,
                                            (f + 1) * self.FRAME_RECORDS))
                 for f in range(first, last) for key in mine]
                for mine in (keys[p * share:(p + 1) * share]
                             for p in range(PUBLISHERS))
            ]

        self.timed_frames = plan(warm, warm + frames)
        if self.tamper:
            key, columns = self.timed_frames[0][0]
            self.timed_frames[0][0] = (key, corpus.tampered(columns))
        self.start_tree()
        warm_frames = plan(0, warm)
        with ThreadPoolExecutor(PUBLISHERS) as pool:
            list(pool.map(lambda p: self.publish(self.clients[p],
                                                 warm_frames[p],
                                                 self.FRAME_RECORDS),
                          range(PUBLISHERS)))
        self.control.rotate()
        self.tree.wait_verdicts(1)

    def run(self):
        total = sum(len(frames) for frames in self.timed_frames)
        progress = threading.Condition()
        done = {"frames": 0, "records": 0, "failed": 0}

        def publisher(p):
            for frame in self.timed_frames[p]:
                acked, failed = self.publish(self.clients[p], [frame],
                                             self.FRAME_RECORDS)
                with progress:
                    done["frames"] += 1
                    done["records"] += acked
                    done["failed"] += failed
                    progress.notify_all()

        threads = [threading.Thread(target=publisher, args=(p,))
                   for p in range(PUBLISHERS)]
        begin = lap_begin = time.monotonic()
        lap_records = 0
        for thread in threads:
            thread.start()
        # A rotate goes out every FRAMES_PER_ROTATE acked frames while
        # the publishers keep going: the stall is what an operator's
        # seal waits behind in-flight frames.
        for k in range(1, self.rotates + 1):
            with progress:
                progress.wait_for(lambda: done["frames"] >= min(
                    total, k * self.FRAMES_PER_ROTATE))
                records = done["records"]
            stamp = time.monotonic()
            self.laps.append((stamp - lap_begin, records - lap_records,
                              self.DISKS))
            lap_begin, lap_records = stamp, records
            try:
                with self.trace.span("live.server.rotate", host=self.host_id,
                                     epoch=k):
                    self.control.rotate()
            except (LiveError, OSError):
                self.failed += 1
                continue
            self.latencies_s.append(time.monotonic() - stamp)
        for thread in threads:
            thread.join()
        self.acked = done["records"]
        self.failed += done["failed"]
        self.window_s = self.tree.wait_verdicts(1 + self.rotates) - begin

    def verify(self):
        epochs = 1 + self.rotates
        # Operations: every frame, every rotate, every host epoch that
        # had to reach the root.
        self.attempted = (sum(len(f) for f in self.timed_frames)
                          + 2 * self.rotates)
        self.failed += self.tree_failures(epochs)
        self.store_bytes = self.leaf_store_bytes
        self.stored_disk_epochs = self.DISKS * epochs
        self.drift_events = \
            self.results["root"]["info"]["online"]["drift_events_total"]
        self.layer = self.tree_layer()
        self.layer["live.protocol.wire_bytes_per_cmd"] = float(RECORD_BYTES)
        sent = sum(len(columns) for frames in self.timed_frames
                   for _key, columns in frames)
        expected = {f"{vm}/{vdisk}": corpus.oracle_bytes(columns)
                    for (vm, vdisk), columns in self.streams.items()}
        return (self.verify_global(expected) and self.acked == sent
                and self.drift_events == 0)

    def scoped(self):
        return {"rotate_stall_ms_p50": 1e3 * median(self.latencies_s),
                "drift_events": self.drift_events}


class SealStorm(TreeWorkload):
    """The per-epoch path: one small frame per disk, then a seal.

    A lap is one round (16 frame round trips and the rotate)."""

    name = "seal_storm"
    DISKS = 16
    COMMANDS_PER_EPOCH = 500
    FRAME_RECORDS = 4_096
    SWAP_EVERY = 25
    #: Frozen on the reference host: rounds the leaf completes a second.
    EPOCHS_PER_SECOND = 32

    def set_up(self):
        # The floor keeps one personality swap (and its drift events)
        # inside even a smoke run.
        self.epochs = self.scale(self.EPOCHS_PER_SECOND,
                                 floor=self.SWAP_EVERY + 5)
        self.warm = max(1, round(WARMUP_SHARE * self.epochs))
        self.rounds = corpus.storm_epochs(
            self.seed, self.DISKS, self.warm + self.epochs,
            self.COMMANDS_PER_EPOCH, self.SWAP_EVERY)
        self.sent_rounds = self.rounds
        if self.tamper:
            key, columns = self.rounds[self.warm][0]
            self.sent_rounds = list(self.rounds)
            self.sent_rounds[self.warm] = \
                [(key, corpus.tampered(columns))] + self.rounds[self.warm][1:]
        self.start_tree()
        self.pool = ThreadPoolExecutor(PUBLISHERS)
        for index in range(self.warm):
            self.one_round(index)
        self.tree.wait_verdicts(self.warm)
        self.failed = 0

    def one_round(self, index):
        """Publish round ``index`` and seal it; returns ``(records
        acked, stamp just before the rotate, rotate round trip)``."""
        frames = self.sent_rounds[index]
        share = len(frames) // PUBLISHERS
        acked = 0
        for records, failed in self.pool.map(
                lambda p: self.publish(self.clients[p],
                                       frames[p * share:(p + 1) * share],
                                       self.FRAME_RECORDS, epoch=index),
                range(PUBLISHERS)):
            acked += records
            self.failed += failed
        stamp = time.monotonic()
        try:
            with self.trace.span("live.server.rotate", host=self.host_id,
                                 epoch=index):
                self.control.rotate()
        except (LiveError, OSError):
            self.failed += 1
        return acked, stamp, time.monotonic() - stamp

    def run(self):
        self.acked = 0
        self.seal_stamps, self.stalls_s = [], []
        begin = lap_begin = time.monotonic()
        for index in range(self.warm, self.warm + self.epochs):
            acked, stamp, stall = self.one_round(index)
            self.acked += acked
            self.seal_stamps.append(stamp)
            self.stalls_s.append(stall)
            now = time.monotonic()
            self.laps.append((now - lap_begin, acked, self.DISKS))
            lap_begin = now
        self.window_s = \
            self.tree.wait_verdicts(self.warm + self.epochs) - begin

    def tear_down(self):
        self.pool.shutdown()
        super().tear_down()

    def verify(self):
        total = self.warm + self.epochs
        # Operations: every frame, every rotate, every host epoch that
        # had to reach the root.
        self.attempted = self.epochs * (self.DISKS + 2)
        self.failed += self.tree_failures(total)
        root = self.results["root"]
        self.latencies_s = [
            verdict - seal for seal, verdict
            in zip(self.seal_stamps, root["stamps"][self.warm:])]
        self.store_bytes = self.leaf_store_bytes
        self.stored_disk_epochs = self.DISKS * total
        self.drift_events = root["info"]["online"]["drift_events_total"]
        expected_events = corpus.expected_drift_events(
            self.DISKS, total, self.SWAP_EVERY)
        self.layer = self.tree_layer()
        self.layer["fleet.aggregator.seal_to_verdict_ms_p95"] = \
            1e3 * percentile(self.latencies_s, 0.95)
        self.layer["store.wal.bytes_per_epoch"] = \
            self.leaf_store_bytes / total
        per_disk = {}
        for this_round in self.rounds:
            for key, columns in this_round:
                per_disk.setdefault(key, []).append(columns)
        expected = {
            f"{vm}/{vdisk}": corpus.oracle_bytes(corpus.concat_columns(chunks))
            for (vm, vdisk), chunks in per_disk.items()}
        return (self.verify_global(expected)
                and len(self.latencies_s) == self.epochs
                and self.acked == self.epochs * self.DISKS
                * self.COMMANDS_PER_EPOCH
                and self.drift_events == expected_events)

    def scoped(self):
        return {"rotate_stall_ms_p50": 1e3 * median(self.stalls_s),
                "seal_to_verdict_ms_p50": 1e3 * median(self.latencies_s),
                "drift_events": self.drift_events}


class FleetFanin(TreeWorkload):
    """The tree and the root: many hosts seal at once, no ingest.

    A lap is one round: every host's snapshot for one epoch, from the
    first enqueue to the round's last verdict at the root."""

    name = "fleet_fanin"
    with_leaf = False
    HOSTS = 400
    COMMANDS_PER_DISK_EPOCH = 500
    DUPLICATE_EVERY = 50
    #: Frozen on the reference host: rounds of 400 host snapshots the
    #: persisting, analysing root absorbs per second.
    ROUNDS_PER_SECOND = 1.3

    def set_up(self):
        self.hosts = max(20, round(self.HOSTS * min(1.0, self.seconds)))
        self.epochs = self.scale(self.ROUNDS_PER_SECOND, floor=2)
        self.rounds = corpus.fleet_snapshots(
            self.seed, self.hosts, 1 + self.epochs,
            self.COMMANDS_PER_DISK_EPOCH)
        self.sent_rounds = self.rounds
        if self.tamper:
            # Host 0 reports its epoch-2 histograms as epoch 1 as well.
            header, payload = self.rounds[2][0]
            window = {key: self.rounds[1][0][0][key]
                      for key in ("epoch", "start_ns", "end_ns")}
            self.sent_rounds = list(self.rounds)
            self.sent_rounds[1] = \
                [(dict(header, **window), payload)] + self.rounds[1][1:]
        self.start_tree()
        self.edges = [
            FleetUplink([address], node=f"edge-{side}", jitter_seed=side)
            .start()
            for side, address in enumerate(self.tree.regional_addresses)]
        self.sent = 0
        self.one_round(0)
        self.sent = 0

    def one_round(self, index):
        """Every host seals epoch ``index`` at once; one host in fifty
        also retransmits through the other regional, so the duplicate
        travels all the way to the root's watermark.  Returns the
        stamps of the first enqueue and of the round's last verdict."""
        begin = time.monotonic()
        with self.trace.span("fleet.uplink.enqueue_round", epoch=index):
            for host, (header, payload) in enumerate(self.sent_rounds[index]):
                header = dict(header, sealed_unix=time.time())
                self.edges[host % 2].enqueue(header, payload)
                if host % self.DUPLICATE_EVERY == 0:
                    self.edges[(host + 1) % 2].enqueue(header, payload)
                    self.sent += 1
            self.sent += self.hosts
        return begin, self.tree.wait_verdicts((index + 1) * self.hosts)

    def run(self):
        self.round_stamps = []
        for index in range(1, 1 + self.epochs):
            begin, end = self.one_round(index)
            self.round_stamps.append(begin)
            self.laps.append((end - begin, self.hosts * 2
                              * self.COMMANDS_PER_DISK_EPOCH, self.hosts * 2))
        self.window_s = end - self.round_stamps[0]

    def tear_down(self):
        self.edge_info = []
        for edge in self.edges:
            edge.drain(timeout=30.0)
            edge.close()
            self.edge_info.append(edge.info())
        super().tear_down()

    def verify(self):
        total = (1 + self.epochs) * self.hosts
        self.attempted = self.sent
        self.failed = self.tree_failures(total) \
            + sum(info["retries_total"] + info["pending"]
                  for info in self.edge_info)
        root = self.results["root"]
        stamps = root["stamps"][self.hosts:]
        self.latencies_s = [
            stamp - self.round_stamps[position // self.hosts]
            for position, stamp in enumerate(stamps)]
        self.store_bytes = self.root_store_bytes
        self.stored_disk_epochs = total * 2
        self.drift_events = root["info"]["online"]["drift_events_total"]
        self.layer = self.tree_layer()
        wire = sum(len(payload) for this_round in self.rounds[1:]
                   for _header, payload in this_round)
        self.layer["fleet.protocol.wire_bytes_per_epoch"] = \
            wire / (self.epochs * self.hosts)
        per_disk = {}
        for this_round in self.rounds:
            for header, payload in this_round:
                for (vm, vdisk), record in snapshot_extents(header, payload):
                    per_disk.setdefault(f"{vm}/{vdisk}", []).append(record)
        expected = {key: collector_to_bytes(merge_collector_payloads(records))
                    for key, records in per_disk.items()}
        return (self.verify_global(expected)
                and len(stamps) == self.epochs * self.hosts
                and self.drift_events == 0)

    def scoped(self):
        return {"drift_events": self.drift_events}


# ----------------------------------------------------------------------
# history_read
# ----------------------------------------------------------------------
class HistoryRead(Workload):
    """Reads beside writes: range queries and ``watch --once`` replays
    against a store that was written, checkpointed and compacted.

    A lap is one dashboard refresh: a sweep of never-seen windows, the
    standing dashboard windows again (cover-cache hits after the first
    lap), and one replay of every tier-0 record into verdicts."""

    name = "history_read"
    DISKS = 16
    COMMANDS_PER_DISK_EPOCH = 500
    SWAP_EVERY = 25
    DASHBOARD_WINDOWS = 20
    LAPS = 6
    #: Frozen on the reference host (per second of timed window).
    COMPACTED_EPOCHS_PER_SECOND = 150
    TAIL_EPOCHS_PER_SECOND = 14
    COLD_QUERIES_PER_SECOND = 110

    def set_up(self):
        self.dir = self.fresh_dir()
        compacted = self.scale(self.COMPACTED_EPOCHS_PER_SECOND, floor=12)
        tail = self.scale(self.TAIL_EPOCHS_PER_SECOND,
                          floor=self.SWAP_EVERY + 5)
        self.history = corpus.build_history(
            self.seed, self.dir / "store", self.DISKS, compacted, tail,
            self.COMMANDS_PER_DISK_EPOCH, self.SWAP_EVERY)
        self.layer["store.compactor.compact_epochs_per_s"] = \
            self.DISKS * compacted / self.history.compact_seconds
        per_lap = max(2, self.scale(self.COLD_QUERIES_PER_SECOND)
                      // self.LAPS)
        warm = max(1, round(WARMUP_SHARE * per_lap * self.LAPS))
        windows = corpus.query_windows(
            self.seed + 1, self.history,
            warm + per_lap * self.LAPS + self.DASHBOARD_WINDOWS)
        self.dashboard = windows[:self.DASHBOARD_WINDOWS]
        cold = windows[self.DASHBOARD_WINDOWS + warm:]
        self.cold = [cold[lap * per_lap:(lap + 1) * per_lap]
                     for lap in range(self.LAPS)]
        self.store_bytes = store_bytes(self.dir / "store")
        self.reader = Tier("reader", reader_main, str(self.dir / "store"))
        try:
            self.reader.ready()
            self.reader.call(
                "swept", "sweep",
                windows[self.DASHBOARD_WINDOWS:self.DASHBOARD_WINDOWS + warm])
        except BaseException:
            self.reader.reap()
            raise
        if self.tamper:
            self.history.payloads[0][0] = self.history.payloads[1][0]

    def run(self):
        self.passes = []
        begin = lap_begin = time.monotonic()
        for lap, cold in enumerate(self.cold):
            with self.trace.span("store.query.cold_sweep", epoch=lap):
                swept = self.reader.call("swept", "sweep", cold)[1]
            with self.trace.span("store.query.dashboard_sweep", epoch=lap):
                again = self.reader.call("swept", "sweep", self.dashboard)[1]
            with self.trace.span("store.store.replay", epoch=lap):
                replay = self.reader.call("replayed", "replay")[1]
            self.passes.append((swept, again, replay))
            now = time.monotonic()
            epochs = (sum(a[2] for a in swept["answers"] + again["answers"]
                          if a) + replay["records"])
            self.laps.append((now - lap_begin,
                              epochs * self.COMMANDS_PER_DISK_EPOCH, epochs))
            lap_begin = now
        self.window_s = now - begin

    def tear_down(self):
        try:
            self.results = {"reader": self.reader.stop()}
        finally:
            self.reader.reap()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- reference -----------------------------------------------------
    #: Epochs per leaf of the reference tree.  One codec merge call
    #: costs ~0.3 ms however few records it gets, so the verifier
    #: merges runs of 16 first and builds the tree over those.
    BLOCK = 16

    def _reference_tree(self):
        """Per disk, a segment tree of exact merges over blocks of raw
        tier-0 records, so any window's reference is one merge of a few
        dozen records instead of a re-merge of the whole window."""
        trees = []
        for records in self.history.payloads:
            blocks = [collector_to_bytes(merge_collector_payloads(
                          records[i:i + self.BLOCK]))
                      for i in range(0, len(records) - self.BLOCK + 1,
                                     self.BLOCK)]
            size = 1
            while size < max(1, len(blocks)):
                size *= 2
            nodes = [None] * (2 * size)
            nodes[size:size + len(blocks)] = blocks
            for index in range(size - 1, 0, -1):
                pair = [n for n in nodes[2 * index:2 * index + 2]
                        if n is not None]
                if len(pair) == 2:
                    nodes[index] = collector_to_bytes(
                        merge_collector_payloads(pair))
                elif pair:
                    nodes[index] = pair[0]
            trees.append((size, nodes, records))
        return trees

    def _cover(self, tree, first, last):
        """Records and tree nodes exactly covering epochs
        ``[first, last)``."""
        size, nodes, records = tree
        lo = -(-first // self.BLOCK)
        hi = last // self.BLOCK
        if lo >= hi:
            return records[first:last]
        chosen = records[first:lo * self.BLOCK] + records[hi * self.BLOCK:last]
        lo += size
        hi += size
        while lo < hi:
            if lo & 1:
                chosen.append(nodes[lo])
                lo += 1
            if hi & 1:
                hi -= 1
                chosen.append(nodes[hi])
            lo //= 2
            hi //= 2
        return chosen

    def _reference_digest(self, trees, covered_start, covered_end):
        first = covered_start // corpus.EPOCH_NS
        last = covered_end // corpus.EPOCH_NS
        digest = digest_disks(
            (corpus.disk_key(disk), collector_to_bytes(
                merge_collector_payloads(self._cover(tree, first, last))))
            for disk, tree in enumerate(trees))
        return (last - first) * self.history.disks, digest

    def _reference_replay(self):
        history = self.history
        analyzer = OnlineAnalyzer()
        digest = hashlib.sha256()
        for index, epoch in enumerate(range(history.compacted,
                                            history.epochs)):
            pairs = [(corpus.disk_key(disk),
                      collector_from_bytes(history.payloads[disk][epoch]))
                     for disk in range(history.disks)]
            digest_verdicts(digest,
                            analyzer.observe_epoch(pairs, index=index))
        return digest.hexdigest(), analyzer.drift_events_total

    def verify(self):
        history = self.history
        trees = self._reference_tree()
        references = {}
        ok = True
        for cold, (swept, again, _replay) in zip(self.cold, self.passes):
            self.attempted += len(cold) + len(self.dashboard) + 1
            self.failed += swept["failed"] + again["failed"]
            for window, answer in zip(cold + self.dashboard,
                                      swept["answers"] + again["answers"]):
                if answer is None:
                    continue
                covered_start, covered_end, epochs, digest = answer
                span = (covered_start, covered_end)
                if span not in references:
                    references[span] = self._reference_digest(trees, *span)
                ok &= (covered_start <= window[0] and covered_end > window[1]
                       and (epochs, digest) == references[span])
        tail = history.epochs - history.compacted
        reference_digest, reference_events = self._reference_replay()
        expected_events = corpus.expected_drift_events(
            history.disks, tail, self.SWAP_EVERY)
        for _swept, _again, replay in self.passes:
            ok &= (replay["digest"] == reference_digest
                   and replay["records"] == tail * history.disks
                   and replay["epochs"] == tail
                   and replay["drift_events"] == expected_events
                   == reference_events)
        self.drift_events = self.passes[-1][2]["drift_events"]

        # One sample per lap: the mean latency of a never-seen window.
        self.latencies_s = [sum(swept["each"]) / len(swept["each"])
                            for swept, _a, _r in self.passes]
        self.stored_disk_epochs = history.epochs * history.disks
        cold_s = [sum(swept["each"]) for swept, _a, _r in self.passes]
        cold_epochs = [sum(a[2] for a in swept["answers"] if a)
                       for swept, _a, _r in self.passes]
        self.query_epochs_per_s = median(
            e / s for e, s in zip(cold_epochs, cold_s))
        self.replay_epochs_per_s = median(
            replay["records"] / replay["seconds"]
            for _s, _a, replay in self.passes)
        hits = [t for _s, again, _r in self.passes[1:]
                for t in again["each"]]
        self.layer.update({
            "store.query.cold_us_per_epoch":
                1e6 * sum(cold_s) / sum(cold_epochs),
            "store.query.cached_hit_us": 1e6 * median(hits),
            "store.store.tail_load_us_per_record": 1e6 * median(
                replay["tail_load_seconds"] / replay["records"]
                for _s, _a, replay in self.passes),
        })
        return bool(ok)

    def scoped(self):
        return {"query_epochs_per_s": self.query_epochs_per_s,
                "replay_epochs_per_s": self.replay_epochs_per_s,
                "drift_events": self.drift_events}


# ----------------------------------------------------------------------
# sim_capture
# ----------------------------------------------------------------------
class SimCapture(Workload):
    """The paper's own observation point: scalar ``on_issue`` /
    ``on_complete`` inside the discrete-event simulator.

    A lap is one repeat of the same seeded simulations (Figure 6's
    three two-VM runs, then the zipf-write pattern on both backends);
    every repeat's statistics must agree bit for bit."""

    name = "sim_capture"
    LAPS = 5
    #: Frozen on the reference host: simulated seconds per second of
    #: timed window (Figure 6 pairs cost ~4 host-s per simulated
    #: second, the zipf-write pattern pair ~1.3).
    PAIR_SIM_S_PER_SECOND = 0.18
    PATTERN_SIM_S_PER_SECOND = 0.12

    def set_up(self):
        # Floors: a simulated run too short to complete a command
        # would count as a failed operation.
        self.pair_s = max(
            0.05, self.PAIR_SIM_S_PER_SECOND * self.seconds / self.LAPS)
        self.pattern_s = max(
            0.05, self.PATTERN_SIM_S_PER_SECOND * self.seconds / self.LAPS)
        self.sim = Tier("sim", sim_main)
        try:
            self.sim.ready()
            self.sim.call("ran", "run", self.seed, self.pair_s / 2,
                          self.pattern_s / 2)
        except BaseException:
            self.sim.reap()
            raise

    def run(self):
        self.repeats = []
        begin = lap_begin = time.monotonic()
        for lap in range(self.LAPS):
            seed = self.seed + (1 if self.tamper and lap else 0)
            with self.trace.span("sim.capture", epoch=lap):
                repeat = self.sim.call("ran", "run", seed, self.pair_s,
                                       self.pattern_s)[1]
            self.repeats.append(repeat)
            now = time.monotonic()
            self.laps.append((now - lap_begin,
                              sum(run["commands"] for run in repeat["runs"]),
                              len(repeat["payload_bytes"])))
            lap_begin = now
        self.window_s = now - begin

    def tear_down(self):
        try:
            self.results = {"sim": self.sim.stop()}
        finally:
            self.sim.reap()

    def verify(self):
        runs = [run for repeat in self.repeats for run in repeat["runs"]]
        self.attempted = len(runs)
        self.failed = sum(1 for run in runs if not run["commands"])
        self.latencies_s = [run["seconds"] for run in runs]
        sizes = [size for repeat in self.repeats
                 for size in repeat["payload_bytes"]]
        self.stored_disk_epochs = len(sizes)
        self.store_bytes = sum(sizes)
        self.digest = self.repeats[0]["digest"]
        self.layer["sim.stats_digest"] = int(self.digest[:12], 16)
        return all(repeat["digest"] == self.digest
                   for repeat in self.repeats)

    def scoped(self):
        return {"sim_commands_per_s":
                sum(c for _s, c, _e in self.laps) / self.window_s,
                "sim_stats_digest": self.digest}


WORKLOADS = {cls.name: cls for cls in (IngestBulk, SealStorm, FleetFanin,
                                       HistoryRead, SimCapture)}
