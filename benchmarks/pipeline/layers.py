"""Isolated per-layer probes and the stage budget.

Each probe calls one layer's public functions directly, single-threaded
in the benchmark process, on inputs from the same generators as the
workloads, and reports the median cost per call over :data:`ROUNDS`
rounds that together last at least :data:`ISO_SECONDS`.

A traced run of workload W runs only the probes of the layers W
exercises (``PROBES[W]``); every other per-layer metric reads 0 for that
run, meaning *not measured here*, and the README's "should move / should
not move" table says where to look instead.
"""

from __future__ import annotations

import threading
import time
from statistics import median

import numpy as np

import corpus
from tiers import Tree

from repro.analysis.online import OnlineAnalyzer
from repro.core.collector import VscsiStatsCollector
from repro.experiments.table2 import run_table2
from repro.fleet import (FleetAggregator, FleetLedger, FleetUplink,
                         encode_host_snapshot, pack_snapshot,
                         unpack_snapshot)
from repro.live import (ClusterServer, DiskStream, EpochLedger,
                        LiveStatsClient, LiveStatsServer)
from repro.live.protocol import (bytes_to_columns, columns_to_bytes,
                                 pack_data_seq, unpack_data_seq)
from repro.parallel.trace_io import replay_columns
from repro.sim.engine import Engine
from repro.storage.ssd.ftl import Ftl, SsdModel
from repro.store import HistogramStore
from repro.store.codec import (collector_from_bytes, collector_to_bytes,
                               merge_collector_payloads)

#: Wall time one probe aims to measure for (the ISSUE asked for 1 s;
#: the driver's total-time cap leaves room for half of that).
ISO_SECONDS = 0.5
ROUNDS = 5

FRAME = 32_768
SMALL = 40
EPOCH_COMMANDS = 500
DISKS = 16


def per_call(call, calls_per_round=None):
    """Median seconds per ``call()`` over ROUNDS rounds."""
    if calls_per_round is None:
        begin = time.perf_counter()
        call()
        once = max(time.perf_counter() - begin, 1e-7)
        calls_per_round = max(1, int(ISO_SECONDS / ROUNDS / once))
    rounds = []
    for _ in range(ROUNDS):
        begin = time.perf_counter()
        for _ in range(calls_per_round):
            call()
        rounds.append((time.perf_counter() - begin) / calls_per_round)
    return median(rounds)


class Inputs:
    """Generated once per traced run, shared by the probes."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.workdir = workdir
        self.frames = [corpus.personality_chunk(rng, kind, FRAME,
                                                corpus.DiskCursor())
                       for kind in corpus.PERSONALITIES]
        self.payloads = [p for kind in corpus.PERSONALITIES
                         for p in corpus.payload_pool(rng, kind, DISKS // 2,
                                                      EPOCH_COMMANDS)]
        self.collectors = [collector_from_bytes(p) for p in self.payloads]
        self.pairs = [(corpus.disk_key(i), c)
                      for i, c in enumerate(self.collectors)]
        self.epoch = EpochLedger().seal(self.pairs)
        self.header, self.snapshot = encode_host_snapshot("host-0",
                                                          self.epoch)
        self.rng = rng

    def small_chunks(self, count, kind="seq"):
        cursor = corpus.DiskCursor()
        return [corpus.personality_chunk(self.rng, kind, SMALL, cursor)
                for _ in range(count)]


# ----------------------------------------------------------------------
# core / parallel / live.protocol / live.stream
# ----------------------------------------------------------------------
def core_batch(inputs):
    def call():
        for frame in inputs.frames:
            collector = VscsiStatsCollector()
            collector.on_issue_batch(frame.issue_ns, frame.is_read, frame.lba,
                                     frame.nblocks, outstanding,
                                     backend="numpy")
            collector.on_complete_batch(frame.complete_ns, frame.is_read,
                                        frame.complete_ns - frame.issue_ns,
                                        backend="numpy")
    outstanding = np.full(FRAME, 8, dtype=np.int64)
    return {"core.batch_ns_per_cmd":
            1e9 * per_call(call) / (FRAME * len(inputs.frames))}


def core_scalar(inputs):
    rows = [list(zip(frame.issue_ns[:4096].tolist(),
                     frame.is_read[:4096].tolist(),
                     frame.lba[:4096].tolist(),
                     frame.nblocks[:4096].tolist(),
                     frame.complete_ns[:4096].tolist()))
            for frame in inputs.frames]

    def call():
        for frame_rows in rows:
            collector = VscsiStatsCollector()
            for issue, is_read, lba, nblocks, complete in frame_rows:
                collector.on_issue(issue, is_read, lba, nblocks, 8)
                collector.on_complete(complete, is_read, complete - issue)
    return {"core.scalar_ns_per_cmd":
            1e9 * per_call(call) / (4096 * len(rows))}


def replay(inputs):
    def call():
        for frame in inputs.frames:
            replay_columns(frame)
    return {"parallel.replay_columns_ns_per_cmd":
            1e9 * per_call(call) / (FRAME * len(inputs.frames))}


def live_protocol(inputs):
    frame = inputs.frames[0]
    packed = pack_data_seq("session", 1, "vm-00", "scsi0:0",
                           columns_to_bytes(frame))

    def encode():
        pack_data_seq("session", 1, "vm-00", "scsi0:0",
                      columns_to_bytes(frame))

    def decode():
        bytes_to_columns(unpack_data_seq(memoryview(packed)[5:])[4])

    return {"live.protocol.encode_ns_per_cmd": 1e9 * per_call(encode) / FRAME,
            "live.protocol.decode_ns_per_cmd": 1e9 * per_call(decode) / FRAME}


def live_stream_ingest(inputs):
    rng = np.random.default_rng(inputs.seed)
    cursor = corpus.DiskCursor()
    frames = [corpus.personality_chunk(rng, "rand", FRAME, cursor)
              for _ in range(3)]

    def call():
        stream = DiskStream()
        for frame in frames:
            stream.ingest(frame)
    return {"live.stream.ingest_ns_per_cmd":
            1e9 * per_call(call) / (FRAME * len(frames))}


def live_seal(inputs):
    """Seal plus the continuation collector the next frame creates."""
    chunks = inputs.small_chunks(4096)
    position = [0]
    stream = DiskStream()
    stream.ingest(chunks[0])

    def cycle(seal):
        position[0] += 1
        if seal:
            stream.seal()
        stream.ingest(chunks[position[0]])

    calls = 400
    with_seal = per_call(lambda: cycle(True), calls)
    without = per_call(lambda: cycle(False), calls)
    ledger = EpochLedger()
    return {"live.stream.seal_us_per_disk": 1e6 * max(with_seal - without, 0),
            "live.epochs.seal_us":
                1e6 * per_call(lambda: ledger.seal(inputs.pairs))}


# ----------------------------------------------------------------------
# live.server / live.cluster
# ----------------------------------------------------------------------
def live_server(inputs):
    rounds = 40
    chunks = [inputs.small_chunks(rounds + 1) for _ in range(DISKS)]
    rtts, rotates = [], []
    with LiveStatsServer(shards=1, online=False, idle_timeout=None) as server:
        with LiveStatsClient(*server.address) as client:
            for index in range(rounds + 1):
                for disk in range(DISKS):
                    vm, vdisk = corpus.disk_key(disk)
                    begin = time.perf_counter()
                    client.publish_columns(vm, vdisk, chunks[disk][index],
                                           sort=False)
                    rtts.append(time.perf_counter() - begin)
                begin = time.perf_counter()
                client.rotate()
                rotates.append(time.perf_counter() - begin)
    return {"live.server.frame_rtt_us": 1e6 * median(rtts[DISKS:]),
            "live.server.rotate_idle_ms": 1e3 * median(rotates[1:])}


def live_cluster(inputs):
    """``ClusterServer(workers=2)``: bulk ingest rate with two
    publishers over eight disks, then the rotate of sixteen."""
    streams = corpus.bulk_streams(inputs.seed, 8, 4 * FRAME)
    keys = sorted(streams)
    small = [inputs.small_chunks(12) for _ in range(DISKS)]
    rotates = []
    with ClusterServer(workers=2, shards=1, online=False,
                       idle_timeout=None) as cluster:
        clients = [LiveStatsClient(*cluster.address).connect()
                   for _ in range(2)]
        try:
            def publisher(p):
                for key in keys[p * 4:(p + 1) * 4]:
                    clients[p].publish_columns(*key, streams[key],
                                               frame_records=FRAME,
                                               sort=False)
            threads = [threading.Thread(target=publisher, args=(p,))
                       for p in range(2)]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - begin
            clients[0].rotate()
            for index in range(12):
                for disk in range(DISKS):
                    clients[0].publish_columns(f"c{disk:02d}", "scsi0:0",
                                               small[disk][index], sort=False)
                begin = time.perf_counter()
                clients[0].rotate()
                rotates.append(time.perf_counter() - begin)
        finally:
            for client in clients:
                client.close()
    return {"live.cluster.ingest_cmds_per_s": 8 * 4 * FRAME / elapsed,
            "live.cluster.rotate_ms_p50": 1e3 * median(rotates[1:])}


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------
def store_codec(inputs):
    collector, payload = inputs.collectors[0], inputs.payloads[0]
    many = inputs.payloads * 2
    return {
        "store.codec.encode_us":
            1e6 * per_call(lambda: collector_to_bytes(collector)),
        "store.codec.decode_us":
            1e6 * per_call(lambda: collector_from_bytes(payload)),
        "store.codec.merge_us_per_payload":
            1e6 * per_call(lambda: merge_collector_payloads(many))
            / len(many),
        "store.codec.bytes_per_disk_epoch":
            sum(len(p) for p in inputs.payloads) / len(inputs.payloads),
    }


def store_append(inputs):
    store = HistogramStore.create(inputs.workdir / "iso-append")
    epoch = [0]

    def call():
        epoch[0] += 1
        store.append_epoch(inputs.epoch.service, epoch[0] * corpus.EPOCH_NS,
                           (epoch[0] + 1) * corpus.EPOCH_NS, sync=True)
    try:
        return {"store.store.append_epoch_sync_us": 1e6 * per_call(call)}
    finally:
        store.close()


def store_recover(inputs):
    """Cold ``open`` of a store whose records all sit in the WAL."""
    epochs = 24
    path = inputs.workdir / "iso-recover"
    store = HistogramStore.create(path, wal_seal_records=1 << 20)
    for epoch in range(epochs):
        store.append_epoch(inputs.epoch.service, epoch * corpus.EPOCH_NS,
                           (epoch + 1) * corpus.EPOCH_NS)
    store.close()

    def call():
        HistogramStore.open(path, wal_seal_records=1 << 20).close()
    return {"store.store.recover_epochs_per_s":
            epochs * DISKS / per_call(call)}


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def fleet_encode(inputs):
    return {"fleet.protocol.encode_snapshot_us": 1e6 * per_call(
        lambda: encode_host_snapshot("host-0", inputs.epoch))}


def fleet_pack(inputs):
    def call():
        frame = pack_snapshot("edge/0", 1, inputs.header, inputs.snapshot)
        unpack_snapshot(memoryview(frame)[5:])
    return {"fleet.protocol.pack_unpack_us": 1e6 * per_call(call)}


def fleet_hop(inputs):
    """One snapshot, enqueue to drained, against a bare aggregator."""
    rtts = []
    with FleetAggregator(node="iso", idle_timeout=None) as aggregator:
        with FleetUplink([aggregator.address], node="iso-edge",
                         jitter_seed=0) as uplink:
            for epoch in range(200):
                header = dict(inputs.header, epoch=epoch)
                begin = time.perf_counter()
                uplink.enqueue(header, inputs.snapshot)
                uplink.drain(timeout=10.0)
                rtts.append(time.perf_counter() - begin)
    return {"fleet.uplink.hop_rtt_ms_p50": 1e3 * median(rtts[10:])}


def fleet_apply(inputs):
    ledger = FleetLedger()
    epoch = [0]

    def call():
        epoch[0] += 1
        ledger.apply(dict(inputs.header, epoch=epoch[0]), inputs.snapshot)
    return {"fleet.state.apply_us": 1e6 * per_call(call)}


def fleet_bare(inputs):
    """The fan-in tree with a root that neither persists nor analyses."""
    hosts, epochs = 200, 3
    rounds = corpus.fleet_snapshots(inputs.seed, hosts, epochs,
                                    EPOCH_COMMANDS)
    scratch = inputs.workdir / "iso-bare"
    scratch.mkdir()
    with Tree(scratch, leaf=False, root_store=False,
              root_analyse=False) as tree:
        edges = [FleetUplink([address], node=f"iso-edge-{side}",
                             jitter_seed=side).start()
                 for side, address in enumerate(tree.regional_addresses)]
        try:
            elapsed = 0.0
            for index, this_round in enumerate(rounds):
                begin = time.monotonic()
                for host, (header, payload) in enumerate(this_round):
                    edges[host % 2].enqueue(
                        dict(header, sealed_unix=time.time()), payload)
                end = tree.wait_verdicts((index + 1) * hosts)
                if index:
                    elapsed += end - begin
        finally:
            for edge in edges:
                edge.close()
        tree.stop()
    return {"fleet.aggregator.bare_snapshots_per_s":
            hosts * (epochs - 1) / elapsed}


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _observe(inputs, swap_every):
    swapped = inputs.pairs[DISKS // 2:] + inputs.pairs[:DISKS // 2]
    swapped = [(key, collector) for (key, _c), (_k, collector)
               in zip(inputs.pairs, swapped)]
    analyzer = OnlineAnalyzer()
    index = [0]

    def call():
        flip = swap_every and (index[0] // swap_every) % 2
        analyzer.observe_epoch(swapped if flip else inputs.pairs,
                               index=index[0])
        index[0] += 1
    return 1e6 * per_call(call) / DISKS


def analysis_steady(inputs):
    return {"analysis.online.observe_us_per_disk_epoch_steady":
            _observe(inputs, 0)}


def analysis_switching(inputs):
    return {"analysis.online.observe_us_per_disk_epoch_switching":
            _observe(inputs, 8)}


# ----------------------------------------------------------------------
# sim / storage
# ----------------------------------------------------------------------
def sim_engine(inputs):
    events = 50_000

    def call():
        engine = Engine()
        for delay in range(events):
            engine.schedule(delay, _nothing)
        engine.run()
    return {"sim.engine.events_per_s": events / per_call(call)}


def _nothing():
    pass


def sim_service(inputs):
    """The paper's Table 2: host microseconds per simulated command
    with the histogram service off, and what switching it on adds."""
    result = run_table2(duration_s=0.15, repetitions=3, seed=inputs.seed)
    return {"sim.host_us_per_cmd": result.disabled.host_cpu_us_per_command,
            "core.service_overhead_us_per_cmd":
                result.cpu_overhead_us_per_command}


def ssd_ftl(inputs):
    rng = np.random.default_rng(inputs.seed)
    model = SsdModel(capacity_blocks=262_144)
    slots = model.capacity_blocks // 8
    hot = max(1, slots // 10)
    count = 20_000
    slot = np.where(rng.random(count) < 0.9, rng.integers(0, hot, count),
                    rng.integers(hot, slots, count))
    commands = list(zip((slot * 8).tolist(),
                        (rng.random(count) < 0.2).tolist()))

    def call():
        ftl = Ftl(model)
        for lba, is_read in commands:
            if is_read:
                ftl.read(lba, 8)
            else:
                ftl.write(lba, 8)
    return {"storage.ssd.ftl_ns_per_cmd": 1e9 * per_call(call) / count}


#: Which probes a traced run of each workload runs: the layers that
#: workload exercises.  ``live_cluster`` has no end-to-end workload on a
#: 2-CPU host and rides with ``ingest_bulk``, whose shape it shares.
PROBES = {
    "ingest_bulk": (core_batch, replay, live_protocol, live_stream_ingest,
                    live_cluster),
    "seal_storm": (live_seal, live_server, store_codec, store_append,
                   fleet_encode, fleet_hop, fleet_apply, analysis_switching),
    "fleet_fanin": (store_codec, store_append, fleet_pack, fleet_apply,
                    fleet_bare, analysis_steady),
    "history_read": (store_codec, store_recover, analysis_steady,
                     analysis_switching),
    "sim_capture": (core_scalar, sim_engine, sim_service, ssd_ftl),
}


def isolated(workload, seed, workdir):
    inputs = Inputs(seed, workdir)
    metrics = {}
    for probe in PROBES[workload]:
        metrics.update(probe(inputs))
    return metrics


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
#: Stages on the path a sealed epoch blocks on between the generator's
#: stamp before ``rotate()`` and the root's verdict stamp, each as
#: (per-layer metric in milliseconds, times it occurs).  A hop already
#: contains the receiving ledger's ``apply``.
SEAL_TO_VERDICT_STAGES = (
    ("live.server.rotate_idle_ms", 1),          # barrier + seal + RTT
    ("store.store.leaf_append_ms_p50", 1),
    ("analysis.online.leaf_observe_ms_p50", 1),
    ("fleet.uplink.on_seal_ms_p50", 1),         # encode + enqueue
    ("fleet.uplink.hop_rtt_ms_p50", 2),         # leaf->regional->root
    ("store.store.root_append_ms_p50", 1),
    ("analysis.online.root_observe_ms_p50", 1),
)


def budget(workload, metrics, scoped, untraced_rate, traced_rate):
    """What share of the measured seal-to-verdict latency the stages
    account for, and what the seams and spans cost."""
    out = {"budget.trace_overhead_pct":
           100.0 * (untraced_rate - traced_rate) / untraced_rate}
    if workload == "seal_storm":
        stages = sum(metrics[name] * times
                     for name, times in SEAL_TO_VERDICT_STAGES)
        out["budget.seal_to_verdict_coverage"] = \
            stages / scoped["seal_to_verdict_ms_p50"]
    return out
