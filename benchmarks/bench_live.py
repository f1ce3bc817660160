"""Live daemon loopback ingest throughput and rotate-stall latency.

The :mod:`repro.live` daemon promises that network ingestion costs
little over the in-process batch kernels: a ``DATA`` frame body *is*
the columnar trace dtype, so the server views it with ``np.frombuffer``
and lands in the same vectorized inserts the offline replay uses.  This
benchmark measures that claim end to end over a loopback socket:

* ``frames=4096`` / ``frames=32768`` — one publisher streaming a
  ``FULL_N``-command synthetic stream at two frame sizes.  Small frames stress the per-frame
  overhead (framing, ack round-trip, queue handoff); large frames
  amortize it toward raw kernel throughput.
* ``inprocess`` — the same stream through :class:`repro.live.DiskStream`
  directly (no socket), isolating the network layer's cost.
* ``cluster-workers=W`` — the multi-core edge: the same command count
  spread over ``CLUSTER_DISKS`` virtual disks, published concurrently
  into a :class:`repro.live.ClusterServer` of ``W`` worker processes
  sharing one port via ``SO_REUSEPORT``.  The reported rate is the
  *aggregate* commands/sec across all publishers — the number the
  tentpole gates.

Mid-publish, the ``frames=32768`` mode issues periodic ``rotate``
round-trips; their latencies are reported as ``rotate_ms`` p50/p99 —
the stall an operator pays for an epoch seal while ingestion runs.

Before any number is reported, every published snapshot is verified
byte-identical to an offline :func:`repro.parallel.replay_columns` run
over the same stream — the throughput being gated is provably the same
computation, cluster fan-in included.

The cluster gate is scale-matched to the host (``os.cpu_count()``):
>=2.5x the single-process ``frames=4096`` rate on a >=4-core host,
where three extra ingest processes should pay for the fan-in; a modest
win on two cores; and a floor on a single core, where the cluster adds
pure coordination overhead and merely has to stay within a bounded
constant of single-process (the record still proves the partitioned
path end to end).  Both ``workers`` and ``cpus`` land in the committed
record so the regression gate never compares across host sizes.

Run styles:

* ``pytest benchmarks/bench_live.py --benchmark-only`` — small stream,
  wall time measured by pytest-benchmark (autosaved).
* ``python benchmarks/bench_live.py [N]`` — the full stream; writes
  ``BENCH_live.json`` and exits 1 unless the gate holds.
"""

import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as _np

from repro.live import (
    ClusterServer,
    DiskStream,
    LiveStatsClient,
    LiveStatsServer,
)
from repro.parallel.trace_io import TraceColumns, replay_columns

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_live.json"

#: Commands in the full-run stream.
FULL_N = 1_000_000

#: Loopback rotates interleaved into the large-frame publish.
ROTATES = 32

#: The large-frame loopback mode must sustain at least this many
#: commands/sec (a floor far under healthy throughput, catching
#: order-of-magnitude regressions like a fallback to per-record
#: parsing, not scheduler noise).
MIN_CPS = 200_000

#: p99 rotate stall must stay under this many milliseconds (2x the
#: committed single-process record's p99).
MAX_ROTATE_P99_MS = 5.2

#: Disks the cluster corpus is spread over — enough that consistent
#: hashing gives every worker a share.
CLUSTER_DISKS = 8


def default_workers(ncpu=None):
    """Worker processes the cluster mode runs: wide enough to use a
    multi-core host, never wider than four (the fan-in pipe and the
    coordinator thread stop being free somewhere past that)."""
    if ncpu is None:
        ncpu = os.cpu_count() or 1
    return 4 if ncpu >= 4 else 2


def min_cluster_speedup(ncpu):
    """Scale-matched cluster gate vs the single-process frames=4096
    rate: real scaling on a real multi-core host; on smaller hosts the
    cluster only pays coordination overhead and must stay within a
    bounded constant of single-process."""
    if ncpu >= 4:
        return 2.5
    if ncpu >= 2:
        return 1.15
    return 0.35


def make_stream(n, seed=20070927):
    """A single-disk stream in ``(issue, serial)`` order: 70%
    sequential, bursty."""
    rng = _np.random.default_rng(seed)
    sizes = _np.array([8, 8, 8, 16, 64, 128], dtype=_np.int64)
    nblocks = sizes[rng.integers(0, len(sizes), n)]
    gaps = rng.integers(1, 200_000, n, dtype=_np.int64)
    gaps[rng.random(n) < 0.25] = 0  # same-timestamp bursts
    times = _np.cumsum(gaps)
    # Sequential runs: each random jump starts a segment at a fresh
    # LBA; within a segment each command continues where the previous
    # one ended.
    jump = rng.random(n) >= 0.7
    jump[0] = True
    segment = _np.cumsum(jump) - 1
    bases = rng.integers(0, 1 << 28, int(segment[-1]) + 1, dtype=_np.int64)
    before = _np.concatenate(
        [_np.zeros(1, dtype=_np.int64), _np.cumsum(nblocks)[:-1]]
    )
    seg_origin = before[jump][segment]
    lbas = bases[segment] + (before - seg_origin)
    latencies = rng.integers(100_000, 20_000_000, n, dtype=_np.int64)
    return TraceColumns(
        _np.arange(n, dtype=_np.uint64),
        times,
        times + latencies,
        lbas,
        nblocks.astype(_np.uint32),
        rng.random(n) < 0.67,
    )


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def run_loopback(columns, frame_records, rotates=0):
    """Publish ``columns`` to a loopback daemon; returns
    ``(seconds, rotate_seconds, snapshot_dict)``."""
    rotate_times = []
    with LiveStatsServer(port=0, shards=1, idle_timeout=None) as server:
        with LiveStatsClient(*server.address) as client:
            n = len(columns)
            bounds = ([round(i * n / (rotates + 1))
                       for i in range(1, rotates + 1)] + [n]
                      if rotates else [n])
            start = time.perf_counter()
            lo = 0
            for hi in bounds:
                if hi > lo:
                    client.publish_columns("bench-vm", "scsi0:0",
                                           _slice(columns, lo, hi),
                                           frame_records=frame_records,
                                           sort=False)
                lo = hi
                if len(rotate_times) < rotates:
                    t0 = time.perf_counter()
                    client.rotate()
                    rotate_times.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            snap = client.snapshot(scope="all")
    return elapsed, rotate_times, snap["disks"]["bench-vm/scsi0:0"]


def _slice(columns, lo, hi):
    return TraceColumns(*(col[lo:hi] for col in columns.columns()))


def make_cluster_corpus(n, disks=CLUSTER_DISKS, seed=20070927):
    """Per-disk streams totalling ``n`` commands."""
    per_disk = n // disks
    return {
        (f"vm{index // 4}", f"scsi0:{index % 4}"):
            make_stream(per_disk, seed + index)
        for index in range(disks)
    }


def run_cluster(streams, frame_records, workers):
    """Publish every disk's stream concurrently into a worker cluster.

    One publisher thread (and client) per disk — clients follow the
    consistent-hash redirects to each disk's owning worker, so after
    the first frame every publisher talks straight to its owner.
    Returns ``(seconds, snapshot_disks)`` where seconds is the
    aggregate wall time from first frame to last ack.
    """
    errors = []
    with ClusterServer(workers=workers, shards=1) as cluster:
        def publish(key, columns):
            try:
                with LiveStatsClient(*cluster.address) as client:
                    client.publish_columns(key[0], key[1], columns,
                                           frame_records=frame_records,
                                           sort=False)
            except Exception as exc:  # surfaced after join
                errors.append((key, exc))

        threads = [
            threading.Thread(target=publish, args=(key, columns),
                             name=f"bench-pub-{key[0]}-{key[1]}")
            for key, columns in streams.items()
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if errors:
            key, exc = errors[0]
            raise RuntimeError(
                f"cluster publish failed for {key}: {exc}") from exc
        with LiveStatsClient(*cluster.address) as client:
            snap = client.snapshot(scope="all")
    return elapsed, snap["disks"]


def run_inprocess(columns, frame_records):
    """The same stream through DiskStream directly (no socket)."""
    stream = DiskStream()
    n = len(columns)
    start = time.perf_counter()
    for lo in range(0, n, frame_records):
        stream.ingest(_slice(columns, lo, min(lo + frame_records, n)))
    elapsed = time.perf_counter() - start
    return elapsed, stream.collector.to_dict()


# ----------------------------------------------------------------------
# pytest-benchmark entry points (small stream; autosaved)
# ----------------------------------------------------------------------
if "pytest" in sys.modules:
    import pytest

    PYTEST_N = 60_000

    @pytest.fixture(scope="module")
    def stream_columns():
        return make_stream(PYTEST_N)

    @pytest.mark.benchmark(group="live")
    def test_live_loopback_ingest(benchmark, stream_columns):
        _elapsed, _rotates, snap = benchmark.pedantic(
            run_loopback, args=(stream_columns, 8192), rounds=1,
            iterations=1,
        )
        assert snap["commands"] == PYTEST_N

    @pytest.mark.benchmark(group="live")
    def test_live_inprocess_ingest(benchmark, stream_columns):
        _elapsed, snap = benchmark.pedantic(
            run_inprocess, args=(stream_columns, 8192), rounds=1,
            iterations=1,
        )
        assert snap["commands"] == PYTEST_N

    @pytest.mark.benchmark(group="live")
    def test_live_cluster_ingest(benchmark):
        streams = make_cluster_corpus(PYTEST_N, disks=4)
        _elapsed, disks = benchmark.pedantic(
            run_cluster, args=(streams, 4096, 2), rounds=1, iterations=1,
        )
        assert sum(d["commands"] for d in disks.values()) == sum(
            len(c) for c in streams.values())


# ----------------------------------------------------------------------
# Full-run script mode: measure, verify, record
# ----------------------------------------------------------------------
def measure(n=FULL_N, verify=True, workers=None):
    """Stream n commands through every mode; return the record."""
    ncpu = os.cpu_count() or 1
    if workers is None:
        workers = default_workers(ncpu)
    columns = make_stream(n)
    reference = replay_columns(columns).to_dict() if verify else None
    results = {}
    rotate_ms = None

    def check(label, snap):
        if verify:
            assert snap == reference, (
                f"{label} snapshot diverged from offline replay"
            )

    for frame_records in (4096, 32768):
        rotates = ROTATES if frame_records == 32768 else 0
        elapsed, rotate_times, snap = run_loopback(
            columns, frame_records, rotates=rotates
        )
        label = f"frames={frame_records}"
        check(label, snap)
        results[label] = {
            "seconds": round(elapsed, 3),
            "commands_per_sec": round(n / elapsed, 1),
        }
        if rotates:
            stalls = sorted(t * 1000 for t in rotate_times)
            rotate_ms = {
                "count": len(stalls),
                "p50": round(_percentile(stalls, 0.50), 3),
                "p99": round(_percentile(stalls, 0.99), 3),
                "max": round(stalls[-1], 3),
            }

    elapsed, snap = run_inprocess(columns, 32768)
    check("inprocess", snap)
    results["inprocess"] = {
        "seconds": round(elapsed, 3),
        "commands_per_sec": round(n / elapsed, 1),
    }

    # The multi-core edge: same total command count, partitioned over
    # CLUSTER_DISKS disks and published concurrently.  Verified per
    # disk against offline replay before the aggregate rate counts.
    streams = make_cluster_corpus(n)
    cluster_n = sum(len(c) for c in streams.values())
    elapsed, snap_disks = run_cluster(streams, 4096, workers)
    if verify:
        for (vm, vdisk), disk_columns in streams.items():
            got = snap_disks[f"{vm}/{vdisk}"]
            expected = replay_columns(disk_columns).to_dict()
            assert got == expected, (
                f"cluster snapshot for {vm}/{vdisk} diverged from "
                f"offline replay"
            )
    cluster_cps = round(cluster_n / elapsed, 1)
    results[f"cluster-workers={workers}"] = {
        "seconds": round(elapsed, 3),
        "commands_per_sec": cluster_cps,
        "workers": workers,
        "publishers": len(streams),
        "cpus": ncpu,
        "speedup_vs_single": round(
            cluster_cps / results["frames=4096"]["commands_per_sec"], 2),
    }

    return {
        "benchmark": "live_ingest",
        "commands": n,
        "rotates": ROTATES,
        "workers": workers,
        "cpus": ncpu,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": getattr(_np, "__version__", None),
        "rotate_ms": rotate_ms,
        "modes": results,
    }


def main(argv):
    n = FULL_N
    if len(argv) > 1:
        n = int(argv[1])
    record = measure(n)
    print(json.dumps(record, indent=2))
    if n == FULL_N:
        BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {BENCH_JSON}")
    cps = record["modes"]["frames=32768"]["commands_per_sec"]
    p99 = record["rotate_ms"]["p99"]
    ok = True
    if cps < MIN_CPS:
        print(f"FAIL: frames=32768 ingest {cps} commands/sec < {MIN_CPS}")
        ok = False
    if p99 > MAX_ROTATE_P99_MS:
        print(f"FAIL: rotate p99 {p99}ms > {MAX_ROTATE_P99_MS}ms")
        ok = False
    workers = record["workers"]
    cluster = record["modes"][f"cluster-workers={workers}"]
    floor = min_cluster_speedup(record["cpus"])
    if cluster["speedup_vs_single"] < floor:
        print(f"FAIL: cluster-workers={workers} aggregate "
              f"{cluster['speedup_vs_single']}x single-process < "
              f"{floor}x floor at {record['cpus']} cpus")
        ok = False
    if not ok:
        return 1
    print(f"OK: {cps} commands/sec >= {MIN_CPS}, "
          f"rotate p99 {p99}ms <= {MAX_ROTATE_P99_MS}ms, "
          f"cluster {cluster['speedup_vs_single']}x single-process >= "
          f"{floor}x at {record['cpus']} cpus")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
