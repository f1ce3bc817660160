"""Fleet aggregation-tree throughput and snapshot staleness.

The :mod:`repro.fleet` tier promises that fleet scale costs merges,
not records: a sealed epoch travels the tree as one small ``RPHCOL2``
snapshot frame per host, every level deduplicates and merges exactly,
and the root's global state is byte-identical to a single collector
that had seen everything.  This benchmark measures that promise at the
acceptance-criteria scale — ``FULL_N`` simulated publisher hosts, each
sealing one epoch, pushed through a 3-level tree (``EDGES`` edge
forwarders → 2 regional aggregators → 1 root):

* ``tree-3level`` — end-to-end: all ``n`` host snapshots enqueued at
  the edges, the tree drained to the root.  The rate is root-applied
  snapshots/sec; ``staleness_p99_ms`` is the p99 wall-clock age of a
  snapshot (sealed→applied at the root) measured by the root's ledger,
  gated against an absolute ceiling (a tree that buffers or stalls
  shows up here even if throughput looks fine).
* ``ledger-direct`` — the same snapshots applied straight into a
  :class:`repro.fleet.FleetLedger` (no sockets, no relay), isolating
  the merge/dedup kernel from the transport.

Before any number is reported, the root's global snapshot is verified
byte-identical to a one-shot merge of every host's payload — the
throughput being gated is provably the same computation.

Run styles:

* ``pytest benchmarks/bench_fleet.py --benchmark-only`` — small fleet,
  wall time measured by pytest-benchmark (autosaved).
* ``python benchmarks/bench_fleet.py [N]`` — the full fleet; writes
  ``BENCH_fleet.json`` and exits 1 unless the gate holds.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.tracing import TraceRecord
from repro.fleet import FleetAggregator, FleetLedger, FleetUplink
from repro.parallel.trace_io import records_to_columns, replay_columns
from repro.store.codec import collector_to_bytes, merge_collector_payloads

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_fleet.json"

#: Simulated publisher hosts in the full run (the acceptance scale).
FULL_N = 10_000

#: Edge forwarder uplinks (half feed each regional); each carries the
#: snapshots of ``n / EDGES`` hosts over one sequenced link.
EDGES = 8

#: Distinct (vm, vdisk) keys the fleet's hosts map onto — enough that
#: per-disk merge lists grow past COMPACT_AT and the compaction path
#: is part of what is measured.
DISKS = 32

#: Commands inside the one synthetic epoch every host seals.
EPOCH_COMMANDS = 400

#: The end-to-end tree must sustain at least this many root-applied
#: snapshots/sec (an order-of-magnitude floor, not a tuning target).
MIN_SPS = 300

#: Absolute ceiling on the root-measured p99 snapshot staleness for
#: the full drain.  Generous on purpose: at FULL_N the last snapshot
#: has waited behind the whole fleet, so this bounds "the tree keeps
#: moving", not per-hop latency.
STALENESS_P99_CEILING_MS = 15_000.0


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


def make_fleet_snapshots(n):
    """One sealed-epoch snapshot per simulated host.

    One collector payload is synthesized per disk key and shared by
    every host mapped onto that key — realistic enough (the aggregator
    never inspects payload bytes until merge time) and cheap enough to
    set up a 10k-host fleet in milliseconds.  ``sealed_unix`` is
    stamped later, at enqueue time, so staleness measures the tree.
    """
    payloads = []
    for disk in range(DISKS):
        collector = replay_columns(records_to_columns(
            _records(EPOCH_COMMANDS, seed=77 + disk)))
        payloads.append(collector_to_bytes(collector))
    snapshots = []
    for index in range(n):
        disk = index % DISKS
        payload = payloads[disk]
        header = {
            "host": f"host-{index:05d}",
            "epoch": 0,
            "records": EPOCH_COMMANDS,
            "start_ns": 0,
            "end_ns": 60_000_000_000,
            "disks": [{"vm": f"vm-{disk:02d}", "vdisk": "scsi0:0",
                       "off": 0, "len": len(payload)}],
        }
        snapshots.append((header, payload))
    return snapshots


def expected_disks(snapshots):
    """One-shot merge of every host's payload, per disk."""
    per_disk = {}
    for header, payload in snapshots:
        extent = header["disks"][0]
        key = f"{extent['vm']}/{extent['vdisk']}"
        per_disk.setdefault(key, []).append(payload)
    return {key: merge_collector_payloads(records).to_dict()
            for key, records in sorted(per_disk.items())}


def run_tree(snapshots):
    """Drain ``snapshots`` through edges → 2 regionals → root.

    Returns ``(seconds, root_info, root_disks)`` where seconds spans
    first enqueue to the last regional relay ack.
    """
    with FleetAggregator(port=0, node="bench-root") as root:
        with FleetAggregator(port=0, node="bench-reg-a",
                             parents=[root.address]) as reg_a, \
             FleetAggregator(port=0, node="bench-reg-b",
                             parents=[root.address]) as reg_b:
            regionals = (reg_a, reg_b)
            edges = [
                FleetUplink([regionals[e % 2].address],
                            node=f"bench-edge-{e}", jitter_seed=e).start()
                for e in range(EDGES)
            ]
            try:
                start = time.perf_counter()
                for index, (header, payload) in enumerate(snapshots):
                    header = dict(header, sealed_unix=time.time())
                    edges[index % EDGES].enqueue(header, payload)
                for edge in edges:
                    if not edge.drain(timeout=600.0):
                        raise RuntimeError("edge uplink failed to drain")
                for regional in regionals:
                    if not regional.uplink.drain(timeout=600.0):
                        raise RuntimeError("regional relay failed to drain")
                elapsed = time.perf_counter() - start
            finally:
                for edge in edges:
                    edge.close()
            info = root.info()
            disks = root.snapshot_dict()["disks"]
    return elapsed, info, disks


def run_ledger_direct(snapshots):
    """The same snapshots applied straight into one FleetLedger."""
    ledger = FleetLedger()
    start = time.perf_counter()
    for header, payload in snapshots:
        ledger.apply(header, payload)
    elapsed = time.perf_counter() - start
    return elapsed, ledger


# ----------------------------------------------------------------------
# pytest-benchmark entry points (small fleet; autosaved)
# ----------------------------------------------------------------------
if "pytest" in sys.modules:
    import pytest

    PYTEST_N = 400

    @pytest.mark.benchmark(group="fleet")
    def test_fleet_tree_drain(benchmark):
        snapshots = make_fleet_snapshots(PYTEST_N)
        _elapsed, info, _disks = benchmark.pedantic(
            run_tree, args=(snapshots,), rounds=1, iterations=1,
        )
        assert info["epochs_applied_total"] == PYTEST_N

    @pytest.mark.benchmark(group="fleet")
    def test_fleet_ledger_direct(benchmark):
        snapshots = make_fleet_snapshots(PYTEST_N)
        _elapsed, ledger = benchmark.pedantic(
            run_ledger_direct, args=(snapshots,), rounds=1, iterations=1,
        )
        assert ledger.epochs_applied_total == PYTEST_N


# ----------------------------------------------------------------------
# Full-run script mode: measure, verify, record
# ----------------------------------------------------------------------
def measure(n=FULL_N, verify=True):
    """Push an n-host fleet through both modes; return the record."""
    snapshots = make_fleet_snapshots(n)
    reference = expected_disks(snapshots) if verify else None
    results = {}

    elapsed, info, disks = run_tree(snapshots)
    if verify:
        assert info["epochs_applied_total"] == n, (
            f"root applied {info['epochs_applied_total']} of {n} epochs")
        assert info["hosts"] == n
        assert json.dumps(disks, sort_keys=True) \
            == json.dumps(reference, sort_keys=True), (
            "root snapshot diverged from one-shot merge")
    staleness = info["staleness"]
    results["tree-3level"] = {
        "seconds": round(elapsed, 3),
        "snapshots_per_sec": round(n / elapsed, 1),
        "hosts": n,
        "levels": 3,
        "edges": EDGES,
        "staleness_p99_ms": round(staleness["p99"] * 1000.0, 1),
        "staleness_p50_ms": round(staleness["p50"] * 1000.0, 1),
        "staleness_p99_ceiling_ms": STALENESS_P99_CEILING_MS,
    }

    elapsed, ledger = run_ledger_direct(snapshots)
    if verify:
        got = {f"{vm}/{vdisk}": collector.to_dict()
               for (vm, vdisk), collector in ledger.global_pairs()}
        assert json.dumps(got, sort_keys=True) \
            == json.dumps(reference, sort_keys=True), (
            "direct ledger diverged from one-shot merge")
    results["ledger-direct"] = {
        "seconds": round(elapsed, 3),
        "snapshots_per_sec": round(n / elapsed, 1),
    }

    return {
        "benchmark": "fleet_tree",
        "commands": n,
        "disks": DISKS,
        "epoch_commands": EPOCH_COMMANDS,
        "python": "%d.%d.%d" % sys.version_info[:3],
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
    tree = record["modes"]["tree-3level"]
    sps = tree["snapshots_per_sec"]
    p99_ms = tree["staleness_p99_ms"]
    ok = True
    if sps < MIN_SPS:
        print(f"FAIL: tree drain {sps} snapshots/sec < {MIN_SPS}")
        ok = False
    if p99_ms > STALENESS_P99_CEILING_MS:
        print(f"FAIL: staleness p99 {p99_ms}ms > "
              f"{STALENESS_P99_CEILING_MS}ms ceiling")
        ok = False
    if not ok:
        return 1
    print(f"OK: {sps} snapshots/sec >= {MIN_SPS}, staleness p99 "
          f"{p99_ms}ms <= {STALENESS_P99_CEILING_MS}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
