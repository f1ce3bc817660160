"""Throughput regression gate for the committed benchmark records.

Re-measures the throughput of every registered benchmark (the live
daemon's loopback ingest modes, the durable store's
append/recover/query paths, the fleet tree, the flash model and the
online analyzer) and compares it against the committed
``BENCH_*.json`` records.  The hot-path and columnar-replay subjects
are measured by ``benchmarks/pipeline/`` (``core.*_ns_per_cmd``,
``parallel.replay_columns_ns_per_cmd``).  Exits
non-zero when any mode regresses by more than ``TOLERANCE`` (20%), so
CI can gate merges on throughput the same way it gates on tests.

Both records share a schema — ``{"commands": N, "modes": {label:
{"<unit>_per_sec": ...}}}`` — so one comparison loop covers every
benchmark and any future ``bench_*.py`` only needs a registry entry.
Each mode must carry exactly one rate in a known unit
(``commands_per_sec`` or ``epochs_per_sec``); a record with an
unknown, missing or mismatched unit fails the gate outright — stale
records are migrated with ``--update``, never guessed at.  A mode
whose record carries the ``cpus`` it was measured on is skipped (not
failed) when the current host's core count differs: fan-out throughput
is only comparable scale-matched.

Usage::

    python benchmarks/compare_bench.py                 # gate every record
    python benchmarks/compare_bench.py --only live     # one benchmark
    python benchmarks/compare_bench.py --n 200000      # quicker, scaled run
    python benchmarks/compare_bench.py --update        # re-measure and commit
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_fleet
import bench_live
import bench_ssd
import bench_store
import bench_watch

#: Maximum tolerated drop in commands/sec relative to the committed
#: record before the gate fails.
TOLERANCE = 0.20

def _measure_store_gate(_n):
    """The 200k-epoch store gate always runs at its committed scale.

    Store throughput is not scale-invariant (recovery of a 200k-epoch
    WAL scans 170 MB), so this entry pins ``n`` to the committed
    record's corpus instead of honouring ``--n`` — every comparison is
    like against like.
    """
    return bench_store.measure(bench_store.GATE_N)


#: name -> (measure(n) callable, committed record path, full-run n,
#: max n).  ``max_n`` clamps a global ``--n`` for benchmarks whose unit
#: isn't trace commands — the store benchmark counts *epochs*, so its
#: canonical 10k record is gated at 10k, and the CI-wide ``--n
#: 200000`` exercises the store at gate scale through the dedicated
#: ``store-200k`` entry (with its own 200k committed record).
BENCHMARKS = {
    "fleet": (bench_fleet.measure, bench_fleet.BENCH_JSON,
              bench_fleet.FULL_N, bench_fleet.FULL_N),
    "live": (bench_live.measure, bench_live.BENCH_JSON,
             bench_live.FULL_N, None),
    "ssd": (bench_ssd.measure, bench_ssd.BENCH_JSON,
            bench_ssd.FULL_N, None),
    "store": (bench_store.measure, bench_store.BENCH_JSON,
              bench_store.FULL_N, bench_store.FULL_N),
    "store-200k": (_measure_store_gate, bench_store.BENCH_200K_JSON,
                   bench_store.GATE_N, bench_store.GATE_N),
    "watch": (bench_watch.measure, bench_watch.BENCH_JSON,
              bench_watch.FULL_N, None),
}


#: The units a mode record may report its rate in.  Exactly one must
#: be present; anything else (a legacy alias, a typo, a unit this gate
#: has never seen) fails the comparison instead of being coerced.
RATE_UNITS = ("commands_per_sec", "epochs_per_sec", "snapshots_per_sec")


def _rate_unit(name, mode, mode_record):
    """The single known rate unit a mode record carries, or ``None``
    (with a diagnostic) when it carries zero or several."""
    if not isinstance(mode_record, dict):
        print(f"[{name}] {mode}: record entry is "
              f"{type(mode_record).__name__}, expected an object with "
              f"one of {list(RATE_UNITS)}; re-commit with --update")
        return None
    units = [unit for unit in RATE_UNITS if unit in mode_record]
    if len(units) == 1:
        return units[0]
    carried = sorted(key for key in mode_record if key.endswith("_per_sec"))
    print(f"[{name}] {mode}: expected exactly one rate unit of "
          f"{list(RATE_UNITS)}, record carries {carried or 'none'}")
    return None


def compare(name, measure, bench_json, n=None, max_n=None):
    """Gate one benchmark against its committed record.

    Returns True when every mode stays within ``TOLERANCE`` of the
    record's commands/sec.
    """
    if not bench_json.exists():
        print(f"[{name}] no committed record at {bench_json}; "
              f"run `python benchmarks/compare_bench.py --only {name} "
              "--update` to create it")
        return False
    try:
        committed = json.loads(bench_json.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"[{name}] committed record {bench_json} is not valid "
              f"JSON ({exc}); re-create it with `python "
              f"benchmarks/compare_bench.py --only {name} --update`")
        return False
    if not isinstance(committed, dict) or \
            not isinstance(committed.get("modes"), dict) or \
            not committed.get("modes") or \
            not isinstance(committed.get("commands"), int):
        print(f"[{name}] committed record {bench_json} is missing the "
              "required 'commands'/'modes' fields (schema: "
              '{"commands": N, "modes": {label: {"<unit>_per_sec": '
              "...}}}); re-create it with `python "
              f"benchmarks/compare_bench.py --only {name} --update`")
        return False
    if n is None:
        n = committed["commands"]
    if max_n is not None and n > max_n:
        n = max_n
    current = measure(n)

    ok = True
    ncpu = os.cpu_count() or 1
    width = max(len(mode) for mode in committed["modes"])
    print(f"[{name}] {'mode':<{width}} {'committed':>12} "
          f"{'current':>12} {'ratio':>7}")
    for mode, base in committed["modes"].items():
        unit = _rate_unit(name, mode, base)
        if unit is None:
            ok = False
            continue
        if base.get("cpus") not in (None, ncpu):
            # Measured on a differently sized host: fan-out rates are
            # only meaningful scale-matched, so this mode is explicitly
            # out of scope here rather than a false verdict either way.
            print(f"[{name}] {mode:<{width}} {base[unit]:>12} "
                  f"{'skipped':>12}  (record @ {base['cpus']} cpus, "
                  f"host has {ncpu})")
            continue
        now = current["modes"].get(mode)
        if now is None:
            print(f"[{name}] {mode:<{width}} "
                  f"{base[unit]:>12} {'missing':>12}")
            ok = False
            continue
        now_unit = _rate_unit(name, mode, now)
        if now_unit is None:
            ok = False
            continue
        if now_unit != unit:
            print(f"[{name}] {mode:<{width}} committed unit {unit} != "
                  f"measured unit {now_unit}; re-commit with --update")
            ok = False
            continue
        base_rate = base[unit]
        now_rate = now[unit]
        ratio = now_rate / base_rate
        verdict = ""
        if ratio < 1.0 - TOLERANCE:
            verdict = "  REGRESSION"
            ok = False
        print(
            f"[{name}] {mode:<{width}} {base_rate:>12} "
            f"{now_rate:>12} {ratio:>6.2f}x{verdict}"
        )
        # Latency ceilings gate absolutely, not by ratio: a committed
        # ``staleness_p99_ceiling_ms`` is a hard bound the current
        # measurement must stay under regardless of throughput.
        ceiling = base.get("staleness_p99_ceiling_ms")
        if ceiling is not None:
            p99 = now.get("staleness_p99_ms")
            if p99 is None:
                print(f"[{name}] {mode:<{width}} staleness p99 missing "
                      f"from the current measurement")
                ok = False
            elif p99 > ceiling:
                print(f"[{name}] {mode:<{width}} staleness p99 "
                      f"{p99}ms > {ceiling}ms ceiling  REGRESSION")
                ok = False
            else:
                print(f"[{name}] {mode:<{width}} staleness p99 "
                      f"{p99}ms <= {ceiling}ms ceiling")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only", choices=sorted(BENCHMARKS), default=None,
        help="gate a single benchmark (default: all of them)",
    )
    parser.add_argument(
        "--n", type=int, default=None,
        help="trace length to measure (default: each committed record's)",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-measure at the full length and rewrite the record(s)",
    )
    args = parser.parse_args(argv)

    names = [args.only] if args.only else sorted(BENCHMARKS)

    if args.update:
        for name in names:
            measure, bench_json, full_n, _max_n = BENCHMARKS[name]
            record = measure(full_n)
            bench_json.write_text(json.dumps(record, indent=2) + "\n")
            print(json.dumps(record, indent=2))
            print(f"updated {bench_json}")
        return 0

    failed = [
        name for name in names
        if not compare(name, *BENCHMARKS[name][:2], n=args.n,
                       max_n=BENCHMARKS[name][3])
    ]
    if failed:
        print(f"FAIL: {', '.join(failed)} regressed more than "
              f"{TOLERANCE:.0%} (or missing a record)")
        return 1
    print("OK: within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
