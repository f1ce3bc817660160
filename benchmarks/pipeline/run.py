"""``bench_pipeline`` — one benchmark from ``publish`` to a durable,
analysed root verdict.

    python3 benchmarks/pipeline/run.py --workload seal_storm --seed 7 \\
        --seconds 8 --trace 0

For every workload run it prints two JSON lines: a full report (host
fingerprint, sample counts, this workload's own end-to-end numbers) and,
last, the result line the driver reads — ``correct``, ``attempted``,
``failed`` and the metrics named in ``BENCHMARK.json`` (``end_to_end``
with ``--trace 0``, ``per_layer`` with ``--trace 1``).  Without
``--workload`` every workload runs in turn.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

OUT_DIR = HERE / "out"

#: ``--smoke`` runs every workload at about this share of full size.
SMOKE_SHARE = 0.02


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as spec:
        return json.load(spec)


def one_pass(name, seed, seconds, workdir, trace, setups, smoke=False,
             tamper=False):
    """Set up ``setups`` times, run once, tear down; returns the
    workload (not yet verified) and the set-up times."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, seconds, trace.enabled, workdir, trace,
                               smoke=smoke, tamper=tamper)
    times = []
    for attempt in range(setups):
        begin = time.monotonic()
        workload.set_up()
        times.append(time.monotonic() - begin)
        if attempt + 1 < setups:
            workload.tear_down()
    try:
        workload.run()
    finally:
        workload.tear_down()
    return workload, times


def run_workload(name, seed, seconds, traced, smoke=False, tamper=False):
    """Run one workload end to end; returns ``(report, result)``.

    Untraced: ``SETUP_REPEATS`` set-ups (one in a smoke run), one
    timed run, every ``end_to_end`` metric.  Traced: one plain pass for
    the reference rate, one pass with seams and spans on, then the
    isolated probes; every ``per_layer`` metric.
    """
    import harness
    import layers

    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = OUT_DIR / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    host = harness.fingerprint(workdir)
    trace = harness.Trace(traced, name)
    try:
        if traced:
            plain_rate = one_pass(name, seed, seconds, workdir,
                                  harness.Trace(False, name), 1,
                                  smoke)[0].headline_rate()
        workload, setups = one_pass(
            name, seed, seconds, workdir, trace,
            1 if traced or smoke else harness.SETUP_REPEATS, smoke, tamper)
        correct = workload.verify()
        scoped = dict(workload.scoped(),
                      failed_ops_ratio=workload.failed / workload.attempted,
                      verify_ok=int(correct))
        values = dict(workload.end_to_end(), setup_s=median(setups))
        if traced:
            values = dict.fromkeys(
                (m["name"] for m in spec["per_layer"]), 0.0)
            values.update(workload.per_layer())
            values.update({f"pipeline.{key}": value
                           for key, value in scoped.items()
                           if f"pipeline.{key}" in values})
            values.update(layers.isolated(name, seed, workdir))
            values.update(layers.budget(name, values, scoped,
                                        plain_rate,
                                        workload.headline_rate()))
            trace.write(OUT_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()[0]
    metrics = {key: {"value": value, "unit": units[key]}
               for key, value in values.items()}
    report = {
        "benchmark": "bench_pipeline", "workload": name, "seed": seed,
        "seconds": seconds, "traced": traced, "comparable": not smoke,
        "claim": None, "host": host,
        "window_s": workload.window_s, "setup_samples_s": setups,
        "samples": {"laps": len(workload.laps),
                    "result_latency_ms_p50": len(workload.latencies_s)},
        "scoped": scoped, "metrics": metrics,
    }
    result = {"correct": bool(correct and not workload.failed),
              "attempted": int(workload.attempted),
              "failed": int(workload.failed), "metrics": metrics}
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names,
                        help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=20070927)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="nominal length of the timed window on the "
                             "reference host; sets the amount of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: seam proxies and spans on, isolated layer "
                             "pass, per-layer metrics instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="~2%% size, output marked not comparable")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    seconds = args.seconds * (SMOKE_SHARE if args.smoke else 1.0)
    import harness
    import tiers
    try:
        for name in ([args.workload] if args.workload else names):
            report, result = run_workload(name, args.seed, seconds,
                                          bool(args.trace), smoke=args.smoke)
            harness.emit(report)
            harness.emit(result)
    finally:
        # Workloads reap their own tiers; this catches a tier orphaned
        # by a failed set-up and the helper ``spawn`` itself started.
        tiers.reap_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
