"""Run every workload on several seeds and report how steady it is.

    python3 benchmarks/pipeline/spread.py --runs 10 --out A.json

For each (workload, end-to-end metric) it prints the median and the
spread the benchmark's contract is judged by: the distance between the
first and third quartile of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of their median,
next to the metric's bound from ``BENCHMARK.json``.  ``--out`` keeps
every run's report, which is what ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def one_run(workload, seed, seconds):
    """Run ``run.py`` once; returns its full report with the driver's
    result line merged in under ``result``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr}")
    report, result = (json.loads(line)
                      for line in done.stdout.strip().splitlines()[-2:])
    report["result"] = {k: result[k]
                        for k in ("correct", "attempted", "failed")}
    return report


def spread(values):
    """Interquartile distance as a share of the median."""
    first, _second, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def values_of(reports, metric):
    """One value per report: a driver metric or a scoped one."""
    return [r["metrics"][metric]["value"] if metric in r["metrics"]
            else r["scoped"][metric] for r in reports]


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {}
    worst = 0.0
    for name in names:
        runs[name] = [one_run(name, args.first_seed + i, args.seconds)
                      for i in range(args.runs)]
        bad = [r["seed"] for r in runs[name] if not r["result"]["correct"]]
        print(f"{name}: {len(runs[name])} runs"
              + (f", INCORRECT on seeds {bad}" if bad else ", all correct"))
        for metric in spec["end_to_end"]:
            values = values_of(runs[name], metric["name"])
            share = spread(values) / metric["bound"]
            if metric["name"] != "setup_s":
                worst = max(worst, share)
            print(f"  {metric['name']:<28} "
                  f"median {statistics.median(values):>14.4f} "
                  f"{metric['unit']:<4} spread {100 * spread(values):6.2f} % "
                  f"of bound {100 * metric['bound']:4.0f} % = {share:4.2f}")
    if args.out:
        args.out.write_text(json.dumps({"runs": runs}, sort_keys=True))
    print(f"worst spread / bound (setup_s aside): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
