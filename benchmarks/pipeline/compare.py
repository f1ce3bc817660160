"""Compare two sets of runs of ``bench_pipeline``.

    python3 benchmarks/pipeline/spread.py --out A.json   # e.g. parent
    python3 benchmarks/pipeline/spread.py --out B.json   # e.g. change
    python3 benchmarks/pipeline/compare.py A.json B.json

Per (metric, workload) it prints one verdict for B against A:

* ``same`` / ``DIFFERENT`` — metrics that must agree exactly
  (``verify_ok``, ``failed_ops_ratio``, ``drift_events``,
  ``sim_stats_digest``);
* ``better`` — every run of B reads better than every run of A, or B's
  median is better by more than the bound;
* ``within-bound`` — B's median is no worse than A's by more than the
  metric's bound;
* ``unresolved`` — the run-to-run spread of A or B is wider than the
  bound, so neither of the above can be said;
* ``worse`` — B's median is worse than A's by more than the bound.

Bounds of the driver's end-to-end metrics come from ``BENCHMARK.json``;
each workload's own numbers (``scoped`` in the reports) use
:data:`SCOPED`.  Exits 1 on any ``worse`` or ``DIFFERENT``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from spread import spread, values_of

ROOT = Path(__file__).resolve().parent.parent.parent

#: ``scoped`` metric -> (direction, bound); ``None`` means exact.
SCOPED = {
    "rotate_stall_ms_p50": ("lower", 0.25),
    "seal_to_verdict_ms_p50": ("lower", 0.25),
    "query_epochs_per_s": ("higher", 0.2),
    "replay_epochs_per_s": ("higher", 0.2),
    "sim_commands_per_s": ("higher", 0.2),
    "failed_ops_ratio": None,
    "verify_ok": None,
    "drift_events": None,
    "sim_stats_digest": None,
}


def verdict(a, b, better, bound):
    """One of better / within-bound / unresolved / worse."""
    sign = 1.0 if better == "higher" else -1.0
    if min(sign * v for v in b) > max(sign * v for v in a):
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    gain = sign * (statistics.median(b) - statistics.median(a)) \
        / abs(statistics.median(a))
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "within-bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    rules = {m["name"]: (m["better"], m["bound"])
             for m in spec["end_to_end"]}
    sets = [json.loads(Path(path).read_text())["runs"] for path in argv]
    failed = False
    for workload in sets[0]:
        if workload not in sets[1]:
            continue
        a_runs, b_runs = sets[0][workload], sets[1][workload]
        print(workload)
        scoped = [name for name in SCOPED if name in a_runs[0]["scoped"]]
        for name in list(rules) + scoped:
            rule = rules[name] if name in rules else SCOPED[name]
            a, b = values_of(a_runs, name), values_of(b_runs, name)
            if rule is None:
                # Seeds differ within a set; compare run by run.
                word = "same" if a == b else "DIFFERENT"
                print(f"  {name:<28} {word}")
            else:
                word = verdict(a, b, *rule)
                print(f"  {name:<28} {word:<12} "
                      f"A {statistics.median(a):>14.4f} "
                      f"B {statistics.median(b):>14.4f} "
                      f"spread {100 * spread(a):5.1f} / "
                      f"{100 * spread(b):5.1f} %  bound "
                      f"{100 * rule[1]:3.0f} %")
            failed |= word in ("worse", "DIFFERENT")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
