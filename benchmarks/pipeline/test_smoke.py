"""Smoke test of ``bench_pipeline`` (not part of tier 1: run it with
``PYTHONPATH=src python3 -m pytest benchmarks/pipeline/test_smoke.py``;
``benchmarks/conftest.py`` imports ``repro``).

Every workload runs at ~2 % size; the checks are about the harness —
schema, verification that bites, exact repeats, no orphans — not about
speed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tiers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"] * run.SMOKE_SHARE

#: What the personality schedule implies at smoke size: one swap inside
#: the run, sixteen disks each firing once.
DRIFT_EVENTS = {"seal_storm": 16, "history_read": 16}

#: Workloads whose stored bytes depend on nothing but the seed
#: (``ingest_bulk``'s epoch boundaries fall where the rotates happen
#: to land among in-flight frames; ``fleet_fanin``'s segment layout
#: follows the order the two regionals' snapshots reach the root).
EXACT_BYTES = ["seal_storm", "history_read", "sim_capture"]


def smoke(name, traced=False, **kwargs):
    return run.run_workload(name, 7, SECONDS, traced, smoke=True, **kwargs)


def children():
    """Pids of this process's live children (``/proc``, Linux)."""
    mine = str(os.getpid())
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == mine and fields[0] != "Z":
            found.add(int(stat.parent.name))
    return found


@pytest.fixture(scope="module")
def reports():
    return {name: smoke(name) for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_schema_and_correctness(reports, name):
    report, result = reports[name]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert report["comparable"] is False and report["claim"] is None
    assert report["scoped"]["verify_ok"] == 1
    assert report["scoped"]["failed_ops_ratio"] == 0
    assert report["scoped"].get("drift_events", 0) == DRIFT_EVENTS.get(name, 0)
    for key in ("cpus", "python", "numpy", "kernel", "store_fs",
                "loadavg_start", "loadavg_end", "noisy_host"):
        assert key in report["host"]


@pytest.mark.parametrize("name", EXACT_BYTES)
def test_same_seed_repeats_exactly(reports, name):
    first = reports[name][0]
    second = smoke(name)[0]
    metric = "store_bytes_per_disk_epoch"
    assert second["metrics"][metric] == first["metrics"][metric]
    if name == "sim_capture":
        assert (second["scoped"]["sim_stats_digest"]
                == first["scoped"]["sim_stats_digest"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_tampered_input_fails_verification(name):
    _report, result = smoke(name, tamper=True)
    assert result["correct"] is False


def test_traced_run_reports_every_layer_metric():
    report, result = smoke("seal_storm", traced=True)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"] is True
    assert result["metrics"]["budget.seal_to_verdict_coverage"]["value"] > 0
    path = HERE / "out" / "trace-seal_storm.jsonl"
    trace = [json.loads(line) for line in path.read_text().splitlines()]
    assert {"name", "start", "end", "parent", "workload", "host",
            "epoch"} <= set(trace[0])
    assert {"store.store.root_append", "analysis.online.root_observe",
            "live.server.rotate"} <= {span["name"] for span in trace}


def test_window_floor_refuses_short_runs():
    import harness
    with pytest.raises(harness.WindowTooShort):
        run.run_workload("sim_capture", 7, 0.1, False)


def test_tiers_are_reaped_after_a_generator_exception(tmp_path):
    before = children()
    with pytest.raises(RuntimeError, match="generator failed"):
        with tiers.Tree(tmp_path) as tree:
            assert len(children() - before) == 4
            assert tree.leaf_address is not None
            raise RuntimeError("generator failed")
    assert children() == before


def test_main_leaves_no_process_behind(capsys):
    """Not a tier, and not ``spawn``'s resource tracker either."""
    assert run.main(["--workload", "sim_capture", "--smoke"]) == 0
    assert children() == set()
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True


def test_missing_program_exits_nonzero(tmp_path):
    """A directory holding only the benchmark must fail fast."""
    import shutil
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/pipeline/run.py", "--workload",
         "sim_capture", "--seed", "1", "--seconds", "6", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
