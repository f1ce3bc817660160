"""Experiment registry and the `vscsistats repro` entry point.

Maps each paper artifact (figure/table id) to the function that
regenerates it and a one-line description, so the CLI, the benchmark
harness and EXPERIMENTS.md all enumerate the same set.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import Callable, Dict, Optional, Sequence, Tuple

from .figure2 import run_figure2
from .figure3 import run_figure3
from .figure4 import run_figure4
from .figure5 import run_figure5
from .figure6 import run_figure6, run_symmetrix_control
from .ssd_vs_disk import run_ssd_vs_disk
from .table2 import run_table2

__all__ = ["Experiment", "EXPERIMENTS", "run_experiment",
           "run_all_experiments"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible paper artifact."""

    exp_id: str
    title: str
    run: Callable
    quick_kwargs: Dict[str, object]  # scaled-down parameters for tests


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        "figure2",
        "Filebench OLTP on Solaris/UFS: lengths and seek distances",
        run_figure2,
        {"duration_s": 5.0, "filesize": 1 << 30, "logfilesize": 1 << 27},
    ),
    Experiment(
        "figure3",
        "Filebench OLTP on Solaris/ZFS: COW turns writes sequential",
        run_figure3,
        {"duration_s": 5.0, "filesize": 1 << 30, "logfilesize": 1 << 27},
    ),
    Experiment(
        "figure4",
        "DBT-2 on PostgreSQL/ext3: 8K-only I/O, 32 outstanding writes",
        run_figure4,
        {"duration_s": 30.0, "warehouses": 50, "connections": 20},
    ),
    Experiment(
        "figure5",
        "Large file copy: Windows XP (64K) vs Vista (1MB)",
        run_figure5,
        {"duration_s": 5.0, "file_bytes": 1 << 30},
    ),
    Experiment(
        "figure6",
        "Multi-VM interference on the CX3 with read cache off",
        run_figure6,
        {"duration_s": 10.0},
    ),
    Experiment(
        "figure6-symmetrix",
        "Multi-VM control on the Symmetrix (no large change)",
        run_symmetrix_control,
        {"duration_s": 10.0},
    ),
    Experiment(
        "table2",
        "Histogram service overhead micro-benchmark",
        run_table2,
        {"duration_s": 2.0, "repetitions": 2},
    ),
    Experiment(
        "ssd-vs-disk",
        "LBA-pattern suite on the CX3 vs a DFTL flash target",
        run_ssd_vs_disk,
        {"duration_s": 1.0, "ssd_capacity_blocks": 262_144},
    ),
)

_BY_ID = {experiment.exp_id: experiment for experiment in EXPERIMENTS}


def run_experiment(exp_id: str, quick: bool = False, **kwargs):
    """Run one experiment by id; ``quick=True`` uses scaled parameters."""
    try:
        experiment = _BY_ID[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {sorted(_BY_ID)}"
        ) from None
    call_kwargs = dict(experiment.quick_kwargs) if quick else {}
    call_kwargs.update(kwargs)
    return experiment.run(**call_kwargs)


def _run_for_pool(args: Tuple[str, bool]):
    """Worker body for :func:`run_all_experiments` — module-level so the
    spawn start method can pickle it."""
    exp_id, quick = args
    return exp_id, run_experiment(exp_id, quick=quick)


def run_all_experiments(quick: bool = False, jobs: int = 1,
                        exp_ids: Optional[Sequence[str]] = None) -> Dict[str, object]:
    """Run every registered experiment; returns ``{exp_id: result}``.

    Experiments are independent simulations, so with ``jobs > 1`` they
    fan out across worker processes (``fork`` where the platform
    offers it — a forked worker inherits the imported interpreter —
    else ``spawn``).  Results come back in
    registry order regardless of completion order, so the output is
    deterministic.

    ``exp_ids`` restricts the run to a subset (defaults to the whole
    registry).
    """
    if exp_ids is None:
        ids = [experiment.exp_id for experiment in EXPERIMENTS]
    else:
        ids = list(exp_ids)
        for exp_id in ids:
            if exp_id not in _BY_ID:
                raise KeyError(
                    f"unknown experiment {exp_id!r}; known: {sorted(_BY_ID)}"
                )
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(ids)) if ids else 1
    if jobs <= 1:
        return {exp_id: run_experiment(exp_id, quick=quick)
                for exp_id in ids}
    ctx = get_context(
        "fork" if "fork" in get_all_start_methods() else "spawn")
    with ctx.Pool(processes=jobs) as pool:
        pairs = pool.map(_run_for_pool, [(exp_id, quick) for exp_id in ids])
    by_id = dict(pairs)
    return {exp_id: by_id[exp_id] for exp_id in ids}
