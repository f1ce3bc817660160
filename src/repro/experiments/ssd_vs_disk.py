"""Disk vs SSD: one workload suite, two storage technologies.

The paper characterizes workloads against mechanical arrays, where the
seek-distance histogram is the fingerprint that matters.  This
experiment replays the LBA-pattern suite
(:data:`~repro.workloads.patterns.CHARACTERIZATION_SUITE`) against both
the CLARiiON CX3 preset and a DFTL flash target, and shows what
changes:

* on the disk, sequential vs random dominates latency and the
  ``write_amp_pct`` / ``gc_pause_us`` families stay empty;
* on the SSD, LBA locality stops predicting latency (the profile is
  tagged *seekless*), and the flash families light up — hot/cold
  write skew shows write amplification above 1.0 and
  garbage-collection pauses that a mechanical array cannot exhibit.

Determinism: each (pattern, backend) cell is one self-contained
simulation seeded from the experiment seed, so running the experiment
twice yields byte-identical collector payloads (asserted in tests via
the store codec's canonical serialization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..analysis.characterize import characterize, is_seekless
from ..core.collector import VscsiStatsCollector
from ..hypervisor.esx import EsxServer
from ..sim.engine import Engine, seconds
from ..storage.array import clariion_cx3
from ..storage.ssd import ssd_array
from ..workloads.patterns import CHARACTERIZATION_SUITE, PatternSpec, PatternWorkload

__all__ = [
    "BACKENDS",
    "BackendOutcome",
    "PatternComparison",
    "SsdVsDiskResult",
    "run_pattern_on",
    "run_ssd_vs_disk",
]

#: The two technologies under comparison.
BACKENDS = ("cx3", "ssd")

#: Default SSD LUN size: 1 GiB logical in 512 B sectors.
SSD_CAPACITY_BLOCKS = 2_097_152


@dataclass
class BackendOutcome:
    """One pattern's measurement on one backend."""

    backend: str
    pattern: str
    commands: int
    iops: float
    mean_latency_us: float
    sequential: float            # LBA-contiguous fraction (both backends)
    seekless: bool               # flash telemetry present
    write_amp: Optional[float]   # mean WA factor over writes; None if empty
    gc_pauses: int               # commands that absorbed a GC pause
    gc_pause_max_us: Optional[int]
    collector: VscsiStatsCollector


@dataclass
class PatternComparison:
    """The same pattern spec measured on disk and on flash."""

    spec: PatternSpec
    disk: BackendOutcome
    ssd: BackendOutcome


@dataclass
class SsdVsDiskResult:
    """All pattern comparisons plus the rendered side-by-side table."""

    comparisons: Tuple[PatternComparison, ...]

    def report(self) -> str:
        header = (
            f"{'pattern':<22} {'backend':<8} {'cmds':>7} {'iops':>9} "
            f"{'mean_us':>9} {'seq':>5} {'WA':>6} {'gc':>5} {'gc_max_us':>9}"
        )
        lines = [header, "-" * len(header)]
        for comparison in self.comparisons:
            for outcome in (comparison.disk, comparison.ssd):
                wa = f"{outcome.write_amp:.2f}x" if outcome.write_amp else "-"
                gc_max = (
                    str(outcome.gc_pause_max_us)
                    if outcome.gc_pause_max_us is not None
                    else "-"
                )
                label = outcome.backend + ("*" if outcome.seekless else "")
                lines.append(
                    f"{outcome.pattern:<22} {label:<8} "
                    f"{outcome.commands:>7} {outcome.iops:>9.0f} "
                    f"{outcome.mean_latency_us:>9.0f} "
                    f"{outcome.sequential:>5.0%} {wa:>6} "
                    f"{outcome.gc_pauses:>5} {gc_max:>9}"
                )
        lines.append(
            "* seekless backend: seek-distance readings are LBA deltas; "
            "WA/GC columns come from the flash-only histogram families."
        )
        return "\n".join(lines)


def _build_bed(backend: str, seed: int,
               ssd_capacity_blocks: int) -> Tuple[Engine, EsxServer, object]:
    engine = Engine()
    esx = EsxServer(engine, seed=seed)
    if backend == "ssd":
        array = ssd_array(engine, capacity_blocks=ssd_capacity_blocks)
    elif backend == "cx3":
        array = clariion_cx3(engine, read_cache=True)
    else:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}")
    esx.add_array(array)
    return engine, esx, array


def run_pattern_on(spec: PatternSpec, backend: str,
                   duration_s: float = 10.0, seed: int = 0,
                   ssd_capacity_blocks: int = SSD_CAPACITY_BLOCKS,
                   ) -> BackendOutcome:
    """Run one pattern spec against one backend for ``duration_s``.

    The virtual disk spans the whole SSD LUN on both backends, so the
    two runs draw LBAs from identical address spaces.
    """
    engine, esx, array = _build_bed(backend, seed, ssd_capacity_blocks)
    vm = esx.create_vm("vm-pattern")
    device = esx.create_vdisk(
        vm, "scsi0:0", array, capacity_bytes=ssd_capacity_blocks * 512)
    esx.stats.enable()
    workload = PatternWorkload(
        engine, device, spec,
        rng=esx.random.stream(f"pattern.{spec.name}"),
    )
    workload.start()
    engine.run(until=seconds(duration_s))
    collector = esx.collector_for("vm-pattern", "scsi0:0")
    assert collector is not None, "stats were enabled; collector must exist"
    profile = characterize(collector)
    wa_hist = collector.write_amp_pct.writes
    gc_hist = collector.gc_pause_us.writes.merge(collector.gc_pause_us.reads)
    return BackendOutcome(
        backend=backend,
        pattern=spec.name,
        commands=collector.commands,
        iops=collector.iops(),
        mean_latency_us=collector.latency_us.all.mean,
        sequential=profile.sequential,
        seekless=is_seekless(collector),
        write_amp=(wa_hist.mean / 100.0) if wa_hist.count else None,
        gc_pauses=gc_hist.count,
        gc_pause_max_us=gc_hist.max if gc_hist.count else None,
        collector=collector,
    )


def run_ssd_vs_disk(duration_s: float = 10.0, seed: int = 0,
                    ssd_capacity_blocks: int = SSD_CAPACITY_BLOCKS,
                    patterns: Optional[Sequence[PatternSpec]] = None,
                    ) -> SsdVsDiskResult:
    """Replay the pattern suite on the CX3 and the SSD, side by side."""
    specs = tuple(patterns) if patterns is not None else CHARACTERIZATION_SUITE
    comparisons = []
    for spec in specs:
        disk = run_pattern_on(
            spec, "cx3", duration_s=duration_s, seed=seed,
            ssd_capacity_blocks=ssd_capacity_blocks)
        ssd = run_pattern_on(
            spec, "ssd", duration_s=duration_s, seed=seed,
            ssd_capacity_blocks=ssd_capacity_blocks)
        comparisons.append(PatternComparison(spec=spec, disk=disk, ssd=ssd))
    return SsdVsDiskResult(comparisons=tuple(comparisons))
