"""Interval sampling — monitoring "at arbitrary intervals over time".

§1: "we are able to support collection of this data at arbitrary
intervals over time to help system administrators monitor and then
optimize for changing workload characteristics", and §1 again: the
goal is coverage "for the duration of an application's software
lifecycle".

An :class:`IntervalSampler` snapshots every collector the service has
allocated on a fixed period, optionally resetting the live collectors
so each sample covers exactly one interval.  Samples are plain
snapshot objects (deep-copied histograms + the scalar rates), cheap
enough to keep for hours of simulated time and feed to the analysis
layer — e.g. to watch a workload's class drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..sim.engine import Engine
from .collector import VscsiStatsCollector
from .histogram import Histogram
from .service import HistogramService

__all__ = ["IntervalSample", "IntervalSampler"]


@dataclass(frozen=True)
class IntervalSample:
    """One disk's statistics over one sampling interval."""

    vm: str
    vdisk: str
    interval_index: int
    start_ns: int
    end_ns: int
    commands: int
    read_fraction: float
    iops: float
    mbps: float
    io_length: Histogram
    seek_distance: Histogram
    latency_us: Histogram
    outstanding: Histogram


class IntervalSampler:
    """Periodic snapshot-and-reset over a :class:`HistogramService`.

    Parameters
    ----------
    engine / service:
        The simulation and the live stats service.
    interval_ns:
        Sampling period.
    reset:
        If True (default), live collectors are reset after each
        snapshot so every sample covers exactly one interval; if
        False, samples are cumulative.
    on_sample:
        Optional callback invoked with each new :class:`IntervalSample`
        (e.g. to stream into the recommendation engine).
    """

    def __init__(self, engine: Engine, service: HistogramService,
                 interval_ns: int, reset: bool = True,
                 on_sample: Optional[Callable[[IntervalSample], None]] = None):
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive, got {interval_ns}")
        self.engine = engine
        self.service = service
        self.interval_ns = int(interval_ns)
        self.reset = reset
        self.on_sample = on_sample
        self.samples: List[IntervalSample] = []
        self._interval_index = 0
        self._interval_start = engine.now
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin sampling; the first sample lands one interval from now."""
        if self._running:
            raise RuntimeError("sampler already started")
        self._running = True
        self._interval_start = self.engine.now
        self.engine.schedule(self.interval_ns, self._tick)

    def stop(self) -> None:
        """Stop sampling after the current interval's tick (no partial
        samples are emitted)."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        now = self.engine.now
        for (vm, vdisk), collector in self.service.collectors():
            self._snapshot(vm, vdisk, collector, now)
            if self.reset:
                collector.reset()
        self._interval_index += 1
        self._interval_start = now
        self.engine.schedule(self.interval_ns, self._tick)

    def _snapshot(self, vm: str, vdisk: str,
                  collector: VscsiStatsCollector, now: int) -> None:
        if not collector.commands:
            return  # idle disk: no sample this interval
        sample = IntervalSample(
            vm=vm,
            vdisk=vdisk,
            interval_index=self._interval_index,
            start_ns=self._interval_start,
            end_ns=now,
            commands=collector.commands,
            read_fraction=collector.read_fraction,
            iops=collector.commands / (self.interval_ns / 1e9),
            mbps=collector.total_bytes / (1024 * 1024)
            / (self.interval_ns / 1e9),
            io_length=collector.io_length.all.copy(),
            seek_distance=collector.seek_distance.all.copy(),
            latency_us=collector.latency_us.all.copy(),
            outstanding=collector.outstanding.all.copy(),
        )
        self.samples.append(sample)
        if self.on_sample is not None:
            self.on_sample(sample)

    # ------------------------------------------------------------------
    def series_for(self, vm: str, vdisk: str) -> List[IntervalSample]:
        """All samples for one disk, in interval order."""
        return [
            sample for sample in self.samples
            if sample.vm == vm and sample.vdisk == vdisk
        ]

    def drift(self, vm: str, vdisk: str,
              metric: str = "io_length") -> List[float]:
        """Interval-to-interval total-variation distance of one metric —
        how much the workload's shape is changing over the lifecycle.

        Needs two or more samples; returns one value per adjacent pair.
        """
        from ..analysis.compare import total_variation_distance

        series = self.series_for(vm, vdisk)
        values: List[float] = []
        for previous, current in zip(series, series[1:]):
            values.append(
                total_variation_distance(
                    getattr(previous, metric), getattr(current, metric)
                )
            )
        return values
