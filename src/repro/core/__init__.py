"""The paper's primary contribution: online vSCSI workload histograms.

Public surface:

* Bin schemes transcribed from the paper's figures (:mod:`~repro.core.bins`).
* The O(m)-space online :class:`Histogram` and its time-resolved
  companion :class:`TimeSeriesHistogram`.
* :class:`VscsiStatsCollector` — the full per-virtual-disk metric set.
* :class:`HistogramService` — the enable/disable registry (the
  ``vscsiStats`` command-line surface).
* The command tracing framework (:mod:`~repro.core.tracing`).
* Text rendering in the paper's figure layout (:mod:`~repro.core.report`).
"""

from .bins import (
    BinScheme,
    INTERARRIVAL_US_BINS,
    IO_LENGTH_BINS,
    LATENCY_US_BINS,
    LUT_MAX_SPAN,
    OUTSTANDING_IO_BINS,
    SEEK_DISTANCE_BINS,
    scheme_for_metric,
)
from .collector import (
    DEFAULT_TIME_SLOT_NS,
    MetricFamily,
    SECTOR_BYTES,
    VscsiStatsCollector,
)
from .histogram import BATCH_CROSSOVER, Histogram
from .histogram2d import TimeSeriesHistogram
from .report import render_collector, render_histogram, render_timeseries
from .sampler import IntervalSample, IntervalSampler
from .service import HistogramService
from .tracing import (
    TraceBuffer,
    TraceRecord,
    read_binary,
    read_csv,
    replay_into_collector,
    write_binary,
    write_csv,
)
from .window import DEFAULT_WINDOW_SIZE, LookBehindWindow

__all__ = [
    "BinScheme",
    "INTERARRIVAL_US_BINS",
    "IO_LENGTH_BINS",
    "LATENCY_US_BINS",
    "LUT_MAX_SPAN",
    "OUTSTANDING_IO_BINS",
    "SEEK_DISTANCE_BINS",
    "scheme_for_metric",
    "DEFAULT_TIME_SLOT_NS",
    "MetricFamily",
    "SECTOR_BYTES",
    "VscsiStatsCollector",
    "BATCH_CROSSOVER",
    "Histogram",
    "TimeSeriesHistogram",
    "render_collector",
    "render_histogram",
    "render_timeseries",
    "IntervalSample",
    "IntervalSampler",
    "HistogramService",
    "TraceBuffer",
    "TraceRecord",
    "read_binary",
    "read_csv",
    "replay_into_collector",
    "write_binary",
    "write_csv",
    "DEFAULT_WINDOW_SIZE",
    "LookBehindWindow",
]
