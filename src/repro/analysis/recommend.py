"""Automatic workload categorization and recommendations.

The paper's future work (§7): "We plan to investigate automatic
categorization of workloads and generation of recommendations for
virtual disk placement and storage subsystem optimization."  This
module implements that layer on top of the collectors, using only the
rules the paper itself articulates:

* stripe-size tuning needs the I/O size distribution (§1, [1]);
* reverse scans "hint at a potential weakness in the application's
  data layout algorithms" (§3.1);
* multiple interleaved sequential streams suggest "separat[ing] out
  sequential streams to different disk groups" (§3.1, §3.6);
* write latencies far above read latencies "might point to problems
  with the write-back cache strategy or cache capacity" (§3.4);
* high outstanding-I/O counts identify async/multi-threaded issuers
  (§3.3) that benefit from deeper queues.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Union

from ..core.collector import VscsiStatsCollector
from .characterize import Reading, interleaved_stream_signal, is_seekless

__all__ = ["WorkloadClass", "Recommendation", "categorize", "recommend"]


class WorkloadClass(enum.Enum):
    """Coarse workload taxonomy an administrator reasons in."""

    OLTP = "oltp"                      # small, random, mixed r/w, concurrent
    STREAMING = "streaming"            # large or sequential, one direction
    FILE_SERVER = "file-server"        # mixed sizes, mild locality
    LOG_STRUCTURED = "log-structured"  # sequential writes, random reads
    IDLE = "idle"                      # too few commands to say


#: Default minimum commands before categorization is meaningful.
_MIN_COMMANDS = 100


@dataclass(frozen=True)
class Recommendation:
    """One actionable finding."""

    rule: str        # stable identifier, e.g. "split-streams"
    severity: str    # "info" | "tune" | "warn"
    message: str


def categorize(collector: Union[Reading, VscsiStatsCollector],
               min_commands: int = _MIN_COMMANDS) -> WorkloadClass:
    """Assign a coarse class from the histogram set.

    Fewer than ``min_commands`` commands is :attr:`WorkloadClass.IDLE`;
    a caller with its own activity floor
    (:attr:`~repro.analysis.online.DriftConfig.min_commands`) passes it
    so "active" means one thing.  Accepts a prepared
    :class:`~repro.analysis.characterize.Reading` in place of the
    collector.
    """
    if collector.commands < min_commands:
        return WorkloadClass.IDLE
    reading = Reading.of(collector)
    small = reading.small_io
    reads = reading.read_fraction
    if (reading.sequential_writes > 0.7 and reading.random_reads > 0.5
            and 0.0 < reads < 1.0):
        return WorkloadClass.LOG_STRUCTURED
    if reading.sequential > 0.7 or small < 0.3:
        return WorkloadClass.STREAMING
    if small > 0.7 and reading.random > 0.4 and 0.1 < reads < 0.95:
        return WorkloadClass.OLTP
    return WorkloadClass.FILE_SERVER


def recommend(collector: Union[Reading, VscsiStatsCollector],
              min_commands: int = _MIN_COMMANDS) -> List[Recommendation]:
    """Generate placement/tuning recommendations from the histograms.

    ``min_commands`` and the :class:`Reading` form are as for
    :func:`categorize`.
    """
    findings: List[Recommendation] = []
    if collector.commands < min_commands:
        return findings
    reading = Reading.of(collector)
    collector = reading.collector
    # Spindle-mechanics rules (reverse scans, stream separation, the
    # write-back-cache heuristic) presume seeks and rotational caches;
    # on a flash-backed vdisk they misfire — flash programs are
    # inherently slower than flash reads, and address deltas cost
    # nothing — so they are gated off and replaced by WA/GC rules.
    seekless = is_seekless(collector)

    # --- reverse scans (§3.1) -------------------------------------
    # A uniformly random workload is ~50% negative by symmetry, so the
    # detector requires a clear backwards *bias*, not just negatives.
    reverse = reading.reverse
    if not seekless and reverse > 0.65:
        findings.append(
            Recommendation(
                rule="reverse-scans",
                severity="warn",
                message=(
                    f"{reverse:.0%} of commands seek backwards; reverse "
                    "scans are slow on disks — review the application's "
                    "data layout."
                ),
            )
        )

    # --- interleaved sequential streams (§3.1/§3.6) ----------------
    signal = interleaved_stream_signal(reading)
    if not seekless and signal > 0.3:
        findings.append(
            Recommendation(
                rule="split-streams",
                severity="tune",
                message=(
                    "multiple interleaved sequential streams detected "
                    f"(window recovers {signal:.0%} sequentiality); "
                    "consider splitting the streams onto separate "
                    "virtual disks / disk groups."
                ),
            )
        )

    # --- stripe sizing from the size distribution ([1]) ------------
    dominant = reading.io_mode
    if not dominant.startswith(">"):
        dominant_bytes = int(dominant)
        findings.append(
            Recommendation(
                rule="stripe-size",
                severity="info",
                message=(
                    f"dominant request size is {dominant_bytes} bytes; "
                    "RAID stripe elements should be at least this large "
                    "to keep one request on one spindle."
                ),
            )
        )

    # --- write-back cache health (§3.4) ----------------------------
    latency = collector.latency_us
    if (not seekless
            and latency.reads.count >= 50 and latency.writes.count >= 50):
        read_mean = latency.reads.mean
        write_mean = latency.writes.mean
        if read_mean > 0 and write_mean > 3.0 * read_mean:
            findings.append(
                Recommendation(
                    rule="write-cache",
                    severity="warn",
                    message=(
                        f"write latency ({write_mean:.0f} us) is "
                        f"{write_mean / read_mean:.1f}x read latency "
                        f"({read_mean:.0f} us); check the array's "
                        "write-back cache strategy and capacity."
                    ),
                )
            )

    # --- concurrency vs queue depth (§3.3) --------------------------
    outstanding = reading.outstanding
    if outstanding.count:
        high = 1.0 - outstanding.fraction_in(float("-inf"), 32)
        if high > 0.25:
            findings.append(
                Recommendation(
                    rule="queue-depth",
                    severity="tune",
                    message=(
                        f"{high:.0%} of arrivals found more than 32 "
                        "commands outstanding; verify the device queue "
                        "depth matches the workload's parallelism."
                    ),
                )
            )

    # --- flash write amplification --------------------------------
    wa = collector.write_amp_pct.writes
    if wa.count >= 50 and wa.mean > 150.0:
        findings.append(
            Recommendation(
                rule="flash-write-amp",
                severity="warn",
                message=(
                    f"write amplification averages {wa.mean / 100:.2f}x "
                    "on the flash backend; raise over-provisioning or "
                    "separate hot and cold data onto different virtual "
                    "disks to cut garbage-collection copying."
                ),
            )
        )

    # --- flash GC pause tail --------------------------------------
    # (only a flash backend populates the family: skip the merge for
    # the spindle majority)
    gc = collector.gc_pause_us.all if seekless else None
    if gc is not None and gc.count:
        long_pauses = 1.0 - gc.fraction_in(float("-inf"), 10_000)
        if long_pauses > 0.5:
            findings.append(
                Recommendation(
                    rule="flash-gc-pauses",
                    severity="tune",
                    message=(
                        f"{gc.count} commands absorbed garbage-collection "
                        f"pauses ({long_pauses:.0%} above 10 ms); spread "
                        "write bursts or raise the GC reserve so "
                        "collection runs ahead of the write front."
                    ),
                )
            )

    # --- latency tail (§3.5) ----------------------------------------
    if reading.latency_us.count:
        tail = 1.0 - reading.latency_us.fraction_in(float("-inf"), 30_000)
        if tail > 0.10:
            findings.append(
                Recommendation(
                    rule="latency-tail",
                    severity="warn",
                    message=(
                        f"{tail:.0%} of commands exceed 30 ms; the "
                        "device may be overloaded by external load "
                        "(check for collocated workloads)."
                    ),
                )
            )
    return findings
