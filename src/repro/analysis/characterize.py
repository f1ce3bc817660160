"""Derive workload properties from a collector — what an administrator
reads off the histograms.

§4 walks through exactly these judgements: "the OLTP workload is quite
random (spikes at the right and left edges of graph)", "a large
proportion of the writes are sequential", "the workload is almost
exclusively 8K", "PostgreSQL is always issuing around 32 writes
simultaneously".  This module turns those readings into functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.collector import VscsiStatsCollector
from ..core.histogram import Histogram

__all__ = [
    "Reading",
    "sequential_fraction",
    "random_fraction",
    "reverse_fraction",
    "interleaved_stream_signal",
    "stream_count_estimate",
    "is_seekless",
    "WorkloadProfile",
    "characterize",
    "describe",
]

#: Seek distances in (0, 2] sectors — the bin that holds distance 1,
#: i.e. back-to-back contiguous commands (§3.1: "sequential I/Os will
#: result in a histogram whose peak is centered around 1").
_SEQUENTIAL_LOW, _SEQUENTIAL_HIGH = 0, 2
#: |distance| > 50 000 sectors — the spikes at the edges of the
#: paper's seek graphs that mark a random workload.
_RANDOM_THRESHOLD = 50_000
#: "Small" I/O for classification purposes: <= 16 KB.
_SMALL_IO_BYTES = 16 * 1024


def sequential_fraction(seek: Histogram) -> float:
    """Fraction of commands that continued the previous command."""
    return seek.fraction_in(_SEQUENTIAL_LOW, _SEQUENTIAL_HIGH)


def random_fraction(seek: Histogram) -> float:
    """Fraction of commands that seeked beyond +/-50k sectors."""
    if not seek.count:
        return 0.0
    edge = 0
    for count, (low, high) in zip(seek.counts, seek.scheme.bounds_table()):
        if count and (high <= -_RANDOM_THRESHOLD
                      or low >= _RANDOM_THRESHOLD):
            edge += count
    return edge / seek.count


def reverse_fraction(seek: Histogram) -> float:
    """Fraction of strictly negative seeks — reverse-scan detection,
    which §3.1 calls "really important" since reverse scans are slow."""
    if not seek.count:
        return 0.0
    negative = 0
    for count, (_low, high) in zip(seek.counts, seek.scheme.bounds_table()):
        if count and high <= 0:
            negative += count
    return negative / seek.count


def is_seekless(collector: VscsiStatsCollector) -> bool:
    """Whether the vdisk's backing device reports flash telemetry.

    The seek-distance histograms are recorded at the vSCSI layer from
    LBA deltas, so they exist for every backend — but on a seekless
    device a "seek" is just an address delta, with no head movement
    behind it.  SSD backends surface per-write write-amplification
    samples (and GC pauses) through the ``write_amp_pct`` /
    ``gc_pause_us`` families; their presence marks the collector as
    flash-backed.  A read-only stream on an SSD produces no WA samples
    and is not auto-detected — callers that know the backend can pass
    ``seekless=True`` to :func:`characterize` explicitly.
    """
    wa = collector.write_amp_pct
    gc = collector.gc_pause_us
    return bool(
        wa.reads.count or wa.writes.count
        or gc.reads.count or gc.writes.count
    )


#: Families whose ``all`` view a :class:`Reading` holds.
_READING_FAMILIES = ("io_length", "seek_distance", "seek_distance_windowed",
                     "outstanding", "latency_us")


class Reading:
    """One collector read once: the merged ``all`` views the analysis
    functions look at and the scalar features they derive from them.

    ``MetricFamily.all`` builds a fresh merged histogram on every
    access and each feature below is a pass over one, so a caller that
    classifies, fingerprints and recommends for the same collector —
    :class:`~repro.analysis.online.OnlineAnalyzer`, once per disk per
    epoch — builds one reading and hands it to every function in place
    of the collector.  A reading is a snapshot: it does not follow
    later inserts into the collector.
    """

    __slots__ = ("collector", *_READING_FAMILIES,
                 "commands", "read_fraction", "sequential", "sequential_plain",
                 "sequential_writes", "random", "random_reads", "reverse",
                 "small_io", "io_mode", "outstanding_mode")

    def __init__(self, collector: VscsiStatsCollector):
        self.collector = collector
        seek = collector.seek_distance
        windowed = collector.seek_distance_windowed
        self.io_length = collector.io_length.all
        self.seek_distance = seek.all
        self.seek_distance_windowed = windowed.all
        self.outstanding = collector.outstanding.all
        self.latency_us = collector.latency_us.all
        self.commands = collector.commands
        self.read_fraction = collector.read_fraction
        #: Windowed (look-behind) and plain sequential fractions.
        self.sequential = sequential_fraction(self.seek_distance_windowed)
        self.sequential_plain = sequential_fraction(self.seek_distance)
        self.sequential_writes = (
            sequential_fraction(windowed.writes) if seek.writes.count
            else 0.0
        )
        self.random = random_fraction(self.seek_distance)
        self.random_reads = random_fraction(seek.reads)
        self.reverse = reverse_fraction(self.seek_distance)
        self.small_io = self.io_length.fraction_in(
            float("-inf"), _SMALL_IO_BYTES)
        self.io_mode = self.io_length.mode_label()
        self.outstanding_mode = self.outstanding.mode_label()

    @classmethod
    def of(cls, source: "Union[Reading, VscsiStatsCollector]") -> "Reading":
        """``source`` itself when it already is a reading."""
        return source if isinstance(source, cls) else cls(source)

    def all(self, family: str) -> Histogram:
        """The merged ``all`` view of ``family`` — the one built with
        the reading when it is among the five held."""
        if family in _READING_FAMILIES:
            return getattr(self, family)
        return getattr(self.collector, family).all


def interleaved_stream_signal(
        collector: Union[Reading, VscsiStatsCollector]) -> float:
    """How much sequentiality the look-behind window recovers (§3.1).

    Returns ``windowed_sequential - plain_sequential``: near zero for
    a single stream or pure randomness; strongly positive when
    multiple sequential streams are interleaved (the plain histogram
    sees inter-stream jumps, the min-of-last-N histogram sees each
    stream's continuity).
    """
    reading = Reading.of(collector)
    return reading.sequential - reading.sequential_plain


#: Windowed sequentiality below this is noise, not streams.
_STREAM_SIGNAL_FLOOR = 0.3


def stream_count_estimate(
        collector: Union[Reading, VscsiStatsCollector]) -> int:
    """Estimate how many sequential streams are interleaved (§3.1).

    When ``k`` sequential streams interleave, the plain seek histogram
    only scores a continuation when two commands from the *same*
    stream happen to be adjacent — about ``1/k`` of the time under
    random interleaving — while the look-behind window recovers each
    stream's continuity.  The ratio ``windowed / plain`` therefore
    estimates ``k``.  Returns 0 when even the windowed histogram shows
    no meaningful sequentiality (the workload is random, not
    interleaved), 1 for a single stream, and saturates at the
    collector's window size: a strict round-robin of more streams
    drives the plain fraction to zero, which is indistinguishable
    beyond the window's reach.
    """
    reading = Reading.of(collector)
    windowed = reading.sequential
    if windowed < _STREAM_SIGNAL_FLOOR:
        return 0
    plain = reading.sequential_plain
    window = reading.collector.window_size
    floor = windowed / (window + 1)
    ratio = windowed / max(plain, floor)
    return max(1, min(window, int(round(ratio))))


@dataclass(frozen=True)
class WorkloadProfile:
    """Scalar summary of a characterized workload."""

    commands: int
    read_fraction: float
    dominant_io_size: str
    dominant_io_size_reads: Optional[str]
    dominant_io_size_writes: Optional[str]
    sequential: float
    sequential_reads: float
    sequential_writes: float
    random: float
    reverse: float
    interleaved_signal: float
    typical_outstanding: str
    typical_outstanding_writes: Optional[str]
    typical_latency_us: str
    typical_interarrival_us: str
    burstiness: float  # fraction of interarrivals <= 100 us
    #: Backed by a device with no head: sequential/random/reverse are
    #: LBA-locality readings, not mechanical seek costs.
    seekless: bool = False


def characterize(collector: VscsiStatsCollector,
                 seekless: Optional[bool] = None) -> WorkloadProfile:
    """Summarize a collector into a :class:`WorkloadProfile`.

    ``seekless`` overrides backend detection; the default ``None``
    auto-detects via :func:`is_seekless`.
    """
    if not collector.commands:
        raise ValueError("collector has observed no commands")
    io = collector.io_length
    seek = collector.seek_distance
    if seekless is None:
        seekless = is_seekless(collector)
    return WorkloadProfile(
        commands=collector.commands,
        read_fraction=collector.read_fraction,
        dominant_io_size=io.all.mode_label(),
        dominant_io_size_reads=(
            io.reads.mode_label() if io.reads.count else None
        ),
        dominant_io_size_writes=(
            io.writes.mode_label() if io.writes.count else None
        ),
        sequential=sequential_fraction(seek.all),
        sequential_reads=sequential_fraction(seek.reads),
        sequential_writes=sequential_fraction(seek.writes),
        random=random_fraction(seek.all),
        reverse=reverse_fraction(seek.all),
        interleaved_signal=interleaved_stream_signal(collector),
        typical_outstanding=collector.outstanding.all.mode_label(),
        typical_outstanding_writes=(
            collector.outstanding.writes.mode_label()
            if collector.outstanding.writes.count
            else None
        ),
        typical_latency_us=(
            collector.latency_us.all.mode_label()
            if collector.latency_us.all.count
            else "n/a"
        ),
        typical_interarrival_us=(
            collector.interarrival_us.all.mode_label()
            if collector.interarrival_us.all.count
            else "n/a"
        ),
        burstiness=collector.interarrival_us.all.fraction_in(
            float("-inf"), 100
        ),
        seekless=seekless,
    )


def describe(profile: WorkloadProfile) -> str:
    """Render a profile the way an administrator would state it."""
    lines = [
        f"{profile.commands} commands, "
        f"{profile.read_fraction:.0%} reads / "
        f"{1 - profile.read_fraction:.0%} writes",
        f"dominant I/O size: {profile.dominant_io_size} bytes"
        + (
            f" (reads: {profile.dominant_io_size_reads}, "
            f"writes: {profile.dominant_io_size_writes})"
            if profile.dominant_io_size_reads
            and profile.dominant_io_size_writes
            else ""
        ),
        (
            ("LBA locality" if profile.seekless else "sequential")
            + f": {profile.sequential:.0%} overall "
            f"(reads {profile.sequential_reads:.0%}, "
            f"writes {profile.sequential_writes:.0%}); "
            f"random (edge seeks): {profile.random:.0%}; "
            f"reverse: {profile.reverse:.0%}"
            + (
                " [seekless device: distances are address deltas, "
                "not head movement]"
                if profile.seekless
                else ""
            )
        ),
        f"typical outstanding I/Os: {profile.typical_outstanding}"
        + (
            f" (writes: {profile.typical_outstanding_writes})"
            if profile.typical_outstanding_writes
            else ""
        ),
        f"typical latency bin: {profile.typical_latency_us} us",
        f"typical interarrival bin: {profile.typical_interarrival_us} us"
        + (
            f" ({profile.burstiness:.0%} of arrivals within 100 us: "
            "bursty issue pattern)"
            if profile.burstiness > 0.5
            else ""
        ),
    ]
    if profile.interleaved_signal > 0.2:
        lines.append(
            "look-behind window recovers "
            f"{profile.interleaved_signal:.0%} sequentiality: "
            "multiple interleaved sequential streams are likely"
        )
    return "\n".join(lines)
