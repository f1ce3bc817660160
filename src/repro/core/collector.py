"""Per-virtual-disk histogram collector — the paper's §3 service.

One :class:`VscsiStatsCollector` is attached to each (VM, virtual disk)
pair at the vSCSI emulation layer.  On every command *arrival* it
records:

* I/O length (bytes),
* seek distance from the previous command (signed sectors, §3.1),
* windowed minimum seek distance over the last N commands (§3.1),
* interarrival time since the previous command (µs, §3.2),
* outstanding I/Os already in flight on this virtual disk (§3.3);

and on every command *completion*:

* device latency (µs, §3.5).

Every metric is kept three ways: all commands, reads only, writes only
(§3.4).  All state is O(m) per metric plus the N-entry look-behind
ring — constant space regardless of how many commands flow by.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional, Sequence

import numpy as _np

from .bins import (
    BinScheme,
    GC_PAUSE_US_BINS,
    INTERARRIVAL_US_BINS,
    IO_LENGTH_BINS,
    LATENCY_US_BINS,
    OUTSTANDING_IO_BINS,
    SEEK_DISTANCE_BINS,
    WRITE_AMP_PCT_BINS,
)
from .histogram import BATCH_CROSSOVER, Histogram, _plain
from .histogram2d import TimeSeriesHistogram
from .window import DEFAULT_WINDOW_SIZE, SAFE_POSITION, LookBehindWindow

__all__ = ["MetricFamily", "VscsiStatsCollector", "DEFAULT_TIME_SLOT_NS",
           "EXTENDED_FAMILIES"]

#: Families added after the paper's six (currently the SSD/FTL pair).
#: They are optional in serialized snapshots: documents written before
#: they existed restore with empty histograms, and every layer that
#: hard-codes a family order appends these *last* so the paper's six
#: keep their positions.
EXTENDED_FAMILIES = ("write_amp_pct", "gc_pause_us")

#: The paper's time-resolved figures use 6-second intervals.
DEFAULT_TIME_SLOT_NS = 6_000_000_000

#: Bytes per SCSI logical block (§3: "A logical block is a unit of
#: space (512 bytes)").
SECTOR_BYTES = 512


def _check_ignored_backend(backend: Optional[str]) -> None:
    """Validate the vestigial ``backend=`` keyword of the two batch
    hooks.  It selects nothing and exists only because
    ``benchmarks/pipeline/layers.py`` — frozen under ``BENCHMARK.json``
    — still passes ``backend="numpy"``; delete it with that call."""
    if backend not in (None, "auto", "numpy"):
        raise ValueError(f"unknown backend {backend!r}")


class MetricFamily:
    """One metric kept three ways: all / reads / writes (§3.4).

    Only the ``reads`` and ``writes`` histograms are maintained online;
    ``all`` is derived by merging them at snapshot time.  Every
    histogram operation is a pure function of the bin counts and the
    four scalar statistics, all of which add, so the merged view is
    byte-identical to a third per-command insert at half the hot-path
    cost.
    """

    __slots__ = ("name", "scheme", "reads", "writes")

    def __init__(self, scheme: BinScheme, name: str):
        self.name = name
        self.scheme = scheme
        self.reads = Histogram(scheme, name=f"{name}_reads")
        self.writes = Histogram(scheme, name=f"{name}_writes")

    @property
    def all(self) -> Histogram:
        """Merged all-commands view (computed on access, O(m))."""
        return self.reads.merge(self.writes, name=self.name)

    def merge(self, other: "MetricFamily") -> "MetricFamily":
        """Return a new family combining this one and ``other``.

        Exact, associative and commutative (see :meth:`Histogram.merge`)
        — per-shard families from parallel replay recombine to
        byte-identical :meth:`to_dict` output.
        """
        if self.scheme != other.scheme:
            raise ValueError(
                f"cannot merge families over schemes {self.scheme.name!r} "
                f"and {other.scheme.name!r}"
            )
        merged = MetricFamily(self.scheme, self.name)
        merged.reads = self.reads.merge(other.reads)
        merged.writes = self.writes.merge(other.writes)
        return merged

    def insert(self, value: int, is_read: bool) -> None:
        if is_read:
            self.reads.insert(value)
        else:
            self.writes.insert(value)

    def insert_batch(self, read_values: Sequence[int],
                     write_values: Sequence[int]) -> None:
        """Feed pre-partitioned value columns to the batch kernel."""
        self.reads.insert_many(read_values)
        self.writes.insert_many(write_values)

    def reset(self) -> None:
        self.reads.reset()
        self.writes.reset()

    def to_dict(self) -> Dict:
        return {
            "all": self.all.to_dict(),
            "reads": self.reads.to_dict(),
            "writes": self.writes.to_dict(),
        }

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MetricFamily)
            and self.scheme == other.scheme
            and self.reads == other.reads
            and self.writes == other.writes
        )

    __hash__ = None  # mutable container


class VscsiStatsCollector:
    """Online workload characterization state for one virtual disk.

    Parameters
    ----------
    window_size:
        Look-behind depth N for the windowed min-seek histogram
        (paper default: 16).
    time_slot_ns:
        Interval width for the time-resolved histograms (paper figures:
        6 seconds).  Pass ``0`` to disable time-resolved collection.
    """

    def __init__(self, window_size: int = DEFAULT_WINDOW_SIZE,
                 time_slot_ns: int = DEFAULT_TIME_SLOT_NS):
        # Histogram families (§3.1-3.5).
        self.io_length = MetricFamily(IO_LENGTH_BINS, "io_length")
        self.seek_distance = MetricFamily(SEEK_DISTANCE_BINS, "seek_distance")
        self.seek_distance_windowed = MetricFamily(
            SEEK_DISTANCE_BINS, "seek_distance_windowed"
        )
        self.interarrival_us = MetricFamily(INTERARRIVAL_US_BINS, "interarrival_us")
        self.outstanding = MetricFamily(OUTSTANDING_IO_BINS, "outstanding")
        self.latency_us = MetricFamily(LATENCY_US_BINS, "latency_us")

        # SSD/FTL completion telemetry (empty on mechanical backends —
        # an all-zero pair is itself the spindle signature).
        self.write_amp_pct = MetricFamily(WRITE_AMP_PCT_BINS, "write_amp_pct")
        self.gc_pause_us = MetricFamily(GC_PAUSE_US_BINS, "gc_pause_us")

        # Time-resolved variants used by Figures 4(d) and 6(c).
        self.time_slot_ns = int(time_slot_ns)
        self.outstanding_over_time: Optional[TimeSeriesHistogram] = None
        self.latency_over_time: Optional[TimeSeriesHistogram] = None
        self._make_time_series()

        # The in-memory records the paper describes: a single 64-bit
        # last-block location, the N-deep ring, and the last arrival
        # cycle-counter value.
        self._last_end_block: Optional[int] = None
        self._window = LookBehindWindow(window_size)
        self._last_arrival_ns: Optional[int] = None

        # Scalar counters for rate reporting (IOps / MBps, Table 2).
        self.commands = 0
        self.read_commands = 0
        self.write_commands = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.first_arrival_ns: Optional[int] = None
        self.last_arrival_ns: Optional[int] = None

    def _make_time_series(self) -> None:
        """(Re)create the time-resolved histograms — the single place
        their configuration lives, shared by ``__init__`` and
        :meth:`reset` so the two can never drift."""
        if self.time_slot_ns:
            self.outstanding_over_time = TimeSeriesHistogram(
                OUTSTANDING_IO_BINS, self.time_slot_ns, name="outstanding_over_time"
            )
            self.latency_over_time = TimeSeriesHistogram(
                LATENCY_US_BINS, self.time_slot_ns, name="latency_over_time"
            )
        else:
            self.outstanding_over_time = None
            self.latency_over_time = None

    # ------------------------------------------------------------------
    # Hot-path hooks called by the vSCSI layer
    # ------------------------------------------------------------------
    def on_issue(self, time_ns: int, is_read: bool, lba: int, nblocks: int,
                 outstanding_before: int) -> None:
        """Record a command arrival at the vSCSI layer.

        Parameters mirror exactly what the emulation layer can see:
        the arrival timestamp, operation direction, starting logical
        block, transfer length in blocks, and how many commands were
        already issued-but-not-completed on this virtual disk.
        """
        length_bytes = nblocks * SECTOR_BYTES
        self.io_length.insert(length_bytes, is_read)
        self.outstanding.insert(outstanding_before, is_read)
        if self.outstanding_over_time is not None:
            self.outstanding_over_time.insert(time_ns, outstanding_before)

        # Seek distance: first block of this I/O minus last block of
        # the previous I/O (signed; §3.1).
        first_block = lba
        last_block = lba + nblocks - 1
        if self._last_end_block is not None:
            self.seek_distance.insert(first_block - self._last_end_block, is_read)
        self._last_end_block = last_block

        # Windowed min distance over the last N I/Os (§3.1).
        windowed = self._window.observe(first_block, last_block)
        if windowed is not None:
            self.seek_distance_windowed.insert(windowed, is_read)

        # Interarrival period in microseconds (§3.2).
        if self._last_arrival_ns is not None:
            delta_us = (time_ns - self._last_arrival_ns) // 1_000
            self.interarrival_us.insert(delta_us, is_read)
        self._last_arrival_ns = time_ns

        # Scalar counters.
        self.commands += 1
        if is_read:
            self.read_commands += 1
            self.bytes_read += length_bytes
        else:
            self.write_commands += 1
            self.bytes_written += length_bytes
        if self.first_arrival_ns is None:
            self.first_arrival_ns = time_ns
        self.last_arrival_ns = time_ns

    def on_complete(self, time_ns: int, is_read: bool, latency_ns: int,
                    wa_pct: Optional[int] = None,
                    gc_pause_us: Optional[int] = None) -> None:
        """Record a command completion (device latency, §3.5).

        ``wa_pct`` and ``gc_pause_us`` carry the backend's per-command
        FTL telemetry when the vdisk sits on flash: the cumulative
        write-amplification factor in percent (100 = 1.0×) and the GC
        pause charged to this command in microseconds.  Mechanical
        backends pass neither, leaving both families empty.
        """
        latency_us = latency_ns // 1_000
        self.latency_us.insert(latency_us, is_read)
        if self.latency_over_time is not None:
            self.latency_over_time.insert(time_ns, latency_us)
        if wa_pct is not None:
            self.write_amp_pct.insert(wa_pct, is_read)
        if gc_pause_us is not None:
            self.gc_pause_us.insert(gc_pause_us, is_read)

    # ------------------------------------------------------------------
    # Columnar batch hooks — the fast path for replay and burst issue
    # ------------------------------------------------------------------
    def on_issue_batch(self, times_ns: Sequence[int],
                       is_read: Sequence[bool],
                       lbas: Sequence[int],
                       nblocks: Sequence[int],
                       outstanding: Sequence[int],
                       backend: Optional[str] = None) -> None:
        """Record a run of command arrivals from parallel columns.

        Equivalent to calling :meth:`on_issue` once per command in
        column order (arrival timestamps must be non-decreasing, as
        they are on the live path).  Runs of at least
        :data:`~repro.core.histogram.BATCH_CROSSOVER` commands compute
        seek distances, windowed minima and interarrival periods in
        single vectorized passes and feed the histogram batch kernel;
        shorter runs, where array setup costs more than it saves, and
        runs whose values could wrap in int64 loop the scalar hook
        itself.
        """
        _check_ignored_backend(backend)
        n = len(times_ns)
        if not (len(is_read) == len(lbas) == len(nblocks)
                == len(outstanding) == n):
            raise ValueError("on_issue_batch columns must have equal lengths")
        if n >= BATCH_CROSSOVER and self._on_issue_batch_numpy(
                times_ns, is_read, lbas, nblocks, outstanding):
            return
        on_issue = self.on_issue
        for row in zip(_plain(times_ns), _plain(is_read), _plain(lbas),
                       _plain(nblocks), _plain(outstanding)):
            on_issue(*row)

    def _on_issue_batch_numpy(self, times_ns, is_read, lbas, nblocks,
                              outstanding) -> bool:
        """Vectorized kernel behind :meth:`on_issue_batch` — the same
        state as an :meth:`on_issue` loop, for any ``n >= 1``.  Returns
        False, touching nothing, for a batch whose positions, times or
        byte totals could wrap in int64 (see :meth:`_fits_int64`); the
        caller then loops :meth:`on_issue`."""
        try:
            t = _np.asarray(times_ns, dtype=_np.int64)
            lba_arr = _np.asarray(lbas, dtype=_np.int64)
            nb_arr = _np.asarray(nblocks, dtype=_np.int64)
            out_arr = _np.asarray(outstanding, dtype=_np.int64)
        except OverflowError:
            return False
        if not self._fits_int64(t, lba_arr, nb_arr):
            return False
        mask = _np.asarray(is_read, dtype=bool)
        inv = ~mask
        n = int(t.shape[0])

        lengths = nb_arr * SECTOR_BYTES
        ends = lba_arr + nb_arr - 1

        seeks = lba_arr[1:] - ends[:-1]
        if self._last_end_block is not None:
            first = _np.asarray([int(lba_arr[0]) - self._last_end_block],
                                dtype=_np.int64)
            seeks = _np.concatenate([first, seeks])
            seek_mask = mask
        else:
            seek_mask = mask[1:]
        self._last_end_block = int(ends[-1])

        windowed, undefined = self._window.observe_block(lba_arr, ends)
        windowed_mask = mask[1:] if undefined else mask

        inter = (t[1:] - t[:-1]) // 1_000
        if self._last_arrival_ns is not None:
            first = _np.asarray(
                [(int(t[0]) - self._last_arrival_ns) // 1_000],
                dtype=_np.int64)
            inter = _np.concatenate([first, inter])
            inter_mask = mask
        else:
            inter_mask = mask[1:]
        self._last_arrival_ns = int(t[-1])

        self.io_length.insert_batch(lengths[mask], lengths[inv])
        self.outstanding.insert_batch(out_arr[mask], out_arr[inv])
        self.seek_distance.insert_batch(seeks[seek_mask], seeks[~seek_mask])
        self.seek_distance_windowed.insert_batch(windowed[windowed_mask],
                                                 windowed[~windowed_mask])
        self.interarrival_us.insert_batch(inter[inter_mask], inter[~inter_mask])
        if self.outstanding_over_time is not None:
            self.outstanding_over_time.insert_many(t, out_arr)

        self.commands += n
        nreads = int(mask.sum())
        self.read_commands += nreads
        self.write_commands += n - nreads
        self.bytes_read += int(lengths[mask].sum())
        self.bytes_written += int(lengths[inv].sum())
        if self.first_arrival_ns is None:
            self.first_arrival_ns = int(t[0])
        self.last_arrival_ns = int(t[-1])
        return True

    def _fits_int64(self, times, lbas, nblocks) -> bool:
        """Whether the issue kernel's int64 arithmetic is exact for
        these columns: every LBA, end block, carried end block and ring
        entry inside ``±SAFE_POSITION`` (so seek distances and window
        minima cannot wrap), every time and the carried arrival too
        (interarrival gaps), and the batch's byte total below it."""
        lba_lo, lba_hi = int(lbas.min()), int(lbas.max())
        nb_lo, nb_hi = int(nblocks.min()), int(nblocks.max())
        lo = min(lba_lo, lba_lo + nb_lo - 1)
        hi = max(lba_hi, lba_hi + nb_hi - 1)
        if self._last_end_block is not None:
            lo = min(lo, self._last_end_block)
            hi = max(hi, self._last_end_block)
        t_lo, t_hi = int(times.min()), int(times.max())
        if self._last_arrival_ns is not None:
            t_lo = min(t_lo, self._last_arrival_ns)
            t_hi = max(t_hi, self._last_arrival_ns)
        return (self._window.block_safe(lo, hi)
                and -SAFE_POSITION < t_lo and t_hi < SAFE_POSITION
                and len(lbas) * max(-nb_lo, nb_hi) * SECTOR_BYTES
                < SAFE_POSITION)

    def on_complete_batch(self, times_ns: Sequence[int],
                          is_read: Sequence[bool],
                          latencies_ns: Sequence[int],
                          wa_pct: Optional[Sequence[Optional[int]]] = None,
                          gc_pause_us: Optional[Sequence[Optional[int]]] = None,
                          backend: Optional[str] = None) -> None:
        """Record a run of command completions from parallel columns.

        Equivalent to a scalar :meth:`on_complete` loop over the
        columns — literally so below
        :data:`~repro.core.histogram.BATCH_CROSSOVER` commands,
        vectorized through the histogram batch kernel from there up.
        ``wa_pct`` and ``gc_pause_us`` are optional FTL telemetry
        columns aligned with the others; a ``None`` entry means the
        command carried no sample (exactly the scalar hook's
        semantics).
        """
        _check_ignored_backend(backend)
        n = len(times_ns)
        if not (len(is_read) == len(latencies_ns) == n
                and (wa_pct is None or len(wa_pct) == n)
                and (gc_pause_us is None or len(gc_pause_us) == n)):
            raise ValueError(
                "on_complete_batch columns must have equal lengths")
        if n < BATCH_CROSSOVER:
            on_complete = self.on_complete
            for row in zip(
                    _plain(times_ns), _plain(is_read), _plain(latencies_ns),
                    repeat(None) if wa_pct is None else _plain(wa_pct),
                    repeat(None) if gc_pause_us is None
                    else _plain(gc_pause_us)):
                on_complete(*row)
            return
        t = _np.asarray(times_ns, dtype=_np.int64)
        lat = _np.asarray(latencies_ns, dtype=_np.int64) // 1_000
        mask = _np.asarray(is_read, dtype=bool)
        self.latency_us.insert_batch(lat[mask], lat[~mask])
        if self.latency_over_time is not None:
            self.latency_over_time.insert_many(t, lat)
        for column, family in ((wa_pct, self.write_amp_pct),
                               (gc_pause_us, self.gc_pause_us)):
            if column is not None:
                flags = mask.tolist()
                family.insert_batch(
                    [v for v, f in zip(column, flags) if f and v is not None],
                    [v for v, f in zip(column, flags)
                     if not f and v is not None])

    # ------------------------------------------------------------------
    # Derived reporting
    # ------------------------------------------------------------------
    @property
    def read_fraction(self) -> float:
        """Fraction of commands that were reads (§3.4's read/write ratio)."""
        return self.read_commands / self.commands if self.commands else 0.0

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def duration_seconds(self) -> float:
        """Span between the first and last observed arrivals, seconds."""
        if self.first_arrival_ns is None or self.last_arrival_ns is None:
            return 0.0
        return (self.last_arrival_ns - self.first_arrival_ns) / 1e9

    def iops(self) -> float:
        """Average commands per second over the observed span."""
        duration = self.duration_seconds()
        return self.commands / duration if duration > 0 else 0.0

    def mbps(self) -> float:
        """Average transfer rate in MB/s over the observed span."""
        duration = self.duration_seconds()
        return self.total_bytes / (1024 * 1024) / duration if duration > 0 else 0.0

    def families(self) -> Dict[str, MetricFamily]:
        """All metric families, keyed by metric name.

        The paper's six come first (in their historical order); the
        :data:`EXTENDED_FAMILIES` are appended last so fixed-order
        consumers (codec layouts, exposition) stay stable.
        """
        return {
            "io_length": self.io_length,
            "seek_distance": self.seek_distance,
            "seek_distance_windowed": self.seek_distance_windowed,
            "interarrival_us": self.interarrival_us,
            "outstanding": self.outstanding,
            "latency_us": self.latency_us,
            "write_amp_pct": self.write_amp_pct,
            "gc_pause_us": self.gc_pause_us,
        }

    @property
    def window_size(self) -> int:
        """Look-behind depth N of the windowed-seek ring."""
        return self._window.size

    def merge(self, other: "VscsiStatsCollector") -> "VscsiStatsCollector":
        """Return a new collector aggregating this one and ``other``.

        Every exported statistic — the six metric families, the
        time-resolved histograms and the scalar counters — is additive,
        so the merge is exact, associative and commutative: partition a
        set of per-vdisk command streams across shards however you
        like (each stream kept whole), replay each shard into its own
        collector, and the merged ``to_dict()`` is byte-identical to
        merging the per-vdisk collectors directly.

        The merged collector is an *aggregate snapshot*: the stream
        coupling state (previous end block, look-behind ring, last
        arrival) is deliberately left empty because two distinct
        streams have no common predecessor command — feed further
        commands to the per-stream collectors, not to the merge.
        """
        if self.window_size != other.window_size:
            raise ValueError(
                f"cannot merge window sizes {self.window_size} and "
                f"{other.window_size}"
            )
        if self.time_slot_ns != other.time_slot_ns:
            raise ValueError(
                f"cannot merge time slots {self.time_slot_ns} and "
                f"{other.time_slot_ns}"
            )
        merged = VscsiStatsCollector(window_size=self.window_size,
                                     time_slot_ns=self.time_slot_ns)
        for name in self.families():
            setattr(merged, name,
                    getattr(self, name).merge(getattr(other, name)))
        if self.outstanding_over_time is not None:
            merged.outstanding_over_time = self.outstanding_over_time.merge(
                other.outstanding_over_time
            )
            merged.latency_over_time = self.latency_over_time.merge(
                other.latency_over_time
            )
        merged.commands = self.commands + other.commands
        merged.read_commands = self.read_commands + other.read_commands
        merged.write_commands = self.write_commands + other.write_commands
        merged.bytes_read = self.bytes_read + other.bytes_read
        merged.bytes_written = self.bytes_written + other.bytes_written
        firsts = [t for t in (self.first_arrival_ns, other.first_arrival_ns)
                  if t is not None]
        lasts = [t for t in (self.last_arrival_ns, other.last_arrival_ns)
                 if t is not None]
        merged.first_arrival_ns = min(firsts) if firsts else None
        merged.last_arrival_ns = max(lasts) if lasts else None
        return merged

    def copy(self) -> "VscsiStatsCollector":
        """Independent aggregate-snapshot copy (see :meth:`merge` for
        what happens to the stream coupling state)."""
        return self.merge(VscsiStatsCollector(
            window_size=self.window_size, time_slot_ns=self.time_slot_ns
        ))

    def fresh_continuation(self) -> "VscsiStatsCollector":
        """A zero-statistics collector that *continues* this stream.

        The new collector starts with empty histograms and counters but
        inherits the stream coupling state — previous end block, last
        arrival timestamp and a copy of the look-behind ring — so
        feeding it the rest of the command stream inserts exactly the
        values the original collector would have inserted.  This is the
        epoch-rotation primitive: because every exported statistic is
        additive, ``sealed.merge(continuation_after_more_commands)`` is
        byte-identical to one collector having seen the whole stream.
        """
        cont = VscsiStatsCollector(window_size=self.window_size,
                                   time_slot_ns=self.time_slot_ns)
        cont._last_end_block = self._last_end_block
        cont._last_arrival_ns = self._last_arrival_ns
        cont._window = self._window.copy()
        return cont

    def reset(self) -> None:
        """Zero everything (the CLI's reset operation)."""
        for family in self.families().values():
            family.reset()
        self._make_time_series()
        self._last_end_block = None
        self._window.reset()
        self._last_arrival_ns = None
        self.commands = 0
        self.read_commands = 0
        self.write_commands = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.first_arrival_ns = None
        self.last_arrival_ns = None

    def to_dict(self) -> Dict:
        """Full JSON-exportable snapshot of the collector."""
        data: Dict = {
            "window_size": self.window_size,
            "time_slot_ns": self.time_slot_ns,
            "commands": self.commands,
            "read_commands": self.read_commands,
            "write_commands": self.write_commands,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "first_arrival_ns": self.first_arrival_ns,
            "last_arrival_ns": self.last_arrival_ns,
            "families": {
                name: family.to_dict()
                for name, family in self.families().items()
            },
        }
        if self.outstanding_over_time is not None:
            data["outstanding_over_time"] = self.outstanding_over_time.to_dict()
        if self.latency_over_time is not None:
            data["latency_over_time"] = self.latency_over_time.to_dict()
        return data

    def __eq__(self, other: object) -> bool:
        """Snapshot equality: configuration, every exported statistic.

        The stream coupling state (previous end block, ring, last
        arrival) is excluded, matching what :meth:`to_dict` exports.
        """
        if not isinstance(other, VscsiStatsCollector):
            return NotImplemented
        return (
            self.window_size == other.window_size
            and self.time_slot_ns == other.time_slot_ns
            and self.commands == other.commands
            and self.read_commands == other.read_commands
            and self.write_commands == other.write_commands
            and self.bytes_read == other.bytes_read
            and self.bytes_written == other.bytes_written
            and self.first_arrival_ns == other.first_arrival_ns
            and self.last_arrival_ns == other.last_arrival_ns
            and self.families() == other.families()
            and self.outstanding_over_time == other.outstanding_over_time
            and self.latency_over_time == other.latency_over_time
        )

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VscsiStatsCollector commands={self.commands} "
            f"r/w={self.read_commands}/{self.write_commands}>"
        )
