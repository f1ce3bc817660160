"""Binary snapshot codec for collector snapshots.

The store's unit of persistence is one :class:`VscsiStatsCollector`
snapshot (one disk, one epoch).  Two frame formats coexist:

**v1** (``RPHCOL1\\n``) — the original self-describing record::

    +---------+------------+---------------------+--------------------+
    | magic 8 | u32 hdrlen | header JSON (utf-8) | counts payload ... |
    +---------+------------+---------------------+--------------------+

The JSON header carries configuration, scalar counters, per-histogram
statistics and full bin-edge lists, so a v1 frame decodes with no
knowledge of the standard schemes.  It is written only for
*non-canonical* collectors (custom bin schemes, renamed histograms,
out-of-int64 counters) and read back transparently forever.

**v2** (``RPHCOL2\\n``) — the columnar fast path for canonical
collectors (the only kind the live service produces)::

    +---------+--------------+-------------+--------------+----------+
    | magic 8 | fixed header | stats block | counts block | series … |
    +---------+--------------+-------------+--------------+----------+

The header is one ``struct`` (flags, window size, time-slot width,
scalar counters, per-series slot counts); the blocks are little-endian
integer arrays at fixed offsets.  The stats block is
``count/total/min/max`` for the reads/writes histograms in canonical
family order; the counts block is every histogram's bin counts back to
back — 178 counts for the paper's six families (the *base* layout), or
226 when the SSD/FTL families (``write_amp_pct``, ``gc_pause_us``)
carry data and the *extended* layout is written; the two optional time
series follow as one fused array (per series: slot keys, per-slot
stats, per-slot bin counts).

Each block is written at the narrowest width that holds its values,
recorded in the header flags (bit 0/1: first/last arrival present,
bit 2: stats are ``i32``, bit 3/4: counts are ``i16``/``i32``, bit 5:
series are ``i32``; unset width bits mean ``i64``; bit 6: extended
family layout).  A collector whose extended families are empty always
writes the base layout, so frames from mechanical-only hosts stay
byte-identical to pre-extension releases.  A one-second
epoch snapshot is ~770 bytes instead of ~2.2 KB, which is most of the
append-path disk budget at fleet ingest rates, while a merged
lifetime record silently falls back to wider blocks.  A whole record
decodes with one ``np.frombuffer`` per block instead of per-record
JSON parsing, and :func:`merge_collector_payloads` reduces thousands
of frames with a handful of vectorized sums — records sharing one
layout are stacked into a single byte matrix and re-viewed per block,
so the per-record Python cost is one header unpack and one
``frombuffer``.

Bin counts are observation counts, so ``int64`` is exact by
construction; a count that somehow exceeds it falls back to v1 (whose
JSON integers are unbounded) or is rejected loudly rather than
wrapped.  Encoding uses only ``struct``; decode and merge are numpy
views and reductions over the same bytes.

Round-trip identity — ``collector_from_bytes(collector_to_bytes(c)) ==
c`` — is Hypothesis-pinned in ``tests/test_store_codec.py``, as is
v1/v2 decode equivalence.
"""

from __future__ import annotations

import json
import struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from ..core.bins import (
    BinScheme,
    GC_PAUSE_US_BINS,
    INTERARRIVAL_US_BINS,
    IO_LENGTH_BINS,
    LATENCY_US_BINS,
    OUTSTANDING_IO_BINS,
    SEEK_DISTANCE_BINS,
    WRITE_AMP_PCT_BINS,
)
from ..core.collector import (
    EXTENDED_FAMILIES,
    MetricFamily,
    VscsiStatsCollector,
)
from ..core.histogram import Histogram
from ..core.histogram2d import TimeSeriesHistogram

__all__ = [
    "COLLECTOR_MAGIC",
    "COLLECTOR_MAGIC_V2",
    "collector_from_bytes",
    "collector_to_bytes",
    "merge_collector_payloads",
]

COLLECTOR_MAGIC = b"RPHCOL1\n"
COLLECTOR_MAGIC_V2 = b"RPHCOL2\n"
_MAGIC_LEN = 8
_HDRLEN = struct.Struct("<I")

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: The two optional time-resolved histograms, in serialization order,
#: with their canonical schemes.
_SERIES_NAMES = ("outstanding_over_time", "latency_over_time")
_V2_SERIES = (
    ("outstanding_over_time", OUTSTANDING_IO_BINS),
    ("latency_over_time", LATENCY_US_BINS),
)
_V2_SERIES_INFO = tuple(
    (name, scheme, scheme.num_bins) for name, scheme in _V2_SERIES
)

#: Canonical metric families (the fixed order of the v2 stats and
#: counts blocks), mirroring ``VscsiStatsCollector.families()``.  The
#: *base* layout is the paper's six families; the *extended* layout
#: (header flag bit 6) appends the SSD/FTL pair, so base-layout frames
#: — still written whenever both extended families are empty — remain
#: byte-identical to what every earlier release produced and decode in
#: any direction.
_V2_FAMILIES = (
    ("io_length", IO_LENGTH_BINS),
    ("seek_distance", SEEK_DISTANCE_BINS),
    ("seek_distance_windowed", SEEK_DISTANCE_BINS),
    ("interarrival_us", INTERARRIVAL_US_BINS),
    ("outstanding", OUTSTANDING_IO_BINS),
    ("latency_us", LATENCY_US_BINS),
)

#: The extended-only tail, in ``EXTENDED_FAMILIES`` order.
_V2_EXT_ONLY = (
    ("write_amp_pct", WRITE_AMP_PCT_BINS),
    ("gc_pause_us", GC_PAUSE_US_BINS),
)
assert tuple(name for name, _s in _V2_EXT_ONLY) == EXTENDED_FAMILIES

_V2_FAMILIES_EXT = _V2_FAMILIES + _V2_EXT_ONLY

#: v2 fixed header, unpacked right after the magic:
#: flags (bit 0/1: first/last arrival present; bit 2: stats block is
#: int32; bit 3: counts block is int16; bit 4: counts block is int32;
#: bit 5: series block is int32 — unset width bits mean int64; bit 6:
#: the stats/counts blocks use the extended family layout),
#: 3 pad bytes, u32 window_size, then int64 time_slot_ns, commands,
#: read_commands, write_commands, bytes_read, bytes_written,
#: first_arrival_ns, last_arrival_ns, then u32 slot counts for the two
#: optional series.
_V2_HEADER = struct.Struct("<BxxxIqqqqqqqqII")

#: ``struct.pack`` raises one of these for a value outside the field
#: width (or a non-integer) — the signal to retry a wider block or
#: fall back to v1.
_PACK_ERRORS = (struct.error, OverflowError)


class _V2Layout:
    """Derived constants for one fixed family order (base or extended).

    Everything the encoder, decoder and vectorized merge need —
    histogram enumeration, counts-block slices, block word counts and
    the cached ``struct`` packers — is computed once per layout here,
    so the two layouts can never drift from each other's math.
    """

    __slots__ = ("families", "family_info", "hists", "num_hists",
                 "count_slices", "total_bins", "stats_words",
                 "pack_stats_i", "pack_stats_q", "pack_counts_h",
                 "pack_counts_i", "pack_counts_q", "encode_fixed")

    def __init__(self, families: Tuple[Tuple[str, BinScheme], ...]):
        self.families = families
        #: ``(family, scheme, num_bins, reads name, writes name)`` — the
        #: bin widths and expected histogram names are precomputed so
        #: the encode hot loop does no string building.
        self.family_info = tuple(
            (name, scheme, scheme.num_bins, name + "_reads",
             name + "_writes")
            for name, scheme in families
        )
        #: ``(family, scheme, suffix)`` per fixed histogram in block
        #: order: reads then writes within each family.
        self.hists: Tuple[Tuple[str, BinScheme, str], ...] = tuple(
            (name, scheme, suffix)
            for name, scheme in families
            for suffix in ("_reads", "_writes")
        )
        self.num_hists = len(self.hists)
        offset = 0
        slices = []
        for _name, scheme, _suffix in self.hists:
            slices.append((offset, offset + scheme.num_bins))
            offset += scheme.num_bins
        #: Per-histogram (start, stop) slices into the flat counts block.
        self.count_slices: Tuple[Tuple[int, int], ...] = tuple(slices)
        self.total_bins = offset  # 178 base / 226 extended
        self.stats_words = 4 * self.num_hists  # count/total/min/max each
        self.pack_stats_i = struct.Struct(f"<{self.stats_words}i")
        self.pack_stats_q = struct.Struct(f"<{self.stats_words}q")
        self.pack_counts_h = struct.Struct(f"<{self.total_bins}h")
        self.pack_counts_i = struct.Struct(f"<{self.total_bins}i")
        self.pack_counts_q = struct.Struct(f"<{self.total_bins}q")
        self.encode_fixed = None  # filled in by _make_fixed_encoder
#: Series packers, cached per word count (the slot population repeats
#: epoch after epoch, so the cache stays tiny).
_SERIES_PACKS_I: Dict[int, struct.Struct] = {}
_SERIES_PACKS_Q: Dict[int, struct.Struct] = {}

#: ``(series, slot) -> "series[slot]"`` — the expected per-slot
#: histogram names, cached because an epoch snapshot re-validates the
#: same few slot keys every second and f-string building is the single
#: most expensive check in the series encode path.  Bounded so a
#: lifetime merge with an unbounded slot range cannot grow it without
#: limit; past the bound, misses just build the string.
_SLOT_NAMES: Dict[Tuple[str, int], str] = {}
_SLOT_NAMES_MAX = 4096


def _slot_name(series_name: str, slot: int) -> str:
    name = _SLOT_NAMES.get((series_name, slot))
    if name is None:
        name = f"{series_name}[{slot}]"
        if len(_SLOT_NAMES) < _SLOT_NAMES_MAX:
            _SLOT_NAMES[(series_name, slot)] = name
    return name

_WIDTH_DTYPES = {2: "<i2", 4: "<i4", 8: "<i8"}


def _v2_widths(flags: int) -> Tuple[int, int, int]:
    """``(stats, counts, series)`` element widths from header flags."""
    return (4 if flags & 4 else 8,
            2 if flags & 8 else (4 if flags & 16 else 8),
            4 if flags & 32 else 8)

#: Guard for the vectorized merge: if any summed magnitude could reach
#: this bound the merge falls back to exact Python-int arithmetic.
_SUM_GUARD = 1 << 62

#: Interning table: decoded schemes matching a standard scheme by name,
#: edges and unit are replaced with the module constant, so re-encoding
#: a decoded v1 record (compaction) hits the v2 fast path.
_STANDARD_SCHEMES = {
    (s.name, s.edges, s.unit): s
    for s in (IO_LENGTH_BINS, SEEK_DISTANCE_BINS, INTERARRIVAL_US_BINS,
              OUTSTANDING_IO_BINS, LATENCY_US_BINS, WRITE_AMP_PCT_BINS,
              GC_PAUSE_US_BINS)
}


def _counts_to_bytes(counts: List[int]) -> bytes:
    """Bin counts as raw little-endian int64 — the v1 payload unit."""
    for value in counts:
        if not (_INT64_MIN <= value <= _INT64_MAX):
            raise ValueError(
                f"bin count {value} does not fit int64; snapshot is corrupt"
            )
    return _np.asarray(counts, dtype="<i8").tobytes()


def _words_from_buffer(data, offset: int, n: int, width: int):
    """Read ``n`` little-endian signed ``width``-byte ints at ``offset``.

    A zero-copy ``frombuffer`` view — the decode and merge hot paths
    consume it directly; callers that materialize a :class:`Histogram`
    convert to Python ints (``.tolist()``) at that boundary so
    downstream arithmetic stays exact and JSON-safe.
    """
    end = offset + width * n
    if end > len(data):
        raise ValueError("truncated snapshot record: counts past the end")
    return _np.frombuffer(data, dtype=_WIDTH_DTYPES[width], count=n,
                          offset=offset)


def _counts_from_buffer(data, offset: int, n: int):
    """Read ``n`` int64 counts at ``offset`` (the v1 payload width)."""
    return _words_from_buffer(data, offset, n, 8)


class _PayloadWriter:
    """Accumulates counts buffers, handing out payload offsets."""

    def __init__(self):
        self.chunks: List[bytes] = []
        self.offset = 0

    def add(self, counts: List[int]) -> int:
        chunk = _counts_to_bytes(counts)
        offset = self.offset
        self.chunks.append(chunk)
        self.offset += len(chunk)
        return offset


def _histogram_header(hist: Histogram, payload: _PayloadWriter) -> Dict:
    return {
        "name": hist.name,
        "count": hist.count,
        "total": hist.total,
        "min": hist.min,
        "max": hist.max,
        "bins": len(hist.counts),
        "off": payload.add(hist.counts),
    }


def _histogram_from_header(desc: Dict, scheme: BinScheme, data,
                           payload_base: int) -> Histogram:
    hist = Histogram(scheme, name=desc.get("name"))
    if desc["bins"] != scheme.num_bins:
        raise ValueError(
            f"histogram has {desc['bins']} bins but scheme "
            f"{scheme.name!r} defines {scheme.num_bins}"
        )
    hist.counts = _counts_from_buffer(
        data, payload_base + desc["off"], desc["bins"]).tolist()
    hist.count = desc["count"]
    hist.total = desc["total"]
    hist.min = desc["min"]
    hist.max = desc["max"]
    return hist


def _scheme_header(scheme: BinScheme) -> Dict:
    return {"scheme": scheme.name, "edges": list(scheme.edges),
            "unit": scheme.unit}


def _scheme_from_header(desc: Dict) -> BinScheme:
    scheme = BinScheme(desc["scheme"], desc["edges"], desc.get("unit", ""))
    return _STANDARD_SCHEMES.get((scheme.name, scheme.edges, scheme.unit),
                                 scheme)


def _frame(magic: bytes, header: Dict, payload: _PayloadWriter) -> bytes:
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    return b"".join(
        [magic, _HDRLEN.pack(len(header_bytes)), header_bytes]
        + payload.chunks
    )


def _unframe(data, magic: bytes, kind: str) -> Tuple[Dict, int]:
    """Validate the frame and return ``(header, payload_base)``."""
    if len(data) < _MAGIC_LEN + _HDRLEN.size:
        raise ValueError(f"not a {kind} record: too short")
    if bytes(data[:_MAGIC_LEN]) != magic:
        raise ValueError(f"not a {kind} record: bad magic")
    (header_len,) = _HDRLEN.unpack_from(data, _MAGIC_LEN)
    payload_base = _MAGIC_LEN + _HDRLEN.size + header_len
    if payload_base > len(data):
        raise ValueError(f"truncated {kind} record: header past the end")
    header = json.loads(
        bytes(data[_MAGIC_LEN + _HDRLEN.size:payload_base]).decode("utf-8")
    )
    return header, payload_base


# ----------------------------------------------------------------------
# Collector records — v2 columnar fast path
# ----------------------------------------------------------------------
def _is_standard_scheme(scheme: BinScheme, standard: BinScheme) -> bool:
    """Strict canonicality check (``__eq__`` ignores the unit, the
    serialized form does not)."""
    return scheme is standard or (scheme == standard
                                  and scheme.unit == standard.unit)


def _make_fixed_encoder(layout: _V2Layout):
    """Build a layout's ``encode_fixed`` — the unrolled stats/counts
    encoder.

    The fixed histograms encode the same way every time, so the
    validation and packing loop is generated once from the layout's
    ``family_info`` (the way :mod:`dataclasses` generates ``__init__``)
    instead of interpreted per record: no per-family tuple unpacking,
    no intermediate ``stats``/``counts`` lists — the stats words are
    packed straight from locals and the bin counts straight from the
    histogram lists.  This path runs once per append at fleet ingest
    rates; the generated body is exactly the loop it replaces, with
    the layout still single-sourced in :class:`_V2Layout`.

    Returns ``(flags, stats_bytes, counts_bytes)`` with the width bits
    (2/3/4) already set, or ``None`` for a non-canonical collector.
    A populated histogram with ``min``/``max`` of ``None`` (corrupt
    state) fails ``struct.pack`` and lands in v1, which round-trips it
    verbatim.
    """
    src = ["def _encode_fixed(collector):"]
    stats_args: List[str] = []
    counts_args: List[str] = []
    namespace = {"_is_standard_scheme": _is_standard_scheme,
                 "_PACK_ERRORS": _PACK_ERRORS,
                 "_PACK_STATS_I": layout.pack_stats_i,
                 "_PACK_STATS_Q": layout.pack_stats_q,
                 "_PACK_COUNTS_H": layout.pack_counts_h,
                 "_PACK_COUNTS_I": layout.pack_counts_i,
                 "_PACK_COUNTS_Q": layout.pack_counts_q}
    for index, (name, scheme, nbins, rname, wname) in \
            enumerate(layout.family_info):
        fam, sch = f"f{index}", f"_scheme{index}"
        namespace[sch] = scheme
        src += [
            f"    {fam} = collector.{name}",
            f"    if {fam}.name != {name!r} or ({fam}.scheme is not {sch}"
            f" and not _is_standard_scheme({fam}.scheme, {sch})):",
            "        return None",
        ]
        for accessor, hname in ((f"{fam}.reads", rname),
                                (f"{fam}.writes", wname)):
            hist = f"h{len(counts_args)}"
            src += [
                f"    {hist} = {accessor}",
                f"    {hist}c = {hist}.counts",
                f"    if {hist}.name != {hname!r} or len({hist}c) != {nbins}:",
                "        return None",
                f"    {hist}n = {hist}.count",
                f"    if {hist}n:",
                f"        {hist}lo = {hist}.min; {hist}hi = {hist}.max",
                "    else:",
                f"        if {hist}.min is not None or {hist}.max"
                " is not None:",
                "            return None",
                f"        {hist}lo = 0; {hist}hi = 0",
            ]
            stats_args += [f"{hist}n", f"{hist}.total",
                           f"{hist}lo", f"{hist}hi"]
            counts_args.append(f"*{hist}c")
    stats_csv = ", ".join(stats_args)
    counts_csv = ", ".join(counts_args)
    src += [
        "    try:",
        "        try:",
        f"            stats_bytes = _PACK_STATS_I.pack({stats_csv})",
        "            flags = 4",
        "        except _PACK_ERRORS:",
        f"            stats_bytes = _PACK_STATS_Q.pack({stats_csv})",
        "            flags = 0",
        "        try:",
        f"            counts_bytes = _PACK_COUNTS_H.pack({counts_csv})",
        "            flags |= 8",
        "        except _PACK_ERRORS:",
        "            try:",
        f"                counts_bytes = _PACK_COUNTS_I.pack({counts_csv})",
        "                flags |= 16",
        "            except _PACK_ERRORS:",
        f"                counts_bytes = _PACK_COUNTS_Q.pack({counts_csv})",
        "    except _PACK_ERRORS:",
        "        return None  # outside int64 (or None): v1 handles it",
        "    return flags, stats_bytes, counts_bytes",
    ]
    exec("\n".join(src), namespace)  # noqa: S102 - static, layout-derived
    return namespace["_encode_fixed"]


_LAYOUT_BASE = _V2Layout(_V2_FAMILIES)
_LAYOUT_EXT = _V2Layout(_V2_FAMILIES_EXT)
_LAYOUT_BASE.encode_fixed = _make_fixed_encoder(_LAYOUT_BASE)
_LAYOUT_EXT.encode_fixed = _make_fixed_encoder(_LAYOUT_EXT)


def _extended_needed(collector: VscsiStatsCollector) -> Optional[bool]:
    """Whether the collector's extended families force the extended
    layout.

    ``False`` — every extended family is a *canonical empty* (the base
    layout preserves it exactly, keeping the frame byte-identical to
    pre-extension releases).  ``True`` — at least one carries data, so
    the extended layout must be written (canonicality is then checked
    by the extended encoder itself).  ``None`` — an extended family is
    empty but non-canonical (renamed, foreign scheme, corrupt stats);
    only the self-describing v1 frame can round-trip that.
    """
    needed = False
    for name, scheme in _V2_EXT_ONLY:
        family = getattr(collector, name)
        reads, writes = family.reads, family.writes
        if reads.count or writes.count or reads.total or writes.total \
                or any(reads.counts) or any(writes.counts):
            needed = True
            continue
        if family.name != name \
                or not _is_standard_scheme(family.scheme, scheme) \
                or reads.name != name + "_reads" \
                or writes.name != name + "_writes" \
                or reads.min is not None or reads.max is not None \
                or writes.min is not None or writes.max is not None \
                or len(reads.counts) != scheme.num_bins \
                or len(writes.counts) != scheme.num_bins:
            return None
    return needed


def _collector_to_bytes_v2(collector: VscsiStatsCollector) -> Optional[bytes]:
    """Encode a *canonical* collector as a v2 columnar frame.

    Returns ``None`` when the collector deviates from what the live
    service produces — custom schemes, renamed histograms, inconsistent
    empty-histogram stats, counters outside int64 — and the caller
    falls back to the self-describing v1 frame.  Each block packs at
    the narrowest width that holds its values (``struct.pack`` failing
    is the width probe, so non-integer garbage also lands in v1).
    This runs once per append on the ingest path; the reads/writes
    block is handled by the layout's generated ``encode_fixed``.
    Collectors whose extended families are all empty write the base
    layout — byte-identical to pre-extension frames — and anything
    with FTL data sets flag bit 6 and writes the extended layout.
    """
    extended = _extended_needed(collector)
    if extended is None:
        return None
    layout = _LAYOUT_EXT if extended else _LAYOUT_BASE
    fixed = layout.encode_fixed(collector)
    if fixed is None:
        return None
    flags, stats_bytes, counts_bytes = fixed
    if extended:
        flags |= 64

    time_slot_ns = collector.time_slot_ns
    num_slots = [0, 0]
    series_body: List[int] = []
    if time_slot_ns:
        for index, (series_name, scheme, nbins) in enumerate(_V2_SERIES_INFO):
            ts = getattr(collector, series_name)
            if ts is None or ts.name != series_name \
                    or ts.interval_ns != time_slot_ns \
                    or (ts.scheme is not scheme
                        and not _is_standard_scheme(ts.scheme, scheme)):
                return None
            slots = ts._slots
            if len(slots) == 1:
                # One populated slot — the overwhelmingly common shape
                # for an epoch snapshot — appends straight into the
                # fused body with no intermediate lists.
                (slot, hist), = slots.items()
                if slot < 0 or ts._max_slot != slot or hist.count <= 0 \
                        or hist.min is None or hist.max is None \
                        or len(hist.counts) != nbins \
                        or hist.name != _slot_name(series_name, slot):
                    return None
                num_slots[index] = 1
                series_body.append(slot)
                series_body += (hist.count, hist.total, hist.min, hist.max)
                series_body += hist.counts
                continue
            items = sorted(slots.items())
            if items and ts._max_slot != items[-1][0]:
                return None
            keys: List[int] = []
            slot_stats: List[int] = []
            slot_counts: List[int] = []
            for slot, hist in items:
                if slot < 0 or hist.count <= 0 \
                        or hist.min is None or hist.max is None \
                        or len(hist.counts) != nbins \
                        or hist.name != _slot_name(series_name, slot):
                    return None
                keys.append(slot)
                slot_stats += (hist.count, hist.total, hist.min, hist.max)
                slot_counts += hist.counts
            num_slots[index] = len(keys)
            series_body += keys
            series_body += slot_stats
            series_body += slot_counts
    else:
        if collector.outstanding_over_time is not None \
                or collector.latency_over_time is not None:
            return None

    first = collector.first_arrival_ns
    last = collector.last_arrival_ns
    if first is not None:
        flags |= 1
    if last is not None:
        flags |= 2
    try:
        if series_body:
            n = len(series_body)
            pack_i = _SERIES_PACKS_I.get(n)
            if pack_i is None:
                pack_i = _SERIES_PACKS_I[n] = struct.Struct(f"<{n}i")
                _SERIES_PACKS_Q[n] = struct.Struct(f"<{n}q")
            try:
                series_bytes = pack_i.pack(*series_body)
                flags |= 32
            except _PACK_ERRORS:
                series_bytes = _SERIES_PACKS_Q[n].pack(*series_body)
        else:
            series_bytes = b""
        header = _V2_HEADER.pack(
            flags, collector.window_size, time_slot_ns,
            collector.commands, collector.read_commands,
            collector.write_commands, collector.bytes_read,
            collector.bytes_written, first or 0, last or 0,
            num_slots[0], num_slots[1],
        )
    except _PACK_ERRORS:
        return None  # a counter outside int64: v1's JSON handles it
    return b"".join((COLLECTOR_MAGIC_V2, header, stats_bytes,
                     counts_bytes, series_bytes))


def _collector_from_bytes_v2(data) -> VscsiStatsCollector:
    """Decode a v2 columnar frame (inverse of the v2 encoder)."""
    base = _MAGIC_LEN + _V2_HEADER.size
    if len(data) < base:
        raise ValueError("truncated collector record: header past the end")
    (flags, window_size, time_slot_ns, commands, read_commands,
     write_commands, bytes_read, bytes_written, first, last,
     slots_a, slots_b) = _V2_HEADER.unpack_from(data, _MAGIC_LEN)
    if time_slot_ns == 0 and (slots_a or slots_b):
        raise ValueError(
            "corrupt collector record: time series without a slot width"
        )
    layout = _LAYOUT_EXT if flags & 64 else _LAYOUT_BASE
    stats_width, counts_width, series_width = _v2_widths(flags)
    stats = _words_from_buffer(data, base, layout.stats_words, stats_width)
    counts_base = base + stats_width * layout.stats_words
    counts = _words_from_buffer(data, counts_base, layout.total_bins,
                                counts_width)

    collector = VscsiStatsCollector(window_size=window_size,
                                    time_slot_ns=time_slot_ns)
    for index, (name, scheme, suffix) in enumerate(layout.hists):
        family = getattr(collector, name)
        hist = family.reads if suffix == "_reads" else family.writes
        lo, hi = layout.count_slices[index]
        hist.counts = counts[lo:hi].tolist()
        stat_base = 4 * index
        count = int(stats[stat_base])
        hist.count = count
        hist.total = int(stats[stat_base + 1])
        hist.min = int(stats[stat_base + 2]) if count else None
        hist.max = int(stats[stat_base + 3]) if count else None

    offset = counts_base + counts_width * layout.total_bins
    width = series_width
    for num_slots, (series_name, scheme) in zip((slots_a, slots_b),
                                                _V2_SERIES):
        if not time_slot_ns:
            continue
        ts = getattr(collector, series_name)
        if num_slots:
            keys = _words_from_buffer(data, offset, num_slots, width)
            stats_off = offset + width * num_slots
            slot_stats = _words_from_buffer(data, stats_off, 4 * num_slots,
                                            width)
            counts_off = stats_off + width * 4 * num_slots
            slot_counts = _words_from_buffer(
                data, counts_off, num_slots * scheme.num_bins, width
            )
            offset = counts_off + width * num_slots * scheme.num_bins
            bins = scheme.num_bins
            for j in range(num_slots):
                slot = int(keys[j])
                hist = Histogram(scheme, name=f"{series_name}[{slot}]")
                hist.counts = slot_counts[j * bins:(j + 1) * bins].tolist()
                hist.count = int(slot_stats[4 * j])
                hist.total = int(slot_stats[4 * j + 1])
                hist.min = int(slot_stats[4 * j + 2])
                hist.max = int(slot_stats[4 * j + 3])
                ts._slots[slot] = hist
                if slot > ts._max_slot:
                    ts._max_slot = slot

    collector.commands = commands
    collector.read_commands = read_commands
    collector.write_commands = write_commands
    collector.bytes_read = bytes_read
    collector.bytes_written = bytes_written
    collector.first_arrival_ns = first if flags & 1 else None
    collector.last_arrival_ns = last if flags & 2 else None
    return collector


# ----------------------------------------------------------------------
# Collector records — public API
# ----------------------------------------------------------------------
def collector_to_bytes(collector: VscsiStatsCollector) -> bytes:
    """Serialize one collector snapshot as a framed binary record.

    Canonical collectors (standard schemes and names — everything the
    live service produces) encode as columnar v2 frames; anything else
    falls back to the self-describing v1 frame.  Both decode through
    :func:`collector_from_bytes`.
    """
    frame = _collector_to_bytes_v2(collector)
    if frame is not None:
        return frame
    payload = _PayloadWriter()
    families: Dict[str, Dict] = {}
    for name, family in collector.families().items():
        desc = _scheme_header(family.scheme)
        desc["reads"] = _histogram_header(family.reads, payload)
        desc["writes"] = _histogram_header(family.writes, payload)
        families[name] = desc
    series: Dict[str, Dict] = {}
    for series_name in _SERIES_NAMES:
        ts = getattr(collector, series_name)
        if ts is None:
            continue
        desc = _scheme_header(ts.scheme)
        desc["name"] = ts.name
        desc["interval_ns"] = ts.interval_ns
        desc["slots"] = {
            str(slot): _histogram_header(hist, payload)
            for slot, hist in sorted(ts._slots.items())
        }
        series[series_name] = desc
    header = {
        "format": "repro-collector-v1",
        "window_size": collector.window_size,
        "time_slot_ns": collector.time_slot_ns,
        "commands": collector.commands,
        "read_commands": collector.read_commands,
        "write_commands": collector.write_commands,
        "bytes_read": collector.bytes_read,
        "bytes_written": collector.bytes_written,
        "first_arrival_ns": collector.first_arrival_ns,
        "last_arrival_ns": collector.last_arrival_ns,
        "families": families,
        "series": series,
    }
    return _frame(COLLECTOR_MAGIC, header, payload)


def collector_from_bytes(data) -> VscsiStatsCollector:
    """Inverse of :func:`collector_to_bytes` for either frame version.

    ``data`` may be any bytes-like object — a ``bytes``, a
    ``memoryview`` over a segment ``mmap`` — and is never copied except
    for the small header.  Like
    :meth:`~repro.core.collector.VscsiStatsCollector.merge`, the
    result is an aggregate snapshot with no stream coupling state.
    """
    if len(data) >= _MAGIC_LEN \
            and bytes(data[:_MAGIC_LEN]) == COLLECTOR_MAGIC_V2:
        return _collector_from_bytes_v2(data)
    header, payload_base = _unframe(data, COLLECTOR_MAGIC, "collector")
    if header.get("format") != "repro-collector-v1":
        raise ValueError(
            f"unsupported collector record format {header.get('format')!r}"
        )
    collector = VscsiStatsCollector(
        window_size=header["window_size"],
        time_slot_ns=header["time_slot_ns"],
    )
    for name in collector.families():
        desc = header["families"].get(name)
        if desc is None:
            if name in EXTENDED_FAMILIES:
                # v1 frame from before the family existed: it stays
                # empty, exactly what the writer observed.
                continue
            raise ValueError(f"snapshot record is missing family {name!r}")
        scheme = _scheme_from_header(desc)
        family = MetricFamily(scheme, name)
        family.reads = _histogram_from_header(desc["reads"], scheme, data,
                                              payload_base)
        family.writes = _histogram_from_header(desc["writes"], scheme, data,
                                               payload_base)
        setattr(collector, name, family)
    for series_name in _SERIES_NAMES:
        desc = header["series"].get(series_name)
        if desc is None:
            setattr(collector, series_name, None)
            continue
        scheme = _scheme_from_header(desc)
        ts = TimeSeriesHistogram(scheme, desc["interval_ns"],
                                 name=desc.get("name"))
        for key, hist_desc in desc["slots"].items():
            slot = int(key)
            ts._slots[slot] = _histogram_from_header(hist_desc, scheme, data,
                                                     payload_base)
            if slot > ts._max_slot:
                ts._max_slot = slot
        setattr(collector, series_name, ts)
    collector.commands = header["commands"]
    collector.read_commands = header["read_commands"]
    collector.write_commands = header["write_commands"]
    collector.bytes_read = header["bytes_read"]
    collector.bytes_written = header["bytes_written"]
    collector.first_arrival_ns = header["first_arrival_ns"]
    collector.last_arrival_ns = header["last_arrival_ns"]
    return collector


# ----------------------------------------------------------------------
# Vectorized payload merge — the range-query hot path
# ----------------------------------------------------------------------
def _merge_decoded(payloads) -> VscsiStatsCollector:
    """Exact fallback: decode every frame and fold with ``merge``."""
    merged = collector_from_bytes(payloads[0])
    for payload in payloads[1:]:
        merged = merged.merge(collector_from_bytes(payload))
    return merged


def _split_series(parts: List, matrix, num_slots: int, bins: int) -> None:
    """Split a ``(records, words-per-record)`` series matrix into
    ``(keys, per-slot stats, per-slot counts)`` arrays and stash them
    for the cross-record reduce."""
    parts.append((matrix[:, :num_slots].ravel(),
                  matrix[:, num_slots:5 * num_slots].reshape(-1, 4),
                  matrix[:, 5 * num_slots:].reshape(-1, bins)))


def _merge_v2_payloads(views: Sequence) -> Optional[VscsiStatsCollector]:
    """Reduce v2 frames with vectorized column sums.

    Records are grouped by byte layout (block widths and slot counts
    from the header); each group is stacked into one ``(records,
    body_len)`` byte matrix with a single ``frombuffer`` per record and
    re-viewed per block, so the per-record Python cost stays constant
    regardless of block count.  Tiny groups skip the stacking and read
    their blocks directly.  Returns ``None`` when a summed magnitude
    could overflow int64 (the caller then re-merges exactly via decoded
    collectors — observation counts never get near the 2**62 guard in
    practice).
    """
    if len(views) == 1:
        return _collector_from_bytes_v2(views[0])
    count = len(views)
    # Matrices are allocated at the extended width; base-layout records
    # fill the legacy prefix and leave zero tails (a zero column sums to
    # the empty histogram those records actually carry).
    stats_all = _np.zeros((count, _LAYOUT_EXT.stats_words), dtype=_np.int64)
    counts_all = _np.zeros((count, _LAYOUT_EXT.total_bins), dtype=_np.int64)
    commands = read_commands = write_commands = 0
    bytes_read = bytes_written = 0
    first_arrival: Optional[int] = None
    last_arrival: Optional[int] = None
    window_size: Optional[int] = None
    time_slot_ns = 0
    #: Per series: (keys, slot stats, slot counts) array triples from
    #: every layout group, concatenated for one reduce at the end.
    series_parts: Tuple[List, List] = ([], [])
    series_bins = tuple(s.num_bins for _n, s in _V2_SERIES)

    unpack_header = _V2_HEADER.unpack_from
    frombuffer = _np.frombuffer
    base = _MAGIC_LEN + _V2_HEADER.size
    groups: Dict[Tuple[int, int, int], List] = {}
    for row, view in enumerate(views):
        if len(view) < base:
            raise ValueError(
                "truncated collector record: header past the end"
            )
        (flags, window, time_slot, cmds, reads, writes, b_read, b_written,
         first, last, slots_a, slots_b) = unpack_header(view, _MAGIC_LEN)
        if window_size is None:
            window_size = window
            time_slot_ns = time_slot
        elif window != window_size:
            raise ValueError(
                f"cannot merge window sizes {window_size} and {window}"
            )
        elif time_slot != time_slot_ns:
            raise ValueError(
                f"cannot merge time slots {time_slot_ns} and {time_slot}"
            )
        commands += cmds
        read_commands += reads
        write_commands += writes
        bytes_read += b_read
        bytes_written += b_written
        if flags & 1 and (first_arrival is None or first < first_arrival):
            first_arrival = first
        if flags & 2 and (last_arrival is None or last > last_arrival):
            last_arrival = last
        key = (flags & 0x7C, slots_a, slots_b)
        members = groups.get(key)
        if members is None:
            members = groups[key] = []
        members.append((row, view))

    for (width_bits, slots_a, slots_b), members in groups.items():
        layout = _LAYOUT_EXT if width_bits & 64 else _LAYOUT_BASE
        stats_width, counts_width, series_width = _v2_widths(width_bits)
        stats_len = layout.stats_words * stats_width
        series_off = stats_len + layout.total_bins * counts_width
        words_a = slots_a * (5 + series_bins[0])
        words_b = slots_b * (5 + series_bins[1])
        body_len = series_off + (words_a + words_b) * series_width
        stats_dt = _WIDTH_DTYPES[stats_width]
        counts_dt = _WIDTH_DTYPES[counts_width]
        series_dt = _WIDTH_DTYPES[series_width]
        if len(members) >= 4:
            rows = [m[0] for m in members]
            try:
                stacked = _np.stack([
                    frombuffer(v, dtype=_np.uint8, count=body_len,
                               offset=base)
                    for _r, v in members
                ])
            except ValueError:
                raise ValueError(
                    "truncated collector record: counts past the end"
                ) from None
            stats_all[rows, :layout.stats_words] = _np.ascontiguousarray(
                stacked[:, :stats_len]).view(stats_dt)
            counts_all[rows, :layout.total_bins] = _np.ascontiguousarray(
                stacked[:, stats_len:series_off]).view(counts_dt)
            if words_a:
                split = series_off + words_a * series_width
                _split_series(series_parts[0], _np.ascontiguousarray(
                    stacked[:, series_off:split]).view(series_dt),
                    slots_a, series_bins[0])
                series_off = split
            if words_b:
                _split_series(series_parts[1], _np.ascontiguousarray(
                    stacked[:, series_off:]).view(series_dt),
                    slots_b, series_bins[1])
        else:
            for row, view in members:
                if len(view) < base + body_len:
                    raise ValueError(
                        "truncated collector record: counts past the end"
                    )
                stats_all[row, :layout.stats_words] = frombuffer(
                    view, dtype=stats_dt, count=layout.stats_words,
                    offset=base)
                counts_all[row, :layout.total_bins] = frombuffer(
                    view, dtype=counts_dt, count=layout.total_bins,
                    offset=base + stats_len)
                if words_a or words_b:
                    chunk = frombuffer(
                        view, dtype=series_dt, count=words_a + words_b,
                        offset=base + series_off)
                    if words_a:
                        _split_series(series_parts[0],
                                      chunk[:words_a].reshape(1, -1),
                                      slots_a, series_bins[0])
                    if words_b:
                        _split_series(series_parts[1],
                                      chunk[words_a:].reshape(1, -1),
                                      slots_b, series_bins[1])

    # Overflow guard: every column sum is bounded by rows * max |value|.
    guard = _SUM_GUARD // count
    if int(stats_all.max()) >= guard or int(stats_all.min()) <= -guard:
        return None
    if int(counts_all.max()) >= guard:
        return None
    if int(counts_all.min()) < 0:
        return None  # not canonical after all; take the exact path

    stat_sums = stats_all.sum(axis=0)
    count_sums = counts_all.sum(axis=0)

    merged = VscsiStatsCollector(window_size=window_size,
                                 time_slot_ns=time_slot_ns)
    for index, (name, scheme, suffix) in enumerate(_LAYOUT_EXT.hists):
        family = getattr(merged, name)
        hist = family.reads if suffix == "_reads" else family.writes
        lo, hi = _LAYOUT_EXT.count_slices[index]
        hist.counts = count_sums[lo:hi].tolist()
        stat_base = 4 * index
        hist.count = int(stat_sums[stat_base])
        hist.total = int(stat_sums[stat_base + 1])
        populated = stats_all[:, stat_base] > 0
        if populated.any():
            hist.min = int(stats_all[populated, stat_base + 2].min())
            hist.max = int(stats_all[populated, stat_base + 3].max())

    for index, (series_name, scheme) in enumerate(_V2_SERIES):
        parts = series_parts[index]
        if not parts:
            continue
        bins = series_bins[index]
        keys = _np.concatenate([p[0] for p in parts])
        slot_stats = _np.concatenate([p[1] for p in parts])
        slot_counts = _np.concatenate([p[2] for p in parts])
        rows = len(keys)
        row_guard = _SUM_GUARD // max(rows, 1)
        if int(slot_counts.max()) >= row_guard \
                or int(slot_stats.max()) >= row_guard \
                or int(slot_stats.min()) <= -row_guard \
                or int(slot_counts.min()) < 0:
            return None
        unique, inverse = _np.unique(keys, return_inverse=True)
        n = len(unique)
        counts_out = _np.zeros((n, bins), dtype=_np.int64)
        _np.add.at(counts_out, inverse, slot_counts)
        count_out = _np.zeros(n, dtype=_np.int64)
        _np.add.at(count_out, inverse, slot_stats[:, 0])
        total_out = _np.zeros(n, dtype=_np.int64)
        _np.add.at(total_out, inverse, slot_stats[:, 1])
        min_out = _np.full(n, _INT64_MAX, dtype=_np.int64)
        _np.minimum.at(min_out, inverse, slot_stats[:, 2])
        max_out = _np.full(n, _INT64_MIN, dtype=_np.int64)
        _np.maximum.at(max_out, inverse, slot_stats[:, 3])
        ts = getattr(merged, series_name)
        for j, slot in enumerate(unique.tolist()):
            hist = Histogram(scheme, name=f"{series_name}[{slot}]")
            hist.counts = counts_out[j].tolist()
            hist.count = int(count_out[j])
            hist.total = int(total_out[j])
            hist.min = int(min_out[j])
            hist.max = int(max_out[j])
            ts._slots[slot] = hist
        ts._max_slot = int(unique[-1])

    merged.commands = commands
    merged.read_commands = read_commands
    merged.write_commands = write_commands
    merged.bytes_read = bytes_read
    merged.bytes_written = bytes_written
    merged.first_arrival_ns = first_arrival
    merged.last_arrival_ns = last_arrival
    return merged


def merge_collector_payloads(payloads) -> VscsiStatsCollector:
    """Exact merge of framed collector records, vectorized.

    Equivalent to decoding every record and folding with
    :meth:`VscsiStatsCollector.merge` — bit for bit, the property the
    range-query engine's exactness proof relies on — but v2 frames are
    reduced with a single column sum per block instead of per-record
    Python object construction.  v1 frames mixed into ``payloads`` are
    decoded and merged exactly (merging is commutative and associative,
    so the split cannot change the result).
    """
    views = [payload if isinstance(payload, memoryview)
             else memoryview(payload) for payload in payloads]
    if not views:
        raise ValueError("cannot merge an empty set of collector records")
    v2_views = []
    v1_views = []
    for view in views:
        if len(view) >= _MAGIC_LEN \
                and bytes(view[:_MAGIC_LEN]) == COLLECTOR_MAGIC_V2:
            v2_views.append(view)
        else:
            v1_views.append(view)
    merged: Optional[VscsiStatsCollector] = None
    if v2_views:
        merged = _merge_v2_payloads(v2_views)
        if merged is None:  # overflow guard tripped: exact fallback
            merged = _merge_decoded(v2_views)
    for view in v1_views:
        collector = collector_from_bytes(view)
        merged = collector if merged is None else merged.merge(collector)
    return merged
