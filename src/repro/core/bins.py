"""Bin-edge schemes for the online histograms.

The paper (§4) deliberately chooses **irregular** bin edges so that
"special" I/O sizes keep their own bin::

    2048, 4095, 4096, 8191, 8192, ...

With upper-edge semantics — a value ``v`` falls in the first bin whose
edge is ``>= v`` — the edge pair ``(4095, 4096)`` gives 4096-byte
requests a dedicated single-value bin while everything strictly inside
``(2048, 4095]`` shares the preceding bin.  This is exactly how the
figure axes in the paper read, and all schemes below are transcribed
from those axes.

A :class:`BinScheme` is an immutable, strictly increasing tuple of
integer upper edges plus an implicit overflow bin (``> last_edge``) and
an implicit underflow-inclusive first bin (``<= first_edge``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Optional, Tuple

import numpy as _np

__all__ = [
    "BinScheme",
    "IO_LENGTH_BINS",
    "SEEK_DISTANCE_BINS",
    "LATENCY_US_BINS",
    "INTERARRIVAL_US_BINS",
    "OUTSTANDING_IO_BINS",
    "WRITE_AMP_PCT_BINS",
    "GC_PAUSE_US_BINS",
    "scheme_for_metric",
    "LUT_MAX_SPAN",
]

#: Maximum ``edges[-1] - edges[0]`` span for which a direct-index
#: lookup table is built.  Small dense domains (outstanding I/Os span
#: 63 values) get an O(1) table lookup on the hot path; wide schemes
#: (seek distance spans a million sectors) keep the O(log m) bisect.
LUT_MAX_SPAN = 4096


class BinScheme:
    """Immutable histogram bin layout: upper edges + an overflow bin.

    Bin ``i`` (for ``i < len(edges)``) holds values in
    ``(edges[i-1], edges[i]]`` (the first bin holds everything
    ``<= edges[0]``); the final bin holds values ``> edges[-1]``.
    """

    __slots__ = ("name", "edges", "unit", "_labels", "_lut", "_edges_array",
                 "_bounds")

    def __init__(self, name: str, edges: Iterable[int], unit: str = ""):
        edge_tuple: Tuple[int, ...] = tuple(int(e) for e in edges)
        if len(edge_tuple) < 1:
            raise ValueError("a BinScheme needs at least one edge")
        for lo, hi in zip(edge_tuple, edge_tuple[1:]):
            if lo >= hi:
                raise ValueError(
                    f"bin edges must be strictly increasing, got {lo} >= {hi}"
                )
        self.name = name
        self.edges = edge_tuple
        self.unit = unit
        # Lazily built, immutable caches (the scheme itself never changes).
        self._labels: Optional[List[str]] = None
        self._lut: Optional[List[int]] = None
        self._edges_array = None  # numpy mirror of ``edges``, built on demand
        self._bounds: Optional[List[Tuple[float, float]]] = None

    # ------------------------------------------------------------------
    @property
    def num_bins(self) -> int:
        """Total number of bins, including the overflow bin."""
        return len(self.edges) + 1

    def index_for(self, value: float) -> int:
        """Index of the bin holding ``value`` (O(log m))."""
        return bisect_left(self.edges, value)

    def index_lut(self) -> Optional[List[int]]:
        """Direct-index bin lookup table for small dense domains.

        For a scheme whose total edge span is at most :data:`LUT_MAX_SPAN`,
        returns a list ``lut`` such that for any integer value ``v`` with
        ``edges[0] <= v <= edges[-1]``, ``lut[v - edges[0]]`` equals
        :meth:`index_for`\\ ``(v)``.  Values below the span map to bin 0
        and values above it to the overflow bin, so callers clamp with two
        comparisons instead of a bisect.  Returns ``None`` for schemes too
        wide to tabulate; the table is built once and cached.
        """
        lut = self._lut
        if lut is None:
            edges = self.edges
            span = edges[-1] - edges[0]
            if span > LUT_MAX_SPAN:
                return None
            lo = edges[0]
            lut = [bisect_left(edges, v) for v in range(lo, edges[-1] + 1)]
            self._lut = lut
        return lut

    def edges_array(self):
        """The edges as a cached numpy ``int64`` array, shared by the
        vectorized kernels."""
        arr = self._edges_array
        if arr is None:
            arr = self._edges_array = _np.asarray(self.edges,
                                                  dtype=_np.int64)
        return arr

    def bounds(self, index: int) -> Tuple[float, float]:
        """``(low_exclusive, high_inclusive)`` bounds of bin ``index``.

        The first bin's low bound is ``-inf``; the overflow bin's high
        bound is ``+inf``.
        """
        if not 0 <= index < self.num_bins:
            raise IndexError(f"bin index {index} out of range")
        return self.bounds_table()[index]

    def bounds_table(self) -> List[Tuple[float, float]]:
        """:meth:`bounds` of every bin in axis order, built once and
        cached for the read side (``fraction_in`` and the seek-shape
        readings walk it per histogram); treat it as read-only."""
        table = self._bounds
        if table is None:
            lows = [float("-inf")] + [float(e) for e in self.edges]
            highs = lows[1:] + [float("inf")]
            table = self._bounds = list(zip(lows, highs))
        return table

    def labels(self) -> List[str]:
        """Axis labels exactly as the paper prints them.

        The list is computed once and cached (report rendering and
        ``Histogram.nonzero_items`` call this on every refresh); treat
        the returned list as read-only.
        """
        labels = self._labels
        if labels is None:
            labels = [str(edge) for edge in self.edges]
            labels.append(f">{self.edges[-1]}")
            self._labels = labels
        return labels

    def __len__(self) -> int:
        return self.num_bins

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinScheme)
            and self.edges == other.edges
            and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash((self.name, self.edges))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BinScheme {self.name!r} bins={self.num_bins}>"


# ----------------------------------------------------------------------
# Schemes transcribed from the paper's figure axes
# ----------------------------------------------------------------------

#: I/O length in bytes — Figures 2(a), 3(a), 4(b), 5(b).
IO_LENGTH_BINS = BinScheme(
    "io_length",
    (
        512,
        1024,
        2048,
        4095,
        4096,
        8191,
        8192,
        16383,
        16384,
        32768,
        49152,
        65535,
        65536,
        81920,
        131072,
        262144,
        524288,
    ),
    unit="bytes",
)

#: Signed seek distance in 512-byte sectors — Figures 2(b-d), 3(b-d),
#: 4(a), 5(c).  Negative distances are reverse seeks (§3.1).
SEEK_DISTANCE_BINS = BinScheme(
    "seek_distance",
    (
        -500000,
        -50000,
        -5000,
        -500,
        -64,
        -16,
        -6,
        -2,
        0,
        2,
        6,
        16,
        64,
        500,
        5000,
        50000,
        500000,
    ),
    unit="sectors",
)

#: Device latency in microseconds — Figures 5(a), 6(a-c).
LATENCY_US_BINS = BinScheme(
    "latency_us",
    (1, 10, 100, 500, 1000, 5000, 15000, 30000, 50000, 100000),
    unit="microseconds",
)

#: I/O interarrival period in microseconds (§3.2).  The paper does not
#: print an interarrival figure; the service uses the same irregular
#: microsecond scale as the latency metric.
INTERARRIVAL_US_BINS = BinScheme(
    "interarrival_us",
    (1, 10, 100, 500, 1000, 5000, 15000, 30000, 50000, 100000),
    unit="microseconds",
)

#: Outstanding I/Os at arrival time — Figure 4(c-d).
OUTSTANDING_IO_BINS = BinScheme(
    "outstanding_io",
    (1, 2, 4, 6, 8, 12, 16, 20, 24, 28, 32, 64),
    unit="I/Os",
)

#: Write-amplification factor in percent (100 = 1.0×) — the flash-side
#: cost of a host write once FTL garbage collection migrates valid
#: pages.  The 2007 paper predates flash; these edges follow the WA
#: ranges reported for page-mapped FTLs (DFTL) under hot/cold skew.
#: Mechanical backends never populate this family, so an all-zero
#: histogram *is* the spindle signature.
WRITE_AMP_PCT_BINS = BinScheme(
    "write_amp_pct",
    (100, 105, 110, 125, 150, 175, 200, 250, 300, 400, 600, 1000),
    unit="percent",
)

#: Garbage-collection pause charged to a host command, in microseconds
#: — the time the command's flash channel spent migrating valid pages
#: and erasing blocks before servicing it.  Same irregular microsecond
#: scale as the latency metric so GC tails read on familiar axes.
GC_PAUSE_US_BINS = BinScheme(
    "gc_pause_us",
    (1, 10, 100, 500, 1000, 5000, 15000, 30000, 50000, 100000),
    unit="microseconds",
)

_SCHEMES_BY_METRIC = {
    "io_length": IO_LENGTH_BINS,
    "seek_distance": SEEK_DISTANCE_BINS,
    "latency_us": LATENCY_US_BINS,
    "interarrival_us": INTERARRIVAL_US_BINS,
    "outstanding_io": OUTSTANDING_IO_BINS,
    "write_amp_pct": WRITE_AMP_PCT_BINS,
    "gc_pause_us": GC_PAUSE_US_BINS,
}


def scheme_for_metric(metric: str) -> BinScheme:
    """Look up the canonical paper scheme for a metric name."""
    try:
        return _SCHEMES_BY_METRIC[metric]
    except KeyError:
        raise KeyError(
            f"unknown metric {metric!r}; known: {sorted(_SCHEMES_BY_METRIC)}"
        ) from None
