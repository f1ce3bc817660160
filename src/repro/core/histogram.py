"""The online histogram — the core data structure of the paper.

With ``n`` input commands and ``m`` bins (``m << n``), inserting is
O(1) per command (a binary search over the fixed edges) and the whole
structure is O(m) space, versus O(n) space for a trace (§3).  That
complexity argument is the heart of the paper, so this class keeps the
hot path to: one bisect, one list increment, and four scalar updates.

Beyond the raw bins the histogram tracks count, sum, min and max so the
usual scalar statistics (the ones a tool like Moilanen's fingerprint
would report) fall out for free and can be contrasted with the full
distribution.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as _np

from .bins import BinScheme

__all__ = ["Histogram", "BATCH_CROSSOVER"]

#: The one size rule of the ingest path: a batch of fewer than this
#: many values (here) or commands (the collector's batch hooks) loops
#: the scalar hook; from this size up it takes the numpy kernel, whose
#: fixed array-setup cost is repaid at about this point (measured —
#: the table is in ``docs/internals.md``).
BATCH_CROSSOVER = 32


def _plain(column):
    """A batch column as Python scalars for a scalar hook: an
    ``np.int64`` folded into ``count``/``total``/``min``/``max`` would
    wrap silently and break ``to_dict()``."""
    return column.tolist() if isinstance(column, _np.ndarray) else column


class Histogram:
    """A fixed-bin online histogram over integer-valued observations.

    Parameters
    ----------
    scheme:
        The :class:`BinScheme` defining the bin edges.
    name:
        Optional display name (defaults to the scheme's name).
    """

    __slots__ = ("scheme", "name", "counts", "count", "total", "min", "max",
                 "_lut", "_lut_lo", "_lut_hi")

    def __init__(self, scheme: BinScheme, name: Optional[str] = None):
        self.scheme = scheme
        self.name = name if name is not None else scheme.name
        self.counts: List[int] = [0] * scheme.num_bins
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None
        # Direct-index bin lookup (None for wide schemes): turns the
        # per-insert bisect into a list index for dense domains.
        self._lut = scheme.index_lut()
        self._lut_lo = scheme.edges[0]
        self._lut_hi = scheme.edges[-1]

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Record one observation.  O(log m) time, O(1) extra space."""
        lut = self._lut
        if (lut is not None and type(value) is int
                and self._lut_lo <= value <= self._lut_hi):
            self.counts[lut[value - self._lut_lo]] += 1
        else:
            self.counts[bisect_left(self.scheme.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def insert_many(self, values: Iterable[int]) -> None:
        """Record a batch of observations in one pass.

        Batches of at least :data:`BATCH_CROSSOVER` values take the
        vectorized ``searchsorted``/``bincount`` kernel; smaller ones,
        and values the kernel declines (floats, ints outside int64),
        loop :meth:`insert` — the reference, so the resulting state is
        byte-identical to a scalar loop whichever way a batch goes.
        """
        if not isinstance(values, (list, tuple, _np.ndarray)):
            values = list(values)
        if len(values) >= BATCH_CROSSOVER and self._insert_many_numpy(values):
            return
        insert = self.insert
        for value in _plain(values):
            insert(value)

    def _insert_many_numpy(self, values: Sequence[int]) -> bool:
        """Vectorized batch kernel; returns False when the values do not
        fit the int64 fast path (caller then loops :meth:`insert`)."""
        try:
            arr = _np.asarray(values)
        except (OverflowError, TypeError, ValueError):
            return False
        kind = arr.dtype.kind
        if not (kind == "i" and arr.dtype.itemsize <= 8
                or kind == "u" and arr.dtype.itemsize <= 4):
            return False  # floats / big ints: keep exact bisect semantics
        arr = arr.astype(_np.int64, copy=False)
        edges = self.scheme.edges_array()
        idx = _np.searchsorted(edges, arr, side="left")
        binned = _np.bincount(idx, minlength=len(self.counts))
        counts = self.counts
        for i, c in enumerate(binned.tolist()):
            if c:
                counts[i] += c
        n = int(arr.shape[0])
        mn = int(arr.min())
        mx = int(arr.max())
        # int64 summation is exact only while it cannot wrap.
        if n * max(abs(mn), abs(mx)) < (1 << 62):
            total = int(arr.sum())
        else:
            total = sum(arr.tolist())
        self.count += n
        self.total += total
        if self.min is None or mn < self.min:
            self.min = mn
        if self.max is None or mx > self.max:
            self.max = mx
        return True

    # ------------------------------------------------------------------
    # Derived statistics
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        """Arithmetic mean of all inserted values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def fraction_in(self, low: float, high: float) -> float:
        """Fraction of observations in bins fully inside ``(low, high]``.

        Because bins are fixed, this answers questions the paper poses
        like "91% of I/Os had latency in (15ms, 30ms]" — ``low`` and
        ``high`` should be existing bin edges for an exact answer.
        """
        if not self.count:
            return 0.0
        hit = 0
        for c, (b_low, b_high) in zip(self.counts,
                                      self.scheme.bounds_table()):
            if c and b_low >= low and b_high <= high:
                hit += c
        return hit / self.count

    def mode_bin(self) -> int:
        """Index of the most populated bin (ties -> lowest index)."""
        counts = self.counts
        return counts.index(max(counts))

    def mode_label(self) -> str:
        """Axis label of the most populated bin."""
        return self.scheme.labels()[self.mode_bin()]

    def percentile_bin(self, q: float) -> int:
        """Index of the bin containing the ``q``-quantile (0 < q <= 1)."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if not self.count:
            raise ValueError("empty histogram has no percentiles")
        threshold = q * self.count
        cumulative = 0
        for index, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= threshold:
                return index
        return len(self.counts) - 1  # pragma: no cover - unreachable

    def percentile_upper_bound(self, q: float) -> float:
        """Upper edge of the bin containing the ``q``-quantile."""
        return self.scheme.bounds(self.percentile_bin(q))[1]

    def nonzero_items(self) -> List[Tuple[str, int]]:
        """``(label, count)`` for every populated bin, in axis order."""
        labels = self.scheme.labels()
        return [
            (labels[index], c)
            for index, c in enumerate(self.counts)
            if c
        ]

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def merge(self, other: "Histogram",
              name: Optional[str] = None) -> "Histogram":
        """Return a new histogram combining this one and ``other``.

        Both must share a bin scheme.  Every statistic the histogram
        keeps (bin counts, count, total, min, max) is additive, so
        merging is exact, associative and commutative: any partition of
        an observation stream recombines to byte-identical
        :meth:`to_dict` output.  Merging is how per-interval histograms
        roll up to a whole run and how per-worker, per-epoch and
        per-host histograms recombine (cluster fan-in, store
        compaction, the fleet tree).

        ``name`` overrides the merged histogram's display name
        (defaults to this histogram's name).
        """
        if self.scheme != other.scheme:
            raise ValueError(
                f"cannot merge schemes {self.scheme.name!r} and "
                f"{other.scheme.name!r}"
            )
        merged = Histogram(self.scheme,
                           name=self.name if name is None else name)
        merged.counts = [a + b for a, b in zip(self.counts, other.counts)]
        merged.count = self.count + other.count
        merged.total = self.total + other.total
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        merged.min = min(mins) if mins else None
        merged.max = max(maxs) if maxs else None
        return merged

    def reset(self) -> None:
        """Zero all state (the service's stats-reset operation)."""
        self.counts = [0] * self.scheme.num_bins
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None

    def copy(self) -> "Histogram":
        """Independent deep copy (snapshots for interval reporting)."""
        dup = Histogram(self.scheme, name=self.name)
        dup.counts = list(self.counts)
        dup.count = self.count
        dup.total = self.total
        dup.min = self.min
        dup.max = self.max
        return dup

    # ------------------------------------------------------------------
    # Serialization (the tool's export format)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """Plain-dict form for JSON export."""
        return {
            "name": self.name,
            "scheme": self.scheme.name,
            "edges": list(self.scheme.edges),
            "unit": self.scheme.unit,
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Histogram)
            and self.scheme == other.scheme
            and self.counts == other.counts
            and self.count == other.count
            and self.total == other.total
            and self.min == other.min
            and self.max == other.max
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name!r} n={self.count} mean={self.mean:.1f}>"
