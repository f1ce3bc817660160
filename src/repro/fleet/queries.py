"""Fleet-level queries over merged collectors.

The root of the tree answers the questions the Alibaba block-storage
study poses at fleet scale: top-k hottest ``(vm, vdisk)`` by any
metric, percentile estimates from merged bin distributions, and
per-host/per-tenant rollups.  Everything here operates on exact merged
collectors — the queries are cheap *because* the histograms are
associative; no raw records exist anywhere above the leaf daemons.

Metric specs
------------
A metric is either a scalar name (``commands``, ``reads``, ``writes``,
``bytes``, ``bytes_read``, ``bytes_written``) or a histogram path
``<family>[.<op>][.<stat>]`` where ``family`` is one of the six paper
families (``io_length``, ``seek_distance``, ``seek_distance_windowed``,
``interarrival_us``, ``outstanding``, ``latency_us``), ``op`` is
``read``/``write``/``all`` (default ``all``) and ``stat`` is
``sum``/``count``/``mean`` (default ``sum``).  So ``latency_us`` ranks
disks by total accumulated latency, ``latency_us.read.mean`` by mean
read latency, ``io_length.write.count`` by write-command count.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..core.collector import VscsiStatsCollector
from ..core.service import DiskKey

__all__ = [
    "FAMILIES",
    "histogram_percentile",
    "percentile_doc",
    "resolve_metric",
    "topk",
]

#: Histogram family attributes addressable in metric specs.
FAMILIES = ("io_length", "seek_distance", "seek_distance_windowed",
            "interarrival_us", "outstanding", "latency_us",
            "write_amp_pct", "gc_pause_us")

_OPS = ("read", "write", "all")
_STATS = ("sum", "count", "mean")

_SCALARS: Dict[str, Callable[[VscsiStatsCollector], float]] = {
    "commands": lambda c: c.commands,
    "reads": lambda c: c.read_commands,
    "writes": lambda c: c.write_commands,
    "bytes": lambda c: c.total_bytes,
    "bytes_read": lambda c: c.bytes_read,
    "bytes_written": lambda c: c.bytes_written,
}


def resolve_metric(spec: str) -> Callable[[VscsiStatsCollector], float]:
    """Compile a metric spec into ``collector -> value``.

    Raises ``ValueError`` (with the valid vocabulary) on an unknown
    spec, so a typo surfaces as a clean control-plane error.
    """
    scalar = _SCALARS.get(spec)
    if scalar is not None:
        return scalar
    parts = spec.split(".")
    family = parts[0]
    if family not in FAMILIES or len(parts) > 3:
        raise ValueError(
            f"unknown metric {spec!r}: expected one of "
            f"{sorted(_SCALARS)} or <family>[.<op>][.<stat>] with "
            f"family in {list(FAMILIES)}"
        )
    op = "all"
    stat = "sum"
    for part in parts[1:]:
        if part in _OPS:
            op = part
        elif part in _STATS:
            stat = part
        else:
            raise ValueError(
                f"unknown metric component {part!r} in {spec!r}: "
                f"op in {list(_OPS)}, stat in {list(_STATS)}"
            )

    def value(collector: VscsiStatsCollector) -> float:
        family_obj = getattr(collector, family)
        hist = {"read": family_obj.reads, "write": family_obj.writes,
                "all": family_obj.all}[op]
        if stat == "count":
            return hist.count
        if stat == "sum":
            return hist.total
        return hist.total / hist.count if hist.count else 0.0

    return value


def topk(pairs: List[Tuple[DiskKey, VscsiStatsCollector]], metric: str,
         k: int = 10) -> List[Dict]:
    """Rank ``(disk, collector)`` pairs by ``metric``, descending.

    Ties break on the disk key (ascending) so the ranking is
    deterministic across runs and tree shapes.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    value = resolve_metric(metric)
    ranked = sorted(((value(collector), key)
                     for key, collector in pairs),
                    key=lambda item: (-item[0], item[1]))
    return [{"vm": vm, "vdisk": vdisk, "metric": metric, "value": val}
            for val, (vm, vdisk) in ranked[:k]]


def histogram_percentile(hist, q: float) -> Optional[float]:
    """Upper-edge percentile estimate from a binned histogram.

    Returns the smallest bin upper edge whose cumulative count reaches
    ``q`` of the total — a conservative (never-underestimating)
    estimate, which is the honest answer a bin distribution can give.
    The overflow bin maps to ``inf``; an empty histogram to ``None``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    total = hist.count
    if not total:
        return None
    target = math.ceil(q * total)
    running = 0
    edges = hist.scheme.edges
    for index, count in enumerate(hist.counts):
        running += count
        if running >= target:
            if index < len(edges):
                return float(edges[index])
            return float("inf")
    return float("inf")  # pragma: no cover - counts always sum to total


def percentile_doc(collector: VscsiStatsCollector, family: str,
                   q: float, op: str = "all") -> Dict:
    """Percentile estimate document for one family of a merged
    collector (typically the fleet-wide aggregate)."""
    if family not in FAMILIES:
        raise ValueError(
            f"unknown family {family!r}: expected one of {list(FAMILIES)}")
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}: expected one of {list(_OPS)}")
    family_obj = getattr(collector, family)
    hist = {"read": family_obj.reads, "write": family_obj.writes,
            "all": family_obj.all}[op]
    estimate = histogram_percentile(hist, q)
    return {
        "family": family,
        "op": op,
        "q": q,
        "count": hist.count,
        "estimate": estimate if estimate != float("inf") else None,
        "overflow": estimate == float("inf"),
        "unit": hist.scheme.unit,
    }
