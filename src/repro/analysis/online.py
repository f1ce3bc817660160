"""Online fingerprinting and drift detection over sealed epochs.

§6 of the paper pitches *online* characterization that drives
decisions while the workload runs; this module is that stage.  An
:class:`OnlineAnalyzer` consumes every sealed epoch from the live
daemon (or cluster coordinator, or a store tail) and emits one
:class:`EpochVerdict` per vdisk per epoch:

* a coarse classification (:func:`repro.analysis.recommend.categorize`)
  plus the §3.1 readings — sequential/random fractions, the
  interleaved-stream count recovered by the look-behind window, and
  flash awareness via :func:`~repro.analysis.characterize.is_seekless`;
* a **drift score** against the disk's compacted history: the maximum
  total-variation distance across the configured histogram families
  between this epoch's distributions and the baseline's.  Drift uses
  hysteresis — only ``hysteresis_k`` *consecutive* epochs over the
  threshold fire a drift event — so one bursty epoch cannot page an
  operator.  While a disk is over threshold the baseline is frozen
  (suspect epochs are not merged in), so a real personality switch
  cannot dilute its way past detection; when the event fires the
  baseline is rebased to the new personality and the streak resets;
* the nearest **personality** from
  :data:`repro.workloads.patterns.CHARACTERIZATION_SUITE`, named in
  the verdict so a drift event reads "zipf-write-4k -> seq-read-64k",
  not just a number;
* **recommendation deltas**: which
  :func:`~repro.analysis.recommend.recommend` rules appeared or
  disappeared relative to the previous verdict — the actionable edge
  of a drift event.

Everything here is a pure function of the epoch collector sequence —
no clocks, no randomness — so verdicts computed live on a daemon are
*identical* to verdicts recomputed offline over the same store range
(the partition-invariance property the test suite pins).  The only
impurity is the ``analysis.drift`` fault site, which lets chaos tests
force misclassification windows deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.collector import VscsiStatsCollector
from ..core.histogram import Histogram
from ..core.service import DiskKey
from ..faults import fire
from ..workloads.patterns import CHARACTERIZATION_SUITE, PatternSpec
from .characterize import Reading, is_seekless, stream_count_estimate
from .compare import total_variation_distance
from .recommend import WorkloadClass, categorize, recommend

__all__ = [
    "DriftConfig",
    "EpochVerdict",
    "OnlineAnalyzer",
    "match_personality",
    "format_verdict",
]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DriftConfig:
    """Tuning knobs for the drift detector.

    ``families`` names the collector histogram families whose ``all``
    split is compared; latency and interarrival are excluded by
    default because they shift with *external* load (a busy array, a
    collocated tenant), not with the workload's own personality —
    §3.5's point that latency reflects the device, not the issuer.
    """

    #: TV distance above this marks an epoch as drifting.
    threshold: float = 0.35
    #: Consecutive drifting epochs required to fire a drift event.
    hysteresis_k: int = 3
    #: Epochs with fewer commands are classified idle and excluded
    #: from drift scoring and baseline updates.
    min_commands: int = 100
    #: Histogram families compared for the drift score.
    families: Tuple[str, ...] = ("io_length", "seek_distance",
                                 "outstanding")
    #: After an event, restart the baseline from the new personality
    #: (``True``) or keep accumulating over it (``False``).
    rebase_on_event: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be in (0, 1], got {self.threshold}")
        if self.hysteresis_k < 1:
            raise ValueError(
                f"hysteresis_k must be >= 1, got {self.hysteresis_k}")
        if self.min_commands < 1:
            raise ValueError(
                f"min_commands must be >= 1, got {self.min_commands}")
        if not self.families:
            raise ValueError("families must name at least one family")


# ----------------------------------------------------------------------
# Personality matching
# ----------------------------------------------------------------------
#: Expected windowed-sequential fraction per pattern kind.
_SEQ_EXPECT = {"sequential": 1.0, "uniform": 0.0,
               "strided": 0.0, "zipfian": 0.0}
#: Expected edge-seek (random) fraction per pattern kind: uniform
#: jumps span the disk, zipfian mixes short hot-set hops with long
#: hot/cold crossings, strided steps stay short.
_RANDOM_EXPECT = {"sequential": 0.0, "uniform": 0.85,
                  "strided": 0.0, "zipfian": 0.6}


def _label_value(label: str) -> float:
    """Numeric value of a histogram bin label (``">65536"`` -> 65536)."""
    try:
        return float(label.lstrip(">").lstrip("<=").strip())
    except ValueError:
        return 0.0


def _log2_gap(a: float, b: float, span: float) -> float:
    """``|log2(a/b)|`` clipped to [0, 1] over ``span`` octaves."""
    if a <= 0 or b <= 0:
        return 1.0
    return min(1.0, abs(math.log2(a / b)) / span)


def match_personality(
    collector: Union[Reading, VscsiStatsCollector],
    suite: Tuple[PatternSpec, ...] = CHARACTERIZATION_SUITE,
) -> Tuple[str, float]:
    """Name the nearest :class:`PatternSpec` personality.

    Scores every spec by a fixed, deterministic feature distance —
    read/write mix, windowed sequentiality vs the kind's expectation,
    edge-seek fraction, dominant I/O size (octaves) and typical queue
    depth (octaves) — and returns ``(name, distance)`` for the
    minimum.  Ties break toward suite order, so the result is a pure
    function of the collector (or of a prepared
    :class:`~repro.analysis.characterize.Reading` of it).
    """
    reading = Reading.of(collector)
    reads = reading.read_fraction
    seq = reading.sequential
    rand = reading.random
    io_mode = _label_value(reading.io_mode)
    out_mode = _label_value(reading.outstanding_mode)
    best_name, best_score = "", math.inf
    for spec in suite:
        score = (
            1.5 * abs(reads - spec.read_fraction)
            + 1.0 * abs(seq - _SEQ_EXPECT[spec.kind])
            + 0.5 * abs(rand - _RANDOM_EXPECT[spec.kind])
            + 0.5 * _log2_gap(io_mode, spec.io_bytes, 4.0)
            + 0.25 * _log2_gap(out_mode, spec.outstanding, 3.0)
        )
        if score < best_score:
            best_name, best_score = spec.name, score
    return best_name, best_score


# ----------------------------------------------------------------------
# Verdicts
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EpochVerdict:
    """One vdisk's reading for one sealed epoch."""

    epoch: int
    vm: str
    vdisk: str
    commands: int
    workload_class: WorkloadClass
    read_fraction: float
    sequential: float
    random: float
    streams: int
    seekless: bool
    #: Nearest suite personality (``None`` for idle epochs).
    personality: Optional[str]
    personality_distance: float
    drift_score: float
    #: This epoch was over the threshold (streak in progress).
    drifting: bool
    #: The hysteresis streak completed on this epoch.
    drift_event: bool
    #: Lifetime drift events for this vdisk, this one included.
    drift_events_total: int
    #: Recommendation rules that appeared / disappeared vs the
    #: previous non-idle verdict for this vdisk.
    rules_added: Tuple[str, ...]
    rules_removed: Tuple[str, ...]
    rules: Tuple[str, ...]

    def to_dict(self) -> Dict:
        out = {
            "epoch": self.epoch, "vm": self.vm, "vdisk": self.vdisk,
            "commands": self.commands,
            "workload_class": self.workload_class.value,
            "read_fraction": self.read_fraction,
            "sequential": self.sequential, "random": self.random,
            "streams": self.streams, "seekless": self.seekless,
            "personality": self.personality,
            "personality_distance": self.personality_distance,
            "drift_score": self.drift_score, "drifting": self.drifting,
            "drift_event": self.drift_event,
            "drift_events_total": self.drift_events_total,
            "rules_added": list(self.rules_added),
            "rules_removed": list(self.rules_removed),
            "rules": list(self.rules),
        }
        if math.isinf(self.personality_distance):
            out["personality_distance"] = None
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "EpochVerdict":
        distance = data.get("personality_distance")
        return cls(
            epoch=data["epoch"], vm=data["vm"], vdisk=data["vdisk"],
            commands=data["commands"],
            workload_class=WorkloadClass(data["workload_class"]),
            read_fraction=data["read_fraction"],
            sequential=data["sequential"], random=data["random"],
            streams=data["streams"], seekless=data["seekless"],
            personality=data.get("personality"),
            personality_distance=(
                math.inf if distance is None else distance),
            drift_score=data["drift_score"],
            drifting=data["drifting"],
            drift_event=data["drift_event"],
            drift_events_total=data["drift_events_total"],
            rules_added=tuple(data.get("rules_added", ())),
            rules_removed=tuple(data.get("rules_removed", ())),
            rules=tuple(data.get("rules", ())),
        )


def format_verdict(verdict: EpochVerdict) -> str:
    """One-line rendering for the ``repro watch`` rolling display."""
    parts = [
        f"[e{verdict.epoch:04d}] {verdict.vm}/{verdict.vdisk}",
        f"{verdict.workload_class.value:<14}",
        f"{verdict.commands:>7} cmds",
        f"{verdict.read_fraction:>4.0%}r",
        f"seq={verdict.sequential:.0%}",
        f"drift={verdict.drift_score:.2f}",
    ]
    if verdict.streams > 1:
        parts.append(f"streams={verdict.streams}")
    if verdict.seekless:
        parts.append("flash")
    if verdict.personality:
        parts.append(f"~{verdict.personality}")
    if verdict.drift_event:
        parts.append(f"** DRIFT EVENT #{verdict.drift_events_total} **")
    elif verdict.drifting:
        parts.append("(drifting)")
    for rule in verdict.rules_added:
        parts.append(f"+{rule}")
    for rule in verdict.rules_removed:
        parts.append(f"-{rule}")
    return "  ".join(parts)


# ----------------------------------------------------------------------
# The analyzer
# ----------------------------------------------------------------------
#: What drift reads of a disk's history: the ``all`` histogram of each
#: configured family, and nothing else of the collectors merged into it.
_Baseline = Dict[str, Histogram]


def _absorb(baseline: _Baseline, view: _Baseline) -> None:
    """``baseline[f] = baseline[f].merge(view[f])``, in place."""
    for name, hist in view.items():
        base = baseline[name]
        base.counts = [a + b for a, b in zip(base.counts, hist.counts)]
        base.count += hist.count
        base.total += hist.total
        if hist.count:
            base.min = hist.min if base.min is None \
                else min(base.min, hist.min)
            base.max = hist.max if base.max is None \
                else max(base.max, hist.max)


class _DiskState:
    """Per-vdisk drift bookkeeping."""

    __slots__ = ("baseline", "streak", "events", "rules", "last_verdict")

    def __init__(self) -> None:
        self.baseline: Optional[_Baseline] = None
        self.streak = 0
        self.events = 0
        self.rules: Tuple[str, ...] = ()
        self.last_verdict: Optional[EpochVerdict] = None


class OnlineAnalyzer:
    """Streaming per-vdisk fingerprint/drift stage.

    Feed every sealed epoch through :meth:`observe_epoch`; read the
    verdicts it returns (or the rolling :meth:`verdicts` map).  State
    is a pure fold over the epoch sequence: the same epochs in the
    same order always produce the same verdicts, whether they arrive
    live from a daemon or from a store replay.
    """

    def __init__(self, config: Optional[DriftConfig] = None):
        self.config = config if config is not None else DriftConfig()
        self._disks: Dict[DiskKey, _DiskState] = {}
        #: Epochs observed (drives the default epoch index).
        self.epochs_seen = 0
        #: Verdicts emitted across all disks and epochs.
        self.verdicts_total = 0
        #: Drift events fired across all disks.
        self.drift_events_total = 0

    # ------------------------------------------------------------------
    def observe_epoch(
        self,
        epoch_or_pairs,
        index: Optional[int] = None,
    ) -> List[EpochVerdict]:
        """Analyze one sealed epoch; returns a verdict per active disk.

        Accepts a :class:`~repro.live.epochs.Epoch` (its own index is
        used) or an iterable of ``((vm, vdisk), collector)`` pairs.
        Disks are processed in sorted key order so verdict order is
        deterministic.
        """
        if hasattr(epoch_or_pairs, "service"):
            if index is None:
                index = epoch_or_pairs.index
            pairs: Iterable = epoch_or_pairs.service.collectors()
        else:
            pairs = epoch_or_pairs
        if index is None:
            index = self.epochs_seen
        verdicts = [
            self._observe_disk(key, collector, index)
            for key, collector in sorted(pairs, key=lambda kv: kv[0])
        ]
        self.epochs_seen += 1
        self.verdicts_total += len(verdicts)
        return verdicts

    def _observe_disk(self, key: DiskKey,
                      collector: VscsiStatsCollector,
                      index: int) -> EpochVerdict:
        config = self.config
        vm, vdisk = key
        state = self._disks.setdefault(key, _DiskState())
        active = collector.commands >= config.min_commands
        # The one reading of this disk-epoch, shared by drift, class,
        # personality and rules; an idle epoch is not read at all.
        reading = view = None
        if active:
            reading = Reading(collector)
            view = self._drift_view(reading)

        score = 0.0
        if active and state.baseline is not None:
            score = self.drift_score(state.baseline, view)
        # Chaos hook: a scheduled ``partial`` forces this reading to
        # maximum drift — a misclassification window tests can aim at
        # the hysteresis logic; ``error``/``reset`` propagate to the
        # caller like any analysis failure would.
        action = fire("analysis.drift", vm=vm, vdisk=vdisk, epoch=index)
        if action is not None and action.kind == "partial":
            score = 1.0

        drifting = active and state.baseline is not None \
            and score > config.threshold
        event = False
        if drifting:
            state.streak += 1
            if state.streak >= config.hysteresis_k:
                event = True
                state.events += 1
                self.drift_events_total += 1
                state.streak = 0
        else:
            state.streak = 0

        # Baseline update: idle epochs never touch it; drifting epochs
        # are quarantined from it until the streak resolves; an event
        # rebases it onto the new personality.
        if active:
            if state.baseline is None \
                    or (event and config.rebase_on_event):
                state.baseline = {name: hist.copy()
                                  for name, hist in view.items()}
            elif not drifting:
                _absorb(state.baseline, view)

        if active:
            personality, distance = match_personality(reading)
            rules = tuple(sorted(
                r.rule for r in recommend(reading, config.min_commands)))
            added = tuple(r for r in rules if r not in state.rules)
            removed = tuple(r for r in state.rules if r not in rules)
            state.rules = rules
            sequential = reading.sequential
            rand = reading.random
            streams = stream_count_estimate(reading)
            workload_class = categorize(reading, config.min_commands)
        else:
            personality, distance = None, math.inf
            rules, added, removed = state.rules, (), ()
            sequential = rand = 0.0
            streams = 0
            workload_class = WorkloadClass.IDLE

        verdict = EpochVerdict(
            epoch=index, vm=vm, vdisk=vdisk,
            commands=collector.commands,
            workload_class=workload_class,
            read_fraction=collector.read_fraction,
            sequential=sequential, random=rand, streams=streams,
            seekless=is_seekless(collector),
            personality=personality, personality_distance=distance,
            drift_score=score, drifting=drifting, drift_event=event,
            drift_events_total=state.events,
            rules_added=added, rules_removed=removed, rules=rules,
        )
        state.last_verdict = verdict
        return verdict

    # ------------------------------------------------------------------
    def _drift_view(self, source) -> _Baseline:
        """The configured families' ``all`` views of a collector or
        reading (a baseline passes through)."""
        if isinstance(source, dict):
            return source
        reading = Reading.of(source)
        return {name: reading.all(name) for name in self.config.families}

    def drift_score(self, baseline, collector) -> float:
        """Max TV distance across the configured families.

        Either side may be a collector, a
        :class:`~repro.analysis.characterize.Reading` or the per-family
        ``all`` mapping the analyzer keeps as a disk's baseline.
        """
        baseline = self._drift_view(baseline)
        current = self._drift_view(collector)
        return max(total_variation_distance(baseline[name], current[name])
                   for name in self.config.families)

    # ------------------------------------------------------------------
    def seed_from_store(self, store, end_ns: Optional[int] = None) -> int:
        """Adopt the store's compacted history as per-disk baselines.

        Merges every record up to ``end_ns`` (default: everything) via
        one exact range query, so a freshly started watch compares
        live epochs against the full recorded history instead of
        re-learning it.  Returns the number of disks seeded.
        """
        horizon = (1 << 62) if end_ns is None else end_ns
        result = store.query(0, horizon)
        seeded = 0
        for key, collector in result.service.collectors():
            state = self._disks.setdefault(key, _DiskState())
            reading = Reading(collector)
            state.baseline = self._drift_view(reading)
            if collector.commands >= self.config.min_commands:
                state.rules = tuple(sorted(
                    r.rule for r in recommend(reading,
                                              self.config.min_commands)))
            seeded += 1
        return seeded

    # ------------------------------------------------------------------
    def verdicts(self) -> List[EpochVerdict]:
        """Latest verdict per disk, in sorted key order."""
        return [
            self._disks[key].last_verdict
            for key in sorted(self._disks)
            if self._disks[key].last_verdict is not None
        ]

    def to_dict(self) -> Dict:
        """JSON-ready rolling state (the ``verdicts`` control op)."""
        return {
            "epochs_seen": self.epochs_seen,
            "verdicts_total": self.verdicts_total,
            "drift_events_total": self.drift_events_total,
            "config": {
                "threshold": self.config.threshold,
                "hysteresis_k": self.config.hysteresis_k,
                "min_commands": self.config.min_commands,
                "families": list(self.config.families),
            },
            "disks": {
                f"{v.vm}/{v.vdisk}": v.to_dict()
                for v in self.verdicts()
            },
        }
