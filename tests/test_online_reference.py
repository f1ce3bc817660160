"""``OnlineAnalyzer`` against a reference fold.

The analyzer reads each disk-epoch once (one
:class:`~repro.analysis.characterize.Reading` shared by drift, class,
personality and rules) and keeps as a baseline only what drift reads,
merged in place.  The reference below is the composition it replaced:
every public analysis function called on the raw collector, and a
whole-collector baseline rebuilt by ``VscsiStatsCollector.merge`` each
epoch.  It exists only here, as the oracle — the two must agree on
every verdict field, for any epoch sequence and any configuration.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.characterize import (
    is_seekless,
    random_fraction,
    sequential_fraction,
    stream_count_estimate,
)
from repro.analysis.compare import total_variation_distance
from repro.analysis.online import (
    DriftConfig,
    EpochVerdict,
    OnlineAnalyzer,
    match_personality,
)
from repro.analysis.recommend import categorize, recommend
from repro.core.collector import VscsiStatsCollector
from repro.faults import FaultPlan, fire, inject


# ----------------------------------------------------------------------
# The reference fold
# ----------------------------------------------------------------------
class ReferenceAnalyzer:
    """Per-disk verdict fold over raw collectors, nothing shared."""

    def __init__(self, config):
        self.config = config
        self.disks = {}
        self.drift_events_total = 0

    def drift_score(self, baseline, collector):
        score = 0.0
        for name in self.config.families:
            score = max(score, total_variation_distance(
                getattr(baseline, name).all, getattr(collector, name).all))
        return score

    def observe_epoch(self, pairs, index):
        return [self._observe_disk(key, collector, index)
                for key, collector in sorted(pairs, key=lambda kv: kv[0])]

    def _observe_disk(self, key, collector, index):
        config = self.config
        vm, vdisk = key
        state = self.disks.setdefault(
            key, {"baseline": None, "streak": 0, "events": 0, "rules": ()})
        active = collector.commands >= config.min_commands

        score = 0.0
        if active and state["baseline"] is not None:
            score = self.drift_score(state["baseline"], collector)
        action = fire("analysis.drift", vm=vm, vdisk=vdisk, epoch=index)
        if action is not None and action.kind == "partial":
            score = 1.0

        drifting = active and state["baseline"] is not None \
            and score > config.threshold
        event = False
        if drifting:
            state["streak"] += 1
            if state["streak"] >= config.hysteresis_k:
                event = True
                state["events"] += 1
                self.drift_events_total += 1
                state["streak"] = 0
        else:
            state["streak"] = 0

        if active:
            if event and config.rebase_on_event:
                state["baseline"] = collector.copy()
            elif not drifting:
                state["baseline"] = (
                    collector.copy() if state["baseline"] is None
                    else state["baseline"].merge(collector))

        if active:
            personality, distance = match_personality(collector)
            rules = tuple(sorted(
                r.rule for r in recommend(collector, config.min_commands)))
            added = tuple(r for r in rules if r not in state["rules"])
            removed = tuple(r for r in state["rules"] if r not in rules)
            state["rules"] = rules
            sequential = sequential_fraction(
                collector.seek_distance_windowed.all)
            rand = random_fraction(collector.seek_distance.all)
            streams = stream_count_estimate(collector)
        else:
            personality, distance = None, math.inf
            rules, added, removed = state["rules"], (), ()
            sequential = rand = 0.0
            streams = 0

        return EpochVerdict(
            epoch=index, vm=vm, vdisk=vdisk,
            commands=collector.commands,
            workload_class=categorize(collector, config.min_commands),
            read_fraction=collector.read_fraction,
            sequential=sequential, random=rand, streams=streams,
            seekless=is_seekless(collector),
            personality=personality, personality_distance=distance,
            drift_score=score, drifting=drifting, drift_event=event,
            drift_events_total=state["events"],
            rules_added=added, rules_removed=removed, rules=rules,
        )


# ----------------------------------------------------------------------
# A pool of disk-epochs: personalities, idle, sub-floor, empty, flash
# ----------------------------------------------------------------------
def _build(n, seed, kind):
    c = VscsiStatsCollector()
    t, lba = 0, seed * 4096
    for i in range(n):
        t += 700 + (i * 37 + seed) % 900
        if kind == "seq-read":
            is_read, nblocks, depth = True, 128, 4
            lba += 128
        elif kind == "seq-write":
            is_read, nblocks, depth = False, 64, 2
            lba += 64
        elif kind == "zipf-write":
            is_read, nblocks, depth = i % 5 == 0, 8, 16
            lba = ((i * 7919 + seed * 104_729) % 1_000_000) * 8
        elif kind == "oltp":
            is_read, nblocks, depth = i % 3 != 0, 16, 40
            lba = ((i * 15_485_863 + seed) % 50_000_000) * 16
        elif kind == "reverse":
            is_read, nblocks, depth = True, 8, 1
            lba = 10_000_000 - i * 64 - seed
        elif kind == "log":
            # Sequential writes interleaved with far-flung reads.
            is_read, nblocks, depth = i % 2 == 0, 16, 8
            lba = (((i * 6151 + seed) % 900_000) * 512 if is_read
                   else 2_000_000 + (i // 2) * 16)
        else:  # "streams": three interleaved sequential readers
            is_read, nblocks, depth = True, 32, 3
            lba = (i % 3) * 5_000_000 + (i // 3) * 32
        c.on_issue(t, is_read, lba, nblocks, depth)
        latency = 40_000 + ((i * 977 + seed) % 50) * 1_000
        if kind == "zipf-write" and seed % 2:
            # Flash-backed: FTL telemetry rides on completions.
            c.on_complete(t + latency, is_read, latency,
                          wa_pct=None if is_read else 180 + i % 90,
                          gc_pause_us=20_000 if i % 4 == 0 else None)
        else:
            if kind == "oltp" and not is_read:
                latency *= 5          # trips the write-cache rule
            c.on_complete(t + latency, is_read, latency)
    return c


_KINDS = ("seq-read", "seq-write", "zipf-write", "oltp", "reverse", "log",
          "streams")
#: Full epochs (two seeds per personality; odd zipf seeds are flash),
#: then sub-floor (60 and 200 commands), idle (10) and empty (0) ones.
_POOL = (
    [_build(320, seed, kind) for kind in _KINDS for seed in (1, 2)]
    + [_build(60, 3, kind) for kind in ("seq-read", "zipf-write", "oltp")]
    + [_build(200, 3, kind) for kind in ("zipf-write", "streams")]
    + [_build(10, 4, "seq-read"), VscsiStatsCollector()]
)

_KEYS = (("vm-a", "scsi0:0"), ("vm-a", "scsi0:1"), ("vm-b", "scsi0:0"))

configs = st.builds(
    DriftConfig,
    threshold=st.sampled_from([0.1, 0.35, 0.8]),
    hysteresis_k=st.integers(1, 3),
    min_commands=st.sampled_from([1, 50, 100, 500]),
    families=st.sampled_from([
        ("io_length", "seek_distance", "outstanding"),
        ("seek_distance_windowed",),
        ("latency_us", "interarrival_us", "io_length"),
        ("write_amp_pct", "outstanding"),
    ]),
    rebase_on_event=st.booleans(),
)
#: One epoch = which pool entry each disk sealed (``None``: absent).
epochs = st.lists(
    st.tuples(*[st.none() | st.integers(0, len(_POOL) - 1)] * len(_KEYS)),
    min_size=1, max_size=12,
)
#: Firing indexes of ``analysis.drift`` forced to maximum drift.
forced = st.sets(st.integers(0, 30), max_size=4)


def _fold(analyzer, sequence, plan):
    verdicts = []
    with inject(plan):
        for index, picks in enumerate(sequence):
            pairs = [(key, _POOL[pick])
                     for key, pick in zip(_KEYS, picks) if pick is not None]
            verdicts.append(analyzer.observe_epoch(pairs, index=index))
    return verdicts


@settings(max_examples=120, deadline=None)
@given(config=configs, sequence=epochs, partials=forced)
def test_analyzer_equals_reference_fold(config, sequence, partials):
    def plan():
        made = FaultPlan()
        for at in sorted(partials):
            made = made.partial("analysis.drift", at=at)
        return made

    analyzer = OnlineAnalyzer(config)
    reference = ReferenceAnalyzer(config)
    assert _fold(analyzer, sequence, plan()) \
        == _fold(reference, sequence, plan())
    assert analyzer.drift_events_total == reference.drift_events_total
    # The kept baseline is exactly the reference's, family by family —
    # every statistic, not only the counts drift compares.
    for key, state in reference.disks.items():
        kept = analyzer._disks[key].baseline
        if state["baseline"] is None:
            assert kept is None
            continue
        assert set(kept) == set(config.families)
        for name in config.families:
            assert kept[name] == getattr(state["baseline"], name).all


def test_pool_covers_every_class_and_rule():
    """The property above is only as strong as its inputs: the pool
    must reach every workload class, flash, and most rules."""
    classes = {categorize(c).value for c in _POOL}
    assert classes == {"oltp", "streaming", "file-server", "log-structured",
                       "idle"}
    rules = {r.rule for c in _POOL for r in recommend(c)}
    assert {"reverse-scans", "split-streams", "stripe-size", "write-cache",
            "queue-depth", "flash-write-amp", "flash-gc-pauses"} <= rules
    assert any(is_seekless(c) for c in _POOL)
