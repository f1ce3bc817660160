"""Online fingerprinting & drift detection (``repro.analysis.online``).

Covers the streaming analyzer end to end: personality matching,
hysteresis/drift-event semantics, idle-epoch handling, verdict
serialization, the ``analysis.drift`` fault site, server/cluster/fleet
wiring, the monotonic staleness bugfix, the fingerprint ``math.inf``
bugfix — and the partition-invariance property the acceptance criteria
pin: verdicts computed live over any epoch split/frame chunking are
identical to verdicts recomputed offline (one-shot replay or a store
tail) over the same epochs.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fingerprint import fingerprint
from repro.analysis.online import (
    DriftConfig,
    EpochVerdict,
    OnlineAnalyzer,
    format_verdict,
    match_personality,
)
from repro.core.collector import VscsiStatsCollector
from repro.core.histogram import BATCH_CROSSOVER
from repro.core.service import HistogramService
from repro.core.tracing import TraceRecord, replay_into_collector
from repro.faults import FaultPlan, inject
from repro.live import LiveStatsClient, LiveStatsServer, render_openmetrics
from repro.live.epochs import Epoch, EpochLedger
from repro.live.protocol import (bytes_to_columns, columns_to_bytes,
                                 encode_extents)
from repro.live.stream import DiskStream
from repro.parallel.trace_io import records_to_columns, replay_columns
from repro.store import HistogramStore
from repro.store.codec import collector_from_bytes, collector_to_bytes


# ----------------------------------------------------------------------
# Synthetic collectors with distinct personalities
# ----------------------------------------------------------------------
def _seq_read_collector(n=400, lba0=0):
    """64 KiB sequential reads — the seq-read-64k personality."""
    c = VscsiStatsCollector()
    t, lba = 0, lba0
    for _ in range(n):
        t += 1000
        c.on_issue(t, True, lba, 128, 8)
        c.on_complete(t + 50_000, True, 50_000)
        lba += 128
    return c


def _zipf_write_collector(n=400, seed=1):
    """4 KiB random, write-heavy — the zipf-write-4k personality."""
    c = VscsiStatsCollector()
    t = 0
    for i in range(n):
        t += 1000
        is_read = i % 5 == 0
        lba = ((i * 7919 + seed * 104_729) % 1_000_000) * 8
        c.on_issue(t, is_read, lba, 8, 16)
        c.on_complete(t + 80_000, is_read, 80_000)
    return c


def _idle_collector(n=10):
    return _seq_read_collector(n=n)


def _pairs(collector, vm="vm", vdisk="d0"):
    return [((vm, vdisk), collector)]


def _records(n, seed=7, start_serial=0, start_ns=0):
    """Deterministic synthetic trace in stream order."""
    state = seed
    out = []
    t = start_ns
    for i in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        t += 200 + state % 1500
        latency = 20_000 + (state >> 8) % 400_000
        out.append(TraceRecord(
            start_serial + i, t, t + latency,
            (state >> 3) % (1 << 28), 1 << (state % 6 + 3),
            state % 10 < 7,
        ))
    return out


# ----------------------------------------------------------------------
# Personality matching
# ----------------------------------------------------------------------
class TestMatchPersonality:
    def test_sequential_read_names_seq_read_64k(self):
        name, distance = match_personality(_seq_read_collector())
        assert name == "seq-read-64k"
        assert distance < 1.0

    def test_random_write_heavy_names_zipf_write_4k(self):
        name, _ = match_personality(_zipf_write_collector())
        assert name == "zipf-write-4k"

    def test_deterministic(self):
        c = _zipf_write_collector(seed=3)
        assert match_personality(c) == match_personality(c)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
class TestDriftConfig:
    @pytest.mark.parametrize("kwargs", [
        {"threshold": 0.0},
        {"threshold": 1.5},
        {"hysteresis_k": 0},
        {"min_commands": 0},
        {"families": ()},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)

    def test_defaults_valid(self):
        config = DriftConfig()
        assert config.threshold == 0.35
        assert config.hysteresis_k == 3


# ----------------------------------------------------------------------
# Hysteresis / drift events
# ----------------------------------------------------------------------
def _analyzer(k=3, threshold=0.35, min_commands=100):
    return OnlineAnalyzer(DriftConfig(threshold=threshold, hysteresis_k=k,
                                      min_commands=min_commands))


class TestHysteresis:
    def test_first_epoch_never_drifts(self):
        analyzer = _analyzer()
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector()))
        assert v.drift_score == 0.0
        assert not v.drifting and not v.drift_event

    def test_no_event_below_k(self):
        analyzer = _analyzer(k=3)
        analyzer.observe_epoch(_pairs(_seq_read_collector()))
        for seed in (1, 2):
            [v] = analyzer.observe_epoch(
                _pairs(_zipf_write_collector(seed=seed)))
            assert v.drifting and not v.drift_event
        assert analyzer.drift_events_total == 0

    def test_event_fires_exactly_at_k(self):
        analyzer = _analyzer(k=3)
        analyzer.observe_epoch(_pairs(_seq_read_collector()))
        verdicts = [
            analyzer.observe_epoch(
                _pairs(_zipf_write_collector(seed=seed)))[0]
            for seed in (1, 2, 3)
        ]
        assert [v.drift_event for v in verdicts] == [False, False, True]
        assert verdicts[-1].drift_score > 0.35
        assert verdicts[-1].drift_events_total == 1
        assert analyzer.drift_events_total == 1

    def test_baseline_rebases_after_event(self):
        analyzer = _analyzer(k=3)
        analyzer.observe_epoch(_pairs(_seq_read_collector()))
        for seed in (1, 2, 3):
            analyzer.observe_epoch(_pairs(_zipf_write_collector(seed=seed)))
        # The new personality is now the baseline: more of it is calm.
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector(seed=4)))
        assert not v.drifting and not v.drift_event
        assert v.drift_score <= 0.35

    def test_returning_to_baseline_resets_streak(self):
        analyzer = _analyzer(k=3)
        analyzer.observe_epoch(_pairs(_seq_read_collector()))
        for seed in (1, 2):
            analyzer.observe_epoch(_pairs(_zipf_write_collector(seed=seed)))
        # Suspect epochs were quarantined from the baseline, so the
        # original personality still reads as calm...
        [v] = analyzer.observe_epoch(_pairs(_seq_read_collector(lba0=999)))
        assert not v.drifting
        # ...and the interrupted streak must restart from zero.
        for seed in (5, 6):
            [v] = analyzer.observe_epoch(
                _pairs(_zipf_write_collector(seed=seed)))
            assert not v.drift_event
        assert analyzer.drift_events_total == 0

    def test_square_wave_fires_one_event_per_flip(self):
        """Personalities flip every 8 epochs over 40 under the default
        config: each flip outlasts K, so each fires exactly one event
        and no steady stretch fires any; a second fold over the same
        epochs repeats every verdict."""
        epochs = [_zipf_write_collector(seed=i) if (i // 8) % 2
                  else _seq_read_collector(lba0=i * 1000)
                  for i in range(40)]

        def fold():
            analyzer = OnlineAnalyzer()
            verdicts = [v.to_dict() for collector in epochs
                        for v in analyzer.observe_epoch(_pairs(collector))]
            return verdicts, analyzer.drift_events_total

        verdicts, events = fold()
        assert len(verdicts) == 40
        assert events == (40 - 1) // 8
        assert fold() == (verdicts, events)


class TestIdleEpochs:
    def test_idle_epoch_classified_without_personality(self):
        analyzer = _analyzer()
        [active] = analyzer.observe_epoch(_pairs(_seq_read_collector()))
        [idle] = analyzer.observe_epoch(_pairs(_idle_collector()))
        assert idle.personality is None
        assert math.isinf(idle.personality_distance)
        assert idle.streams == 0
        assert not idle.drifting and not idle.drift_event
        # Rules carry over from the last active epoch (empty deltas).
        assert idle.rules == active.rules
        assert idle.rules_added == () and idle.rules_removed == ()

    def test_idle_resets_streak(self):
        analyzer = _analyzer(k=3)
        analyzer.observe_epoch(_pairs(_seq_read_collector()))
        for seed in (1, 2):
            analyzer.observe_epoch(_pairs(_zipf_write_collector(seed=seed)))
        analyzer.observe_epoch(_pairs(_idle_collector()))
        for seed in (3, 4):
            [v] = analyzer.observe_epoch(
                _pairs(_zipf_write_collector(seed=seed)))
            assert not v.drift_event
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector(seed=5)))
        assert v.drift_event

    def test_idle_epoch_never_seeds_baseline(self):
        analyzer = _analyzer()
        analyzer.observe_epoch(_pairs(_idle_collector()))
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector()))
        assert v.drift_score == 0.0 and not v.drifting

    def test_lowered_floor_classifies_what_it_fingerprints(self):
        """One idle floor: an epoch above ``min_commands`` but below
        the classifier's default 100 used to get a personality and
        ``workload_class=idle`` with an empty rule set."""
        analyzer = _analyzer(min_commands=50)
        [v] = analyzer.observe_epoch(_pairs(_seq_read_collector(n=60)))
        assert v.personality == "seq-read-64k"
        assert v.workload_class.value == "streaming"
        assert "stripe-size" in v.rules and v.rules_added == v.rules
        # The next epoch of the same workload changes no rule.
        [v] = analyzer.observe_epoch(
            _pairs(_seq_read_collector(n=60, lba0=60 * 128)))
        assert v.rules_added == () and v.rules_removed == ()

    def test_raised_floor_keeps_inactive_epochs_idle(self):
        analyzer = _analyzer(min_commands=500)
        [v] = analyzer.observe_epoch(_pairs(_seq_read_collector(n=200)))
        assert v.personality is None and v.rules == ()
        assert v.workload_class.value == "idle"


class TestObserveEpochShapes:
    def test_accepts_epoch_object_and_uses_its_index(self):
        disks, payload = encode_extents([(("vm", "d0"),
                                          _seq_read_collector())])
        epoch = Epoch(7, disks, payload, records=400, sealed_unix=1.0,
                      span_ns=(0, 10**9))
        analyzer = _analyzer()
        [v] = analyzer.observe_epoch(epoch)
        assert v.epoch == 7

    def test_default_index_counts_epochs(self):
        analyzer = _analyzer()
        [a] = analyzer.observe_epoch(_pairs(_seq_read_collector()))
        [b] = analyzer.observe_epoch(_pairs(_seq_read_collector()))
        assert (a.epoch, b.epoch) == (0, 1)
        assert analyzer.epochs_seen == 2
        assert analyzer.verdicts_total == 2

    def test_disks_processed_in_sorted_order(self):
        analyzer = _analyzer()
        pairs = [(("b", "d"), _seq_read_collector()),
                 (("a", "d"), _zipf_write_collector())]
        verdicts = analyzer.observe_epoch(pairs)
        assert [(v.vm, v.vdisk) for v in verdicts] == [("a", "d"),
                                                       ("b", "d")]
        assert [(v.vm, v.vdisk) for v in analyzer.verdicts()] \
            == [("a", "d"), ("b", "d")]


# ----------------------------------------------------------------------
# Verdict serialization & rendering
# ----------------------------------------------------------------------
class TestVerdictSerde:
    def test_round_trip_active(self):
        analyzer = _analyzer()
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector()))
        data = json.loads(json.dumps(v.to_dict()))
        assert EpochVerdict.from_dict(data) == v

    def test_round_trip_idle_infinity(self):
        analyzer = _analyzer()
        [v] = analyzer.observe_epoch(_pairs(_idle_collector()))
        data = v.to_dict()
        assert data["personality_distance"] is None  # JSON-safe
        restored = EpochVerdict.from_dict(json.loads(json.dumps(data)))
        assert math.isinf(restored.personality_distance)
        assert restored == v

    def test_format_verdict_mentions_the_load_bearing_parts(self):
        analyzer = _analyzer(k=1)
        analyzer.observe_epoch(_pairs(_seq_read_collector()))
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector()))
        line = format_verdict(v)
        assert "[e0001]" in line and "vm/d0" in line
        assert "~zipf-write-4k" in line
        assert "** DRIFT EVENT #1 **" in line

    def test_format_verdict_marks_streak_in_progress(self):
        analyzer = _analyzer(k=3)
        analyzer.observe_epoch(_pairs(_seq_read_collector()))
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector()))
        assert "(drifting)" in format_verdict(v)


# ----------------------------------------------------------------------
# Fault site
# ----------------------------------------------------------------------
class TestAnalysisDriftFaultSite:
    def test_partial_forces_drift_event_on_steady_workload(self):
        analyzer = _analyzer(k=1)
        plan = FaultPlan().partial("analysis.drift", at=1)
        with inject(plan):
            analyzer.observe_epoch(_pairs(_seq_read_collector()))
            [v] = analyzer.observe_epoch(_pairs(_seq_read_collector()))
        assert v.drift_score == 1.0
        assert v.drift_event
        assert analyzer.drift_events_total == 1

    def test_error_propagates(self):
        analyzer = _analyzer()
        with inject(FaultPlan().error("analysis.drift", at=0)):
            with pytest.raises(OSError):
                analyzer.observe_epoch(_pairs(_seq_read_collector()))


# ----------------------------------------------------------------------
# Store seeding / tailing
# ----------------------------------------------------------------------
class TestStoreIntegration:
    def _store_with_epoch(self, tmp_path, collector, start_ns=0,
                          end_ns=10 ** 9):
        store = HistogramStore.create(tmp_path / "store")
        service = HistogramService()
        service.adopt(("vm", "d0"), collector)
        store.append_epoch(service, start_ns, end_ns, sync=True)
        return store

    def test_seed_from_store_adopts_history_as_baseline(self, tmp_path):
        store = self._store_with_epoch(tmp_path, _seq_read_collector())
        try:
            analyzer = _analyzer(k=1)
            assert analyzer.seed_from_store(store) == 1
        finally:
            store.close()
        # The very first observed epoch is judged against the recorded
        # history — a personality switch is caught immediately.
        [v] = analyzer.observe_epoch(_pairs(_zipf_write_collector()))
        assert v.drifting and v.drift_event

    def test_tail_returns_records_past_watermark(self, tmp_path):
        store = self._store_with_epoch(tmp_path, _seq_read_collector())
        try:
            service = HistogramService()
            service.adopt(("vm", "d0"), _zipf_write_collector())
            store.append_epoch(service, 10 ** 9, 2 * 10 ** 9, sync=True)
            everything = store.tail()
            assert len(everything) == 2
            assert [r.seq for r in everything] \
                == sorted(r.seq for r in everything)
            newer = store.tail(everything[0].seq)
            assert [r.seq for r in newer] == [everything[1].seq]
            assert (newer[0].start_ns, newer[0].end_ns) \
                == (10 ** 9, 2 * 10 ** 9)
        finally:
            store.close()


class TestDrainEpochGroups:
    def test_holds_back_newest_span_until_proven_complete(self):
        from repro.cli import _drain_epoch_groups
        a, b = (0, 10), (10, 20)
        pending = [(a, ("vm", "d0"), "c1"), (a, ("vm", "d1"), "c2"),
                   (b, ("vm", "d0"), "c3")]
        groups, held = _drain_epoch_groups(pending, final=False)
        assert groups == [pending[:2]]
        assert held == pending[2:]
        groups, held = _drain_epoch_groups(pending, final=True)
        assert groups == [pending[:2], pending[2:]]
        assert held == []


# ----------------------------------------------------------------------
# Exposition
# ----------------------------------------------------------------------
class TestExposition:
    def test_verdict_gauges_rendered_with_escaping(self):
        analyzer = _analyzer(k=1)
        analyzer.observe_epoch(
            _pairs(_seq_read_collector(), vm='v"m\\', vdisk="d0"))
        text = render_openmetrics([], {}, verdicts=analyzer.verdicts())
        assert "# TYPE live_drift_score gauge" in text
        assert "# TYPE live_workload_class gauge" in text
        assert 'vm="v\\"m\\\\",vdisk="d0"' in text
        assert "live_drift_events_total" in text
        assert text.rstrip().endswith("# EOF")

    def test_no_verdicts_no_drift_families(self):
        text = render_openmetrics([], {})
        assert "live_drift_score" not in text


# ----------------------------------------------------------------------
# Daemon wiring
# ----------------------------------------------------------------------
class TestServerWiring:
    def test_verdicts_op_and_metrics_gauges(self):
        config = DriftConfig(hysteresis_k=1, min_commands=50)
        with LiveStatsServer(port=0, online=config) as srv:
            with LiveStatsClient(*srv.address) as cli:
                cli.publish_columns(
                    "vm0", "d0", records_to_columns(_records(600)),
                    frame_records=200)
                cli.rotate()
                doc = cli.verdicts()
                assert doc["online"] is True
                assert doc["epochs_seen"] == 1
                assert "vm0/d0" in doc["disks"]
                assert doc["config"]["hysteresis_k"] == 1
                metrics = cli.metrics()
                assert "live_drift_score{" in metrics
                assert 'live_workload_class{vm="vm0",vdisk="d0"' in metrics
                assert "live_drift_events_total{" in metrics
                info = cli.info()
                assert info["online"]["verdicts_total"] == 1

    def test_analyzer_disabled(self):
        with LiveStatsServer(port=0, online=False) as srv:
            with LiveStatsClient(*srv.address) as cli:
                assert cli.verdicts() == {"online": False}
                assert "live_drift_score" not in cli.metrics()

    def test_live_verdicts_identical_to_store_replay(self, tmp_path):
        """Acceptance: the daemon's rolling verdicts equal a fresh
        analyzer's fold over the persisted epoch sequence."""
        with LiveStatsServer(port=0, store=tmp_path / "store") as srv:
            with LiveStatsClient(*srv.address) as cli:
                cli.publish_columns(
                    "vm0", "d0", records_to_columns(_records(600)),
                    frame_records=200)
                cli.rotate()
                cli.publish_columns(
                    "vm0", "d0",
                    records_to_columns(_records(600, seed=11, start_serial=600,
                             start_ns=10 ** 12)),
                    frame_records=200)
                cli.rotate()
                live = cli.verdicts()
            srv.close()

        store = HistogramStore.open(tmp_path / "store", readonly=True)
        try:
            replay = OnlineAnalyzer()  # the daemon's default config
            index = 0
            pending = []
            for record in store.tail():
                if record.tier != 0:
                    continue
                pending.append(((record.start_ns, record.end_ns),
                                (record.vm, record.vdisk),
                                record.load()))
            span = None
            pairs = []
            for item_span, key, collector in pending:
                if span is not None and item_span != span:
                    replay.observe_epoch(pairs, index=index)
                    index, pairs = index + 1, []
                span = item_span
                pairs.append((key, collector))
            if pairs:
                replay.observe_epoch(pairs, index=index)
        finally:
            store.close()

        offline = replay.to_dict()
        assert live["disks"] == offline["disks"]
        assert live["epochs_seen"] == offline["epochs_seen"]
        assert live["verdicts_total"] == offline["verdicts_total"]
        assert live["drift_events_total"] == offline["drift_events_total"]


# ----------------------------------------------------------------------
# Fleet wiring
# ----------------------------------------------------------------------
class TestFleetWiring:
    def _snapshot_header(self, record, host="h1", epoch=0, **extra):
        header = {"host": host, "epoch": epoch, "records": 400,
                  "disks": [{"vm": "vm", "vdisk": "d0", "off": 0,
                             "len": len(record)}]}
        header.update(extra)
        return header

    def test_root_analyzer_observes_applied_snapshots(self):
        from repro.fleet.aggregator import FleetAggregator
        agg = FleetAggregator(online=True)
        record = collector_to_bytes(_zipf_write_collector())
        header = self._snapshot_header(record)
        applied, _ = agg.ledger.apply(header, record, via="s1")
        assert applied
        agg._record(header, [(("vm", "d0"), record)])
        doc = agg.verdicts_dict()
        assert doc["online"] is True and doc["role"] == "root"
        assert "vm/d0" in doc["disks"]
        assert doc["disks"]["vm/d0"]["epoch"] == 0
        assert doc["analysis_errors_total"] == 0

    def test_analyzer_failure_counted_not_raised(self):
        from repro.fleet.aggregator import FleetAggregator
        agg = FleetAggregator(online=True)
        header = self._snapshot_header(b"garbage")
        agg._record(header, [(("vm", "d0"), b"garbage")])
        assert agg.analysis_errors_total == 1
        assert agg.verdicts_dict()["analysis_errors_total"] == 1

    def test_offline_aggregator_reports_so(self):
        from repro.fleet.aggregator import FleetAggregator
        doc = FleetAggregator(online=False).verdicts_dict()
        assert doc["online"] is False and doc["role"] == "root"


class TestFleetMonotonicStaleness:
    class _FakeTime:
        """Stand-in for the ``time`` module with steerable clocks."""

        def __init__(self, wall, mono):
            self.wall, self.mono = wall, mono

        def time(self):
            return self.wall

        def monotonic(self):
            return self.mono

    def test_wall_clock_step_does_not_inflate_staleness(self, monkeypatch):
        """Regression: an NTP step between anchor and apply used to
        inject the full step into the staleness reservoir."""
        import repro.fleet.state as state_mod
        from repro.fleet.state import FleetLedger
        clock = self._FakeTime(wall=1000.0, mono=500.0)
        monkeypatch.setattr(state_mod, "time", clock)
        ledger = FleetLedger()
        # 1 monotonic second elapses; the wall clock steps +10000s.
        clock.wall, clock.mono = 11_000.0, 501.0
        record = collector_to_bytes(_seq_read_collector())
        header = {"host": "h1", "epoch": 0, "records": 400,
                  "sealed_unix": 999.0,
                  "disks": [{"vm": "vm", "vdisk": "d0", "off": 0,
                             "len": len(record)}]}
        applied, staleness = ledger.apply(header, record)
        assert applied
        assert staleness == pytest.approx(2.0)  # 1001 - 999, not ~10001

    def test_publisher_clock_ahead_clamps_to_zero(self, monkeypatch):
        import repro.fleet.state as state_mod
        from repro.fleet.state import FleetLedger
        clock = self._FakeTime(wall=1000.0, mono=500.0)
        monkeypatch.setattr(state_mod, "time", clock)
        ledger = FleetLedger()
        record = collector_to_bytes(_seq_read_collector())
        header = {"host": "h1", "epoch": 0, "records": 400,
                  "sealed_unix": 5000.0,
                  "disks": [{"vm": "vm", "vdisk": "d0", "off": 0,
                             "len": len(record)}]}
        _, staleness = ledger.apply(header, record)
        assert staleness == 0.0


# ----------------------------------------------------------------------
# Fingerprint bugfix
# ----------------------------------------------------------------------
class TestFingerprintScaleFree:
    def test_all_read_workloads_of_different_lengths_compare_close(self):
        """Regression: the old ``float(read_commands)`` fallback made
        the read/write ratio scale-dependent for read-only workloads."""
        short = fingerprint(_seq_read_collector(n=200))
        long = fingerprint(_seq_read_collector(n=400))
        assert math.isinf(short.read_write_ratio)
        assert math.isinf(long.read_write_ratio)
        assert short.close_to(long)

    def test_infinite_vs_finite_ratio_not_close(self):
        all_read = fingerprint(_seq_read_collector())
        mixed = fingerprint(_zipf_write_collector())
        assert not all_read.close_to(mixed)


# ----------------------------------------------------------------------
# Partition invariance (acceptance property)
# ----------------------------------------------------------------------
def _columns(records):
    return bytes_to_columns(columns_to_bytes(records_to_columns(records)))


def _make_records(raw):
    records = [
        TraceRecord(serial, issue, issue + latency, lba, nblocks, is_read)
        for serial, (issue, latency, lba, nblocks, is_read)
        in enumerate(raw)
    ]
    return sorted(records, key=lambda r: (r.issue_ns, r.serial))


record_lists = st.lists(
    st.tuples(
        st.integers(0, 2_000_000),   # issue_ns
        st.integers(0, 300_000),     # latency_ns
        st.integers(0, 1 << 30),     # lba
        st.integers(1, 2048),        # nblocks
        st.booleans(),               # is_read
    ),
    min_size=1, max_size=100,
)


def _verdict_dicts(analyzer, epoch_collectors):
    out = []
    for collector in epoch_collectors:
        for v in analyzer.observe_epoch(_pairs(collector)):
            out.append(v.to_dict())
    return out


def _epochs_via_stream(records, bounds, frame_records, columns=None):
    """Seal one collector per epoch through the live ingest path."""
    stream = DiskStream()
    columns = columns or _columns
    epochs = []
    for start, stop in zip(bounds, bounds[1:]):
        for lo in range(start, stop, frame_records):
            chunk = records[lo:min(lo + frame_records, stop)]
            if chunk:
                stream.ingest(columns(chunk))
        sealed = stream.seal()
        if sealed is not None:
            epochs.append(sealed)
    return epochs


class TestPartitionInvariance:
    @settings(max_examples=25, deadline=None)
    @given(raw=record_lists, data=st.data())
    def test_live_verdicts_equal_one_shot_replay_verdicts(self, raw, data):
        """Acceptance: for any epoch split and any frame chunking, the
        online verdict sequence equals the sequence from an offline
        fold over the same epochs (the other ingest tier — frames kept
        below ``BATCH_CROSSOVER`` loop the scalar hooks — sealed at the
        same cut points: epoch collectors keep their inter-epoch stream
        coupling, so the offline fold must be continuous, not
        per-slice)."""
        records = _make_records(raw)
        n = len(records)
        n_epochs = data.draw(st.integers(1, min(4, n)), label="n_epochs")
        cuts = sorted(data.draw(
            st.lists(st.integers(0, n), min_size=n_epochs - 1,
                     max_size=n_epochs - 1),
            label="cuts",
        ))
        frame_records = data.draw(st.integers(1, n), label="frame_records")
        bounds = [0] + cuts + [n]

        config = DriftConfig(min_commands=1, hysteresis_k=1)
        live = _verdict_dicts(
            OnlineAnalyzer(config),
            _epochs_via_stream(records, bounds, frame_records))
        offline = _verdict_dicts(
            OnlineAnalyzer(config),
            _epochs_via_stream(records, bounds, BATCH_CROSSOVER - 1,
                               columns=records_to_columns))
        assert live == offline

    @settings(max_examples=15, deadline=None)
    @given(raw=record_lists)
    def test_single_epoch_equals_fresh_offline_replay(self, raw):
        """With one epoch there is no inter-epoch coupling: the sealed
        collector's verdict is exactly the verdict of an independent
        ``replay_into_collector`` run over the whole trace."""
        records = _make_records(raw)
        config = DriftConfig(min_commands=1, hysteresis_k=1)
        live = _verdict_dicts(
            OnlineAnalyzer(config),
            _epochs_via_stream(records, [0, len(records)], len(records)))
        offline = _verdict_dicts(
            OnlineAnalyzer(config),
            [replay_into_collector(records, VscsiStatsCollector())])
        assert live == offline

    @settings(max_examples=25, deadline=None)
    @given(raw=record_lists, data=st.data())
    def test_frame_chunking_never_changes_verdicts(self, raw, data):
        records = _make_records(raw)
        n = len(records)
        cuts = sorted(data.draw(
            st.lists(st.integers(0, n), min_size=0, max_size=3),
            label="cuts",
        ))
        frame_a = data.draw(st.integers(1, n), label="frame_a")
        frame_b = data.draw(st.integers(1, n), label="frame_b")
        bounds = [0] + cuts + [n]
        config = DriftConfig(min_commands=1, hysteresis_k=1)
        via_a = _verdict_dicts(
            OnlineAnalyzer(config),
            _epochs_via_stream(records, bounds, frame_a))
        via_b = _verdict_dicts(
            OnlineAnalyzer(config),
            _epochs_via_stream(records, bounds, frame_b))
        assert via_a == via_b

    @settings(max_examples=15, deadline=None)
    @given(raw=record_lists)
    def test_codec_round_trip_preserves_verdicts(self, raw):
        """The store/fleet path ships collectors as RPHCOL2 bytes; the
        decode must not perturb a single verdict field."""
        records = _make_records(raw)
        collector = replay_columns(records_to_columns(records))
        config = DriftConfig(min_commands=1, hysteresis_k=1)
        direct = _verdict_dicts(OnlineAnalyzer(config), [collector])
        decoded = _verdict_dicts(
            OnlineAnalyzer(config),
            [collector_from_bytes(collector_to_bytes(collector))])
        assert direct == decoded
