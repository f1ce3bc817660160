"""End-to-end tests for the durable histogram store.

The centerpiece is the Hypothesis-pinned compaction identity: for any
generated epoch sequence and any interleaving of checkpoints and
compactions (default or custom tiers), a range query returns exactly
the merge of the raw epochs overlapping its covered span — compaction
changes storage granularity, never a bin count.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import VscsiStatsCollector
from repro.core.service import HistogramService
from repro.live.epochs import EpochLedger
from repro.parallel import records_to_columns
from repro.store import (
    DEFAULT_TIERS_NS,
    HistogramStore,
    plan_compaction,
    select_retained,
)

SECOND_NS = 1_000_000_000


def make_collector(ops):
    """Replay ``(dt, is_read, lba, nblocks, qd, latency)`` tuples."""
    collector = VscsiStatsCollector()
    t = 1_000
    for dt, is_read, lba, nblocks, outstanding, latency_ns in ops:
        t += dt
        collector.on_issue(t, is_read, lba, nblocks, outstanding)
        collector.on_complete(t + latency_ns, is_read, latency_ns)
    return collector


def simple_collector(seed, n=12):
    ops = []
    state = seed * 2654435761 % (1 << 31) or 1
    for _ in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        ops.append((100 + state % 5000, state % 2 == 0,
                    state % (1 << 24), 1 << (state % 5 + 3),
                    state % 8, 10_000 + state % 1_000_000))
    return make_collector(ops)


def merge_service(epochs):
    """Exact merge of raw ``(vm, vdisk, start, end, collector)`` epochs."""
    service = HistogramService()
    for vm, vdisk, _start, _end, collector in epochs:
        service.adopt((vm, vdisk), collector.copy())
    return service


class TestLifecycle:
    def test_create_append_query_reopen(self, tmp_path):
        path = tmp_path / "store"
        with HistogramStore.create(path) as store:
            for i in range(5):
                store.append("vm1", "d0", i * SECOND_NS,
                             (i + 1) * SECOND_NS, simple_collector(i))
            assert len(store) == 5
            result = store.query(0, 5 * SECOND_NS - 1)
            assert result.epochs == 5
            assert result.covered_start_ns == 0
            assert result.covered_end_ns == 5 * SECOND_NS
            store.checkpoint()
        with HistogramStore.open(path) as store:
            assert len(store) == 5
            assert store.epochs == 5
            assert store.disks() == [("vm1", "d0")]

    def test_unsealed_wal_records_survive_close(self, tmp_path):
        path = tmp_path / "store"
        with HistogramStore.create(path) as store:
            store.append("vm1", "d0", 0, SECOND_NS, simple_collector(1))
            # no checkpoint — the record lives only in the WAL
        with HistogramStore.open(path) as store:
            assert len(store) == 1
            assert store.query(0, SECOND_NS).epochs == 1

    def test_auto_checkpoint_at_seal_threshold(self, tmp_path):
        with HistogramStore.create(tmp_path / "s",
                                   wal_seal_records=3) as store:
            for i in range(7):
                store.append("vm", "d", i * SECOND_NS, (i + 1) * SECOND_NS,
                             simple_collector(i))
            assert store.checkpoints_total == 2
            assert len(store._wal_records) == 1

    def test_append_rejects_empty_span(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            with pytest.raises(ValueError, match="non-empty"):
                store.append("vm", "d", SECOND_NS, SECOND_NS,
                             simple_collector(1))

    def test_closed_store_rejects_operations(self, tmp_path):
        store = HistogramStore.create(tmp_path / "s")
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.append("vm", "d", 0, 1, simple_collector(1))

    def test_query_matches_raw_merge(self, tmp_path):
        epochs = []
        with HistogramStore.create(tmp_path / "s") as store:
            for i in range(4):
                for vm in ("vmA", "vmB"):
                    collector = simple_collector(i * 10 + hash(vm) % 7)
                    store.append(vm, "d0", i * SECOND_NS,
                                 (i + 1) * SECOND_NS, collector)
                    epochs.append((vm, "d0", i * SECOND_NS,
                                   (i + 1) * SECOND_NS, collector))
            result = store.query(0, 4 * SECOND_NS)
            assert result.service == merge_service(epochs)

    def test_vm_vdisk_filters(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            store.append("vmA", "d0", 0, SECOND_NS, simple_collector(1))
            store.append("vmB", "d0", 0, SECOND_NS, simple_collector(2))
            store.append("vmB", "d1", 0, SECOND_NS, simple_collector(3))
            assert store.query(0, SECOND_NS, vm="vmA").disks \
                == [("vmA", "d0")]
            assert store.query(0, SECOND_NS, vm="vmB").records == 2
            assert store.query(0, SECOND_NS, vdisk="d1").disks \
                == [("vmB", "d1")]

    def test_empty_query(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            store.append("vm", "d", 0, SECOND_NS, simple_collector(1))
            result = store.query(50 * SECOND_NS, 60 * SECOND_NS)
            assert result.records == 0
            assert result.covered_start_ns is None
            assert list(result.service.collectors()) == []


class TestOpenValidation:
    def test_open_missing_directory(self, tmp_path):
        missing = tmp_path / "nope"
        with pytest.raises(ValueError, match=str(missing)):
            HistogramStore.open(missing)

    def test_open_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no MANIFEST"):
            HistogramStore.open(empty)

    def test_open_foreign_directory(self, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("hello")
        with pytest.raises(ValueError, match=str(foreign)):
            HistogramStore.open(foreign)

    def test_open_bad_manifest_json(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "MANIFEST.json").write_text("{not json")
        with pytest.raises(ValueError, match="unreadable"):
            HistogramStore.open(bad)

    def test_open_wrong_format_marker(self, tmp_path):
        wrong = tmp_path / "wrong"
        wrong.mkdir()
        (wrong / "MANIFEST.json").write_text(
            json.dumps({"format": "someone-elses-db"})
        )
        with pytest.raises(ValueError, match="someone-elses-db"):
            HistogramStore.open(wrong)

    def test_create_refuses_nonempty_foreign_dir(self, tmp_path):
        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "data.txt").write_text("hello")
        with pytest.raises(ValueError, match="not empty"):
            HistogramStore.create(foreign)

    def test_create_refuses_existing_store(self, tmp_path):
        path = tmp_path / "s"
        HistogramStore.create(path).close()
        with pytest.raises(ValueError, match="already"):
            HistogramStore.create(path)

    def test_open_or_create_round_trip(self, tmp_path):
        path = tmp_path / "s"
        store = HistogramStore.open_or_create(path)
        store.append("vm", "d", 0, SECOND_NS, simple_collector(1))
        store.checkpoint()
        store.close()
        with HistogramStore.open_or_create(path) as again:
            assert len(again) == 1

    def test_stray_tmp_and_orphan_segments_swept(self, tmp_path):
        path = tmp_path / "s"
        with HistogramStore.create(path) as store:
            store.append("vm", "d", 0, SECOND_NS, simple_collector(1))
            store.checkpoint()
        (path / "seg-00000009.seg.tmp").write_bytes(b"partial")
        (path / "seg-00000042.seg").write_bytes(b"orphaned")
        with HistogramStore.open(path) as store:
            assert len(store) == 1
        assert not (path / "seg-00000009.seg.tmp").exists()
        assert not (path / "seg-00000042.seg").exists()


class TestConcurrencyGuards:
    """A writable handle owns the store; readers never destroy state."""

    def test_second_writer_is_locked_out(self, tmp_path):
        path = tmp_path / "s"
        with HistogramStore.create(path):
            with pytest.raises(ValueError, match="locked"):
                HistogramStore.open(path)
        # The lock dies with the handle: a fresh open succeeds.
        HistogramStore.open(path).close()

    def test_readonly_open_coexists_with_writer(self, tmp_path):
        path = tmp_path / "s"
        with HistogramStore.create(path) as writer:
            writer.append("vm", "d", 0, SECOND_NS, simple_collector(1))
            writer.checkpoint()
            writer.append("vm", "d", SECOND_NS, 2 * SECOND_NS,
                          simple_collector(2))
            writer.sync()
            with HistogramStore.open(path, readonly=True) as ro:
                assert ro.readonly
                assert len(ro) == 2  # segment + fsynced WAL tail
                result = ro.query(0, 2 * SECOND_NS)
                assert result.epochs == 2
            # Reader never disturbed the writer.
            writer.append("vm", "d", 2 * SECOND_NS, 3 * SECOND_NS,
                          simple_collector(3))
        with HistogramStore.open(path) as store:
            assert store.epochs == 3

    def test_readonly_rejects_every_mutation(self, tmp_path):
        path = tmp_path / "s"
        with HistogramStore.create(path) as store:
            store.append("vm", "d", 0, SECOND_NS, simple_collector(1))
            store.checkpoint()
        with HistogramStore.open(path, readonly=True) as ro:
            for mutate in (
                lambda: ro.append("vm", "d", SECOND_NS, 2 * SECOND_NS,
                                  simple_collector(2)),
                lambda: ro.checkpoint(),
                lambda: ro.sync(),
                lambda: ro.compact(),
                lambda: ro.retire_segments(SECOND_NS),
            ):
                with pytest.raises(ValueError, match="read-only"):
                    mutate()

    def test_readonly_never_truncates_a_torn_wal(self, tmp_path):
        path = tmp_path / "s"
        with HistogramStore.create(path, fsync="always") as store:
            store.append("vm", "d", 0, SECOND_NS, simple_collector(1))
        wal = path / "wal.log"
        torn = wal.stat().st_size
        with open(wal, "ab") as fileobj:
            fileobj.write(b"\xff" * 11)  # a live writer's partial frame
        size_with_tail = wal.stat().st_size
        with HistogramStore.open(path, readonly=True) as ro:
            assert len(ro) == 1  # the intact prefix is readable
            assert ro.truncated_wal_bytes == 0
        assert wal.stat().st_size == size_with_tail  # untouched
        # A writable open performs real recovery and truncates.
        with HistogramStore.open(path) as store:
            assert store.truncated_wal_bytes == 11
            assert len(store) == 1
        assert wal.stat().st_size == torn

    def test_readonly_leaves_strays_alone(self, tmp_path):
        path = tmp_path / "s"
        with HistogramStore.create(path) as store:
            store.append("vm", "d", 0, SECOND_NS, simple_collector(1))
            store.checkpoint()
        stray_tmp = path / "seg-00000009.seg.tmp"
        orphan = path / "seg-00000042.seg"
        stray_tmp.write_bytes(b"partial")
        orphan.write_bytes(b"orphaned")
        with HistogramStore.open(path, readonly=True) as ro:
            assert len(ro) == 1  # only manifest-listed segments load
        # A concurrent writer may own these files; the reader must not
        # have swept them.
        assert stray_tmp.exists() and orphan.exists()

    def test_cli_reads_work_while_daemon_holds_the_lock(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        path = tmp_path / "s"
        with HistogramStore.create(path) as writer:
            writer.append("vm", "d", 0, SECOND_NS, simple_collector(1))
            writer.sync()
            assert main(["store", "inspect", str(path)]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["readonly"] and doc["records"] == 1
            assert main(["store", "query", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["epochs"] == 1
            # Compact needs the writer lock and must fail loudly
            # instead of truncating the daemon's WAL.
            rc = main(["store", "compact", str(path)])
            assert rc == 1
            assert "locked" in capsys.readouterr().err
        assert main(["store", "compact", str(path)]) == 0


class TestCompaction:
    def test_default_tiers_fold_epochs(self, tmp_path):
        epochs = []
        with HistogramStore.create(tmp_path / "s") as store:
            # 30 epochs of 10s -> five 1-minute windows worth of data.
            for i in range(30):
                collector = simple_collector(i)
                span = (i * 10 * SECOND_NS, (i + 1) * 10 * SECOND_NS)
                store.append("vm", "d", span[0], span[1], collector)
                epochs.append(("vm", "d", span[0], span[1], collector))
            before = store.query(0, 300 * SECOND_NS).service
            summary = store.compact()
            assert summary["rewritten"]
            assert summary["records_after"] < summary["records_before"]
            after = store.query(0, 300 * SECOND_NS).service
            assert after == before
            assert after == merge_service(epochs)
            assert store.epochs == 30  # provenance preserved

    def test_compaction_is_idempotent(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            for i in range(12):
                store.append("vm", "d", i * 10 * SECOND_NS,
                             (i + 1) * 10 * SECOND_NS, simple_collector(i))
            store.compact()
            state = [h.meta() for h in store.records()]
            summary = store.compact()
            assert not summary["rewritten"]
            assert [h.meta() for h in store.records()] == state

    def test_retention_drops_old_records(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            for i in range(10):
                store.append("vm", "d", i * SECOND_NS, (i + 1) * SECOND_NS,
                             simple_collector(i))
            summary = store.compact(retain_before_ns=5 * SECOND_NS)
            assert summary["records_dropped"] == 5
            assert store.epochs == 5
            result = store.query(0, 10 * SECOND_NS)
            assert result.covered_start_ns == 5 * SECOND_NS

    def test_retire_segments(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            store.append("vm", "d", 0, SECOND_NS, simple_collector(1))
            store.checkpoint()
            store.append("vm", "d", SECOND_NS, 2 * SECOND_NS,
                         simple_collector(2))
            store.checkpoint()
            retired = store.retire_segments(SECOND_NS)
            assert len(retired) == 1
            assert len(store) == 1
            assert store.retire_segments(0) == []

    def test_plan_respects_tier_boundaries(self):
        class H:
            def __init__(self, vm, start, end, tier=0):
                self.vm, self.vdisk = vm, "d"
                self.start_ns, self.end_ns, self.tier = start, end, tier

        minute = 60 * SECOND_NS
        handles = [H("vm", 0, 30 * SECOND_NS),
                   H("vm", 30 * SECOND_NS, minute),
                   H("vm", minute, minute + 30 * SECOND_NS)]
        plan = plan_compaction(handles)
        # First two share the minute window; the third is 15m-windowed
        # with the merged pair at the next step, so everything folds.
        assert plan.merges >= 1
        grouped = {id(m) for g in plan.merged for m in g.members}
        assert id(handles[0]) in grouped and id(handles[1]) in grouped

    def test_plan_rejects_bad_tier(self):
        with pytest.raises(ValueError, match="positive"):
            plan_compaction([], tiers_ns=(0,))

    def test_select_retained(self):
        class H:
            def __init__(self, end):
                self.end_ns = end

        handles = [H(5), H(10), H(15)]
        kept, dropped = select_retained(handles, 10)
        assert [h.end_ns for h in kept] == [15]
        assert [h.end_ns for h in dropped] == [5, 10]
        kept, dropped = select_retained(handles, None)
        assert len(kept) == 3 and not dropped


# ----------------------------------------------------------------------
# The Hypothesis-pinned compaction identity
# ----------------------------------------------------------------------

epoch_plan = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=120),   # epoch width, seconds
        st.integers(min_value=0, max_value=100),   # collector seed
        st.sampled_from(["vmA", "vmB"]),
        st.booleans(),                              # checkpoint after?
        st.sampled_from(["none", "default", "fine"]),  # compact after?
    ),
    min_size=1, max_size=14,
)


class TestCompactionIdentity:
    @settings(max_examples=25, deadline=None)
    @given(epoch_plan, st.data())
    def test_any_schedule_preserves_queries(self, plan, data):
        """Any epoch sequence x any checkpoint/compaction interleaving:
        range queries equal the merge of the raw epochs overlapping the
        returned covered span."""
        fine_tiers = (30 * SECOND_NS, 120 * SECOND_NS)
        raw = []
        with tempfile.TemporaryDirectory() as tmp:
            with HistogramStore.create(os.path.join(tmp, "s"),
                                       wal_seal_records=1000) as store:
                t = 0
                for width_s, seed, vm, do_ckpt, do_compact in plan:
                    start, end = t, t + width_s * SECOND_NS
                    t = end
                    collector = simple_collector(seed)
                    store.append(vm, "d0", start, end, collector)
                    raw.append((vm, "d0", start, end, collector))
                    if do_ckpt:
                        store.checkpoint()
                    if do_compact == "default":
                        store.compact()
                    elif do_compact == "fine":
                        store.compact(tiers_ns=fine_tiers)

                total_span = raw[-1][3]
                # Identity 1: the full range is schedule-independent.
                full = store.query(0, total_span)
                assert full.service == merge_service(raw)
                assert full.epochs == len(raw)

                # Identity 2: an arbitrary sub-range equals the raw
                # merge over the *covered* span the query reports.
                q0 = data.draw(st.integers(0, total_span), label="q0")
                q1 = data.draw(st.integers(q0, total_span), label="q1")
                result = store.query(q0, q1)
                if result.records == 0:
                    expected_raw = [e for e in raw
                                    if e[2] < q1 + 1 and e[3] > q0]
                    assert expected_raw == []
                else:
                    c0 = result.covered_start_ns
                    c1 = result.covered_end_ns
                    expected_raw = [e for e in raw
                                    if e[2] < c1 and e[3] > c0]
                    assert result.service == merge_service(expected_raw)
                    assert result.epochs == len(expected_raw)
                    # The covered span contains the requested range
                    # clipped to stored data.
                    assert c0 <= max(q0, 0) or c0 == min(e[2] for e in expected_raw)

    @settings(max_examples=15, deadline=None)
    @given(epoch_plan)
    def test_reopen_equals_inline(self, plan):
        """Close/reopen between operations changes nothing."""
        raw = []
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "s")
            HistogramStore.create(path).close()
            t = 0
            for width_s, seed, vm, do_ckpt, do_compact in plan:
                with HistogramStore.open(path) as store:
                    start, end = t, t + width_s * SECOND_NS
                    t = end
                    collector = simple_collector(seed)
                    store.append(vm, "d0", start, end, collector)
                    raw.append((vm, "d0", start, end, collector))
                    if do_compact != "none":
                        store.compact()
            with HistogramStore.open(path) as store:
                assert store.query(0, t).service == merge_service(raw)


class TestQueryCache:
    """The store's cached :class:`QueryIndex`: reused across queries,
    dropped by every mutation, and never a source of stale or shared
    results."""

    def _seed(self, store, n=6):
        collectors = []
        for i in range(n):
            collector = simple_collector(i)
            store.append("vm", "d0", i * SECOND_NS, (i + 1) * SECOND_NS,
                         collector)
            collectors.append(collector)
        return collectors

    def test_repeated_queries_reuse_one_index(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            self._seed(store)
            store.query(0, 3 * SECOND_NS - 1)
            index = store._index
            assert index is not None
            store.query(0, 5 * SECOND_NS - 1)  # different window
            assert store._index is index       # same generation, reused

    def test_each_query_returns_a_fresh_service(self, tmp_path):
        """Only the cover is cached — mutating one result must never
        leak into the next query of the same window."""
        with HistogramStore.create(tmp_path / "s") as store:
            collectors = self._seed(store)
            first = store.query(0, 6 * SECOND_NS - 1)
            first.service.collector("vm", "d0").commands += 1_000_000
            again = store.query(0, 6 * SECOND_NS - 1)
            expected = VscsiStatsCollector()
            for collector in collectors:
                expected = expected.merge(collector)
            assert again.service.collector("vm", "d0") == expected

    @pytest.mark.parametrize("mutate", ["append", "checkpoint",
                                        "compact", "retire"])
    def test_every_mutation_invalidates_the_index(self, tmp_path,
                                                  mutate):
        with HistogramStore.create(
                tmp_path / "s", tiers_ns=(2 * SECOND_NS,)) as store:
            self._seed(store)
            store.query(0, 6 * SECOND_NS - 1)
            assert store._index is not None
            if mutate == "append":
                store.append("vm", "d0", 6 * SECOND_NS, 7 * SECOND_NS,
                             simple_collector(6))
            elif mutate == "checkpoint":
                store.checkpoint()
            elif mutate == "compact":
                store.compact()
            elif mutate == "retire":
                store.checkpoint()
                store.query(0, 6 * SECOND_NS - 1)  # rebuild the index
                assert store.retire_segments(6 * SECOND_NS)
            assert store._index is None

    def test_append_after_query_is_visible(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            self._seed(store)
            assert store.query(0, 10 * SECOND_NS).epochs == 6
            store.append("vm", "d0", 6 * SECOND_NS, 7 * SECOND_NS,
                         simple_collector(6))
            assert store.query(0, 10 * SECOND_NS).epochs == 7


class TestLedgerIntegration:
    def test_sealed_epochs_persist(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            ledger = EpochLedger(store=store)
            for i in range(3):
                ledger.seal([(("vm", "d"), simple_collector(i))])
            assert store.epochs == 3
            assert all(e.persisted for e in ledger.epochs)
            spans = [h.meta() for h in store.records()]
            assert all(m["end_ns"] > m["start_ns"] for m in spans)

    def test_retirement_records_spans(self, tmp_path):
        ledger = EpochLedger(max_epochs=2)
        for i in range(5):
            ledger.seal([(("vm", "d"), simple_collector(i))])
        assert len(ledger.epochs) == 2
        assert len(ledger.retired_spans) == 3
        doc = ledger.to_dict()
        assert doc["epochs_sealed"] == 5
        assert doc["retired"]["records"] == ledger.retired_records
        assert [s["epoch"] for s in doc["retired"]["spans"]] == [0, 1, 2]
        # The covered interval survives retirement.
        start, end = ledger.covered_span_unix
        assert start is not None and end >= start
        assert doc["covered_start_unix"] == start

    def test_store_attached_late_persists_before_retiring(self, tmp_path):
        ledger = EpochLedger(max_epochs=1)
        ledger.seal([(("vm", "d"), simple_collector(1))])
        with HistogramStore.create(tmp_path / "s") as store:
            ledger.store = store
            # Sealing a second epoch retires the first, which must be
            # written out before it is folded into the aggregate.
            ledger.seal([(("vm", "d"), simple_collector(2))])
            assert store.epochs == 2

    def test_spans_abut_even_for_instantaneous_rotations(self,
                                                         monkeypatch):
        """Back-to-back seals within one clock tick must produce
        abutting half-open spans, never overlapping ones — overlap
        would chain the store's range-query closure spuriously."""
        import time as time_mod

        ledger = EpochLedger()
        frozen = time_mod.time_ns()
        monkeypatch.setattr("repro.live.epochs.time.time_ns",
                            lambda: frozen)
        for i in range(4):
            ledger.seal([(("vm", "d"), simple_collector(i))])
        spans = [e.span_ns for e in ledger.epochs]
        for (start, end) in spans:
            assert end > start  # non-empty
        for (_s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            assert e0 == s1  # exactly abutting

    def test_persisted_spans_abut_in_the_store(self, tmp_path):
        with HistogramStore.create(tmp_path / "s") as store:
            ledger = EpochLedger(store=store)
            for i in range(5):
                ledger.seal([(("vm", "d"), simple_collector(i))])
            metas = sorted((h.meta() for h in store.records()),
                           key=lambda m: m["start_ns"])
            for a, b in zip(metas, metas[1:]):
                assert a["end_ns"] == b["start_ns"]

    def test_lifetime_totals_still_exact(self):
        ledger = EpochLedger(max_epochs=2)
        total = 0
        for i in range(6):
            collector = simple_collector(i)
            total += collector.commands
            ledger.seal([(("vm", "d"), collector)])
        assert ledger.records == total
        assert ledger.merged().aggregate().commands == total


class TestServerIntegration:
    def test_server_persists_epochs_to_store(self, tmp_path):
        from repro.live import LiveStatsClient, LiveStatsServer
        from tests.test_live_server import _records

        store_path = tmp_path / "history"
        with LiveStatsServer(port=0, shards=1,
                             store=str(store_path)) as server:
            with LiveStatsClient(*server.address) as client:
                client.publish_columns(
                    "vm0", "d0", records_to_columns(_records(200)))
                client.rotate()
                client.publish_columns(
                    "vm0", "d0",
                    records_to_columns(_records(100, start_serial=200,
                                                start_ns=10**9)))
                client.rotate()
                info = client.info()
                assert info["store"]["epochs"] == 2
                assert info["ledger"]["epochs_sealed"] == 2
        # Server owned the store: it was checkpointed and closed.
        with HistogramStore.open(store_path) as store:
            assert store.epochs == 2
            result = store.query(0, 2**63 - 1)
            assert result.service.aggregate().commands == 300

    def test_rotate_after_close_fails_cleanly(self, tmp_path):
        """A rotation racing shutdown must not double-seal or write to
        the closed store — it fails with a clear error instead."""
        from repro.live import LiveStatsClient, LiveStatsServer
        from tests.test_live_server import _records

        with LiveStatsServer(port=0, shards=1,
                             store=str(tmp_path / "h")) as server:
            with LiveStatsClient(*server.address) as client:
                client.publish_columns(
                    "vm0", "d0", records_to_columns(_records(50)))
        server.close()
        with pytest.raises(ValueError, match="closed"):
            server.rotate()
        with HistogramStore.open(tmp_path / "h") as store:
            assert store.epochs == 1  # drain sealed exactly once

    def test_timed_rotation_survives_shutdown_race(self, tmp_path):
        """Aggressive timer rotation during ingest + close: every
        record lands exactly once and the store closes consistent."""
        from repro.live import LiveStatsClient, LiveStatsServer
        from tests.test_live_server import _records

        store_path = tmp_path / "h"
        server = LiveStatsServer(port=0, shards=1, rotate_every=0.005,
                                 store=str(store_path)).start()
        try:
            with LiveStatsClient(*server.address) as client:
                for i in range(10):
                    client.publish_columns(
                        "vm0", "d0",
                        records_to_columns(_records(20, start_serial=i * 20,
                                 start_ns=i * 10**8)),
                    )
        finally:
            server.close()
        # The timer chain is dead and joined.
        timer = server._rotation.timer
        assert timer is None or not timer.is_alive()
        assert server.ledger.records == 200
        with HistogramStore.open(store_path) as store:
            result = store.query(0, 2**63 - 1)
            assert result.service.aggregate().commands == 200


class TestAtomicExport:
    def test_cli_export_is_atomic_and_complete(self, tmp_path):
        from repro.cli import main

        target = tmp_path / "out" / "result.json"
        target.parent.mkdir()
        rc = main(["run", "figure2", "--quick", "--output",
                   "json", "--export", str(target)])
        assert rc == 0
        document = json.loads(target.read_text())
        assert document["experiment"] == "figure2"
        leftovers = [p for p in target.parent.iterdir() if p != target]
        assert leftovers == []

    def test_atomic_write_text_replaces(self, tmp_path):
        from repro.cli import _atomic_write_text

        target = tmp_path / "doc.txt"
        target.write_text("old")
        _atomic_write_text(str(target), "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]


class TestStoreCli:
    def _populated(self, tmp_path):
        path = tmp_path / "s"
        with HistogramStore.create(path) as store:
            for i in range(6):
                store.append("vm1", "d0", i * 10 * SECOND_NS,
                             (i + 1) * 10 * SECOND_NS, simple_collector(i))
            store.checkpoint()
        return path

    def test_inspect(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["store", "inspect", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"] == 6
        assert doc["disks"] == ["vm1/d0"]

    def test_query_json_and_range(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["store", "query", str(path), "--start", "0",
                     "--end", "19.999"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epochs"] == 2
        assert "vm1/d0" in doc["disks"]

    def test_query_openmetrics(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["store", "query", str(path), "--output",
                     "openmetrics"]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("# EOF")
        assert 'vm="vm1"' in out

    def test_query_export_atomic(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        target = tmp_path / "q.json"
        assert main(["store", "query", str(path), "--export",
                     str(target)]) == 0
        assert json.loads(target.read_text())["epochs"] == 6

    def test_compact_command(self, tmp_path, capsys):
        from repro.cli import main

        path = self._populated(tmp_path)
        assert main(["store", "compact", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rewritten"] and doc["records_after"] == 1

    def test_compact_retire_before_runs_before_the_rewrite(self,
                                                           tmp_path,
                                                           capsys):
        """--retire-before must act on the pre-compaction segment set:
        after the rewrite collapses everything into one segment there
        is never a retirable subset left."""
        from repro.cli import main

        path = tmp_path / "s"
        with HistogramStore.create(path) as store:
            store.append("vm", "d", 0, 10 * SECOND_NS,
                         simple_collector(1))
            store.checkpoint()
            store.append("vm", "d", 10 * SECOND_NS, 20 * SECOND_NS,
                         simple_collector(2))
            store.checkpoint()
        assert main(["store", "compact", str(path),
                     "--retire-before", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["segments_retired"] == ["seg-00000001.seg"]
        # The rewrite saw only the surviving records.
        assert doc["records_before"] == 1
        with HistogramStore.open(path) as store:
            assert store.epochs == 1
            assert store.query(0, 20 * SECOND_NS).covered_start_ns \
                == 10 * SECOND_NS

    def test_foreign_directory_fails_loudly(self, tmp_path, capsys):
        from repro.cli import main

        foreign = tmp_path / "foreign"
        foreign.mkdir()
        (foreign / "junk.bin").write_bytes(b"\x00")
        rc = main(["store", "query", str(foreign)])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(foreign) in err

    def test_empty_store_query_fails_loudly(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "s"
        HistogramStore.create(path).close()
        rc = main(["store", "query", str(path)])
        assert rc == 1
        assert "nothing stored" in capsys.readouterr().err
