"""Mixed-version durability: one store holding v1 and v2 frames.

The columnar v2 codec and the binary WAL meta are append-path
optimizations, not a format break: a store may simultaneously hold v1
frames (from a pre-columnar writer, or the live fallback for
non-canonical collectors), v2 frames, binary WAL metas and legacy JSON
WAL metas — and recovery, queries and compaction must treat the mix
exactly like a single-version store.  These tests pin that, including
a WAL written through the legacy framing helper directly, the way an
old writer's surviving log would look.
"""

import pytest

from repro.core.collector import VscsiStatsCollector
from repro.store import HistogramStore
from repro.store import codec
from repro.store.codec import (
    COLLECTOR_MAGIC,
    COLLECTOR_MAGIC_V2,
    collector_to_bytes,
)
from repro.store.store import _wal_frame
from repro.store.wal import WAL_MAGIC, WriteAheadLog

SECOND_NS = 1_000_000_000


def epoch_collector(seed, n=16):
    collector = VscsiStatsCollector()
    t = 1_000
    state = seed * 2654435761 % (1 << 31) or 1
    for _ in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        t += 100 + state % 4000
        collector.on_issue(t, state % 2 == 0, state % (1 << 24),
                           1 << (state % 5 + 3), state % 8)
        latency = 10_000 + state % 900_000
        collector.on_complete(t + latency, state % 2 == 0, latency)
    return collector


def force_v1(collector):
    """Encode through the v1 frame, the way a pre-columnar writer did."""
    original = codec._collector_to_bytes_v2
    codec._collector_to_bytes_v2 = lambda _collector: None
    try:
        return collector_to_bytes(collector)
    finally:
        codec._collector_to_bytes_v2 = original


def append_mixed(store, vm, vdisk, epochs, v1_every=3):
    """Append ``epochs`` collectors, forcing every ``v1_every``-th one
    through the v1 frame (same disk, interleaved versions)."""
    original = codec._collector_to_bytes_v2
    try:
        for i, collector in enumerate(epochs):
            if i % v1_every == 0:
                codec._collector_to_bytes_v2 = lambda _c: None
            else:
                codec._collector_to_bytes_v2 = original
            store.append(vm, vdisk, i * SECOND_NS, (i + 1) * SECOND_NS,
                         collector)
    finally:
        codec._collector_to_bytes_v2 = original


def fold(epochs):
    merged = VscsiStatsCollector()
    for collector in epochs:
        merged = merged.merge(collector)
    return merged


class TestMixedRecovery:
    def test_mixed_segment_and_wal_tail_recover(self, tmp_path):
        """v1 and v2 frames interleave on one disk, half sealed into a
        segment and half left in the WAL; recovery sees all of them and
        a range query equals the direct merge."""
        epochs = [epoch_collector(seed) for seed in range(12)]
        store = HistogramStore.create(tmp_path / "hist",
                                      wal_seal_records=10_000)
        append_mixed(store, "vm0", "d0", epochs[:6])
        store.checkpoint()  # seals a mixed-version segment
        original = codec._collector_to_bytes_v2
        try:
            for i, collector in enumerate(epochs[6:], start=6):
                if i % 3 == 0:
                    codec._collector_to_bytes_v2 = lambda _c: None
                else:
                    codec._collector_to_bytes_v2 = original
                store.append("vm0", "d0", i * SECOND_NS,
                             (i + 1) * SECOND_NS, collector)
        finally:
            codec._collector_to_bytes_v2 = original
        store.close()

        with HistogramStore.open(tmp_path / "hist") as reopened:
            assert reopened.recovered_wal_records == 6
            magics = {bytes(h.raw()[:8]) for h in reopened.records()}
            assert magics == {COLLECTOR_MAGIC, COLLECTOR_MAGIC_V2}
            result = reopened.query(0, 12 * SECOND_NS - 1)
            assert result.epochs == 12
            assert result.service.collector("vm0", "d0") == fold(epochs)

    def test_legacy_json_meta_wal_frames_recover(self, tmp_path):
        """A WAL tail written with the legacy JSON meta framing (the
        layout every pre-binary-meta writer produced) recovers next to
        records appended with the binary meta."""
        epochs = [epoch_collector(seed) for seed in range(4)]
        store = HistogramStore.create(tmp_path / "hist",
                                      wal_seal_records=10_000)
        for i, collector in enumerate(epochs[:2]):
            store.append("vm0", "d0", i * SECOND_NS, (i + 1) * SECOND_NS,
                         collector)
        store.close()

        # Simulate the old writer: append JSON-meta frames (carrying v1
        # collector records) straight into the store's WAL.
        wal = WriteAheadLog(tmp_path / "hist" / "wal.log")
        for i, collector in enumerate(epochs[2:], start=2):
            wal.append(_wal_frame(
                {"seq": i + 1, "vm": "vm0", "vdisk": "d0",
                 "start_ns": i * SECOND_NS,
                 "end_ns": (i + 1) * SECOND_NS,
                 "tier": 0, "records": 1}, force_v1(collector)))
        wal.close()

        with HistogramStore.open(tmp_path / "hist") as reopened:
            assert reopened.recovered_wal_records == 4
            assert sorted(h.seq for h in reopened.records()) \
                == [1, 2, 3, 4]
            result = reopened.query(0, 4 * SECOND_NS - 1)
            assert result.service.collector("vm0", "d0") == fold(epochs)
            # The next append continues the recovered sequence.
            seq = reopened.append("vm0", "d0", 4 * SECOND_NS,
                                  5 * SECOND_NS, epoch_collector(99))
            assert seq == 5

    def test_long_names_take_the_json_meta_path(self, tmp_path):
        """Names over 255 UTF-8 bytes can't ride the binary meta; the
        JSON fallback persists them and recovery reads them back."""
        long_vm = "vm-" + "x" * 300
        store = HistogramStore.create(tmp_path / "hist",
                                      wal_seal_records=10_000)
        collector = epoch_collector(5)
        store.append(long_vm, "d0", 0, SECOND_NS, collector)
        store.append("vm1", "d1", 0, SECOND_NS, epoch_collector(6))
        store.close()

        with HistogramStore.open(tmp_path / "hist") as reopened:
            assert reopened.recovered_wal_records == 2
            assert (long_vm, "d0") in reopened.disks()
            result = reopened.query(0, SECOND_NS - 1, vm=long_vm)
            assert result.service.collector(long_vm, "d0") == collector

    def test_compaction_over_mixed_records_is_exact(self, tmp_path):
        """Compaction merges across frame versions without changing a
        bin: the post-compaction query equals the raw-epoch merge, and
        passthrough v1 frames stay v1 in place."""
        epochs = [epoch_collector(seed) for seed in range(9)]
        store = HistogramStore.create(
            tmp_path / "hist", tiers_ns=(4 * SECOND_NS,),
            wal_seal_records=10_000)
        append_mixed(store, "vm0", "d0", epochs[:8])
        # A lone out-of-window v1 record that must pass through verbatim.
        codec_original = codec._collector_to_bytes_v2
        codec._collector_to_bytes_v2 = lambda _c: None
        try:
            store.append("vm0", "d0", 100 * SECOND_NS, 101 * SECOND_NS,
                         epochs[8])
        finally:
            codec._collector_to_bytes_v2 = codec_original
        before = store.query(0, 8 * SECOND_NS - 1)
        summary = store.compact()
        assert summary["merges"] >= 1

        after = store.query(0, 8 * SECOND_NS - 1)
        assert after.service == before.service
        assert after.service.collector("vm0", "d0") == fold(epochs[:8])
        assert after.epochs == 8
        passthrough = [h for h in store.records()
                       if h.start_ns == 100 * SECOND_NS]
        assert len(passthrough) == 1
        assert bytes(passthrough[0].raw()[:8]) == COLLECTOR_MAGIC
        assert passthrough[0].load() == epochs[8]

        # Reopen: the compacted mixed store recovers and still queries
        # exactly.
        store.close()
        with HistogramStore.open(tmp_path / "hist") as reopened:
            result = reopened.query(0, 101 * SECOND_NS - 1)
            assert result.service.collector("vm0", "d0") == fold(epochs)

    def test_duplicate_wal_seq_last_frame_wins(self, tmp_path):
        """A group-commit append that fails after buffering its frame
        leaves a duplicate-seq pair in the WAL when the caller retries;
        only the retry was acknowledged, so recovery must keep the
        later frame."""
        store = HistogramStore.create(tmp_path / "hist",
                                      wal_seal_records=10_000)
        acked = epoch_collector(2)
        store.append("vm0", "d0", 0, SECOND_NS, epoch_collector(1))
        store.close()

        # Craft the failure shape directly: two frames carrying seq 2 —
        # the abandoned first attempt, then the acknowledged retry.
        wal = WriteAheadLog(tmp_path / "hist" / "wal.log")
        for payload in (force_v1(epoch_collector(7)),
                        collector_to_bytes(acked)):
            wal.append(_wal_frame(
                {"seq": 2, "vm": "vm0", "vdisk": "d0",
                 "start_ns": SECOND_NS, "end_ns": 2 * SECOND_NS,
                 "tier": 0, "records": 1}, payload))
        wal.close()

        with HistogramStore.open(tmp_path / "hist") as reopened:
            tail = [h for h in reopened.records() if h.seq == 2]
            assert len(tail) == 1
            assert tail[0].load() == acked
            assert reopened.recovered_wal_records == 2


class TestEncodedRecords:
    """``append``/``append_epoch`` take an already-encoded record in
    place of a collector — how the fleet root persists what it
    received without a decode/re-encode."""

    def test_append_epoch_of_records_equals_append_epoch_of_service(
            self, tmp_path):
        from repro.core.service import HistogramService

        keys = [("vm1", "d0"), ("vm0", "d1"), ("vm0", "d0")]
        with HistogramStore.create(tmp_path / "a") as by_service, \
                HistogramStore.create(tmp_path / "b") as by_records:
            for epoch in range(3):
                service = HistogramService()
                for index, key in enumerate(keys):
                    service.adopt(key, epoch_collector(10 * epoch + index))
                span = (epoch * SECOND_NS, (epoch + 1) * SECOND_NS)
                assert by_service.append_epoch(service, *span,
                                               sync=True) == 3
                records = [(key, collector_to_bytes(collector))
                           for key, collector in service.collectors()]
                assert by_records.append_epoch(records, *span,
                                               sync=True) == 3
            assert (by_records.path / "wal.log").read_bytes() \
                == (by_service.path / "wal.log").read_bytes()

    def test_v1_record_is_written_as_received(self, tmp_path):
        collector = epoch_collector(5)
        record = force_v1(collector)
        with HistogramStore.create(tmp_path / "hist") as store:
            store.append("vm0", "d0", 0, SECOND_NS, memoryview(record))
            [handle] = store.records()
            assert bytes(handle.raw()) == record
            assert handle.load() == collector

    @pytest.mark.parametrize("junk", [b"", b"RPHCOL", b"RPHSVC1\n" + b"x" * 64,
                                      bytearray(64)])
    def test_bytes_without_the_magic_are_refused(self, tmp_path, junk):
        with HistogramStore.create(tmp_path / "hist") as store:
            with pytest.raises(ValueError, match="magic"):
                store.append("vm0", "d0", 0, SECOND_NS, junk)
            with pytest.raises(ValueError, match="magic"):
                store.append_epoch([(("vm0", "d0"), junk)], 0, SECOND_NS,
                                   sync=True)
            assert len(store) == 0
            assert (store.path / "wal.log").stat().st_size \
                == len(WAL_MAGIC)
