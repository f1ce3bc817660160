"""Epoch-rotated streaming must be byte-identical to one-shot replay.

The core guarantee of :mod:`repro.live`: for *any* command stream, any
split into epochs and any chunking into frames, merging the epoch
snapshots produces exactly the collector an offline
:func:`~repro.core.tracing.replay_into_collector` run over the whole
stream would — same bins, same scalars, same time series.  Hypothesis
drives the stream shapes and split points.
"""

import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import VscsiStatsCollector
from repro.core.histogram import BATCH_CROSSOVER
from repro.core.tracing import TraceRecord, replay_into_collector
from repro.live.epochs import EpochLedger
from repro.live.protocol import (
    ProtocolError,
    bytes_to_columns,
    columns_to_bytes,
    encode_extents,
    encode_host_snapshot,
)
from repro.live.server import snapshot_document
from repro.live.stream import DiskStream
from repro.parallel.trace_io import records_to_columns, replay_columns


def _snapshot(collector):
    return json.dumps(collector.to_dict(), sort_keys=True)


def _columns(records, wire=True):
    """Columns as the daemon sees them (read-only views over a frame
    body) or as a publisher builds them (typed arrays)."""
    if wire:
        return bytes_to_columns(columns_to_bytes(records_to_columns(records)))
    return records_to_columns(records)


def _stream_order(records):
    return sorted(records, key=lambda r: (r.issue_ns, r.serial))


def _make_records(raw):
    return _stream_order([
        TraceRecord(serial, issue, issue + latency, lba, nblocks, is_read)
        for serial, (issue, latency, lba, nblocks, is_read)
        in enumerate(raw)
    ])


record_lists = st.lists(
    st.tuples(
        st.integers(0, 2_000_000),   # issue_ns
        st.integers(0, 300_000),     # latency_ns
        st.integers(0, 1 << 30),     # lba
        st.integers(1, 2048),        # nblocks
        st.booleans(),               # is_read
    ),
    min_size=1, max_size=120,
)


class TestEpochPartitionProperty:
    @settings(max_examples=40, deadline=None)
    @given(raw=record_lists, data=st.data())
    def test_any_epoch_split_merges_byte_identical(self, raw, data):
        """Satellite: for any stream split across N epochs, the merge of
        all epoch snapshots equals a single-epoch run exactly."""
        records = _make_records(raw)
        n = len(records)
        n_epochs = data.draw(st.integers(1, min(5, n)), label="n_epochs")
        cuts = sorted(data.draw(
            st.lists(st.integers(0, n), min_size=n_epochs - 1,
                     max_size=n_epochs - 1),
            label="cuts",
        ))
        frame_records = data.draw(st.integers(1, n), label="frame_records")

        stream = DiskStream()
        ledger = EpochLedger()
        bounds = [0] + cuts + [n]
        for start, stop in zip(bounds, bounds[1:]):
            for lo in range(start, stop, frame_records):
                chunk = records[lo:min(lo + frame_records, stop)]
                if chunk:
                    stream.ingest(_columns(chunk))
            sealed = stream.seal()
            ledger.seal([(("vm", "d"), sealed)] if sealed else [])

        merged = ledger.merged().collector("vm", "d")
        # The scalar event-merge oracle, not the batch replay.
        offline = replay_into_collector(records, VscsiStatsCollector())
        assert merged is not None
        assert _snapshot(merged) == _snapshot(offline)
        assert ledger.records == n

    @settings(max_examples=15, deadline=None)
    @given(raw=record_lists)
    def test_pure_python_path_matches_numpy_path(self, raw):
        """Frames below ``BATCH_CROSSOVER`` loop the scalar hooks, one
        at or above it takes the numpy kernels — to the same state."""
        raw = raw * -(-BATCH_CROSSOVER // len(raw))  # reach the kernel
        records = _make_records(raw)
        via_numpy = DiskStream()
        via_numpy.ingest(_columns(records))
        pure = DiskStream()
        small = BATCH_CROSSOVER - 1
        for lo in range(0, len(records), small):
            pure.ingest(_columns(records[lo:lo + small], wire=False))
        assert _snapshot(via_numpy.seal()) == _snapshot(pure.seal())


class TestDiskStream:
    def _records(self, n=64):
        return _make_records([
            (i * 750, 40_000 + (i % 7) * 1000, i * 64, 8, i % 3 != 0)
            for i in range(n)
        ])

    def test_chunk_size_invariance(self):
        records = self._records(100)
        whole = DiskStream()
        whole.ingest(_columns(records))
        for size in (1, 3, 17, 100):
            chunked = DiskStream()
            for lo in range(0, len(records), size):
                chunked.ingest(_columns(records[lo:lo + size]))
            assert _snapshot(chunked.collector) == _snapshot(whole.collector)

    def test_out_of_order_frame_rejected_without_partial_state(self):
        records = self._records(20)
        stream = DiskStream()
        stream.ingest(_columns(records[10:]))
        before = _snapshot(stream.collector)
        with pytest.raises(ProtocolError):
            stream.ingest(_columns(records[:10]))
        assert stream.rejected_batches == 1
        assert stream.records == 10
        assert _snapshot(stream.collector) == before
        # The stream is still usable for traffic past the watermark.
        later = _make_records([(100_000 + i, 1000, 0, 8, True)
                               for i in range(5)])
        assert stream.ingest(_columns(later)) == 5

    def test_seal_without_traffic_returns_none(self):
        stream = DiskStream()
        assert stream.seal() is None
        stream.ingest(_columns(self._records(4)))
        assert stream.seal() is not None
        assert stream.seal() is None  # nothing new since

    def test_epoch_records_counts_current_epoch_only(self):
        stream = DiskStream()
        stream.ingest(_columns(self._records(12)))
        assert stream.epoch_records == 12
        stream.seal()
        assert stream.epoch_records == 0
        assert stream.records == 12

    def test_empty_batch_is_noop(self):
        stream = DiskStream()
        assert stream.ingest(_columns([])) == 0
        assert stream.collector is None


class TestEpochLedger:
    def test_empty_epochs_advance_the_index(self):
        ledger = EpochLedger()
        first = ledger.seal([])
        second = ledger.seal([])
        assert (first.index, second.index) == (0, 1)
        assert ledger.last is second

    def test_unknown_epoch_raises_keyerror(self):
        ledger = EpochLedger()
        ledger.seal([])
        with pytest.raises(KeyError):
            ledger.epoch(7)

    def test_max_epochs_retires_exactly(self):
        records = _make_records([
            (i * 1000, 50_000, i * 64, 8, True) for i in range(90)
        ])
        stream = DiskStream()
        ledger = EpochLedger(max_epochs=2)
        for lo in range(0, 90, 30):
            stream.ingest(_columns(records[lo:lo + 30]))
            ledger.seal([(("vm", "d"), stream.seal())])
        assert len(ledger) == 2  # epoch 0 folded into the retired merge
        assert ledger.retired_records == 30
        assert ledger.records == 90
        merged = ledger.merged().collector("vm", "d")
        offline = replay_columns(records_to_columns(records))
        assert _snapshot(merged) == _snapshot(offline)

    def test_merged_is_fresh_and_does_not_leak_ledger_state(self):
        ledger = EpochLedger()
        stream = DiskStream()
        stream.ingest(_columns(_make_records([(0, 1000, 0, 8, True)])))
        ledger.seal([(("vm", "d"), stream.seal())])
        merged = ledger.merged()
        merged.adopt(("vm2", "x"), VscsiStatsCollector())
        assert ledger.merged().collector("vm2", "x") is None

    def test_retained_disk_epoch_costs_about_one_record(self):
        """Sealed history is kept as encoded records, not collectors:
        100 epochs x 4 disks of 500-command collectors retain under
        2 KB per disk-epoch (one collector object is ~8 KB)."""
        columns = records_to_columns(_make_records([
            (i * 1000, 50_000 + i % 7 * 9_000, i * 64 % (1 << 20), 8,
             i % 3 != 0) for i in range(500)
        ]))
        keys = [("vm", f"d{i}") for i in range(4)]
        EpochLedger().seal([(keys[0], replay_columns(columns))])  # warm
        gc.collect()
        tracemalloc.start()
        try:
            ledger = EpochLedger()
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(100):
                ledger.seal([(key, replay_columns(columns)) for key in keys])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert ledger.records == 100 * 4 * 500
        assert retained / (100 * 4) < 2048

    def test_epoch_is_its_encoded_records(self):
        """Each disk is encoded once, at seal: the snapshot frame wraps
        exactly those records, and an epoch that is no longer the last
        decodes to the document it gave while it was."""
        records = _make_records([
            (i * 1000, 50_000, i * 64, 8, i % 2 == 0) for i in range(120)
        ])
        streams = {("vm", f"d{i}"): DiskStream() for i in range(3)}
        ledger = EpochLedger()
        documents = []
        for lo in range(0, 120, 40):
            pairs = []
            for key, stream in streams.items():
                stream.ingest(_columns(records[lo:lo + 40]))
                pairs.append((key, stream.seal()))
            epoch = ledger.seal(pairs)
            header, payload = encode_host_snapshot("host-0", epoch)
            assert (header["disks"], payload) \
                == encode_extents(epoch.service.collectors()) \
                == (epoch.disks, epoch.payload)
            documents.append(snapshot_document(ledger, "epoch", None, True,
                                               None))
        assert [snapshot_document(ledger, "epoch", index, True, None)
                for index in range(3)] == documents
