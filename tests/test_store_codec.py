"""Round-trip tests for the store's binary snapshot codec.

The property the store leans on: for any collector state —
every metric family, empty or populated bins, extreme counters —
``collector_from_bytes(collector_to_bytes(c)) == c``, and likewise at
the service level.  Equality here is the snapshot equality the core
layer defines (bin counts, counters, time series), so a passing
round-trip certifies the codec preserves every statistic exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bins import BinScheme
from repro.core.collector import MetricFamily, VscsiStatsCollector
from repro.store import codec
from repro.store.codec import (
    COLLECTOR_MAGIC,
    COLLECTOR_MAGIC_V2,
    collector_from_bytes,
    collector_to_bytes,
    merge_collector_payloads,
)

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is optional
    np = None


def build_collector(ops, window_size=32, time_slot_ns=1_000_000_000):
    """Deterministically replay ``(dt, is_read, lba, nblocks, qd, lat)``
    tuples into a fresh collector, touching every metric family."""
    collector = VscsiStatsCollector(window_size=window_size,
                                    time_slot_ns=time_slot_ns)
    t = 1_000
    for dt, is_read, lba, nblocks, outstanding, latency_ns in ops:
        t += dt
        collector.on_issue(t, is_read, lba, nblocks, outstanding)
        collector.on_complete(t + latency_ns, is_read, latency_ns)
    return collector


op_strategy = st.tuples(
    st.integers(min_value=1, max_value=10_000_000_000),     # inter-arrival
    st.booleans(),                                          # is_read
    st.integers(min_value=0, max_value=1 << 30),            # lba
    st.sampled_from([1, 8, 16, 64, 128, 1024, 2048]),       # nblocks
    st.integers(min_value=0, max_value=100),                # outstanding
    st.integers(min_value=1_000, max_value=60_000_000_000), # latency
)

collector_strategy = st.builds(
    build_collector,
    st.lists(op_strategy, max_size=60),
    window_size=st.sampled_from([1, 8, 32]),
    time_slot_ns=st.sampled_from([1_000_000, 1_000_000_000]),
)


class TestCollectorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(collector_strategy)
    def test_round_trip_equals(self, collector):
        assert collector_from_bytes(collector_to_bytes(collector)) == collector

    @settings(max_examples=30, deadline=None)
    @given(collector_strategy)
    def test_round_trip_preserves_every_statistic(self, collector):
        restored = collector_from_bytes(collector_to_bytes(collector))
        assert restored.to_dict() == collector.to_dict()
        assert restored.commands == collector.commands
        assert restored.read_commands == collector.read_commands
        for name, family in collector.families().items():
            other = restored.families()[name]
            assert other.reads.counts == family.reads.counts
            assert other.writes.counts == family.writes.counts
            assert other.reads.total == family.reads.total

    def test_empty_collector(self):
        collector = VscsiStatsCollector()
        restored = collector_from_bytes(collector_to_bytes(collector))
        assert restored == collector
        assert restored.commands == 0

    def test_accepts_memoryview(self):
        collector = build_collector([(10, True, 0, 8, 1, 5_000)])
        blob = collector_to_bytes(collector)
        assert collector_from_bytes(memoryview(blob)) == collector

    def test_merge_then_encode_equals_encode_then_merge(self):
        a = build_collector([(10, True, 0, 8, 1, 5_000),
                             (20, False, 64, 16, 2, 9_000)])
        b = build_collector([(15, False, 128, 64, 0, 7_000)])
        merged = a.merge(b)
        via_codec = collector_from_bytes(collector_to_bytes(a)).merge(
            collector_from_bytes(collector_to_bytes(b))
        )
        assert via_codec == merged

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            collector_from_bytes(b"definitely not a framed record")

    def test_rejects_truncated_record(self):
        blob = collector_to_bytes(build_collector([(10, True, 0, 8, 0,
                                                    5_000)]))
        with pytest.raises(ValueError):
            collector_from_bytes(blob[:len(blob) // 2])


def force_v1(collector):
    """Encode through the self-describing v1 frame, bypassing v2.

    Simulates a pre-columnar writer: the monkeypatched fast path
    declines every collector, so ``collector_to_bytes`` takes the v1
    fallback it has always taken for non-canonical state.
    """
    original = codec._collector_to_bytes_v2
    codec._collector_to_bytes_v2 = lambda _collector: None
    try:
        return collector_to_bytes(collector)
    finally:
        codec._collector_to_bytes_v2 = original


def custom_scheme_collector(ops):
    """A collector with a non-standard latency scheme (v1 territory)."""
    collector = build_collector(ops)
    custom = BinScheme("latency_us", (10, 100, 1_000, 10_000), "us")
    collector.latency_us = MetricFamily(custom, "latency_us")
    return collector


class TestCodecV2:
    """The columnar v2 frame: magic selection, width-flag fallbacks
    and byte-for-byte decode equivalence with the v1 frame."""

    def test_canonical_collector_encodes_v2(self):
        blob = collector_to_bytes(build_collector(
            [(10, True, 0, 8, 1, 5_000)]))
        assert blob[:8] == COLLECTOR_MAGIC_V2

    def test_empty_collector_encodes_v2(self):
        assert collector_to_bytes(
            VscsiStatsCollector())[:8] == COLLECTOR_MAGIC_V2

    def test_custom_scheme_falls_back_to_v1_and_round_trips(self):
        collector = custom_scheme_collector([(10, True, 0, 8, 1, 5_000)])
        blob = collector_to_bytes(collector)
        assert blob[:8] == COLLECTOR_MAGIC
        assert collector_from_bytes(blob) == collector

    @settings(max_examples=40, deadline=None)
    @given(collector_strategy)
    def test_v1_and_v2_frames_decode_equal(self, collector):
        """The satellite regression: both frame versions of the same
        snapshot decode to equal collectors, statistic for statistic."""
        v2 = collector_to_bytes(collector)
        v1 = force_v1(collector)
        assert v2[:8] == COLLECTOR_MAGIC_V2
        assert v1[:8] == COLLECTOR_MAGIC
        from_v2 = collector_from_bytes(v2)
        from_v1 = collector_from_bytes(v1)
        assert from_v2 == from_v1 == collector
        assert from_v2.to_dict() == from_v1.to_dict()

    @settings(max_examples=40, deadline=None)
    @given(collector_strategy)
    def test_reencode_is_byte_identical(self, collector):
        """decode → encode is a fixpoint — the property compaction's
        verbatim passthrough and re-encode paths both lean on."""
        blob = collector_to_bytes(collector)
        assert collector_to_bytes(collector_from_bytes(blob)) == blob

    def test_narrow_widths_for_small_counts(self):
        blob = collector_to_bytes(build_collector(
            [(10, True, 0, 8, 1, 5_000)]))
        flags = blob[8]
        assert flags & 4    # stats fit int32
        assert flags & 8    # counts fit int16

    def test_wide_counters_fall_back_to_wider_blocks(self):
        collector = build_collector([(10, True, 0, 8, 1, 5_000)])
        hist = collector.io_length.reads
        hist.counts[0] = 1 << 40            # past int16 and int32
        hist.count = (1 << 40) + hist.count - 1
        hist.total += 1 << 52               # past int32 stats
        blob = collector_to_bytes(collector)
        assert blob[:8] == COLLECTOR_MAGIC_V2
        flags = blob[8]
        assert not flags & 4 and not flags & 8 and not flags & 16
        assert collector_from_bytes(blob) == collector

    def test_beyond_int64_falls_back_to_v1(self):
        collector = build_collector([(10, True, 0, 8, 1, 5_000)])
        collector.bytes_read = 1 << 70      # JSON holds it, int64 can't
        blob = collector_to_bytes(collector)
        assert blob[:8] == COLLECTOR_MAGIC
        assert collector_from_bytes(blob) == collector

    @pytest.mark.skipif(np is None, reason="requires numpy")
    def test_counts_from_buffer_returns_numpy_view(self):
        """The decode hot path reads counts as a zero-copy view."""
        data = codec._counts_to_bytes([1, 2, 3, 4])
        counts = codec._counts_from_buffer(data, 0, 4)
        assert isinstance(counts, np.ndarray)
        assert not counts.flags.owndata     # a view, not a copy
        assert counts.tolist() == [1, 2, 3, 4]

    def test_merge_payloads_mixed_v1_v2_equals_decoded_fold(self):
        a = build_collector([(10, True, 0, 8, 1, 5_000)])
        b = build_collector([(20, False, 64, 16, 2, 9_000)])
        c = build_collector([(15, False, 128, 64, 0, 7_000)])
        payloads = [collector_to_bytes(a), force_v1(b),
                    collector_to_bytes(c)]
        assert merge_collector_payloads(payloads) \
            == a.merge(b).merge(c)

    def test_rejects_truncated_v2_record(self):
        blob = collector_to_bytes(build_collector(
            [(10, True, 0, 8, 1, 5_000)]))
        assert blob[:8] == COLLECTOR_MAGIC_V2
        for cut in (9, 40, len(blob) - 1):
            with pytest.raises(ValueError):
                collector_from_bytes(blob[:cut])
