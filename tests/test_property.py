"""Property-based tests (hypothesis) for the core invariants."""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rebin import power_of_two_scheme, rebin
from repro.core.bins import (
    IO_LENGTH_BINS,
    LATENCY_US_BINS,
    SEEK_DISTANCE_BINS,
)
from repro.core.collector import VscsiStatsCollector
from repro.core.histogram import Histogram
from repro.core.histogram2d import TimeSeriesHistogram
from repro.core.tracing import (
    TraceRecord,
    read_binary,
    read_csv,
    replay_into_collector,
    write_binary,
    write_csv,
)
from repro.core.window import LookBehindWindow
from repro.scsi.commands import build_rw_cdb, parse_cdb

values = st.integers(min_value=-(10**12), max_value=10**12)
positive_values = st.integers(min_value=0, max_value=10**12)


class TestHistogramProperties:
    @given(st.lists(values, max_size=200))
    def test_count_conservation(self, data):
        hist = Histogram(SEEK_DISTANCE_BINS)
        hist.insert_many(data)
        assert hist.count == len(data)
        assert sum(hist.counts) == len(data)

    @given(st.lists(values, min_size=1, max_size=200))
    def test_every_value_lands_in_its_bounds(self, data):
        hist = Histogram(SEEK_DISTANCE_BINS)
        for value in data:
            index = hist.scheme.index_for(value)
            low, high = hist.scheme.bounds(index)
            assert low < value <= high

    @given(st.lists(values, max_size=100), st.lists(values, max_size=100))
    def test_merge_is_commutative_and_count_additive(self, left, right):
        a = Histogram(SEEK_DISTANCE_BINS)
        b = Histogram(SEEK_DISTANCE_BINS)
        a.insert_many(left)
        b.insert_many(right)
        ab, ba = a.merge(b), b.merge(a)
        assert ab.counts == ba.counts
        assert ab.count == len(left) + len(right)

    @given(st.lists(st.integers(min_value=0, max_value=2**20), max_size=150))
    def test_rebin_preserves_mass(self, data):
        hist = Histogram(IO_LENGTH_BINS)
        hist.insert_many(data)
        target = power_of_two_scheme(IO_LENGTH_BINS)
        result = rebin(hist, target)
        assert result.count == hist.count
        assert sum(result.counts) == sum(hist.counts)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**11),  # time
                st.integers(min_value=0, max_value=10**6),   # value
            ),
            max_size=150,
        )
    )
    def test_timeseries_collapse_equals_flat(self, samples):
        series = TimeSeriesHistogram(LATENCY_US_BINS, interval_ns=10**9)
        flat = Histogram(LATENCY_US_BINS)
        for time_ns, value in samples:
            series.insert(time_ns, value)
            flat.insert(value)
        assert series.collapse().counts == flat.counts


class TestWindowProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=10**9),
                st.integers(min_value=1, max_value=2048),
            ),
            min_size=2,
            max_size=64,
        ),
        st.integers(min_value=1, max_value=16),
    )
    def test_windowed_min_never_exceeds_plain_distance(self, accesses, size):
        """|min over last N| <= |distance to the immediately previous|
        whenever both exist — the window can only find something
        closer."""
        window = LookBehindWindow(size)
        previous_end = None
        for lba, nblocks in accesses:
            windowed = window.observe(lba, lba + nblocks - 1)
            if previous_end is not None:
                plain = lba - previous_end
                assert windowed is not None
                assert abs(windowed) <= abs(plain)
            previous_end = lba + nblocks - 1


class TestTracingProperties:
    # complete_ns is built as issue_ns + latency: the binary writer
    # rejects negative-latency records, which no capture can produce.
    record_strategy = st.builds(
        lambda serial, issue_ns, latency_ns, lba, nblocks, is_read:
            TraceRecord(serial, issue_ns, issue_ns + latency_ns, lba,
                        nblocks, is_read),
        serial=st.integers(min_value=0, max_value=2**32),
        issue_ns=st.integers(min_value=0, max_value=2**40),
        latency_ns=st.integers(min_value=0, max_value=2**40),
        lba=st.integers(min_value=0, max_value=2**40),
        nblocks=st.integers(min_value=1, max_value=2**20),
        is_read=st.booleans(),
    )

    @given(st.lists(record_strategy, max_size=50))
    def test_binary_roundtrip(self, records):
        blob = io.BytesIO()
        write_binary(records, blob)
        blob.seek(0)
        assert read_binary(blob) == records

    @given(st.lists(record_strategy, max_size=50))
    def test_csv_roundtrip(self, records):
        text = io.StringIO()
        write_csv(records, text)
        text.seek(0)
        assert read_csv(text) == records


class TestOnlineEqualsOffline:
    @given(
        st.lists(
            st.tuples(
                st.booleans(),                                 # is_read
                st.integers(min_value=0, max_value=10**7),     # lba
                st.integers(min_value=1, max_value=2048),      # nblocks
                st.integers(min_value=1, max_value=10**7),     # latency ns
            ),
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_replay_matches_live_collection(self, stream):
        """The paper's implicit equivalence: the online histograms are
        exactly what offline post-processing of the trace would give.
        Commands here complete before the next issues, so the replay's
        outstanding reconstruction is exact."""
        online = VscsiStatsCollector()
        records = []
        time_ns = 0
        for serial, (is_read, lba, nblocks, latency) in enumerate(stream):
            online.on_issue(time_ns, is_read, lba, nblocks, 0)
            online.on_complete(time_ns + latency, is_read, latency)
            records.append(
                TraceRecord(serial, time_ns, time_ns + latency, lba,
                            nblocks, is_read)
            )
            time_ns += latency + 1
        replayed = replay_into_collector(records)
        for metric, family in online.families().items():
            assert family.all.counts == replayed.families()[metric].all.counts
            assert family.reads.counts == replayed.families()[metric].reads.counts
            assert family.writes.counts == replayed.families()[metric].writes.counts


class TestCdbProperties:
    @given(
        st.booleans(),
        st.integers(min_value=0, max_value=2**63),
        st.integers(min_value=1, max_value=2**31),
    )
    def test_cdb_roundtrip(self, is_read, lba, nblocks):
        parsed = parse_cdb(build_rw_cdb(is_read, lba, nblocks))
        assert parsed.lba == lba
        assert parsed.nblocks == nblocks
        assert parsed.is_read == is_read
