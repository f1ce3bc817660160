"""Property tests for the batched hot path.

The batched ingestion machinery (the ``Histogram.insert_many`` kernel,
the bin-lookup table, ``LookBehindWindow.observe_many`` and the
columnar collector hooks) is only admissible because it is *exactly*
equivalent to the scalar path.  These tests state that equivalence as
properties: for arbitrary inputs and arbitrary batch boundaries,
batched and scalar ingestion must leave byte-identical state behind.

There are two tiers — the scalar hooks and the numpy kernels — and one
size rule (``BATCH_CROSSOVER``) choosing between them, so every
property drives the public hook with batch sizes on *both* sides of
the constant, and the kernels are additionally called directly below
it (n = 1, 2, just under), where the public hooks no longer reach.
"""

import json
import tracemalloc

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bins import (
    IO_LENGTH_BINS,
    LATENCY_US_BINS,
    LUT_MAX_SPAN,
    OUTSTANDING_IO_BINS,
    SEEK_DISTANCE_BINS,
    BinScheme,
)
from repro.core.collector import VscsiStatsCollector
from repro.core.histogram import BATCH_CROSSOVER, Histogram
from repro.core.histogram2d import TimeSeriesHistogram
from repro.core.tracing import TraceRecord, replay_into_collector
from repro.core import window as window_module
from repro.core.window import LookBehindWindow
from repro.sim.engine import Engine
from repro.parallel.trace_io import (
    TraceColumns,
    records_to_columns,
    replay_columns,
)

ALL_SCHEMES = [IO_LENGTH_BINS, SEEK_DISTANCE_BINS, LATENCY_US_BINS,
               OUTSTANDING_IO_BINS]

#: Batch sizes the public hooks can no longer hand to the numpy
#: kernels: the vectorized edge cases live here (one row has no
#: adjacent pair; two rows have exactly one).
BELOW_CROSSOVER = [1, 2, BATCH_CROSSOVER - 1]

#: Transient peak (MiB, ``tracemalloc``) of one 32 768-row frame through
#: the batch hooks when the window still ran a per-command loop.
FRAME_PEAK_MIB = {"seq": 5.62, "rand": 6.57}

#: Issue rows (by index) whose exact values leave int64 somewhere in the
#: vectorized issue kernel.
INT64_EDGE_ROWS = {
    "lba": lambda i: (1000 * i, i % 3 == 0, 2**63 - 10 - (i % 2) * 5000,
                      64, 0),
    "time": lambda i: (2**62 + i if i else -2**62 - 5, i % 3 == 0, 64 * i,
                       8, 0),
    "nblocks": lambda i: (1000 * i, i % 3 == 0, 0, 2**60, 0),
}

# Values beyond int64 range included deliberately: the numpy kernel
# must detect them and decline, leaving the exact scalar loop.
wild_values = st.integers(min_value=-(10**25), max_value=10**25)
sane_values = st.integers(min_value=-(10**12), max_value=10**12)


def canon(obj):
    """Canonical JSON form — 'byte-identical' comparison."""
    return json.dumps(obj, sort_keys=True)


# ----------------------------------------------------------------------
# Histogram kernels
# ----------------------------------------------------------------------
class TestInsertManyKernels:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES,
                             ids=lambda s: s.name)
    @given(data=st.lists(wild_values, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_backends_match_scalar_insert(self, scheme, data):
        # Lists of up to 300 values land on both sides of the size
        # rule; the kernel is then forced on the same data whatever
        # its length (it may decline — then nothing was touched).
        scalar = Histogram(scheme)
        batched = Histogram(scheme)
        kernel = Histogram(scheme)
        for value in data:
            scalar.insert(value)
        batched.insert_many(data)
        assert canon(batched.to_dict()) == canon(scalar.to_dict())
        if data and kernel._insert_many_numpy(data):
            assert canon(kernel.to_dict()) == canon(scalar.to_dict())
        else:
            assert kernel == Histogram(scheme)

    @pytest.mark.parametrize("n", BELOW_CROSSOVER)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_kernel_matches_scalar_insert_below_the_crossover(self, n, data):
        values = data.draw(st.lists(sane_values, min_size=n, max_size=n))
        scalar = Histogram(SEEK_DISTANCE_BINS)
        kernel = Histogram(SEEK_DISTANCE_BINS)
        for _ in range(2):  # the second pass folds into running state
            for value in values:
                scalar.insert(value)
            assert kernel._insert_many_numpy(values)
        assert canon(kernel.to_dict()) == canon(scalar.to_dict())

    @given(data=st.lists(sane_values, max_size=200),
           cuts=st.lists(st.integers(min_value=0, max_value=200),
                         max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_chunked_insertion_is_associative(self, data, cuts):
        whole = Histogram(SEEK_DISTANCE_BINS)
        chunked = Histogram(SEEK_DISTANCE_BINS)
        for value in data:
            whole.insert(value)
        bounds = sorted({c for c in cuts if c < len(data)})
        start = 0
        for cut in bounds + [len(data)]:
            chunked.insert_many(data[start:cut])
            start = cut
        assert canon(chunked.to_dict()) == canon(whole.to_dict())

    @given(data=st.lists(st.integers(min_value=-5, max_value=200),
                         max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_lut_path_matches_bisect(self, data):
        # OUTSTANDING_IO_BINS spans 63 values, so it gets a LUT;
        # confirm, then compare against a bisect-only twin scheme.
        assert OUTSTANDING_IO_BINS.index_lut() is not None
        wide = BinScheme("wide_twin",
                         OUTSTANDING_IO_BINS.edges + (LUT_MAX_SPAN * 4,))
        assert wide.index_lut() is None
        lut_hist = Histogram(OUTSTANDING_IO_BINS)
        ref_hist = Histogram(wide)
        for value in data:
            lut_hist.insert(value)
            ref_hist.insert(value)
        # The twin has one extra (empty) bin; counts must agree on the
        # shared prefix and the overflow tail.
        assert lut_hist.counts[:-1] == ref_hist.counts[:len(lut_hist.counts) - 1]
        assert lut_hist.counts[-1] == sum(ref_hist.counts[len(lut_hist.counts) - 1:])
        assert lut_hist.count == ref_hist.count

    def test_lut_rejects_floats_exactly(self):
        # Floats cannot index the LUT; both paths must fall back to
        # bisect semantics, scalar and batched alike — below the
        # crossover and above it, where the kernel must decline.
        for repeat in (1, BATCH_CROSSOVER):
            a = Histogram(OUTSTANDING_IO_BINS)
            b = Histogram(OUTSTANDING_IO_BINS)
            data = [1, 2.5, 64, 3.0, -1.5, 100] * repeat
            for value in data:
                a.insert(value)
            b.insert_many(data)
            assert a.counts == b.counts
            assert a.count == b.count
            assert a.total == b.total

    def test_numpy_array_input_matches_list_input(self):
        # A long batch takes the kernel, a short one the scalar loop
        # over ``.tolist()``: either way the state holds Python ints,
        # never an np.int64 that would wrap or break JSON.
        for step in (7, 997):
            data = list(range(-100, 4000, step))
            assert (len(data) >= BATCH_CROSSOVER) == (step == 7)
            from_list = Histogram(IO_LENGTH_BINS)
            from_array = Histogram(IO_LENGTH_BINS)
            from_list.insert_many(data)
            from_array.insert_many(numpy.asarray(data))
            assert canon(from_array.to_dict()) == canon(from_list.to_dict())
            assert type(from_array.total) is int
            assert type(from_array.max) is int

    def test_kernel_total_is_exact_where_int64_would_wrap(self):
        data = [2**61] * BATCH_CROSSOVER
        scalar = Histogram(SEEK_DISTANCE_BINS)
        for value in data:
            scalar.insert(value)
        batched = Histogram(SEEK_DISTANCE_BINS)
        batched.insert_many(numpy.asarray(data))
        assert batched.total == scalar.total == BATCH_CROSSOVER * 2**61


class TestTimeSeriesKernel:
    @given(pairs=st.lists(st.tuples(st.integers(min_value=0,
                                                max_value=10**6)
                                    | st.integers(min_value=0,
                                                  max_value=10**25),
                                    wild_values),
                          max_size=3 * BATCH_CROSSOVER),
           interval=st.sampled_from([1, 7, 1_000, 250_000]),
           columns=st.sampled_from(["list", "numpy"]))
    @settings(max_examples=60, deadline=None)
    def test_multi_slot_batch_matches_scalar_insert(self, pairs, interval,
                                                    columns):
        # Unsorted times over many slots: the grouped kernel must open
        # the same slots (in the same order) with the same contents.
        # Times beyond int64 take the scalar rule, to the same state.
        scalar = TimeSeriesHistogram(LATENCY_US_BINS, interval)
        batched = TimeSeriesHistogram(LATENCY_US_BINS, interval)
        scalar.insert(3 * interval, 5)
        batched.insert(3 * interval, 5)
        for time_ns, value in pairs:
            scalar.insert(time_ns, value)
        times = [p[0] for p in pairs]
        values = [p[1] for p in pairs]
        if columns == "numpy" and all(abs(v) < 2**62
                                      for v in times + values):
            times, values = numpy.asarray(times), numpy.asarray(values)
        batched.insert_many(times, values)
        assert list(batched._slots) == list(scalar._slots)
        assert batched.num_slots == scalar.num_slots
        assert canon(batched.to_dict()) == canon(scalar.to_dict())

    @pytest.mark.parametrize("columns", ["list", "numpy"])
    def test_negative_time_in_a_multi_slot_batch_changes_nothing(self,
                                                                 columns):
        series = TimeSeriesHistogram(LATENCY_US_BINS, 1_000)
        series.insert(500, 7)
        before = canon(series.to_dict())
        times = [10_000 * i for i in range(BATCH_CROSSOVER)] + [-1, 2_500]
        values = list(range(len(times)))
        if columns == "numpy":
            times, values = numpy.asarray(times), numpy.asarray(values)
        with pytest.raises(ValueError, match="negative time -1"):
            series.insert_many(times, values)
        assert canon(series.to_dict()) == before
        assert series.num_slots == 1


# ----------------------------------------------------------------------
# Look-behind window
# ----------------------------------------------------------------------
class TestObserveMany:
    @given(
        commands=st.lists(
            st.tuples(st.integers(min_value=0, max_value=500),
                      st.integers(min_value=1, max_value=64)),
            max_size=120,
        ),
        size=st.integers(min_value=1, max_value=20),
        cut=st.integers(min_value=0, max_value=120),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_observe_including_state(self, commands, size,
                                                    cut):
        # Small LBA range forces frequent exact-abs-distance ties, the
        # hardest case for the block kernel (its ring-order tie rule).
        pairs = [(lba, lba + nb - 1) for lba, nb in commands]
        scalar = LookBehindWindow(size)
        batched = LookBehindWindow(size)
        expected = [scalar.observe(fb, lb) for fb, lb in pairs]
        cut = min(cut, len(pairs))
        got = batched.observe_many([p[0] for p in pairs[:cut]],
                                   [p[1] for p in pairs[:cut]])
        got += batched.observe_many([p[0] for p in pairs[cut:]],
                                    [p[1] for p in pairs[cut:]])
        assert got == expected
        # Ring state must match too, so scalar and batched observation
        # can be freely interleaved.
        assert batched._ring == scalar._ring
        assert batched._next == scalar._next
        assert batched._filled == scalar._filled

    @given(
        commands=st.lists(
            st.tuples(st.integers(min_value=0, max_value=40),
                      st.integers(min_value=0, max_value=40)),
            max_size=150,
        ),
        size=st.integers(min_value=1, max_value=19),
        block=st.integers(min_value=1, max_value=9),
        cut=st.integers(min_value=0, max_value=150),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_kernel_ties_match_ring_order_across_blocks(
            self, commands, size, block, cut):
        # Positions 0..40 make +a/-a ties common; tiny row blocks put
        # block boundaries (and tie rows) everywhere in the batch.
        scalar = LookBehindWindow(size)
        batched = LookBehindWindow(size)
        expected = [scalar.observe(fb, lb) for fb, lb in commands]
        cut = min(cut, len(commands))
        got = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(window_module, "BLOCK_ROWS", block)
            for part in (commands[:cut], commands[cut:]):
                got += batched.observe_many([p[0] for p in part],
                                            [p[1] for p in part])
        assert got == expected
        assert (batched._ring, batched._next, batched._filled) \
            == (scalar._ring, scalar._next, scalar._filled)

    def test_positions_beyond_the_safe_range_take_the_scalar_rule(self):
        edge = (1 << 63) - 1
        pairs = [(edge - 3 * i, edge - i) for i in range(40)] \
            + [(-edge + i, -edge + 2 * i) for i in range(40)]
        scalar = LookBehindWindow(4)
        batched = LookBehindWindow(4)
        expected = [scalar.observe(fb, lb) for fb, lb in pairs]
        got = batched.observe_many([p[0] for p in pairs],
                                   [p[1] for p in pairs])
        assert got == expected
        assert batched._ring == scalar._ring


# ----------------------------------------------------------------------
# Collector batch hooks
# ----------------------------------------------------------------------
def straddling(element, longest):
    """Lists of ``element`` drawn on both sides of the size rule: half
    the draws stay below ``BATCH_CROSSOVER`` (scalar tier), half reach
    it (numpy tier)."""
    return st.one_of(
        st.lists(element, max_size=BATCH_CROSSOVER - 1),
        st.lists(element, min_size=BATCH_CROSSOVER, max_size=longest),
    )


issue_rows = straddling(
    st.tuples(
        st.integers(min_value=0, max_value=2_000_000),   # arrival gap ns
        st.booleans(),                                   # is_read
        st.integers(min_value=0, max_value=1 << 30),     # lba
        st.integers(min_value=1, max_value=2048),        # nblocks
        st.integers(min_value=0, max_value=100),         # outstanding
    ),
    longest=4 * BATCH_CROSSOVER,
)


def absolute_rows(rows):
    """Convert arrival gaps to absolute non-decreasing timestamps."""
    out = []
    t = 0
    for gap, is_read, lba, nblocks, outstanding in rows:
        t += gap
        out.append((t, is_read, lba, nblocks, outstanding))
    return out


def as_columns(chunk_rows, width, kind):
    """Transpose rows into ``width`` columns — plain lists, or the
    ndarrays the live path feeds the same hooks."""
    cols = [list(col) for col in zip(*chunk_rows)]
    if not cols:
        cols = [[] for _ in range(width)]
    if kind == "numpy":
        cols = [numpy.asarray(col) for col in cols]
    return cols


class TestCollectorBatchHooks:
    @pytest.mark.parametrize("columns", ["list", "numpy"])
    @given(rows=issue_rows,
           cuts=st.lists(st.integers(min_value=0,
                                     max_value=4 * BATCH_CROSSOVER),
                         max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_issue_batch_matches_scalar_loop(self, columns, rows, cuts):
        rows = absolute_rows(rows)
        scalar = VscsiStatsCollector()
        batched = VscsiStatsCollector()
        for row in rows:
            scalar.on_issue(*row)
        bounds = sorted({c for c in cuts if c < len(rows)})
        start = 0
        for cut in bounds + [len(rows)]:
            batched.on_issue_batch(*as_columns(rows[start:cut], 5, columns))
            start = cut
        assert canon(batched.to_dict()) == canon(scalar.to_dict())

    @pytest.mark.parametrize("n", BELOW_CROSSOVER)
    @given(rows=issue_rows)
    @settings(max_examples=20, deadline=None)
    def test_issue_kernel_matches_scalar_loop_below_the_crossover(self, n,
                                                                  rows):
        # Fixed chunks of n rows straight into the vectorized kernel:
        # the first chunk meets empty coupling state, every later one
        # the carried end block / arrival / ring of its predecessor.
        rows = absolute_rows(rows)
        scalar = VscsiStatsCollector()
        kernel = VscsiStatsCollector()
        for start in range(0, len(rows), n):
            chunk = rows[start:start + n]
            for row in chunk:
                scalar.on_issue(*row)
            kernel._on_issue_batch_numpy(*as_columns(chunk, 5, "list"))
            assert kernel._last_end_block == scalar._last_end_block
            assert kernel._last_arrival_ns == scalar._last_arrival_ns
        assert canon(kernel.to_dict()) == canon(scalar.to_dict())

    @pytest.mark.parametrize("columns", ["list", "numpy"])
    @given(rows=straddling(
        st.tuples(st.integers(min_value=0, max_value=10**12),
                  st.booleans(),
                  st.integers(min_value=0, max_value=10**11)),
        longest=3 * BATCH_CROSSOVER))
    @settings(max_examples=40, deadline=None)
    def test_complete_batch_matches_scalar_loop(self, columns, rows):
        scalar = VscsiStatsCollector()
        batched = VscsiStatsCollector()
        for time_ns, is_read, latency_ns in rows:
            scalar.on_complete(time_ns, is_read, latency_ns)
        batched.on_complete_batch(*as_columns(rows, 3, columns))
        assert canon(batched.to_dict()) == canon(scalar.to_dict())

    @given(rows=straddling(
        st.tuples(st.integers(min_value=0, max_value=10**12),
                  st.booleans(),
                  st.integers(min_value=0, max_value=10**11),
                  st.none() | st.integers(min_value=100, max_value=900),
                  st.none() | st.integers(min_value=0, max_value=10**6)),
        longest=2 * BATCH_CROSSOVER))
    @settings(max_examples=30, deadline=None)
    def test_complete_batch_ftl_columns_match_scalar_loop(self, rows):
        scalar = VscsiStatsCollector()
        batched = VscsiStatsCollector()
        for row in rows:
            scalar.on_complete(*row)
        times, flags, lats, wa, gc = as_columns(rows, 5, "list")
        batched.on_complete_batch(times, flags, lats, wa_pct=wa,
                                  gc_pause_us=gc)
        assert canon(batched.to_dict()) == canon(scalar.to_dict())

    def test_vestigial_backend_keyword_selects_nothing(self):
        # Accepted (and ignored) only for benchmarks/pipeline/layers.py.
        rows = absolute_rows([(1000, i % 2 == 0, 64 * i, 8, i % 4)
                              for i in range(BATCH_CROSSOVER)])
        cols = as_columns(rows, 5, "list")
        latencies = [500] * len(rows)
        plain = VscsiStatsCollector()
        plain.on_issue_batch(*cols)
        plain.on_complete_batch(cols[0], cols[1], latencies)
        for backend in (None, "auto", "numpy"):
            same = VscsiStatsCollector()
            same.on_issue_batch(*cols, backend=backend)
            same.on_complete_batch(cols[0], cols[1], latencies,
                                   backend=backend)
            assert same == plain
        with pytest.raises(ValueError):
            plain.on_issue_batch(*cols, backend="python")
        with pytest.raises(ValueError):
            plain.on_complete_batch(cols[0], cols[1], latencies,
                                    backend="python")

    @given(rows=issue_rows)
    @settings(max_examples=30, deadline=None)
    def test_scalar_and_batch_interleave_freely(self, rows):
        rows = absolute_rows(rows)
        scalar = VscsiStatsCollector()
        mixed = VscsiStatsCollector()
        for row in rows:
            scalar.on_issue(*row)
        half = len(rows) // 2
        for row in rows[:half]:
            mixed.on_issue(*row)
        mixed.on_issue_batch(*as_columns(rows[half:], 5, "list"))
        assert canon(mixed.to_dict()) == canon(scalar.to_dict())

    def test_batch_rejects_ragged_columns(self):
        collector = VscsiStatsCollector()
        with pytest.raises(ValueError):
            collector.on_issue_batch([1, 2], [True], [0, 0], [8, 8], [0, 0])
        with pytest.raises(ValueError):
            collector.on_complete_batch([1, 2], [True, False], [10])

    def test_derived_all_equals_explicit_insert(self):
        # 'all' is no longer maintained online; it must still be what a
        # third per-command insert would have produced.
        family_view = VscsiStatsCollector().io_length
        reference = Histogram(IO_LENGTH_BINS)
        for value, is_read in [(4096, True), (512, False), (8192, True)]:
            family_view.insert(value, is_read)
            reference.insert(value)
        assert family_view.all == reference

    @pytest.mark.parametrize("columns", ["list", "numpy"])
    @given(rows=straddling(
        st.tuples(
            st.integers(min_value=0, max_value=2_000_000),   # arrival gap ns
            st.booleans(),
            st.integers(min_value=0, max_value=1 << 30),
            st.integers(min_value=1, max_value=2048),
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=0, max_value=30_000_000),  # latency ns
        ), longest=4 * BATCH_CROSSOVER),
        slot_ns=st.sampled_from([1_000_000, 7_000_000, 50_000_000]),
        cut=st.integers(min_value=0, max_value=4 * BATCH_CROSSOVER))
    @settings(max_examples=40, deadline=None)
    def test_batch_hooks_match_scalar_loop_across_time_slots(
            self, columns, rows, slot_ns, cut):
        # Slots of a few ms make every frame straddle several of them;
        # completion times (issue + a latency longer than the gaps)
        # arrive unsorted, as they do on the live path.
        issues = absolute_rows([row[:5] for row in rows])
        completes = [(issue[0] + row[5], issue[1], row[5])
                     for issue, row in zip(issues, rows)]
        scalar = VscsiStatsCollector(time_slot_ns=slot_ns)
        batched = VscsiStatsCollector(time_slot_ns=slot_ns)
        for issue, complete in zip(issues, completes):
            scalar.on_issue(*issue)
            scalar.on_complete(*complete)
        for part in (slice(0, cut), slice(cut, None)):
            batched.on_issue_batch(*as_columns(issues[part], 5, columns))
            batched.on_complete_batch(*as_columns(completes[part], 3,
                                                  columns))
        assert canon(batched.to_dict()) == canon(scalar.to_dict())

    @pytest.mark.parametrize("columns", ["list", "numpy"])
    @pytest.mark.parametrize("edge", sorted(INT64_EDGE_ROWS))
    def test_issue_batch_at_the_int64_edges_matches_scalar_loop(self, edge,
                                                                columns):
        # Each column set makes some int64 intermediate of the kernel
        # (end block and seek distance, interarrival gap, byte length)
        # wrap; the batch must give the scalar loop's exact Python-int
        # state instead.
        rows = [INT64_EDGE_ROWS[edge](i) for i in range(40)]
        scalar = VscsiStatsCollector(time_slot_ns=0)
        batched = VscsiStatsCollector(time_slot_ns=0)
        for row in rows:
            scalar.on_issue(*row)
        batched.on_issue_batch(*as_columns(rows, 5, columns))
        if edge == "lba":
            assert batched.seek_distance_windowed.all.total == -7457
        assert canon(batched.to_dict()) == canon(scalar.to_dict())

    @pytest.mark.parametrize("kind", ["seq", "rand"])
    def test_frame_transient_memory_stays_bounded(self, kind):
        # One 32 768-row issue + complete frame on a warmed collector.
        # The window kernel works in fixed row blocks, so its transient
        # arrays do not grow with the frame; the ceilings are what the
        # earlier per-command window loop peaked at on the same frames
        # (numpy 2.4, CPython 3.11).
        rows = 32_768
        rng = numpy.random.default_rng(101)
        frames = []
        now = 0
        for _ in range(2):
            if kind == "seq":
                gaps = rng.integers(80_000, 160_000, rows)
                nblocks = numpy.full(rows, 128, dtype=numpy.uint32)
                lba = 128 * numpy.arange(len(frames) * rows,
                                         (len(frames) + 1) * rows)
                is_read = numpy.ones(rows, dtype=bool)
            else:
                gaps = rng.integers(30_000, 90_000, rows)
                nblocks = numpy.full(rows, 8, dtype=numpy.uint32)
                lba = 8 * rng.integers(0, 1 << 24, rows)
                is_read = rng.random(rows) < 0.2
            issue = now + numpy.cumsum(gaps)
            now = int(issue[-1])
            complete = issue + rng.integers(300_000, 1_600_000, rows)
            frames.append((issue, is_read, lba, nblocks, complete))
        outstanding = numpy.full(rows, 8, dtype=numpy.int64)

        def feed(collector, frame):
            issue, is_read, lba, nblocks, complete = frame
            collector.on_issue_batch(issue, is_read, lba, nblocks,
                                     outstanding)
            collector.on_complete_batch(complete, is_read, complete - issue)

        collector = VscsiStatsCollector()
        feed(collector, frames[0])
        tracemalloc.start()
        try:
            feed(collector, frames[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ceiling = FRAME_PEAK_MIB[kind]
        assert peak <= ceiling * 2**20, (
            f"{kind}: {peak / 2**20:.2f} MiB > {ceiling} MiB")


# ----------------------------------------------------------------------
# Offline replay and service hooks
# ----------------------------------------------------------------------
trace_records = straddling(
    st.tuples(st.integers(min_value=0, max_value=10**9),     # issue_ns
              st.integers(min_value=1, max_value=10**8),     # latency_ns
              st.integers(min_value=0, max_value=1 << 30),   # lba
              st.integers(min_value=1, max_value=1024),      # nblocks
              st.booleans()),
    longest=3 * BATCH_CROSSOVER,
)


class TestBatchedReplay:
    @pytest.mark.parametrize("columns", ["list", "numpy"])
    @given(raw=trace_records)
    @settings(max_examples=40, deadline=None)
    def test_batched_replay_matches_event_merge(self, columns, raw):
        records = [
            TraceRecord(serial=i, issue_ns=issue, complete_ns=issue + lat,
                        lba=lba, nblocks=nb, is_read=is_read)
            for i, (issue, lat, lba, nb, is_read) in enumerate(raw)
        ]
        scalar = replay_into_collector(records)
        cols = records_to_columns(records)
        if columns == "list":  # a hand-built holder of plain lists
            cols = TraceColumns(*(col.tolist() for col in cols.columns()))
        batched = replay_columns(cols)
        assert canon(batched.to_dict()) == canon(scalar.to_dict())

# ----------------------------------------------------------------------
# Engine pending-event accounting
# ----------------------------------------------------------------------
class TestEngineAccounting:
    def brute_pending(self, engine):
        return sum(1 for h in engine._heap if not h.cancelled and not h.fired)

    @given(ops=st.lists(st.tuples(st.sampled_from(["schedule", "cancel",
                                                   "step", "batch"]),
                                  st.integers(min_value=0, max_value=50)),
                        max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_pending_events_counter_matches_heap_scan(self, ops):
        engine = Engine()
        handles = []
        for op, arg in ops:
            if op == "schedule":
                handles.append(engine.schedule(arg, lambda: None))
            elif op == "batch":
                now = engine.now
                handles.extend(engine.schedule_at(now + arg + i, lambda: None)
                               for i in range(3))
            elif op == "cancel" and handles:
                handles[arg % len(handles)].cancel()
            elif op == "step":
                engine.step()
            assert engine.pending_events() == self.brute_pending(engine)
        engine.run()
        assert engine.pending_events() == 0

    def test_cancel_after_fire_keeps_counter_sane(self):
        engine = Engine()
        handle = engine.schedule(5, lambda: None)
        engine.run()
        assert engine.pending_events() == 0
        handle.cancel()
        handle.cancel()
        assert engine.pending_events() == 0

    def test_same_time_run_drains_in_one_pass(self):
        engine = Engine()
        fired = []
        for i in range(5):
            engine.schedule_at(7, lambda i=i: fired.append(i))
        # A same-time event scheduled *during* the run must still fire
        # within the run, after the already-queued ones.
        engine.schedule_at(7, lambda: engine.schedule_at(
            7, lambda: fired.append("late")))
        engine.run()
        assert fired == [0, 1, 2, 3, 4, "late"]
