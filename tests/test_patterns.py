"""The LBA-pattern workload suite."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.setups import reference_testbed
from repro.workloads.patterns import (
    ALIBABA_BURSTY_WRITER,
    ALIBABA_LOG_APPEND,
    ALIBABA_READ_HOT,
    CHARACTERIZATION_SUITE,
    PATTERN_KINDS,
    PatternSpec,
    PatternWorkload,
    SEQUENTIAL_WRITE,
    STRIDED_READ,
    UNIFORM_RANDOM_RW,
    ZIPFIAN_WRITE,
)


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PatternSpec("x", "spiral", io_bytes=4096)

    def test_unaligned_io_rejected(self):
        with pytest.raises(ValueError):
            PatternSpec("x", "uniform", io_bytes=1000)

    @pytest.mark.parametrize("field,value", [
        ("read_fraction", 1.5),
        ("outstanding", 0),
        ("stride_ios", 0),
        ("hot_data", 0.0),
        ("hot_data", 1.0),
        ("hot_traffic", -0.1),
    ])
    def test_out_of_range_fields_rejected(self, field, value):
        kwargs = dict(name="x", kind="zipfian", io_bytes=4096)
        kwargs[field] = value
        with pytest.raises(ValueError):
            PatternSpec(**kwargs)

    def test_suite_covers_every_kind(self):
        kinds = {spec.kind for spec in CHARACTERIZATION_SUITE}
        assert kinds <= set(PATTERN_KINDS)
        assert {"sequential", "uniform", "strided", "zipfian"} <= kinds

    def test_alibaba_personalities_differ(self):
        specs = (ALIBABA_BURSTY_WRITER, ALIBABA_READ_HOT, ALIBABA_LOG_APPEND)
        assert len({spec.name for spec in specs}) == 3
        assert ALIBABA_READ_HOT.read_fraction > 0.9
        assert ALIBABA_BURSTY_WRITER.read_fraction < 0.2
        assert ALIBABA_LOG_APPEND.kind == "sequential"


def _device(vdisk_bytes=64 * 1024 * 1024, seed=0):
    bed = reference_testbed("cx3", seed=seed)
    vm = bed.esx.create_vm("vm1")
    device = bed.esx.create_vdisk(vm, "scsi0:0", bed.array, vdisk_bytes)
    bed.esx.stats.enable()
    return bed, device


def _slots(spec, n, capacity_blocks=131_072, seed=0):
    """The first ``n`` slot indices the pattern draws (no engine)."""

    class _FakeVdisk:
        pass

    class _FakeDevice:
        vdisk = _FakeVdisk()

    _FakeDevice.vdisk.capacity_blocks = capacity_blocks
    workload = PatternWorkload(None, _FakeDevice(), spec,
                               rng=random.Random(seed))
    return [workload._next_slot() for _ in range(n)], workload


class TestSlotSequences:
    def test_sequential_wraps(self):
        spec = PatternSpec("s", "sequential", io_bytes=65_536)
        slots, workload = _slots(spec, 1030)
        assert slots[:3] == [0, 1, 2]
        assert max(slots) < workload._slots
        assert slots[workload._slots] == 0  # wrapped

    def test_strided_covers_without_repeats_when_coprime(self):
        spec = PatternSpec("s", "strided", io_bytes=4_096, stride_ios=17)
        slots, workload = _slots(spec, 0)
        total = workload._slots
        assert total % 17 != 0  # coprime stride: full-cycle permutation
        seen = [workload._next_slot() for _ in range(total)]
        assert len(set(seen)) == total

    def test_uniform_stays_in_range(self):
        spec = PatternSpec("u", "uniform", io_bytes=8_192)
        slots, workload = _slots(spec, 500)
        assert all(0 <= slot < workload._slots for slot in slots)

    def test_zipfian_respects_hot_fractions(self):
        spec = PatternSpec("z", "zipfian", io_bytes=4_096,
                           hot_data=0.1, hot_traffic=0.9)
        slots, workload = _slots(spec, 4000)
        hot = sum(1 for slot in slots if slot < workload._hot_slots)
        assert workload._hot_slots <= workload._slots * 0.11
        assert 0.85 < hot / len(slots) < 0.95

    def test_same_seed_same_sequence(self):
        for spec in CHARACTERIZATION_SUITE:
            first, _ = _slots(spec, 200, seed=5)
            second, _ = _slots(spec, 200, seed=5)
            assert first == second

    @given(st.sampled_from(PATTERN_KINDS), st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_slots_always_in_range(self, kind, seed):
        spec = PatternSpec("p", kind, io_bytes=8_192, stride_ios=7)
        slots, workload = _slots(spec, 64, seed=seed)
        assert all(0 <= slot < workload._slots for slot in slots)


class TestClosedLoop:
    def test_keeps_outstanding_in_flight_and_counts(self):
        bed, device = _device()
        workload = PatternWorkload(bed.engine, device, UNIFORM_RANDOM_RW,
                                   rng=random.Random(1))
        workload.start()
        with pytest.raises(RuntimeError):
            workload.start()
        bed.engine.run(until=200_000_000)  # 200 ms
        assert workload.completed > 0
        collector = bed.esx.collector_for("vm1", "scsi0:0")
        mode = collector.outstanding.all.mode_label()
        assert mode == str(UNIFORM_RANDOM_RW.outstanding)
        workload.stop()
        before = workload.completed
        bed.engine.run()
        # In-flight commands drain; nothing new is issued.
        assert workload.completed <= before + UNIFORM_RANDOM_RW.outstanding

    def test_disk_too_small_rejected(self):
        bed, device = _device(vdisk_bytes=65_536)
        with pytest.raises(ValueError):
            PatternWorkload(bed.engine, device, SEQUENTIAL_WRITE)

    def test_tags_and_rates(self):
        bed, device = _device()
        workload = PatternWorkload(bed.engine, device, STRIDED_READ,
                                   rng=random.Random(2))
        workload.start()
        bed.engine.run(until=100_000_000)
        assert workload.iops() > 0
        assert workload.mbps() > 0

    def test_zipfian_write_mix_matches_read_fraction(self):
        bed, device = _device()
        workload = PatternWorkload(bed.engine, device, ZIPFIAN_WRITE,
                                   rng=random.Random(3))
        workload.start()
        bed.engine.run(until=400_000_000)
        collector = bed.esx.collector_for("vm1", "scsi0:0")
        reads = collector.read_commands / collector.commands
        assert 0.1 < reads < 0.3  # spec.read_fraction = 0.2
