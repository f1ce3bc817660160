"""Unit tests for the mechanical disk model."""

import pytest

from repro.sim.engine import Engine, ms, us
from repro.storage.disk import Disk, DiskModel


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def disk(engine):
    return Disk(engine, DiskModel(), name="d0")


def finish_times(engine, disk, accesses):
    """Submit (lba, nblocks, is_read) accesses; return completion times."""
    times = []
    for lba, nblocks, is_read in accesses:
        disk.submit(lba, nblocks, is_read,
                    lambda: times.append(engine.now))
    engine.run()
    return times


class TestServiceTimeModel:
    def test_seek_grows_with_distance(self):
        model = DiskModel()
        assert model.seek_ns(0) == 0
        short = model.seek_ns(1_000)
        long = model.seek_ns(100_000_000)
        assert 0 < short < long
        assert long <= model.seek_ns(model.capacity_blocks)

    def test_seek_capped_at_full_stroke(self):
        model = DiskModel()
        assert model.seek_ns(10 * model.capacity_blocks) == pytest.approx(
            model.full_stroke_ms * 1e6, rel=0.01
        )

    def test_rotation_half_revolution(self):
        model = DiskModel(rpm=10_000)
        assert model.half_rotation_ns == 3_000_000

    def test_transfer_scales_with_bytes(self):
        model = DiskModel(media_mbps=100.0)
        assert model.media_transfer_ns(1_000_000) == pytest.approx(
            10_000_000, rel=0.01
        )
        assert model.interface_transfer_ns(4096) < model.media_transfer_ns(4096)


class TestReadAhead:
    def test_sequential_reads_hit_the_buffer(self, engine, disk):
        accesses = [(lba, 16, True) for lba in range(0, 16 * 50, 16)]
        finish_times(engine, disk, accesses)
        # The first read is mechanical; the rest ride the read-ahead.
        assert disk.buffer_hits == len(accesses) - 1

    def test_buffer_hit_is_much_faster(self, engine, disk):
        times = finish_times(engine, disk, [(0, 16, True), (16, 16, True)])
        first = times[0]
        second = times[1] - times[0]
        assert second < first / 5

    def test_random_reads_never_hit(self, engine, disk):
        accesses = [(i * 1_000_000, 16, True) for i in range(1, 10)]
        finish_times(engine, disk, accesses)
        assert disk.buffer_hits == 0

    def test_write_invalidates_readahead(self, engine, disk):
        accesses = [
            (0, 16, True),
            (1_000_000, 16, False),   # pulls the head away
            (16, 16, True),           # no longer a buffer hit
        ]
        finish_times(engine, disk, accesses)
        assert disk.buffer_hits == 0

    def test_interleaved_random_breaks_sequential_stream(self, engine, disk):
        """The Figure 6 mechanism in miniature: alternating a random
        reader with a sequential one destroys the buffer hits."""
        sequential = 0
        accesses = []
        for index in range(20):
            accesses.append((sequential, 16, True))
            sequential += 16
            accesses.append((50_000_000 + index * 997 * 16, 16, True))
        finish_times(engine, disk, accesses)
        assert disk.buffer_hits <= 1


class TestQueueing:
    def test_fifo_order(self, engine, disk):
        done = []
        for index in range(3):
            disk.submit(index * 1_000_000, 16, True,
                        lambda i=index: done.append(i))
        engine.run()
        assert done == [0, 1, 2]

    def test_one_at_a_time_latency_accumulates(self, engine, disk):
        times = finish_times(
            engine, disk, [(i * 1_000_000, 16, True) for i in range(1, 4)]
        )
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Each later command waits for the earlier one: gaps are on the
        # order of a mechanical service time, not zero.
        assert all(gap > ms(0.5) for gap in gaps)

    def test_out_of_range_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.submit(disk.model.capacity_blocks + 1, 8, True, lambda: None)

    def test_counters(self, engine, disk):
        finish_times(engine, disk, [(0, 16, True), (16, 16, True)])
        assert disk.commands == 2
        assert disk.busy_ns > 0
        assert disk.max_queue >= 1


class TestWriteServiceTime:
    def test_write_at_head_position_cheap(self, engine, disk):
        times = finish_times(engine, disk, [(0, 16, False), (16, 16, False)])
        # Second write continues from the head: no seek, no rotation.
        assert times[1] - times[0] < us(500)

    def test_remote_write_pays_seek(self, engine, disk):
        times = finish_times(
            engine, disk, [(0, 16, False), (100_000_000, 16, False)]
        )
        assert times[1] - times[0] > ms(2)


class TestSstfScheduling:
    def test_sstf_picks_nearest_command(self, engine):
        disk = Disk(engine, DiskModel(), scheduling="sstf")
        done = []
        # First command is serviced immediately (head at 0); while it
        # runs, queue a far one then a near one: SSTF serves near first.
        disk.submit(0, 16, True, lambda: done.append("first"))
        disk.submit(200_000_000, 16, True, lambda: done.append("far"))
        disk.submit(32, 16, True, lambda: done.append("near"))
        engine.run()
        assert done == ["first", "near", "far"]

    def test_fifo_preserves_arrival_order(self, engine):
        disk = Disk(engine, DiskModel(), scheduling="fifo")
        done = []
        disk.submit(0, 16, True, lambda: done.append("first"))
        disk.submit(200_000_000, 16, True, lambda: done.append("far"))
        disk.submit(32, 16, True, lambda: done.append("near"))
        engine.run()
        assert done == ["first", "far", "near"]

    def test_sstf_starvation_bound(self, engine):
        """A far command cannot be passed over forever: after the age
        limit it is serviced even though nearer work keeps arriving."""
        disk = Disk(engine, DiskModel(), scheduling="sstf",
                    sstf_starvation_limit=4)
        done = []
        disk.submit(0, 16, True, lambda: None)
        disk.submit(200_000_000, 16, True, lambda: done.append("far"))

        near = {"lba": 32}

        def feed_near(_=None):
            if not done and near["lba"] < 10_000:
                near["lba"] += 32
                disk.submit(near["lba"], 16, True, feed_near)

        feed_near()
        feed_near()
        engine.run()
        assert done == ["far"]
        # It was taken after roughly the starvation limit of services
        # (the limit, the pre-queued work, and the in-flight chains).
        assert disk.commands <= 10

    def test_bad_policy_rejected(self, engine):
        import pytest as _pytest
        with _pytest.raises(ValueError):
            Disk(engine, DiskModel(), scheduling="elevator")

    def test_sstf_improves_throughput_on_random_load(self, engine):
        import random as _random
        rng = _random.Random(0)
        lbas = [rng.randrange(0, 10_000_000) for _ in range(200)]

        def run_policy(policy):
            local = Engine()
            disk = Disk(local, DiskModel(), scheduling=policy)
            for lba in lbas:
                disk.submit(lba, 16, True, lambda: None)
            local.run()
            return local.now

        assert run_policy("sstf") < run_policy("fifo")
