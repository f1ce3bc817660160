"""Tests for interval sampling (§1's 'arbitrary intervals over time')."""

import pytest

from repro.core.sampler import IntervalSampler
from repro.sim.engine import seconds
from repro.workloads.iometer import AccessSpec, IometerWorkload


def start_workload(harness, io_bytes=8192, random_fraction=1.0):
    spec = AccessSpec("w", io_bytes=io_bytes,
                      random_fraction=random_fraction, outstanding=8)
    workload = IometerWorkload(harness.engine, harness.device, spec,
                               rng=harness.esx.random.stream("w"))
    workload.start()
    return workload


class TestSampling:
    def test_one_sample_per_interval(self, harness):
        harness.esx.stats.enable()
        start_workload(harness)
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1))
        sampler.start()
        harness.run(until=seconds(5))
        samples = sampler.series_for("vm1", "scsi0:0")
        assert len(samples) == 5
        assert [sample.interval_index for sample in samples] == list(range(5))

    def test_reset_gives_per_interval_counts(self, harness):
        harness.esx.stats.enable()
        start_workload(harness)
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1), reset=True)
        sampler.start()
        harness.run(until=seconds(4))
        samples = sampler.series_for("vm1", "scsi0:0")
        total = sum(sample.commands for sample in samples)
        # The live collector was reset each time: intervals partition
        # the stream rather than accumulating it.
        live = harness.collector.commands  # the still-open interval
        assert all(s.commands < total for s in samples)
        assert live < total

    def test_cumulative_mode(self, harness):
        harness.esx.stats.enable()
        start_workload(harness)
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1), reset=False)
        sampler.start()
        harness.run(until=seconds(4))
        counts = [s.commands for s in sampler.series_for("vm1", "scsi0:0")]
        assert counts == sorted(counts)  # monotone growth

    def test_idle_intervals_skipped(self, harness):
        harness.esx.stats.enable()
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1))
        sampler.start()
        harness.run(until=seconds(3))
        assert sampler.samples == []

    def test_on_sample_callback(self, harness):
        harness.esx.stats.enable()
        start_workload(harness)
        seen = []
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1),
                                  on_sample=seen.append)
        sampler.start()
        harness.run(until=seconds(2))
        assert len(seen) == len(sampler.samples) == 2

    def test_stop_halts_sampling(self, harness):
        harness.esx.stats.enable()
        start_workload(harness)
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1))
        sampler.start()
        harness.run(until=seconds(2))
        sampler.stop()
        count = len(sampler.samples)
        harness.run(until=seconds(5))
        assert len(sampler.samples) == count

    def test_validation(self, harness):
        with pytest.raises(ValueError):
            IntervalSampler(harness.engine, harness.esx.stats, interval_ns=0)
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1))
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()


class TestDrift:
    def test_stable_workload_has_low_drift(self, harness):
        harness.esx.stats.enable()
        start_workload(harness)
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1))
        sampler.start()
        harness.run(until=seconds(5))
        drift = sampler.drift("vm1", "scsi0:0", metric="io_length")
        assert drift and max(drift) < 0.05

    def test_shape_change_detected(self, harness):
        """A workload that switches I/O size mid-run shows a drift
        spike at the switch — the 'changing workload characteristics'
        monitoring §1 motivates."""
        harness.esx.stats.enable()
        first = start_workload(harness, io_bytes=4096)
        sampler = IntervalSampler(harness.engine, harness.esx.stats,
                                  interval_ns=seconds(1))
        sampler.start()

        def switch():
            first.stop()
            start_workload(harness, io_bytes=65536)

        harness.engine.schedule(seconds(3), switch)
        harness.run(until=seconds(6))
        drift = sampler.drift("vm1", "scsi0:0", metric="io_length")
        assert max(drift) > 0.5
        # And the spike is at the switch boundary, not elsewhere.
        assert drift.index(max(drift)) in (1, 2, 3)
