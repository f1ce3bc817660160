"""Unit tests for workload categorization and recommendations (§7's
future-work layer)."""

import random

import pytest

from repro.analysis.recommend import (
    Recommendation,
    WorkloadClass,
    categorize,
    recommend,
)
from repro.core.collector import VscsiStatsCollector
from repro.sim.engine import us


def feed(collector, accesses, is_read=True, latency_us=500, outstanding=0):
    time_ns = 0
    for lba, nblocks in accesses:
        collector.on_issue(time_ns, is_read, lba, nblocks, outstanding)
        collector.on_complete(time_ns + us(latency_us), is_read,
                              us(latency_us))
        time_ns += us(1000)


def oltp_like(n=300, seed=0):
    rng = random.Random(seed)
    collector = VscsiStatsCollector()
    time_ns = 0
    for index in range(n):
        is_read = rng.random() < 0.7
        collector.on_issue(time_ns, is_read, rng.randrange(10**8), 16, 4)
        collector.on_complete(time_ns + us(5000), is_read, us(5000))
        time_ns += us(500)
    return collector


def streaming_like(n=300):
    collector = VscsiStatsCollector()
    feed(collector, [(index * 2048, 2048) for index in range(n)])
    return collector


def log_structured_like(n=300, seed=1):
    rng = random.Random(seed)
    collector = VscsiStatsCollector()
    time_ns = 0
    write_cursor = 0
    for index in range(n):
        if index % 2:
            collector.on_issue(time_ns, False, 10**8 + write_cursor, 256, 2)
            collector.on_complete(time_ns + us(300), False, us(300))
            write_cursor += 256
        else:
            collector.on_issue(time_ns, True, rng.randrange(10**7), 16, 2)
            collector.on_complete(time_ns + us(5000), True, us(5000))
        time_ns += us(700)
    return collector


class TestCategorize:
    def test_idle_below_threshold(self):
        collector = VscsiStatsCollector()
        feed(collector, [(0, 8)])
        assert categorize(collector) == WorkloadClass.IDLE

    def test_idle_floor_is_the_callers(self):
        collector = VscsiStatsCollector()
        feed(collector, [(index * 16, 16) for index in range(60)])
        assert categorize(collector) == WorkloadClass.IDLE
        assert categorize(collector, min_commands=50) \
            == WorkloadClass.STREAMING
        assert recommend(collector) == []
        assert recommend(collector, min_commands=50) != []
        assert categorize(oltp_like(), min_commands=10 ** 6) \
            == WorkloadClass.IDLE
        assert recommend(oltp_like(), min_commands=10 ** 6) == []

    def test_oltp(self):
        assert categorize(oltp_like()) == WorkloadClass.OLTP

    def test_streaming(self):
        assert categorize(streaming_like()) == WorkloadClass.STREAMING

    def test_log_structured(self):
        """The ZFS signature: sequential writes + random reads."""
        assert (
            categorize(log_structured_like()) == WorkloadClass.LOG_STRUCTURED
        )

    def test_experiment_integration(self):
        """The figure-3 collector categorizes as log-structured."""
        from repro.experiments.figure3 import run_figure3
        result = run_figure3(duration_s=4.0, filesize=1 << 29,
                             logfilesize=1 << 26)
        assert categorize(result.collector) in (
            WorkloadClass.LOG_STRUCTURED,
            WorkloadClass.STREAMING,  # accepted at tiny scale
        )


class TestRecommend:
    def rules(self, collector):
        return {finding.rule for finding in recommend(collector)}

    def test_quiet_disk_no_findings(self):
        assert recommend(VscsiStatsCollector()) == []

    def test_reverse_scan_warning(self):
        collector = VscsiStatsCollector()
        feed(collector, [((1000 - index) * 64, 16) for index in range(300)])
        assert "reverse-scans" in self.rules(collector)

    def test_interleaved_streams_recommend_split(self):
        collector = VscsiStatsCollector()
        accesses = []
        cursors = [0, 10**8, 2 * 10**8]
        for index in range(300):
            stream = index % 3
            accesses.append((cursors[stream], 16))
            cursors[stream] += 16
        feed(collector, accesses)
        assert "split-streams" in self.rules(collector)

    def test_stripe_size_info_present(self):
        assert "stripe-size" in self.rules(oltp_like())

    def test_write_cache_warning(self):
        collector = VscsiStatsCollector()
        time_ns = 0
        for index in range(200):
            is_read = index % 2 == 0
            latency = us(500) if is_read else us(20_000)
            collector.on_issue(time_ns, is_read, index * 1000, 16, 2)
            collector.on_complete(time_ns + latency, is_read, latency)
            time_ns += us(1000)
        assert "write-cache" in self.rules(collector)

    def test_queue_depth_recommendation(self):
        collector = VscsiStatsCollector()
        feed(collector, [(index * 16, 16) for index in range(300)],
             outstanding=50)
        assert "queue-depth" in self.rules(collector)

    def test_latency_tail_warning(self):
        collector = VscsiStatsCollector()
        feed(collector, [(index * 16, 16) for index in range(300)],
             latency_us=60_000)
        assert "latency-tail" in self.rules(collector)

    def test_healthy_sequential_stream_is_quiet(self):
        findings = recommend(streaming_like())
        severities = {finding.severity for finding in findings}
        assert "warn" not in severities

    def test_recommendation_shape(self):
        for finding in recommend(oltp_like()):
            assert isinstance(finding, Recommendation)
            assert finding.severity in ("info", "tune", "warn")
            assert finding.message


class TestWorkloadReport:
    def test_report_contains_all_sections(self):
        from repro.analysis.summary import workload_report
        collector = oltp_like()
        text = workload_report(collector, heading="vm1/scsi0:0")
        assert text.startswith("vm1/scsi0:0")
        assert "workload class: oltp" in text
        assert "dominant I/O size" in text
        assert "recommendations" in text
        assert "I/O Length Histogram" in text
        assert "Seek Distance Histogram (Writes)" in text

    def test_report_without_panels(self):
        from repro.analysis.summary import workload_report
        text = workload_report(oltp_like(), panels=False)
        assert "I/O Length Histogram" not in text
        assert "workload class" in text

    def test_empty_collector_report(self):
        from repro.analysis.summary import workload_report
        text = workload_report(VscsiStatsCollector(), heading="idle")
        assert "no commands" in text


# ----------------------------------------------------------------------
# Seekless (flash-backed) vdisks
# ----------------------------------------------------------------------
def flashify(collector_builder, wa_pct=120, gc_every=0, gc_pause_us=20_000):
    """Rebuild a workload with flash telemetry on its writes."""
    collector = VscsiStatsCollector()
    time_ns = 0
    for index in range(240):
        is_read = index % 3 == 0
        lba = collector_builder(index)
        collector.on_issue(time_ns, is_read, lba, 16, 2)
        if is_read:
            collector.on_complete(time_ns + us(200), True, us(200))
        else:
            pause = (gc_pause_us if gc_every and index % gc_every == 0
                     else None)
            collector.on_complete(time_ns + us(800), False, us(800),
                                  wa_pct=wa_pct, gc_pause_us=pause)
        time_ns += us(500)
    return collector


def reverse_scan_lba(index):
    return (1000 - index) * 5000


class TestSeekless:
    def test_detection_from_flash_families(self):
        from repro.analysis.characterize import is_seekless

        assert not is_seekless(oltp_like())
        assert is_seekless(flashify(reverse_scan_lba))

    def test_characterize_tags_and_override(self):
        from repro.analysis.characterize import characterize

        assert not characterize(oltp_like()).seekless
        assert characterize(flashify(reverse_scan_lba)).seekless
        # Explicit override for read-only flash streams.
        assert characterize(oltp_like(), seekless=True).seekless

    def test_describe_labels_lba_locality(self):
        from repro.analysis.characterize import characterize, describe

        text = describe(characterize(flashify(lambda i: i * 16)))
        assert "LBA locality" in text
        assert "seekless device" in text
        spindle = describe(characterize(oltp_like()))
        assert "LBA locality" not in spindle

    def test_reverse_scan_rule_gated_on_flash(self):
        rules = lambda c: {f.rule for f in recommend(c)}
        spindle = VscsiStatsCollector()
        feed(spindle, [(reverse_scan_lba(i), 16) for i in range(240)])
        assert "reverse-scans" in rules(spindle)
        assert "reverse-scans" not in rules(flashify(reverse_scan_lba))

    def test_write_cache_rule_gated_on_flash(self):
        # Flash programs are legitimately slower than flash reads; the
        # write-back-cache heuristic must not fire on an SSD vdisk.
        rules = {f.rule for f in recommend(flashify(lambda i: i * 16))}
        assert "write-cache" not in rules

    def test_flash_write_amp_rule(self):
        rules = {f.rule for f in
                 recommend(flashify(lambda i: i * 16, wa_pct=260))}
        assert "flash-write-amp" in rules
        quiet = {f.rule for f in
                 recommend(flashify(lambda i: i * 16, wa_pct=105))}
        assert "flash-write-amp" not in quiet

    def test_flash_gc_pause_rule(self):
        rules = {f.rule for f in
                 recommend(flashify(lambda i: i * 16, gc_every=4,
                                    gc_pause_us=25_000))}
        assert "flash-gc-pauses" in rules
        quiet = {f.rule for f in
                 recommend(flashify(lambda i: i * 16, gc_every=4,
                                    gc_pause_us=500))}
        assert "flash-gc-pauses" not in quiet
