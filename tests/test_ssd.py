"""The SSD/FTL backend: mapping invariants, GC, telemetry plumbing,
the extended codec layout, and the disk-vs-SSD experiment.

The acceptance contrast this file pins: an identical hot/cold write
workload reports write amplification above 1.0 and nonzero GC pauses
on the flash backend, while the mechanical CX3 reports both families
empty — the flash families are the backend's fingerprint, not the
workload's.
"""

import random

import pytest

from repro.core.collector import EXTENDED_FAMILIES, VscsiStatsCollector
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.experiments.setups import ARRAY_KINDS, reference_testbed
from repro.experiments.ssd_vs_disk import run_pattern_on, run_ssd_vs_disk
from repro.faults import FaultPlan, inject
from repro.scsi.request import ScsiRequest
from repro.sim.engine import Engine, us
from repro.storage.ssd import Ftl, SsdArray, SsdModel, ssd_array
from repro.store.codec import (
    collector_from_bytes,
    collector_to_bytes,
    merge_collector_payloads,
)
from repro.workloads.patterns import ZIPFIAN_WRITE, PatternWorkload

SMALL = dict(capacity_blocks=65_536, channels=4, cmt_entries=512)


def small_model(**overrides):
    kwargs = dict(SMALL)
    kwargs.update(overrides)
    return SsdModel(**kwargs)


# ----------------------------------------------------------------------
# The FTL state machine
# ----------------------------------------------------------------------
class TestFtl:
    def test_model_validation(self):
        with pytest.raises(ValueError):
            Ftl(small_model(gc_free_blocks=1))
        with pytest.raises(ValueError):
            Ftl(small_model(gc_free_blocks=4, gc_target_blocks=4))

    def test_geometry_reserves_gc_headroom(self):
        model = small_model()
        per_channel = model.total_blocks // model.channels
        logical_blocks = -(-model.logical_pages // model.pages_per_block)
        assert (per_channel - -(-logical_blocks // model.channels)
                >= model.gc_target_blocks + 2)

    def test_prefill_maps_every_page_without_wa(self):
        ftl = Ftl(small_model())
        ftl.prefill()
        assert all(ppn >= 0 for ppn in ftl._l2p)
        assert ftl.host_pages_written == 0
        assert ftl.flash_pages_programmed == 0
        assert ftl.write_amplification() == 0.0
        assert ftl.wa_pct() is None

    def test_read_unmapped_costs_overhead_only(self):
        ftl = Ftl(small_model())
        ops = ftl.read(0, 8)
        assert len(ops) == 1
        assert ops[0][1] == ftl._overhead_ns
        assert ftl.host_pages_read == 0

    def test_write_then_read_maps_and_charges_page_read(self):
        ftl = Ftl(small_model())
        ops, gc_ns = ftl.write(0, 8)
        assert gc_ns == 0
        assert len(ops) == 1
        assert ftl.host_pages_written == 1
        ops = ftl.read(0, 8)
        assert ops[0][1] >= ftl._overhead_ns + ftl._read_ns
        assert ftl.host_pages_read == 1

    def test_partial_overwrite_pays_rmw_read(self):
        ftl = Ftl(small_model())
        ftl.write(0, 8)
        before = ftl.host_pages_read
        ftl.write(0, 4)  # half a page over mapped data
        assert ftl.host_pages_read == before + 1

    def test_partial_write_over_unmapped_page_is_free_of_rmw(self):
        ftl = Ftl(small_model())
        before = ftl.host_pages_read
        ftl.write(0, 4)
        assert ftl.host_pages_read == before

    def test_overwrite_pressure_triggers_gc_and_wa(self):
        ftl = Ftl(small_model())
        ftl.prefill()
        rng = random.Random(3)
        pages = ftl.model.logical_pages
        saw_pause = False
        for _ in range(6 * pages // 10):
            lpn = rng.randrange(pages // 10)  # hot tenth, overwritten
            _ops, gc_ns = ftl.write(lpn * 8, 8)
            saw_pause = saw_pause or gc_ns > 0
        assert ftl.gc_runs > 0
        assert ftl.blocks_erased > 0
        assert saw_pause
        assert ftl.write_amplification() > 1.0
        assert ftl.wa_pct() > 100

    def test_mapping_stays_bijective_under_churn(self):
        ftl = Ftl(small_model())
        ftl.prefill()
        rng = random.Random(11)
        pages = ftl.model.logical_pages
        for _ in range(4 * pages):
            ftl.write(rng.randrange(pages) * 8, 8)
        mapped = [ppn for ppn in ftl._l2p if ppn >= 0]
        assert len(mapped) == len(set(mapped)), "two lpns share a ppn"
        for lpn, ppn in enumerate(ftl._l2p):
            if ppn >= 0:
                assert ftl._p2l[ppn] == lpn
        ppb = ftl.model.pages_per_block
        for block in range(ftl.model.total_blocks):
            valid = sum(
                1 for ppn in range(block * ppb, (block + 1) * ppb)
                if ftl._p2l[ppn] >= 0
            )
            assert ftl._valid[block] == valid

    def test_cmt_miss_charges_translation_read(self):
        ftl = Ftl(small_model(cmt_entries=4))
        for lpn in range(8):
            ftl.write(lpn * 8, 8)
        assert ftl.cmt_misses == 8
        assert ftl.translation_reads == 8
        # Dirty evictions wrote translation pages back.
        assert ftl.translation_programs > 0
        before = ftl.cmt_hits
        ftl.write(7 * 8, 8)  # most recent entry: a hit
        assert ftl.cmt_hits == before + 1

    def test_gc_fault_site_partial_doubles_reclaim(self):
        def churn(plan):
            ftl = Ftl(small_model())
            ftl.prefill()
            rng = random.Random(5)
            pages = ftl.model.logical_pages
            with inject(plan) as injector:
                for _ in range(pages):
                    ftl.write(rng.randrange(pages // 10) * 8, 8)
            return ftl, injector

        baseline, _ = churn(FaultPlan())
        stormed, injector = churn(FaultPlan().partial("ssd.gc", at=0))
        assert injector.fired == [("ssd.gc", 0, "partial")]
        # The deeper reclaim migrates more valid pages than steady state.
        assert stormed.gc_migrated_pages > baseline.gc_migrated_pages


# ----------------------------------------------------------------------
# The array: channels, completion, telemetry
# ----------------------------------------------------------------------
class TestSsdArray:
    def _array(self, **overrides):
        engine = Engine()
        return engine, SsdArray(engine, model=small_model(**overrides))

    def test_out_of_range_access_rejected(self):
        engine, ssd = self._array()
        with pytest.raises(ValueError):
            ssd.submit(ssd.capacity_blocks - 4, 8, True, lambda: None)

    def test_completion_and_telemetry_fetch_and_clear(self):
        engine, ssd = self._array()
        done = []
        telemetry = []

        def on_done():
            telemetry.append(ssd.take_completion_telemetry())
            done.append(engine.now)

        ssd.submit(0, 8, False, on_done)
        engine.run()
        assert len(done) == 1
        wa_pct, gc_pause_us = telemetry[0]
        assert wa_pct == 100  # first write, no GC yet
        assert gc_pause_us is None
        assert ssd.take_completion_telemetry() == (None, None)

    def test_reads_carry_no_wa_sample(self):
        engine, ssd = self._array()
        telemetry = []
        ssd.submit(0, 8, True,
                   lambda: telemetry.append(ssd.take_completion_telemetry()))
        engine.run()
        assert telemetry == [(None, None)]

    def test_parallel_channels_beat_serial_service(self):
        engine, ssd = self._array()
        done = []
        for i in range(4):
            ssd.submit(i * 8, 8, False, lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 4
        # Round-robin striping: 4 pages land on 4 distinct channels and
        # program concurrently, so the last completion is far sooner
        # than 4 serial programs.
        assert engine.now < 4 * ssd.ftl._program_ns

    def test_prefilled_drive_reaches_gc_through_submit(self):
        engine, ssd = self._array()
        rng = random.Random(9)
        cap = ssd.capacity_blocks
        remaining = [cap // 16]  # enough page writes to drain the OP

        def issue():
            if remaining[0] <= 0:
                return
            remaining[0] -= 1
            lba = rng.randrange(cap // 10) & ~7
            ssd.submit(lba, 8, False, issue)

        for _ in range(8):
            issue()
        engine.run()
        assert ssd.ftl.gc_runs > 0
        assert ssd.write_amplification() > 1.0


# ----------------------------------------------------------------------
# vSCSI plumbing: flash families populated on SSD, empty on disk
# ----------------------------------------------------------------------
def run_zipfian_on_testbed(array_kind, seed=0, commands=20_000):
    engine = Engine()
    from repro.hypervisor.esx import EsxServer

    esx = EsxServer(engine, seed=seed)
    if array_kind == "ssd":
        # A small drive so GC pressure arrives within the test run.
        array = ssd_array(engine, capacity_blocks=262_144)
    else:
        from repro.storage.array import clariion_cx3

        array = clariion_cx3(engine, read_cache=True)
    esx.add_array(array)
    vm = esx.create_vm("vm1")
    device = esx.create_vdisk(vm, "scsi0:0", array,
                              capacity_bytes=262_144 * 512)
    esx.stats.enable()
    rng = random.Random(seed)
    issued = [0]

    def issue():
        if issued[0] >= commands:
            return
        issued[0] += 1
        if rng.random() < 0.9:
            lba = rng.randrange(0, 262_144 // 10) & ~7
        else:
            lba = rng.randrange(262_144 // 10, 262_144 - 8) & ~7
        request = ScsiRequest(rng.random() < 0.2, lba, 8)
        request.on_complete(lambda r: engine.schedule(us(3), issue))
        device.issue(request)

    for _ in range(16):
        issue()
    engine.run()
    return esx.collector_for("vm1", "scsi0:0")


class TestTelemetryContrast:
    def test_ssd_kind_is_registered(self):
        assert "ssd" in ARRAY_KINDS
        bed = reference_testbed("ssd")
        assert bed.array.name == "ssd"

    def test_flash_families_light_up_on_ssd_only(self):
        ssd_collector = run_zipfian_on_testbed("ssd")
        disk_collector = run_zipfian_on_testbed("cx3")

        wa = ssd_collector.write_amp_pct
        gc = ssd_collector.gc_pause_us
        assert wa.writes.count > 0
        assert wa.reads.count == 0, "WA is sampled on writes only"
        assert wa.writes.max > 100, "hot/cold overwrites must show WA > 1"
        assert gc.writes.count > 0
        assert gc.writes.min > 0

        # The identical stream on the mechanical array: both empty.
        for family in (disk_collector.write_amp_pct,
                       disk_collector.gc_pause_us):
            assert family.reads.count == 0
            assert family.writes.count == 0

    def test_same_seed_same_payload(self):
        first = collector_to_bytes(run_zipfian_on_testbed("ssd", seed=4,
                                                          commands=3000))
        second = collector_to_bytes(run_zipfian_on_testbed("ssd", seed=4,
                                                           commands=3000))
        assert first == second


# ----------------------------------------------------------------------
# Codec: the extended family layout
# ----------------------------------------------------------------------
def collector_with_flash_data():
    collector = VscsiStatsCollector()
    for index in range(40):
        collector.on_complete(
            time_ns=1_000 * index + 1, is_read=False,
            latency_ns=250_000 + index,
            wa_pct=100 + index % 30,
            gc_pause_us=5_000 + index if index % 7 == 0 else None,
        )
    return collector


def collector_base_only():
    collector = VscsiStatsCollector()
    for index in range(25):
        collector.on_complete(
            time_ns=2_000 * index + 1, is_read=bool(index % 2),
            latency_ns=180_000 + index,
        )
    return collector


class TestExtendedCodec:
    def test_extended_payload_flag_and_roundtrip(self):
        collector = collector_with_flash_data()
        payload = collector_to_bytes(collector)
        assert payload[8] & 64, "extended layout must set flag bit 6"
        restored = collector_from_bytes(payload)
        assert restored.to_dict() == collector.to_dict()

    def test_base_payload_unchanged_without_flash_data(self):
        collector = collector_base_only()
        payload = collector_to_bytes(collector)
        assert not payload[8] & 64
        restored = collector_from_bytes(payload)
        assert restored.to_dict() == collector.to_dict()
        for name in EXTENDED_FAMILIES:
            family = getattr(restored, name)
            assert family.reads.count == 0
            assert family.writes.count == 0

    def test_mixed_merge_matches_exact(self):
        extended = collector_with_flash_data()
        base = collector_base_only()
        payloads = [collector_to_bytes(extended), collector_to_bytes(base)]
        merged = merge_collector_payloads(payloads)
        exact = extended.merge(base)
        assert merged.to_dict() == exact.to_dict()


# ----------------------------------------------------------------------
# The experiment
# ----------------------------------------------------------------------
class TestSsdVsDiskExperiment:
    def test_registered_in_runner(self):
        assert any(e.exp_id == "ssd-vs-disk" for e in EXPERIMENTS)

    def test_zipfian_contrast_and_report(self):
        result = run_ssd_vs_disk(
            duration_s=0.8, ssd_capacity_blocks=262_144,
            patterns=[ZIPFIAN_WRITE],
        )
        (comparison,) = result.comparisons
        assert comparison.ssd.seekless
        assert not comparison.disk.seekless
        assert comparison.ssd.write_amp is not None
        assert comparison.ssd.write_amp > 1.0
        assert comparison.ssd.gc_pauses > 0
        assert comparison.disk.write_amp is None
        assert comparison.disk.gc_pauses == 0
        report = result.report()
        assert "zipf-write-4k" in report
        assert "seekless" in report

    def test_same_seed_twice_is_byte_identical(self):
        def payloads():
            result = run_ssd_vs_disk(
                duration_s=0.4, ssd_capacity_blocks=262_144,
                patterns=[ZIPFIAN_WRITE], seed=2,
            )
            (comparison,) = result.comparisons
            return (collector_to_bytes(comparison.disk.collector),
                    collector_to_bytes(comparison.ssd.collector))

        assert payloads() == payloads()

    def test_quick_kwargs_run(self):
        result = run_experiment("ssd-vs-disk", quick=True,
                                patterns=[ZIPFIAN_WRITE], duration_s=0.4)
        assert len(result.comparisons) == 1


def test_pattern_on_backend_helper_validates_backend():
    with pytest.raises(ValueError):
        run_pattern_on(ZIPFIAN_WRITE, "floppy", duration_s=0.1)
