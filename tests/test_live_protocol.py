"""Unit tests for the live daemon's wire protocol."""

import io
import struct

import pytest

from repro.core.tracing import TraceRecord
from repro.live.protocol import (
    FRAME_CONTROL,
    FRAME_DATA_SEQ,
    FRAME_ERROR,
    FRAME_OK,
    FRAME_TEXT,
    MAX_FRAME_BYTES,
    RECORD_BYTES,
    ProtocolError,
    bytes_to_columns,
    columns_to_bytes,
    pack_control,
    pack_data_seq,
    pack_error,
    pack_frame,
    pack_ok,
    pack_text,
    read_frame,
    sort_columns_for_stream,
    unpack_control,
    unpack_data_seq,
)
from repro.parallel.trace_io import records_to_columns
from tests.wire import records_to_bytes

#: A valid ``DATA_SEQ`` session header (session "s", seq 1), ahead of a
#: hand-built record body.
_SESSION = struct.pack("!H", 1) + b"s" + struct.pack("!Q", 1)


def _records(n=5, issue_step=1000, latency=500):
    return [
        TraceRecord(i, i * issue_step, i * issue_step + latency,
                    i * 64, 8, i % 2 == 0)
        for i in range(n)
    ]


class TestFraming:
    def test_roundtrip(self):
        stream = io.BytesIO(pack_frame(FRAME_DATA_SEQ, b"abc")
                            + pack_frame(FRAME_CONTROL, b"{}"))
        assert read_frame(stream) == (FRAME_DATA_SEQ, b"abc")
        assert read_frame(stream) == (FRAME_CONTROL, b"{}")
        assert read_frame(stream) is None  # clean EOF

    def test_empty_payload_is_legal(self):
        stream = io.BytesIO(pack_frame(FRAME_OK))
        assert read_frame(stream) == (FRAME_OK, b"")

    def test_truncated_length_prefix(self):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(b"\x00\x00"))

    def test_truncated_body(self):
        frame = pack_frame(FRAME_DATA_SEQ, b"abcdef")
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(frame[:-2]))

    def test_zero_length_body_rejected(self):
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(struct.pack("!I", 0)))

    def test_oversized_length_prefix_rejected_before_read(self):
        head = struct.pack("!I", MAX_FRAME_BYTES + 1)
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(head + b"\x01"))

    def test_pack_oversized_frame_rejected(self):
        with pytest.raises(ProtocolError):
            pack_frame(FRAME_DATA_SEQ, b"\x00" * MAX_FRAME_BYTES)


class TestDataFrames:
    def test_roundtrip(self):
        body = records_to_bytes(_records())
        frame = pack_data_seq("s1", 7, "vm-α", "scsi0:0", body)
        ftype, payload = read_frame(io.BytesIO(frame))
        assert ftype == FRAME_DATA_SEQ
        assert unpack_data_seq(payload) == ("s1", 7, "vm-α", "scsi0:0",
                                            body)

    def test_empty_body(self):
        frame = pack_data_seq("s", 1, "vm", "d", b"")
        _, payload = read_frame(io.BytesIO(frame))
        assert unpack_data_seq(payload) == ("s", 1, "vm", "d", b"")

    def test_ragged_body_rejected_both_ways(self):
        with pytest.raises(ProtocolError):
            pack_data_seq("s", 1, "vm", "d", b"\x00" * (RECORD_BYTES + 1))
        raw = (_SESSION + struct.pack("!H", 1) + b"v" + struct.pack("!H", 1)
               + b"d" + b"\x00" * (RECORD_BYTES - 1))
        with pytest.raises(ProtocolError, match="whole number"):
            unpack_data_seq(raw)

    def test_truncated_name_header_rejected(self):
        with pytest.raises(ProtocolError, match="name header"):
            unpack_data_seq(_SESSION + b"\x00")
        with pytest.raises(ProtocolError, match="in a name"):
            unpack_data_seq(_SESSION + struct.pack("!H", 10) + b"short")

    def test_undecodable_name_rejected(self):
        raw = _SESSION + struct.pack("!H", 2) + b"\xff\xfe"
        with pytest.raises(ProtocolError, match="undecodable name"):
            unpack_data_seq(raw + struct.pack("!H", 1) + b"d")


class TestRecordBody:
    def test_bytes_columns_roundtrip(self):
        records = _records(7)
        body = records_to_bytes(records)
        columns = bytes_to_columns(body)
        assert len(columns) == 7
        assert list(columns.serial) == [r.serial for r in records]
        assert list(columns.issue_ns) == [r.issue_ns for r in records]
        assert list(columns.complete_ns) == [r.complete_ns for r in records]
        assert list(columns.lba) == [r.lba for r in records]
        assert list(columns.nblocks) == [r.nblocks for r in records]
        assert [bool(x) for x in columns.is_read] == \
            [r.is_read for r in records]
        assert columns_to_bytes(columns) == body

    def test_records_to_bytes_matches_columns_to_bytes(self):
        records = _records(11)
        assert records_to_bytes(records) == \
            columns_to_bytes(records_to_columns(records))

    def test_negative_latency_rejected(self):
        bad = [TraceRecord(0, 1000, 500, 0, 8, True)]
        with pytest.raises(ProtocolError):
            bytes_to_columns(records_to_bytes(bad))

    def test_ragged_body_rejected(self):
        with pytest.raises(ProtocolError):
            bytes_to_columns(b"\x00" * (RECORD_BYTES + 3))

    def test_sort_columns_for_stream(self):
        records = [
            TraceRecord(3, 5000, 5100, 0, 8, True),
            TraceRecord(1, 1000, 9000, 8, 8, False),
            TraceRecord(2, 1000, 1500, 16, 8, True),
        ]
        ordered = sort_columns_for_stream(records_to_columns(records))
        assert list(ordered.serial) == [1, 2, 3]
        assert list(ordered.issue_ns) == [1000, 1000, 5000]


class TestControlAndResponses:
    def test_control_roundtrip(self):
        frame = pack_control({"op": "snapshot", "scope": "all"})
        ftype, payload = read_frame(io.BytesIO(frame))
        assert ftype == FRAME_CONTROL
        assert unpack_control(payload) == {"op": "snapshot", "scope": "all"}

    def test_control_must_be_object_with_op(self):
        with pytest.raises(ProtocolError):
            unpack_control(b"[1, 2]")
        with pytest.raises(ProtocolError):
            unpack_control(b'{"scope": "all"}')
        with pytest.raises(ProtocolError):
            unpack_control(b"not json")
        with pytest.raises(ProtocolError):
            unpack_control(b'{"op": 7}')

    def test_response_frames(self):
        ftype, payload = read_frame(io.BytesIO(pack_ok({"pong": True})))
        assert (ftype, payload) == (FRAME_OK, b'{"pong": true}')
        ftype, payload = read_frame(io.BytesIO(pack_text("# EOF\n")))
        assert (ftype, payload) == (FRAME_TEXT, b"# EOF\n")
        ftype, payload = read_frame(io.BytesIO(pack_error("boom")))
        assert ftype == FRAME_ERROR
        assert b"boom" in payload
