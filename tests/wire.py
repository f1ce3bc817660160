"""Raw wire bodies for tests — including ones the product refuses to build."""

import struct

from repro.core.tracing import BINARY_RECORD_FORMAT

_RECORD = struct.Struct(BINARY_RECORD_FORMAT)


def records_to_bytes(records):
    """Pack trace records into a ``DATA_SEQ`` record body one by one.

    Unlike the column packer this checks nothing, so a test can put an
    invalid record (a negative latency) on the wire.
    """
    return b"".join(
        _RECORD.pack(r.serial, r.issue_ns, r.complete_ns, r.lba, r.nblocks,
                     1 if r.is_read else 0)
        for r in records
    )
