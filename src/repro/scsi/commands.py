"""A small SCSI block-command model.

The hypervisor's emulation layer presents an LSI Logic / Bus Logic
SCSI device to the guest (§2); the guest driver sends Command
Descriptor Blocks (CDBs).  The characterization service only needs the
block-transfer subset — READ/WRITE with an LBA and a transfer length —
but we model the CDB encodings for the common variants so the vSCSI
layer parses commands the way a real emulation layer does, including
the 6/10/16-byte addressing limits.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

__all__ = ["OpCode", "Cdb", "build_rw_cdb", "parse_cdb", "SECTOR_BYTES"]

#: Bytes per logical block throughout the reproduction.
SECTOR_BYTES = 512


class OpCode(enum.IntEnum):
    """SCSI operation codes used by the block path."""

    READ_6 = 0x08
    WRITE_6 = 0x0A
    READ_10 = 0x28
    WRITE_10 = 0x2A
    READ_16 = 0x88
    WRITE_16 = 0x8A

    @property
    def is_read(self) -> bool:
        return self in (OpCode.READ_6, OpCode.READ_10, OpCode.READ_16)


@dataclass(frozen=True)
class Cdb:
    """A parsed Command Descriptor Block for a block transfer."""

    opcode: OpCode
    lba: int
    nblocks: int

    @property
    def is_read(self) -> bool:
        return self.opcode.is_read

    @property
    def length_bytes(self) -> int:
        return self.nblocks * SECTOR_BYTES


# Addressing limits per CDB family.
_LIMITS = {
    6: (1 << 21, 1 << 8),
    10: (1 << 32, 1 << 16),
    16: (1 << 64, 1 << 32),
}


def build_rw_cdb(is_read: bool, lba: int, nblocks: int) -> bytes:
    """Encode a READ/WRITE CDB, picking the smallest family that fits.

    Raises :class:`ValueError` for out-of-range parameters — the same
    validation the emulation layer would apply before accepting the
    command.
    """
    if lba < 0:
        raise ValueError(f"negative LBA {lba}")
    if nblocks < 1:
        raise ValueError(f"transfer length must be >= 1 block, got {nblocks}")

    if lba < _LIMITS[6][0] and 0 < nblocks < _LIMITS[6][1]:
        opcode = OpCode.READ_6 if is_read else OpCode.WRITE_6
        # 6-byte: opcode, LBA[20:16] | LUN bits, LBA[15:8], LBA[7:0],
        # transfer length, control.
        return bytes(
            [
                opcode,
                (lba >> 16) & 0x1F,
                (lba >> 8) & 0xFF,
                lba & 0xFF,
                nblocks & 0xFF,
                0,
            ]
        )
    if lba < _LIMITS[10][0] and nblocks < _LIMITS[10][1]:
        opcode = OpCode.READ_10 if is_read else OpCode.WRITE_10
        return struct.pack(">BBIBHB", opcode, 0, lba, 0, nblocks, 0)
    if lba < _LIMITS[16][0] and nblocks < _LIMITS[16][1]:
        opcode = OpCode.READ_16 if is_read else OpCode.WRITE_16
        return struct.pack(">BBQIBB", opcode, 0, lba, nblocks, 0, 0)
    raise ValueError(f"transfer does not fit any CDB family: lba={lba} nblocks={nblocks}")


def parse_cdb(cdb: bytes) -> Cdb:
    """Decode a CDB built by :func:`build_rw_cdb` (or a compatible one)."""
    if not cdb:
        raise ValueError("empty CDB")
    opcode = OpCode(cdb[0])
    if opcode in (OpCode.READ_6, OpCode.WRITE_6):
        if len(cdb) != 6:
            raise ValueError(f"6-byte CDB has length {len(cdb)}")
        lba = ((cdb[1] & 0x1F) << 16) | (cdb[2] << 8) | cdb[3]
        nblocks = cdb[4] or 256  # 0 means 256 in the 6-byte family
        return Cdb(opcode, lba, nblocks)
    if opcode in (OpCode.READ_10, OpCode.WRITE_10):
        if len(cdb) != 10:
            raise ValueError(f"10-byte CDB has length {len(cdb)}")
        _, _, lba, _, nblocks, _ = struct.unpack(">BBIBHB", cdb)
        return Cdb(opcode, lba, nblocks)
    if opcode in (OpCode.READ_16, OpCode.WRITE_16):
        if len(cdb) != 16:
            raise ValueError(f"16-byte CDB has length {len(cdb)}")
        _, _, lba, nblocks, _, _ = struct.unpack(">BBQIBB", cdb)
        return Cdb(opcode, lba, nblocks)
    raise ValueError(f"unsupported opcode {opcode!r}")  # pragma: no cover
