"""Filesystem substrate: files, block maps, and the planning hooks.

The paper's central demonstration (§4.1) is that *the filesystem* —
not the application — determines the block-level workload the
hypervisor sees: the same Filebench OLTP stream looks completely
different through UFS and ZFS.  To reproduce that, filesystems here
are **transformation layers**: an application calls
``read``/``write``/``append`` on files, and each filesystem plans the
resulting block I/Os (sizing, placement, copy-on-write remapping,
journaling) before handing them to the guest block layer.

The base class provides allocation, offset→block mapping and an
in-place pass-through plan; concrete models (:mod:`~repro.guest.ufs`,
:mod:`~repro.guest.zfs`, :mod:`~repro.guest.ext3`,
:mod:`~repro.guest.ntfs`) override the planning hooks.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..scsi.commands import SECTOR_BYTES
from .os import GuestOS
from .pagecache import PageCache

__all__ = ["BlockMap", "FileHandle", "Filesystem", "BlockOp"]

#: One planned block operation: (lba, nblocks, is_read).
BlockOp = Tuple[int, int, bool]


class BlockMap:
    """Mapping from file-system block index to virtual-disk LBA.

    Files start out contiguous (one base LBA); a copy-on-write
    filesystem promotes the map to an explicit per-block table the
    first time it remaps a block.
    """

    __slots__ = ("_base_lba", "nblocks_fs", "sectors_per_block", "_explicit")

    def __init__(self, base_lba: int, nblocks_fs: int, sectors_per_block: int):
        self._base_lba = base_lba
        self.nblocks_fs = nblocks_fs
        self.sectors_per_block = sectors_per_block
        self._explicit: Optional[List[int]] = None

    @property
    def is_contiguous(self) -> bool:
        return self._explicit is None

    def lba_of(self, index: int) -> int:
        """Virtual-disk LBA of file-system block ``index``."""
        if not 0 <= index < self.nblocks_fs:
            raise IndexError(f"fs block {index} out of {self.nblocks_fs}")
        if self._explicit is not None:
            return self._explicit[index]
        return self._base_lba + index * self.sectors_per_block

    def remap(self, index: int, lba: int) -> None:
        """Point block ``index`` at a new location (COW)."""
        if self._explicit is None:
            self._explicit = [
                self._base_lba + i * self.sectors_per_block
                for i in range(self.nblocks_fs)
            ]
        if not 0 <= index < self.nblocks_fs:
            raise IndexError(f"fs block {index} out of {self.nblocks_fs}")
        self._explicit[index] = lba

    def runs(self, first: int, count: int) -> Iterator[Tuple[int, int]]:
        """Coalesce blocks ``[first, first+count)`` into (lba, sectors)
        runs of physically contiguous placement."""
        if count <= 0:
            return
        run_lba = self.lba_of(first)
        run_sectors = self.sectors_per_block
        expected = run_lba + self.sectors_per_block
        for index in range(first + 1, first + count):
            lba = self.lba_of(index)
            if lba == expected:
                run_sectors += self.sectors_per_block
            else:
                yield run_lba, run_sectors
                run_lba = lba
                run_sectors = self.sectors_per_block
            expected = lba + self.sectors_per_block
        yield run_lba, run_sectors


class FileHandle:
    """One file: size, identity and its block map."""

    _next_id = 0

    def __init__(self, name: str, size_bytes: int, block_map: BlockMap,
                 block_bytes: int):
        self.file_id = FileHandle._next_id
        FileHandle._next_id += 1
        self.name = name
        self.size_bytes = size_bytes
        self.blocks = block_map
        self.block_bytes = block_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FileHandle {self.name!r} {self.size_bytes} B>"


class Filesystem:
    """Base filesystem: contiguous allocation, pass-through planning.

    Parameters
    ----------
    guest:
        The guest block layer to issue planned I/Os through.
    region_blocks:
        Size of the disk region this filesystem manages, in sectors
        (defaults to the whole virtual disk).
    block_bytes:
        Filesystem allocation unit.
    max_io_bytes:
        Largest single block I/O the filesystem will issue; larger
        transfers are split (every real FS has such a clamp).
    page_cache:
        Optional guest page cache consulted for non-direct reads.
    """

    name = "fs"
    default_block_bytes = 4096
    #: Whether ``read()`` bypasses the page cache when the caller does
    #: not say.  Database-style filesystem configurations (UFS with
    #: directio) keep True; cache-aggressive filesystems (ZFS's ARC)
    #: set False.
    default_direct_reads = True

    def __init__(self, guest: GuestOS, region_blocks: Optional[int] = None,
                 block_bytes: Optional[int] = None,
                 max_io_bytes: int = 1 << 20,
                 page_cache: Optional[PageCache] = None):
        self.guest = guest
        self.block_bytes = block_bytes or self.default_block_bytes
        if self.block_bytes % SECTOR_BYTES:
            raise ValueError(
                f"block size {self.block_bytes} not a sector multiple"
            )
        self.sectors_per_block = self.block_bytes // SECTOR_BYTES
        capacity = guest.device.vdisk.capacity_blocks
        self.region_blocks = region_blocks if region_blocks is not None else capacity
        if self.region_blocks > capacity:
            raise ValueError("filesystem region larger than the virtual disk")
        self.max_io_bytes = max_io_bytes
        self.page_cache = page_cache
        self._files: Dict[str, FileHandle] = {}
        self._alloc_cursor = 0  # sector offset of the next free block

    # ------------------------------------------------------------------
    # Namespace and allocation
    # ------------------------------------------------------------------
    def create_file(self, name: str, size_bytes: int) -> FileHandle:
        """Create a file with all blocks allocated contiguously."""
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        if size_bytes < 1:
            raise ValueError(f"file size must be >= 1 byte, got {size_bytes}")
        nblocks_fs = -(-size_bytes // self.block_bytes)
        base_lba = self._allocate(nblocks_fs)
        handle = FileHandle(
            name,
            size_bytes,
            BlockMap(base_lba, nblocks_fs, self.sectors_per_block),
            self.block_bytes,
        )
        self._files[name] = handle
        return handle

    def open(self, name: str) -> FileHandle:
        """Look up an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise KeyError(
                f"no file {name!r} in {self.name}; have {sorted(self._files)}"
            ) from None

    def files(self) -> List[FileHandle]:
        return list(self._files.values())

    def _allocate(self, nblocks_fs: int) -> int:
        """Carve ``nblocks_fs`` filesystem blocks; returns the base LBA."""
        sectors = nblocks_fs * self.sectors_per_block
        if self._alloc_cursor + sectors > self.region_blocks:
            raise ValueError(
                f"filesystem {self.name!r} out of space "
                f"(cursor={self._alloc_cursor}, need={sectors})"
            )
        base = self._alloc_cursor
        self._alloc_cursor += sectors
        return base

    # ------------------------------------------------------------------
    # Application-facing operations
    # ------------------------------------------------------------------
    def read(self, handle: FileHandle, offset: int, nbytes: int,
             on_done: Optional[Callable[[], None]] = None,
             direct: Optional[bool] = None) -> None:
        """Read ``nbytes`` at ``offset``; ``on_done`` fires when all the
        resulting block I/Os complete.

        ``direct=None`` defers to the filesystem's
        :attr:`default_direct_reads` policy.
        """
        self._check_range(handle, offset, nbytes)
        if direct is None:
            direct = self.default_direct_reads
        if not direct and self.page_cache is not None:
            missing = self.page_cache.lookup(handle.file_id, offset, nbytes)
            if not missing:
                # Fully cached: complete without any block I/O.
                if on_done is not None:
                    self.guest.engine.schedule(0, on_done)
                return
            page = self.page_cache.page_bytes
            first_missing = missing[0] * page
            span = (missing[-1] + 1) * page - first_missing
            span = min(span, handle.size_bytes - first_missing)
            ops = self._plan_read(handle, first_missing, span)

            def fill_and_done() -> None:
                assert self.page_cache is not None
                self.page_cache.fill(handle.file_id, missing)
                if on_done is not None:
                    on_done()

            self._issue(ops, fill_and_done)
            return
        self._issue(self._plan_read(handle, offset, nbytes), on_done)

    def write(self, handle: FileHandle, offset: int, nbytes: int,
              on_done: Optional[Callable[[], None]] = None,
              sync: bool = True) -> None:
        """Write ``nbytes`` at ``offset``.

        ``sync=True`` completes when the data is on stable storage;
        ``sync=False`` lets a buffering filesystem defer the block I/O
        (the base class has no buffering, so both behave alike).
        """
        self._check_range(handle, offset, nbytes)
        if self.page_cache is not None:
            # Written data becomes readable from the cache; dirtiness
            # is each filesystem's own business (txg buffers, journals)
            # so the pages are inserted clean.
            page = self.page_cache.page_bytes
            first = offset // page
            last = (offset + nbytes - 1) // page
            self.page_cache.fill(handle.file_id, list(range(first, last + 1)))
        self._issue(self._plan_write(handle, offset, nbytes, sync), on_done)

    def _check_range(self, handle: FileHandle, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 1:
            raise ValueError(f"bad range offset={offset} nbytes={nbytes}")
        if offset + nbytes > handle.size_bytes:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) beyond EOF of "
                f"{handle.name!r} ({handle.size_bytes} B)"
            )

    # ------------------------------------------------------------------
    # Planning hooks (overridden by concrete filesystems)
    # ------------------------------------------------------------------
    def _plan_read(self, handle: FileHandle, offset: int,
                   nbytes: int) -> List[BlockOp]:
        """Default: read the covering blocks in place."""
        return self._passthrough_ops(handle, offset, nbytes, is_read=True)

    def _plan_write(self, handle: FileHandle, offset: int, nbytes: int,
                    sync: bool) -> List[BlockOp]:
        """Default: write the covering blocks in place."""
        return self._passthrough_ops(handle, offset, nbytes, is_read=False)

    def _passthrough_ops(self, handle: FileHandle, offset: int, nbytes: int,
                         is_read: bool) -> List[BlockOp]:
        """Map a byte range to block-aligned I/Os, split at max_io_bytes."""
        return self._subblock_ops(
            handle, offset, nbytes, is_read, granularity=self.block_bytes
        )

    def _subblock_ops(self, handle: FileHandle, offset: int, nbytes: int,
                      is_read: bool, granularity: int) -> List[BlockOp]:
        """Map a byte range to I/Os aligned at ``granularity`` bytes.

        ``granularity`` may be smaller than the filesystem block size
        (UFS fragments); physically contiguous spans are coalesced and
        then split at ``max_io_bytes``.
        """
        if granularity % SECTOR_BYTES:
            raise ValueError(f"granularity {granularity} not sector-aligned")
        start_byte = (offset // granularity) * granularity
        end_byte = -(-(offset + nbytes) // granularity) * granularity
        allocated = handle.blocks.nblocks_fs * self.block_bytes
        end_byte = min(end_byte, allocated)

        # Walk filesystem blocks, emitting sector-accurate pieces.
        pieces: List[Tuple[int, int]] = []  # (lba, nsectors)
        cursor = start_byte
        while cursor < end_byte:
            index = cursor // self.block_bytes
            block_start = index * self.block_bytes
            span = min(end_byte, block_start + self.block_bytes) - cursor
            lba = handle.blocks.lba_of(index) + (
                (cursor - block_start) // SECTOR_BYTES
            )
            if pieces and pieces[-1][0] + pieces[-1][1] == lba:
                pieces[-1] = (pieces[-1][0], pieces[-1][1] + span // SECTOR_BYTES)
            else:
                pieces.append((lba, span // SECTOR_BYTES))
            cursor += span

        ops: List[BlockOp] = []
        max_sectors = max(1, self.max_io_bytes // SECTOR_BYTES)
        for lba, nsectors in pieces:
            while nsectors > 0:
                span = min(nsectors, max_sectors)
                ops.append((lba, span, is_read))
                lba += span
                nsectors -= span
        return ops

    # ------------------------------------------------------------------
    # Issue helpers
    # ------------------------------------------------------------------
    def _issue(self, ops: List[BlockOp],
               on_done: Optional[Callable[[], None]]) -> None:
        """Issue planned ops through the guest; join completions."""
        if not ops:
            if on_done is not None:
                self.guest.engine.schedule(0, on_done)
            return
        remaining = [len(ops)]

        def one_done(_request: object) -> None:
            remaining[0] -= 1
            if remaining[0] == 0 and on_done is not None:
                on_done()

        for lba, nblocks, is_read in ops:
            self.guest.submit(is_read, lba, nblocks, one_done, tag=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} files={len(self._files)} "
            f"cursor={self._alloc_cursor}/{self.region_blocks}>"
        )
