"""Seeded inputs for every ``bench_pipeline`` workload.

Everything the program under test receives is generated here from the
workload seed; the seed itself never crosses into a tier process.

Two *personalities* (after the cloud-volume split of Li et al.,
PAPERS.md 2203.10766) cover the dimensions the pipeline's cost depends
on — I/O size, read/write mix, LBA locality and queue depth:

* ``seq`` — 64 KiB sequential reads, shallow queue;
* ``rand`` — 4 KiB random, 80 % writes, hot/cold skew, deeper queue.

They sit far apart in every histogram family the drift detector
compares, so a swap is an unambiguous drift event.

Per-disk timestamps and serials are strictly increasing across chunks
(``DiskCursor``), so any split of a disk's stream into frames and
epochs splices under the daemon's ``(issue, serial)`` watermark and the
merged result equals one-shot replay of the concatenation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.service import HistogramService
from repro.parallel.trace_io import TraceColumns, replay_columns
from repro.store import HistogramStore
from repro.store.codec import collector_from_bytes, collector_to_bytes

PERSONALITIES = ("seq", "rand")

#: Epoch width of every pre-encoded snapshot and stored record.  Ten
#: seconds keeps tier 0 finer than the store's first compaction tier
#: (one minute), so compaction has something to fold.
EPOCH_NS = 10_000_000_000

_LBA_SPACE = 1 << 28          # 128 GiB of 512-byte blocks
_HOT_SLOTS = (_LBA_SPACE // 8) // 10


def disk_key(index: int) -> Tuple[str, str]:
    return (f"vm-{index:02d}", "scsi0:0")


class DiskCursor:
    """Where one vdisk's stream stands: next serial, clock and LBA."""

    __slots__ = ("serial", "now_ns", "lba")

    def __init__(self, lba: int = 0):
        self.serial = 0
        self.now_ns = 0
        self.lba = lba


def personality_chunk(rng: np.random.Generator, kind: str, n: int,
                      cursor: DiskCursor) -> TraceColumns:
    """The next ``n`` commands of ``kind`` on the disk at ``cursor``."""
    if kind == "seq":
        gaps = rng.integers(80_000, 160_000, n, dtype=np.int64)
        nblocks = np.full(n, 128, dtype=np.uint32)
        lba = cursor.lba + 128 * np.arange(n, dtype=np.int64)
        cursor.lba = int(lba[-1]) + 128
        is_read = np.ones(n, dtype=bool)
        latency = rng.integers(300_000, 900_000, n, dtype=np.int64)
    elif kind == "rand":
        gaps = rng.integers(30_000, 90_000, n, dtype=np.int64)
        nblocks = np.full(n, 8, dtype=np.uint32)
        hot = rng.random(n) < 0.9
        slot = np.where(hot, rng.integers(0, _HOT_SLOTS, n, dtype=np.int64),
                        rng.integers(_HOT_SLOTS, _LBA_SPACE // 8, n,
                                     dtype=np.int64))
        lba = slot * 8
        is_read = rng.random(n) < 0.2
        latency = rng.integers(400_000, 1_600_000, n, dtype=np.int64)
    else:
        raise ValueError(f"unknown personality {kind!r}")
    issue = cursor.now_ns + np.cumsum(gaps)
    serial = np.arange(cursor.serial, cursor.serial + n, dtype=np.uint64)
    cursor.serial += n
    cursor.now_ns = int(issue[-1])
    return TraceColumns(serial, issue, issue + latency, lba, nblocks, is_read)


def concat_columns(chunks: Sequence[TraceColumns]) -> TraceColumns:
    return TraceColumns(*(np.concatenate(cols)
                          for cols in zip(*(c.columns() for c in chunks))))


def slice_columns(columns: TraceColumns, start: int,
                  stop: int) -> TraceColumns:
    return TraceColumns(*(col[start:stop] for col in columns.columns()))


def tampered(columns: TraceColumns) -> TraceColumns:
    """A copy with one command's LBA moved (test hook: the program is
    fed this while the reference is computed from the original)."""
    lba = columns.lba.copy()
    lba[0] += 8
    return TraceColumns(columns.serial, columns.issue_ns, columns.complete_ns,
                        lba, columns.nblocks, columns.is_read)


def oracle_bytes(columns: TraceColumns) -> bytes:
    """One-shot replay of a disk's whole stream, canonically encoded —
    what every path to the root must equal."""
    return collector_to_bytes(replay_columns(columns))


# ----------------------------------------------------------------------
# ingest_bulk / seal_storm: command streams
# ----------------------------------------------------------------------
def bulk_streams(seed: int, disks: int, per_disk: int
                 ) -> Dict[Tuple[str, str], TraceColumns]:
    """Steady streams, alternating personalities across disks."""
    rng = np.random.default_rng(seed)
    streams = {}
    for index in range(disks):
        cursor = DiskCursor(lba=index << 22)
        streams[disk_key(index)] = personality_chunk(
            rng, PERSONALITIES[index % 2], per_disk, cursor)
    return streams


def storm_personality(disk: int, epoch: int, swap_every: int) -> str:
    """Half the disks start ``seq``, half ``rand``; all swap together."""
    return PERSONALITIES[(disk + epoch // swap_every) % 2]


def storm_epochs(seed: int, disks: int, epochs: int, per_epoch: int,
                 swap_every: int
                 ) -> List[List[Tuple[Tuple[str, str], TraceColumns]]]:
    """``epochs`` rounds of one small chunk per disk."""
    rng = np.random.default_rng(seed)
    cursors = [DiskCursor(lba=index << 22) for index in range(disks)]
    rounds = []
    for epoch in range(epochs):
        rounds.append([
            (disk_key(disk),
             personality_chunk(rng, storm_personality(disk, epoch, swap_every),
                               per_epoch, cursors[disk]))
            for disk in range(disks)
        ])
    return rounds


def expected_drift_events(disks: int, epochs: int, swap_every: int,
                          hysteresis_k: int = 3) -> int:
    """Events an analyzer fed ``epochs`` storm epochs must fire.

    Each swap starts a streak of over-threshold epochs; the event fires
    on its ``hysteresis_k``-th epoch, provided the run gets that far
    and the streak is not cut short by the next swap.
    """
    if swap_every < hysteresis_k:
        return 0
    swaps = sum(1 for first in range(swap_every, epochs, swap_every)
                if first + hysteresis_k - 1 < epochs)
    return disks * swaps


# ----------------------------------------------------------------------
# Encoded snapshots (fleet_fanin, history_read)
# ----------------------------------------------------------------------
def payload_pool(rng: np.random.Generator, kind: str, size: int,
                 commands: int) -> List[bytes]:
    """``size`` distinct RPHCOL2 records of one personality."""
    pool = []
    for _ in range(size):
        cursor = DiskCursor(lba=int(rng.integers(0, _LBA_SPACE // 2)))
        pool.append(oracle_bytes(personality_chunk(rng, kind, commands,
                                                   cursor)))
    return pool


def fleet_snapshots(seed: int, hosts: int, epochs: int, commands: int,
                    pool_size: int = 32):
    """``rounds[epoch][host] = (header, payload)``, two vdisks a host.

    ``vm`` is unique per host, so the root analyzer tracks
    ``2 * hosts`` disks.  A disk keeps its personality for the whole
    run (no drift events are expected); payloads are drawn from a
    seeded pool because the tree never looks inside one before merge
    time and a fleet's worth of replays would dominate set-up.
    ``sealed_unix`` is stamped by the generator at enqueue time.
    """
    rng = np.random.default_rng(seed)
    pools = {kind: payload_pool(rng, kind, pool_size, commands)
             for kind in PERSONALITIES}
    picks = rng.integers(0, pool_size, (epochs, hosts, 2))
    rounds = []
    for epoch in range(epochs):
        this_round = []
        for host in range(hosts):
            records = [
                pools[PERSONALITIES[(host + d) % 2]][picks[epoch, host, d]]
                for d in range(2)]
            header = {
                "host": f"host-{host:04d}",
                "epoch": epoch,
                "records": 2 * commands,
                "start_ns": epoch * EPOCH_NS,
                "end_ns": (epoch + 1) * EPOCH_NS,
                "disks": [
                    {"vm": f"vm-{host:04d}", "vdisk": f"scsi0:{d}",
                     "off": d * len(records[0]), "len": len(records[d])}
                    for d in range(2)
                ],
            }
            this_round.append((header, b"".join(records)))
        rounds.append(this_round)
    return rounds


@dataclass
class History:
    """The pre-built store of ``history_read`` plus what the verifier
    needs to recompute any answer without it.

    ``payloads[disk][epoch]`` is the raw tier-0 record appended for
    that disk-epoch; epochs ``[0, compacted)`` were folded into the
    15 m / 1 h tiers, epochs ``[compacted, epochs)`` stay tier 0 (the
    last ones still in the WAL).
    """

    disks: int
    epochs: int
    compacted: int
    payloads: List[List[bytes]]
    compact_seconds: float

    @property
    def span_ns(self) -> Tuple[int, int]:
        return 0, self.epochs * EPOCH_NS


def build_history(seed: int, path, disks: int, compacted: int, tail: int,
                  commands: int, swap_every: int, pool_size: int = 32
                  ) -> History:
    """Append, checkpoint and compact ``compacted`` epochs, then append
    a ``tail`` of raw epochs on top (personalities swapping every
    ``swap_every`` epochs so the replay walks the drift path)."""
    rng = np.random.default_rng(seed)
    pools = {kind: payload_pool(rng, kind, pool_size, commands)
             for kind in PERSONALITIES}
    decoded = {kind: [collector_from_bytes(p) for p in pool]
               for kind, pool in pools.items()}
    epochs = compacted + tail
    picks = rng.integers(0, pool_size, (disks, epochs))
    payloads = [[None] * epochs for _ in range(disks)]
    store = HistogramStore.create(path)
    compact_seconds = 0.0
    try:
        for epoch in range(epochs):
            service = HistogramService()
            for disk in range(disks):
                kind = storm_personality(disk, max(0, epoch - compacted),
                                         swap_every)
                pick = picks[disk, epoch]
                payloads[disk][epoch] = pools[kind][pick]
                service.adopt(disk_key(disk), decoded[kind][pick])
            store.append_epoch(service, epoch * EPOCH_NS,
                               (epoch + 1) * EPOCH_NS)
            if epoch + 1 == compacted:
                store.checkpoint()
                started = time.perf_counter()
                store.compact()
                compact_seconds = time.perf_counter() - started
        store.sync()
    finally:
        store.close()
    return History(disks, epochs, compacted, payloads, compact_seconds)


def query_windows(seed: int, history: History, count: int
                  ) -> List[Tuple[int, int]]:
    """``count`` distinct inclusive ``(start_ns, end_ns)`` windows.

    Widths are a fixed geometric ladder from one minute to the whole
    span, so every seed (and, after the shuffle, every slice of the
    list) asks for the same mix of short and long windows; only the
    positions are drawn."""
    rng = np.random.default_rng(seed)
    start, end = history.span_ns
    span = end - start
    widths = np.geomspace(60e9, span, count).astype(np.int64)
    rng.shuffle(widths)
    windows = []
    for rung, width in enumerate(widths.tolist()):
        # The rung keeps equal draws distinct: the cover cache must
        # not see a window twice within the cold sweep.
        lo = start + int(rng.integers(0, span - width + 1)) + rung
        windows.append((lo, min(lo + width, end) - 1))
    return windows
