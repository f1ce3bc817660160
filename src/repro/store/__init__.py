"""repro.store — durable histogram time-series store.

An embedded store for histogram epoch snapshots: a CRC-framed
write-ahead log (torn-tail crash recovery), immutable mmap-read
segments with footer indexes, tiered compaction that is byte-identical
to merging the raw epochs, and an exact range-query engine.  See
``docs/store.md``.
"""

from .codec import collector_from_bytes, collector_to_bytes
from .compactor import (DEFAULT_TIERS_NS, CompactionPlan, MergeGroup,
                        plan_compaction, select_retained)
from .query import QueryResult
from .segments import SegmentEntry, SegmentReader, write_segment
from .store import MANIFEST_NAME, HistogramStore, StoreRecord
from .wal import WAL_MAGIC, WriteAheadLog, scan_wal

__all__ = [
    "collector_from_bytes", "collector_to_bytes",
    "DEFAULT_TIERS_NS", "CompactionPlan", "MergeGroup",
    "plan_compaction", "select_retained",
    "QueryResult",
    "SegmentEntry", "SegmentReader", "write_segment",
    "MANIFEST_NAME", "HistogramStore", "StoreRecord",
    "WAL_MAGIC", "WriteAheadLog", "scan_wal",
]
