"""Columnar trace I/O.

:mod:`repro.parallel.trace_io` is the zero-copy columnar reader/writer
for the ``VSCSITR1`` binary trace format, the columnar replay
(:func:`replay_columns`) and the shard-directory container
(:func:`write_shards` / :func:`load_manifest`) that splits a
multi-vdisk capture into per-vdisk segment files.  It is the columnar
half of :mod:`repro.core.tracing`, not a parallel facility: the package
name stays only because ``benchmarks/pipeline/`` imports it.
"""

from .trace_io import (
    TraceColumns,
    columns_to_records,
    load_manifest,
    read_binary_columns,
    records_to_columns,
    replay_columns,
    write_binary_columns,
    write_shards,
)

__all__ = [
    "TraceColumns",
    "columns_to_records",
    "load_manifest",
    "read_binary_columns",
    "records_to_columns",
    "replay_columns",
    "write_binary_columns",
    "write_shards",
]
