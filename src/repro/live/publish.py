"""Replay-to-server publishers: existing traces/workloads as live traffic.

Three sources, one sink:

* :func:`publish_trace_file` — a single ``VSCSITR1`` capture, opened
  zero-copy and streamed for one ``(vm, vdisk)``.
* :func:`publish_shard_dir` — a sharded trace directory (the
  :func:`repro.parallel.write_shards` layout): every segment streams
  under its manifest identity, so a multi-disk capture becomes
  multi-disk live traffic.
* :func:`capture_workload` / :func:`publish_workload` — run one of the
  repo's simulated workloads against the reference testbed with
  per-command tracing on, then stream the capture.  This is how "any
  existing workload" becomes daemon traffic without new plumbing: the
  simulation already emits the same trace records the wire carries.
* :func:`capture_pattern` / :func:`publish_pattern` — same, but driven
  by a named :class:`~repro.workloads.patterns.PatternSpec` preset
  (``seq-read-64k``, ``zipf-write-4k``, ...).  Publishing two different
  patterns back to back for the same disk is the canonical way to
  exercise the online drift detector end to end.

Every publisher sorts each disk's stream into ``(issue, serial)``
order before chunking — the daemon's stream-order requirement.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from ..parallel.trace_io import (
    MANIFEST_NAME,
    TraceColumns,
    load_manifest,
    read_binary_columns,
    records_to_columns,
)
from .client import DEFAULT_FRAME_RECORDS, LiveStatsClient

__all__ = [
    "capture_pattern",
    "capture_workload",
    "publish_pattern",
    "publish_shard_dir",
    "publish_source",
    "publish_trace_file",
    "publish_workload",
]


def _resolve_pattern(pattern):
    """A :class:`PatternSpec`, or a preset name from the suite."""
    from ..workloads.patterns import CHARACTERIZATION_SUITE, PatternSpec
    if isinstance(pattern, PatternSpec):
        return pattern
    for spec in CHARACTERIZATION_SUITE:
        if spec.name == pattern:
            return spec
    names = ", ".join(spec.name for spec in CHARACTERIZATION_SUITE)
    raise ValueError(f"unknown pattern {pattern!r}; choose from: {names}")


def publish_trace_file(client: LiveStatsClient, path, vm: str = "trace",
                       vdisk: str = "scsi0:0",
                       frame_records: int = DEFAULT_FRAME_RECORDS) -> Dict:
    """Stream one binary trace file as live traffic for one disk."""
    columns = read_binary_columns(path)
    return client.publish_columns(vm, vdisk, columns,
                                  frame_records=frame_records)


def publish_shard_dir(client: LiveStatsClient, directory,
                      frame_records: int = DEFAULT_FRAME_RECORDS) -> Dict:
    """Stream every segment of a sharded trace directory.

    Returns combined totals plus a per-disk breakdown.
    """
    directory = Path(directory)
    manifest = load_manifest(directory)
    totals = {"records": 0, "frames": 0, "accepted": 0, "dropped": 0,
              "ignored": 0, "retried": 0, "disks": {}}
    for segment in manifest["segments"]:
        columns = read_binary_columns(directory / segment["file"])
        result = client.publish_columns(segment["vm"], segment["vdisk"],
                                        columns,
                                        frame_records=frame_records)
        totals["disks"][f"{segment['vm']}/{segment['vdisk']}"] = result
        for field in ("records", "frames", "accepted", "dropped", "ignored",
                      "retried"):
            totals[field] += result[field]
    return totals


def capture_workload(seconds: float = 2.0, vm: str = "live-demo",
                     vdisk: str = "scsi0:0", testbed: str = "cx3",
                     read_fraction: float = 0.7,
                     random_fraction: float = 0.6,
                     io_bytes: int = 8192, outstanding: int = 8):
    """Run an Iometer-style workload with tracing on; returns columns.

    The capture point is the simulated vSCSI layer — the same place the
    paper's tool hooks — so the records carry real issue/completion
    timestamps and queue behavior from the storage model underneath.
    """
    from ..experiments.setups import reference_testbed
    from ..sim.engine import seconds as sim_seconds
    from ..workloads.iometer import AccessSpec, IometerWorkload

    bed = reference_testbed(testbed)
    machine = bed.esx.create_vm(vm)
    device = bed.esx.create_vdisk(machine, vdisk, bed.array, 2 * 1024 ** 3)
    buffer = device.start_trace()
    spec = AccessSpec("live capture", io_bytes=io_bytes,
                      read_fraction=read_fraction,
                      random_fraction=random_fraction,
                      outstanding=outstanding)
    IometerWorkload(bed.engine, device, spec).start()
    bed.engine.run(until=sim_seconds(seconds))
    device.stop_trace()
    return records_to_columns(buffer.sorted_by_issue())


def publish_workload(client: LiveStatsClient, seconds: float = 2.0,
                     vm: str = "live-demo", vdisk: str = "scsi0:0",
                     frame_records: int = DEFAULT_FRAME_RECORDS,
                     **workload_kwargs) -> Dict:
    """Capture a simulated workload and stream it as live traffic."""
    columns = capture_workload(seconds=seconds, vm=vm, vdisk=vdisk,
                               **workload_kwargs)
    return client.publish_columns(vm, vdisk, columns,
                                  frame_records=frame_records)


def capture_pattern(pattern, seconds: float = 2.0,
                    vm: str = "live-pattern", vdisk: str = "scsi0:0",
                    testbed: str = "cx3", seed: int = 1234,
                    base_ns: int = 0):
    """Run one LBA-pattern preset with tracing on; returns columns.

    ``pattern`` is a :class:`~repro.workloads.patterns.PatternSpec` or
    a preset name (``"seq-read-64k"``, ``"zipf-write-4k"``, ...).  The
    same ``(pattern, seed, testbed)`` triple captures the same records
    every time, so drift-detection smoke tests are reproducible.

    Every capture's simulation starts at t=0; ``base_ns`` shifts the
    issue/completion timestamps so back-to-back captures for the same
    disk splice into one monotone stream (the daemon's per-disk
    watermark rejects time going backwards).
    """
    import random as _random

    from ..experiments.setups import reference_testbed
    from ..sim.engine import seconds as sim_seconds
    from ..workloads.patterns import PatternWorkload

    spec = _resolve_pattern(pattern)
    bed = reference_testbed(testbed)
    machine = bed.esx.create_vm(vm)
    device = bed.esx.create_vdisk(machine, vdisk, bed.array, 2 * 1024 ** 3)
    buffer = device.start_trace()
    PatternWorkload(bed.engine, device, spec,
                    rng=_random.Random(seed)).start()
    bed.engine.run(until=sim_seconds(seconds))
    device.stop_trace()
    columns = records_to_columns(buffer.sorted_by_issue())
    if base_ns:
        columns = TraceColumns(
            columns.serial,
            columns.issue_ns + base_ns,
            columns.complete_ns + base_ns,
            columns.lba, columns.nblocks, columns.is_read,
        )
    return columns


def publish_pattern(client: LiveStatsClient, pattern,
                    seconds: float = 2.0, vm: str = "live-pattern",
                    vdisk: str = "scsi0:0",
                    frame_records: int = DEFAULT_FRAME_RECORDS,
                    **capture_kwargs) -> Dict:
    """Capture one pattern preset and stream it as live traffic."""
    columns = capture_pattern(pattern, seconds=seconds, vm=vm,
                              vdisk=vdisk, **capture_kwargs)
    return client.publish_columns(vm, vdisk, columns,
                                  frame_records=frame_records)


def publish_source(client: LiveStatsClient, source,
                   vm: Optional[str] = None, vdisk: Optional[str] = None,
                   frame_records: int = DEFAULT_FRAME_RECORDS,
                   demo_seconds: float = 2.0) -> Dict:
    """Dispatch on a source spec: trace file, shard dir, ``"demo"``,
    or ``"pattern:<name>"``.

    ``source`` may be a path to a ``VSCSITR1`` file, a directory
    containing a shard manifest, the literal string ``"demo"`` to
    synthesize live traffic from a short simulated workload, or
    ``pattern:<name>`` (optionally ``pattern:<name>@<seed>``) to drive
    one of the named LBA-pattern presets.
    """
    if source == "demo":
        return publish_workload(client, seconds=demo_seconds,
                                vm=vm or "live-demo",
                                vdisk=vdisk or "scsi0:0",
                                frame_records=frame_records)
    if isinstance(source, str) and source.startswith("pattern:"):
        name = source[len("pattern:"):]
        seed, base_ns = 1234, 0
        if "+" in name:
            # pattern:<name>[@seed]+<base_seconds> — shift the capture
            # in time so sequential publishes to one disk stay monotone.
            name, _plus, base_text = name.rpartition("+")
            try:
                base_ns = int(float(base_text) * 1_000_000_000)
            except ValueError:
                raise ValueError(
                    f"pattern time base must be a number of seconds, "
                    f"got {base_text!r}"
                ) from None
        if "@" in name:
            name, _at, seed_text = name.rpartition("@")
            try:
                seed = int(seed_text)
            except ValueError:
                raise ValueError(
                    f"pattern seed must be an integer, got {seed_text!r}"
                ) from None
        return publish_pattern(client, name, seconds=demo_seconds,
                               vm=vm or "live-pattern",
                               vdisk=vdisk or "scsi0:0",
                               frame_records=frame_records, seed=seed,
                               base_ns=base_ns)
    path = Path(source)
    if path.is_dir():
        if not (path / MANIFEST_NAME).exists():
            raise ValueError(
                f"{path} is a directory without a {MANIFEST_NAME}; "
                "expected a sharded trace directory"
            )
        return publish_shard_dir(client, path, frame_records=frame_records)
    if not path.exists():
        raise ValueError(f"no such trace source: {path}")
    return publish_trace_file(client, path,
                              vm=vm or path.stem,
                              vdisk=vdisk or "scsi0:0",
                              frame_records=frame_records)
