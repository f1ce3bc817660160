"""Measurement plumbing shared by every workload: percentiles, the
host fingerprint, generator-side spans and the window floor."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy

#: A rate is only reported from a timed window at least this long.
#: ``BENCH_watch.json`` (0.05 s), fleet ``ledger-direct`` (0.036 s) and
#: store ``append`` (0.154 s) are the records this floor exists for.
MIN_WINDOW_S = 2.0

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


class WindowTooShort(RuntimeError):
    """The timed window fell under :data:`MIN_WINDOW_S`."""


def check_window(seconds: float, smoke: bool, what: str) -> None:
    if not smoke and seconds < MIN_WINDOW_S:
        raise WindowTooShort(
            f"{what}: timed window of {seconds:.3f} s is under the "
            f"{MIN_WINDOW_S:.0f} s floor; refusing to report a rate")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def digest_disks(pairs) -> str:
    """Digest of ``((vm, vdisk), encoded collector)`` pairs, in order."""
    digest = hashlib.sha256()
    for (vm, vdisk), payload in pairs:
        digest.update(f"{vm}/{vdisk}".encode())
        digest.update(payload)
    return digest.hexdigest()


def digest_verdicts(digest, verdicts) -> None:
    """Fold a list of ``EpochVerdict`` into ``digest``, field by field."""
    for verdict in verdicts:
        digest.update(repr(sorted(verdict.to_dict().items())).encode())


def store_bytes(path) -> int:
    """Bytes of a closed store's data files (WAL and segments).

    The manifest and lock file are left out: they hold a creation time
    and a pid whose printed lengths differ from run to run, and the
    metric built on this is expected to repeat exactly."""
    path = Path(path)
    return sum(entry.stat().st_size
               for entry in [path / "wal.log", *path.glob("seg-*.seg")]
               if entry.is_file())


def _filesystem_type(path) -> str:
    """Type of the mount holding ``path`` (longest mount-point prefix)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _dev, mount, kind = line.split()[:3]
                if (target == mount or target.startswith(
                        mount.rstrip("/") + "/")) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def fingerprint(store_dir) -> dict:
    """What a reader needs to judge whether two records are comparable."""
    cpus = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": platform.release(),
        "store_fs": _filesystem_type(store_dir),
        "loadavg_start": load,
        "noisy_host": load > 0.5 * cpus,
    }


class _Span:
    """One open span; appends itself to the trace on exit."""

    __slots__ = ("_trace", "_fields", "_start")

    def __init__(self, trace, fields):
        self._trace = trace
        self._fields = fields

    def __enter__(self):
        self._start = time.monotonic()

    def __exit__(self, *_exc):
        self._trace.spans.append(dict(self._fields, start=self._start,
                                      end=time.monotonic()))


class Trace:
    """Generator-side spans, kept in memory until the run ends.

    Disabled (untraced runs) every ``span`` is one shared no-op context.
    Tier-side spans (:class:`tiers.Seam`) are merged in with
    :meth:`extend` after the tiers exit.
    """

    _OFF = nullcontext()

    def __init__(self, enabled: bool, workload: str):
        self.enabled = enabled
        self.workload = workload
        self.spans = []

    def span(self, name, parent=None, host=None, epoch=None):
        if not self.enabled:
            return self._OFF
        return _Span(self, {"name": name, "parent": parent, "host": host,
                            "epoch": epoch})

    def extend(self, spans) -> None:
        self.spans.extend(spans)

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def write(self, directory) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"trace-{self.workload}.jsonl"
        with open(path, "w") as out:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                out.write(json.dumps(dict(span, workload=self.workload)))
                out.write("\n")
        return path


def emit(document: dict) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True) + "\n")
    sys.stdout.flush()
