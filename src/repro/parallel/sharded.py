"""Sharded parallel replay: fan per-vdisk streams out across processes.

The unit of distribution is a whole per-vdisk command stream, never a
slice of one: seek distance, the look-behind window and interarrival
periods all couple a command to its predecessors *on the same virtual
disk*, so splitting a stream would change those histograms.  Assigning
streams whole keeps every worker's collector byte-identical to what a
single process would have produced for that disk, and the merge API
(:meth:`repro.core.VscsiStatsCollector.merge`) recombines per-worker
results exactly — the property test in ``tests/test_parallel.py`` pins
``parallel merge == single-process replay`` for arbitrary partitions.

Workers default to the ``fork`` start method where the platform has
it: forked workers inherit the already-imported interpreter, so
starting one costs milliseconds instead of the full
interpreter-plus-numpy import a ``spawn`` worker pays (a second-ish
each — comparable to replaying an entire 500k-command shard).  The
driver is nevertheless *spawn-safe* — the worker body is a
module-level function fed picklable arguments — and falls back to
``spawn`` automatically on platforms without fork (Windows) and can be
forced to it with ``mp_context="spawn"``; do that when embedding in a
threaded parent, where fork's snapshot of held locks can deadlock the
child.  Either way workers map their segment files read-only and
return pickled collectors; the per-worker payload is O(m) histogram
state, not O(n) trace data.
"""

from __future__ import annotations

import os
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from queue import Empty
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.collector import DEFAULT_TIME_SLOT_NS, VscsiStatsCollector
from ..core.service import DiskKey, HistogramService
from ..core.window import DEFAULT_WINDOW_SIZE
from ..faults import activate_from_env, fire
from .trace_io import load_manifest, read_binary_columns, replay_columns

__all__ = [
    "ShardedReplay",
    "ShardedReplayError",
    "ShardedReplayResult",
    "partition_segments",
    "pick_start_method",
    "replay_sharded",
]


def pick_start_method() -> str:
    """The default worker start method: ``fork`` where the platform
    offers it (workers start in milliseconds, inheriting the imported
    interpreter), else ``spawn`` (see the module docstring for the
    trade-off)."""
    return "fork" if "fork" in get_all_start_methods() else "spawn"


def partition_segments(segments: Sequence[Dict], jobs: int) -> List[List[Dict]]:
    """Balance whole segments across ``jobs`` shards.

    Longest-processing-time greedy: sort segments by record count
    descending, repeatedly give the next one to the lightest shard.
    Returns exactly ``jobs`` shards; some may be empty when there are
    fewer segments than workers (the empty-shard edge is part of the
    merge property test).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    shards: List[List[Dict]] = [[] for _ in range(jobs)]
    loads = [0] * jobs
    for segment in sorted(segments, key=lambda s: (-s["records"], s["file"])):
        target = loads.index(min(loads))
        shards[target].append(segment)
        loads[target] += segment["records"]
    return shards


def _replay_shard(args, worker_index: Optional[int] = None,
                  ) -> List[Tuple[DiskKey, VscsiStatsCollector]]:
    """Worker body: replay one shard's segment files.

    A module-level function (spawn-picklable) taking a single tuple.
    Returns ``((vm, vdisk), collector)`` pairs — O(m) histogram state
    each, cheap to pickle back.  ``worker_index`` is set only inside a
    worker subprocess; it routes injected faults (and makes ``crash``
    faults eligible to fire at all — an inline replay in the driver
    process is never crashable).
    """
    directory, segments, window_size, time_slot_ns = args
    out = []
    for segment in segments:
        fire("parallel.worker", worker_index=worker_index,
             segment=segment["file"], crashable=worker_index is not None)
        columns = read_binary_columns(Path(directory) / segment["file"])
        collector = VscsiStatsCollector(window_size=window_size,
                                        time_slot_ns=time_slot_ns)
        replay_columns(columns, collector)
        out.append(((segment["vm"], segment["vdisk"]), collector))
    return out


def _shard_worker_main(index: int, args, queue) -> None:
    """Process entry point: replay one shard, ship the result back.

    Arms any fault plan exported through the environment (a spawn
    worker re-imports the world and would otherwise miss it), then
    puts exactly one ``(index, pairs, error)`` tuple — pairs on
    success, a picklable exception on failure.  A worker killed
    outright (signal, injected crash) puts nothing; the driver detects
    that through its exit code.
    """
    activate_from_env()
    try:
        pairs = _replay_shard(args, worker_index=index)
    except BaseException as exc:
        try:
            queue.put((index, None, exc))
        except Exception:  # unpicklable exception: ship its text
            queue.put((index, None,
                       RuntimeError(f"{type(exc).__name__}: {exc}")))
        return
    queue.put((index, pairs, None))


class ShardedReplayError(RuntimeError):
    """One or more shard workers died and recovery was off (or failed).

    ``failures`` lists one ``{"shard", "exitcode", "segments"}`` dict
    per lost worker — the exit code it died with and the segment files
    its shard left unfinished — so the caller knows exactly what a
    partial merge would have silently omitted.
    """

    def __init__(self, failures: List[Dict],
                 retry_error: Optional[BaseException] = None):
        self.failures = list(failures)
        self.retry_error = retry_error
        parts = "; ".join(
            f"shard {f['shard']} (exit code {f['exitcode']}) left "
            f"{len(f['segments'])} segment(s) unfinished: "
            + ", ".join(f["segments"])
            for f in self.failures
        )
        message = (f"sharded replay lost {len(self.failures)} "
                   f"worker(s): {parts}")
        if retry_error is not None:
            message += f"; inline retry also failed: {retry_error}"
        super().__init__(message)


class ShardedReplayResult:
    """Per-disk collectors plus their exact aggregate.

    ``recovered_shards`` names the shard indices whose worker died and
    whose segments were replayed again by the driver — non-empty only
    after a crash recovery, and the result is still byte-identical to
    a crash-free run (segment replay is deterministic).
    """

    __slots__ = ("service", "per_disk", "recovered_shards")

    def __init__(self, service: HistogramService,
                 per_disk: Dict[DiskKey, VscsiStatsCollector],
                 recovered_shards: Sequence[int] = ()):
        self.service = service
        self.per_disk = per_disk
        self.recovered_shards = tuple(recovered_shards)

    @property
    def aggregate(self) -> VscsiStatsCollector:
        """Host-wide merge of every per-disk collector."""
        return self.service.aggregate()

    def to_dict(self) -> Dict:
        """JSON-exportable snapshot of every per-disk collector."""
        return {
            f"{vm}/{vdisk}": collector.to_dict()
            for (vm, vdisk), collector in sorted(self.per_disk.items())
        }


class ShardedReplay:
    """Replay a sharded trace directory across worker processes.

    Parameters
    ----------
    directory:
        A directory produced by :func:`repro.parallel.write_shards`
        (per-vdisk ``VSCSITR1`` segments plus ``manifest.json``).
    jobs:
        Worker process count; ``None`` uses the CPU count.  ``jobs=1``
        replays inline with no pool at all — the fallback for
        environments where subprocesses are unavailable.
    mp_context:
        ``multiprocessing`` start method; ``None`` (default) picks
        :func:`pick_start_method` (``fork`` where available, else
        ``spawn`` — see the module docstring for the trade-off).
    retry_lost:
        A worker that dies without delivering its result (killed by a
        signal, the OOM killer, an injected crash) is detected through
        its exit code.  With ``retry_lost=True`` (default) the driver
        replays the lost shard inline — segment replay is
        deterministic, so the recovered result is byte-identical to a
        crash-free run (``recovered_shards`` on the result says it
        happened).  With ``retry_lost=False`` the run raises
        :class:`ShardedReplayError` instead; a silent partial merge is
        never an outcome either way.
    """

    def __init__(self, directory, jobs: Optional[int] = None,
                 window_size: int = DEFAULT_WINDOW_SIZE,
                 time_slot_ns: int = DEFAULT_TIME_SLOT_NS,
                 mp_context: Optional[str] = None,
                 retry_lost: bool = True):
        self.directory = Path(directory)
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        self.window_size = window_size
        self.time_slot_ns = time_slot_ns
        self.mp_context = mp_context
        self.retry_lost = retry_lost
        self.manifest = load_manifest(self.directory)

    def run(self) -> ShardedReplayResult:
        """Replay every segment; returns merged per-disk collectors.

        Never returns a partial merge: a worker that crashes is either
        recovered (its shard replayed inline, see ``retry_lost``) or
        the run raises :class:`ShardedReplayError` naming the lost
        shards; a worker that raised has its exception re-raised here.
        """
        segments = self.manifest["segments"]
        jobs = min(self.jobs, max(len(segments), 1))
        shards = partition_segments(segments, jobs)
        shard_args = [
            (str(self.directory), shard, self.window_size, self.time_slot_ns)
            for shard in shards
        ]
        recovered: List[int] = []
        if jobs == 1:
            shard_results = [_replay_shard(args) for args in shard_args]
        else:
            shard_results, recovered = self._run_workers(shard_args, shards)
        service = HistogramService(window_size=self.window_size,
                                   time_slot_ns=self.time_slot_ns)
        per_disk: Dict[DiskKey, VscsiStatsCollector] = {}
        for pairs in shard_results:
            for key, collector in pairs:
                service.adopt(key, collector)
        for key, collector in service.collectors():
            per_disk[key] = collector
        return ShardedReplayResult(service, per_disk, recovered)

    # ------------------------------------------------------------------
    def _run_workers(self, shard_args: List, shards: List[List[Dict]],
                     ) -> Tuple[List, List[int]]:
        """Run one process per shard, detecting dead workers.

        ``Pool.map`` hangs forever when a worker is SIGKILLed mid-task
        (the pool keeps waiting for a result that will never come), so
        the driver manages explicit processes: results arrive on a
        queue, and any process that exits nonzero without having
        delivered one is a *lost shard*.  Lost shards are replayed
        inline (``retry_lost``) or reported via
        :class:`ShardedReplayError`.
        """
        ctx = get_context(self.mp_context)
        queue = ctx.Queue()
        procs = {
            index: ctx.Process(target=_shard_worker_main,
                               args=(index, args, queue),
                               name=f"replay-shard-{index}")
            for index, args in enumerate(shard_args)
        }
        for proc in procs.values():
            proc.start()

        results: Dict[int, List] = {}
        failures: List[Dict] = []
        worker_error: Optional[BaseException] = None
        pending = set(procs)

        def _absorb(item) -> None:
            nonlocal worker_error
            index, pairs, exc = item
            pending.discard(index)
            if exc is not None:
                if worker_error is None:
                    worker_error = exc
            else:
                results[index] = pairs

        while pending:
            try:
                _absorb(queue.get(timeout=0.05))
                continue
            except Empty:
                pass
            for index in sorted(pending):
                proc = procs[index]
                if proc.is_alive():
                    continue
                proc.join()
                # The worker exited.  Its result may still be in the
                # queue (the feeder flushes before a clean exit), so
                # drain before declaring the shard lost.
                try:
                    while index in pending:
                        _absorb(queue.get(timeout=0.05))
                except Empty:
                    pass
                if index in pending:
                    pending.discard(index)
                    failures.append({
                        "shard": index,
                        "exitcode": proc.exitcode,
                        "segments": [s["file"] for s in shards[index]],
                    })
        for proc in procs.values():
            proc.join()
        queue.close()
        if worker_error is not None:
            raise worker_error

        recovered: List[int] = []
        if failures:
            if not self.retry_lost:
                raise ShardedReplayError(failures)
            # The driver process is the "surviving worker": replay the
            # lost shards inline.  Inline replay is never crashable, so
            # an injected crash fault cannot recurse into the driver.
            for failure in failures:
                index = failure["shard"]
                try:
                    results[index] = _replay_shard(shard_args[index])
                except Exception as exc:
                    raise ShardedReplayError(failures,
                                             retry_error=exc) from exc
                recovered.append(index)
        return [results[i] for i in sorted(results)], recovered


def replay_sharded(directory, jobs: Optional[int] = None,
                   **kwargs) -> ShardedReplayResult:
    """One-call convenience wrapper around :class:`ShardedReplay`."""
    return ShardedReplay(directory, jobs=jobs, **kwargs).run()
