"""The pipeline's tiers as separate processes, wired as deployed.

``leaf`` mirrors ``repro serve --store --uplink`` (``_cmd_serve``),
``regional`` and ``root`` mirror ``repro fleet serve`` with and without
``--parents``.  Tiers are separate processes because in one process
every tier shares the GIL with the load generator, so a faster root
would show up as faster ingest and no per-tier cost could be told
apart.  Entry functions live here so ``spawn`` can import them.

Layers are observed from outside only: through their constructor seams
(``store=``, ``on_seal=``, ``online=``) and public ``info()``.  Untraced
runs install exactly one benchmark object inside a tier — the root's
:class:`VerdictStamps` — because the moment a verdict exists is the end
of every end-to-end interval and is visible nowhere else.

Each tier answers on its pipe: ``("ready", address)`` once listening,
then one reply per request, then its result dict after ``("stop",)``.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import resource
import time
import traceback
from itertools import groupby
from multiprocessing import get_context

from harness import digest_disks, digest_verdicts

_SPAWN = get_context("spawn")

#: Seconds a tier is given to start, answer or exit before the
#: benchmark gives up on it (and kills it).
TIER_TIMEOUT = 120.0


class TierError(RuntimeError):
    """A tier process died, hung or reported an exception."""


# ----------------------------------------------------------------------
# Seam objects (run inside a tier)
# ----------------------------------------------------------------------
class VerdictStamps:
    """``online=`` seam: a real analyzer plus a CLOCK_MONOTONIC stamp
    after every ``observe_epoch`` (the clock is shared by all processes
    of a Linux host, so the generator can subtract its own stamps)."""

    def __init__(self, analyzer):
        self._analyzer = analyzer
        self.stamps = []

    def observe_epoch(self, *args, **kwargs):
        verdicts = self._analyzer.observe_epoch(*args, **kwargs)
        self.stamps.append(time.monotonic())
        return verdicts

    def __getattr__(self, name):
        return getattr(self._analyzer, name)


class Seam:
    """Traced-run proxy: times every call of one method of ``target``
    into ``spans`` and delegates everything else untouched."""

    def __init__(self, target, method, span_name, spans, host):
        self._target = target
        self._method = method
        self._span_name = span_name
        self._spans = spans
        self._host = host
        self._calls = 0

    def _timed(self, *args, **kwargs):
        start = time.monotonic()
        try:
            return getattr(self._target, self._method)(*args, **kwargs)
        finally:
            self._spans.append({"name": self._span_name, "start": start,
                                "end": time.monotonic(), "parent": None,
                                "host": self._host, "epoch": self._calls})
            self._calls += 1

    def __getattr__(self, name):
        if name == self._method:
            return self._timed
        return getattr(self._target, name)


def _timed_hook(hook, span_name, spans, host):
    seam = Seam(hook, "__call__", span_name, spans, host)
    return seam._timed


def _usage():
    """Peak resident set and CPU time of this tier.

    The peak is ``VmHWM``, not ``ru_maxrss``: a spawned child's
    ``ru_maxrss`` starts at the generator's resident set at fork time
    (Linux carries the high-water mark across ``exec``), which here is
    the whole corpus."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_kb = usage.ru_maxrss
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
    return {"maxrss_kb": peak_kb, "cpu_s": usage.ru_utime + usage.ru_stime}


def _tier(main):
    """Entry-function decorator: report an exception to the generator
    instead of dying silently (it would otherwise only see a timeout)."""
    @functools.wraps(main)
    def entry(conn, *args):
        try:
            main(conn, *args)
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc()))
            except OSError:
                pass
            raise
        finally:
            conn.close()
    return entry


def _wait_for_stop(conn):
    while conn.recv()[0] != "stop":
        conn.send(("error", "unknown request"))


# ----------------------------------------------------------------------
# Entry functions
# ----------------------------------------------------------------------
@_tier
def leaf_main(conn, store_dir, parents, host_id, traced):
    from repro.analysis.online import OnlineAnalyzer
    from repro.fleet import FleetUplink
    from repro.live import LiveStatsServer
    from repro.store import HistogramStore

    spans = []
    uplink = FleetUplink(parents, host=host_id)
    store, online, on_seal = store_dir, True, uplink.on_seal
    owned_store = None
    if traced:
        owned_store = HistogramStore.open_or_create(store_dir)
        store = Seam(owned_store, "append_epoch", "store.store.leaf_append",
                     spans, host_id)
        online = Seam(OnlineAnalyzer(), "observe_epoch",
                      "analysis.online.leaf_observe", spans, host_id)
        on_seal = _timed_hook(uplink.on_seal, "fleet.uplink.on_seal", spans,
                              host_id)
    server = LiveStatsServer(shards=1, store=store, on_seal=on_seal,
                             online=online, idle_timeout=None)
    uplink.start()
    server.start()
    conn.send(("ready", server.address))
    try:
        _wait_for_stop(conn)
    finally:
        # Same order as ``_cmd_serve``: the final seal may enqueue one
        # more snapshot, which the uplink must still deliver.
        server.close()
        drained = uplink.drain(timeout=30.0)
        uplink.close()
        if owned_store is not None:
            owned_store.checkpoint()
            owned_store.close()
    # Same shape as an aggregator's ``info()``, which nests its uplink.
    info = dict(server.info(), uplink=uplink.info())
    conn.send(("done", {"info": info, "drained": drained,
                        "usage": _usage(), "spans": spans}))


@_tier
def regional_main(conn, node, parents):
    from repro.fleet import FleetAggregator

    aggregator = FleetAggregator(node=node, parents=parents,
                                 idle_timeout=None).start()
    conn.send(("ready", aggregator.address))
    try:
        _wait_for_stop(conn)
    finally:
        aggregator.close()
    conn.send(("done", {"info": aggregator.info(), "usage": _usage(),
                        "spans": []}))


@_tier
def root_main(conn, store_dir, analyse, traced, host_label):
    from repro.analysis.online import OnlineAnalyzer
    from repro.fleet import FleetAggregator
    from repro.store import HistogramStore
    from repro.store.codec import collector_to_bytes

    spans = []
    stamps = VerdictStamps(OnlineAnalyzer()) if analyse else None
    store, online = store_dir, stamps or False
    owned_store = None
    if traced:
        if store_dir is not None:
            owned_store = HistogramStore.open_or_create(store_dir)
            store = Seam(owned_store, "append_epoch",
                         "store.store.root_append", spans, host_label)
        if stamps is not None:
            online = Seam(stamps, "observe_epoch",
                          "analysis.online.root_observe", spans, host_label)
    aggregator = FleetAggregator(node="root", store=store, online=online,
                                 idle_timeout=None).start()
    conn.send(("ready", aggregator.address))

    def verdicts():
        if stamps is not None:
            return len(stamps.stamps)
        return aggregator.ledger.epochs_applied_total

    try:
        while True:
            request = conn.recv()
            if request[0] == "stop":
                break
            if request[0] != "wait":
                conn.send(("error", "unknown request"))
                continue
            # ("wait", n): reply once n host epochs have a verdict
            # (bare root: have been applied), with the n-th's stamp.
            target, deadline = request[1], time.monotonic() + TIER_TIMEOUT
            while verdicts() < target and time.monotonic() < deadline:
                time.sleep(0.002)
            reached = verdicts() >= target
            stamp = (stamps.stamps[target - 1] if reached and stamps
                     else time.monotonic())
            conn.send(("waited", reached, stamp))
    finally:
        aggregator.close()
        if owned_store is not None:
            owned_store.checkpoint()
            owned_store.close()
    merged = {f"{vm}/{vdisk}": collector_to_bytes(collector)
              for (vm, vdisk), collector in aggregator.ledger.global_pairs()}
    conn.send(("done", {"info": aggregator.info(),
                        "stamps": stamps.stamps if stamps else [],
                        "global": merged, "usage": _usage(),
                        "spans": spans}))


@_tier
def reader_main(conn, store_dir):
    """``history_read``'s program under test: a process that opens the
    store read-only and answers dashboards and a ``watch --once``."""
    from repro.analysis.online import OnlineAnalyzer
    from repro.store import HistogramStore

    store = HistogramStore.open(store_dir, readonly=True)
    conn.send(("ready", None))
    try:
        while True:
            request = conn.recv()
            if request[0] == "stop":
                break
            if request[0] == "sweep":
                conn.send(("swept", _sweep(store, request[1])))
            elif request[0] == "replay":
                conn.send(("replayed", _replay(store, OnlineAnalyzer())))
            else:
                conn.send(("error", "unknown request"))
    finally:
        store.close()
    conn.send(("done", {"usage": _usage(), "spans": []}))


def _sweep(store, windows):
    from repro.store.codec import collector_to_bytes

    each, answers, failed = [], [], 0
    for start_ns, end_ns in windows:
        begin = time.perf_counter()
        try:
            result = store.query(start_ns, end_ns)
        except (OSError, ValueError):
            failed += 1
            each.append(time.perf_counter() - begin)
            answers.append(None)
            continue
        each.append(time.perf_counter() - begin)
        answers.append((
            result.covered_start_ns, result.covered_end_ns, result.epochs,
            digest_disks((key, collector_to_bytes(collector)) for key,
                         collector in result.service.collectors())))
    return {"each": each, "answers": answers, "failed": failed}


def _replay(store, analyzer):
    """The ``repro watch <store> --once`` loop (``_watch_store``)."""
    begin = time.perf_counter()
    pending = [((record.start_ns, record.end_ns), (record.vm, record.vdisk),
                record.load())
               for record in store.tail(-1) if record.tier == 0]
    loaded = time.perf_counter()
    pending.sort(key=lambda item: item[:2])
    digest = hashlib.sha256()
    epochs = 0
    for _span, group in groupby(pending, key=lambda item: item[0]):
        pairs = [item[1:] for item in group]
        digest_verdicts(digest, analyzer.observe_epoch(pairs, index=epochs))
        epochs += 1
    done = time.perf_counter()
    return {"tail_load_seconds": loaded - begin, "seconds": done - begin,
            "records": len(pending), "epochs": epochs,
            "drift_events": analyzer.drift_events_total,
            "digest": digest.hexdigest()}


@_tier
def sim_main(conn):
    """``sim_capture``'s program under test: the discrete-event
    simulator with the histogram service enabled."""
    from repro.experiments.figure6 import run_pair
    from repro.experiments.ssd_vs_disk import run_pattern_on
    from repro.store.codec import collector_to_bytes
    from repro.workloads.patterns import ZIPFIAN_WRITE

    conn.send(("ready", None))
    while True:
        request = conn.recv()
        if request[0] == "stop":
            break
        _kind, sim_seed, pair_s, pattern_s = request
        # The testbeds are cyclic garbage; whether the previous repeat's
        # SSD mapping tables are still alive when the next are built
        # would otherwise make the peak resident set bimodal.
        gc.collect()
        runs = []

        def record(collectors, begin):
            runs.append({
                "seconds": time.perf_counter() - begin,
                "commands": sum(c.commands for c in collectors),
                "payloads": [collector_to_bytes(c) for c in collectors],
            })

        # ``run_figure6`` is exactly these three pairs; they are run
        # one by one only so each gets its own host-time sample.
        for random_on, sequential_on in ((True, False), (False, True),
                                         (True, True)):
            begin = time.perf_counter()
            outcomes = run_pair(random_on, sequential_on, "cx3_nocache",
                                pair_s, sim_seed)
            record([o.collector for o in outcomes if o is not None], begin)
        for backend in ("cx3", "ssd"):
            begin = time.perf_counter()
            outcome = run_pattern_on(ZIPFIAN_WRITE, backend,
                                     duration_s=pattern_s, seed=sim_seed)
            record([outcome.collector], begin)
        digest = hashlib.sha256()
        for run in runs:
            for payload in run["payloads"]:
                digest.update(payload)
        conn.send(("ran", {
            "runs": [{k: v for k, v in run.items() if k != "payloads"}
                     for run in runs],
            "payload_bytes": [len(p) for run in runs
                              for p in run["payloads"]],
            "digest": digest.hexdigest(),
        }))
    conn.send(("done", {"usage": _usage(), "spans": []}))


# ----------------------------------------------------------------------
# Generator-side handles
# ----------------------------------------------------------------------
class Tier:
    """One spawned tier process and the pipe to it."""

    def __init__(self, name, target, *args):
        self.name = name
        self._conn, child = _SPAWN.Pipe()
        self._process = _SPAWN.Process(target=target, args=(child,) + args,
                                       name=f"bench-{name}", daemon=True)
        self._process.start()
        child.close()
        self.result = None

    def _recv(self, expect):
        if not self._conn.poll(TIER_TIMEOUT):
            raise TierError(f"tier {self.name} did not answer within "
                            f"{TIER_TIMEOUT:.0f}s")
        try:
            reply = self._conn.recv()
        except EOFError:
            raise TierError(f"tier {self.name} exited unexpectedly") from None
        if reply[0] == "error":
            raise TierError(f"tier {self.name} failed:\n{reply[1]}")
        if reply[0] != expect:
            raise TierError(f"tier {self.name} sent {reply[0]!r}, "
                            f"expected {expect!r}")
        return reply

    def ready(self):
        return self._recv("ready")[1]

    def call(self, expect, *request):
        self._conn.send(request)
        return self._recv(expect)

    def stop(self):
        """Ask the tier to finish, keep its result, wait for its exit."""
        self.result = self.call("done", "stop")[1]
        self._process.join(TIER_TIMEOUT)
        return self.result

    def reap(self):
        """Make sure the process is gone, whatever state it is in."""
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(5.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join(5.0)
        self._conn.close()


def reap_all():
    """Leave no process behind: kill any tier still alive (there is
    none unless a workload died half set up), then end the helper
    process ``spawn`` starts beside the first tier.

    ``multiprocessing`` leaves its resource tracker running until the
    generator's last descriptor closes, i.e. until just *after* the
    generator has exited, so the benchmark would outlive its own exit
    code by one process.  Closing the tracker's pipe and waiting for it
    here means nothing the benchmark started is left when it returns.
    The tiers go first because they hold copies of that pipe.
    """
    from multiprocessing import active_children, resource_tracker

    for child in active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


class Tree:
    """root ← two regionals ← (optionally) one leaf, started bottom-up
    from the root so every child knows its parent's address."""

    def __init__(self, workdir, traced=False, leaf=True, root_store=True,
                 root_analyse=True, host_id="host-0"):
        self.tiers = []
        try:
            root_dir = str(workdir / "root-store") if root_store else None
            self.root = self._spawn("root", root_main, root_dir,
                                    root_analyse, traced, host_id)
            root_address = self.root.ready()
            self.regionals = [
                self._spawn(f"regional-{side}", regional_main,
                            f"regional-{side}", [root_address])
                for side in "ab"
            ]
            self.regional_addresses = [r.ready() for r in self.regionals]
            self.leaf = None
            self.leaf_address = None
            if leaf:
                self.leaf = self._spawn("leaf", leaf_main,
                                        str(workdir / "leaf-store"),
                                        self.regional_addresses, host_id,
                                        traced)
                self.leaf_address = self.leaf.ready()
        except BaseException:
            self.reap()
            raise

    def _spawn(self, name, target, *args):
        tier = Tier(name, target, *args)
        self.tiers.append(tier)
        return tier

    def wait_verdicts(self, count):
        """Block until the root holds ``count`` verdicts; returns the
        CLOCK_MONOTONIC stamp of the ``count``-th."""
        _tag, reached, stamp = self.root.call("waited", "wait", count)
        if not reached:
            raise TierError(f"root never reached {count} verdicts")
        return stamp

    def stop(self):
        """Shut down leaf-first so every tier drains into a live
        parent; returns ``{tier name: result}``."""
        order = ([self.leaf] if self.leaf else []) + self.regionals \
            + [self.root]
        return {tier.name: tier.stop() for tier in order}

    def reap(self):
        for tier in self.tiers:
            tier.reap()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.reap()
