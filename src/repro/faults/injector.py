"""Deterministic, seedable fault injection for the live/store/parallel
stack.

The paper's §5 overhead study argues always-on collection is safe in
production; production also means socket resets, ``ENOSPC`` mid-seal
and workers killed by the OOM killer.  This module is the test plane
that makes those failures *reproducible*: a :class:`FaultPlan` maps
``(site, invocation index)`` to a :class:`FaultAction`, a
:class:`FaultInjector` counts invocations per site and fires the
matching action, and :func:`inject` arms the plan process-wide (and —
via the :data:`ENV_VAR` environment variable — in any worker
subprocess started while the plan is armed, fork or spawn alike).

Hook sites are a single call::

    from ..faults import fire
    ...
    fire("store.wal.append")

When no plan is armed (the production state), :func:`fire` is one
module-global read and a ``None`` comparison — the hooks are compiled
in but free.  When a plan is armed, the injector counts the call and
either returns ``None`` (no fault scheduled there), raises the built
exception (``error``/``reset``), sleeps (``delay``), terminates the
process (``crash`` — only where the caller declared itself
``crashable``, i.e. inside a worker subprocess, never in the test
runner), or returns the action itself (``partial`` — the site
truncates its own write, since only it knows its buffer).

Determinism is the point: the same plan against the same call sequence
fires the same faults, so a chaos test that fails replays exactly.
Schedules come from explicit rules or from :meth:`FaultPlan.scattered`,
which draws a pseudo-random schedule from a seed.
"""

from __future__ import annotations

import errno as _errno
import json
import os
import random
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "ENV_VAR",
    "SITES",
    "FaultAction",
    "FaultInjector",
    "FaultPlan",
    "activate_from_env",
    "active",
    "fire",
    "inject",
]

#: Environment variable carrying the armed plan (JSON) into worker
#: subprocesses.  ``spawn`` workers re-import the world and call
#: :func:`activate_from_env`; ``fork`` workers inherit the live
#: injector directly.
ENV_VAR = "REPRO_FAULT_PLAN"

#: The injection sites compiled into the stack, for reference (plans
#: may name any site string; unknown sites simply never fire).
SITES = {
    "live.client.send": "LiveStatsClient._roundtrip, before each frame write",
    "live.client.recv": "LiveStatsClient._roundtrip, before each response read",
    # Both fire in every frame server's connection loop (FrameServer):
    # the daemon, the fleet aggregator and the cluster coordinator's
    # control endpoint.
    "live.server.recv": "every frame server's connection loop, before each frame read",
    "live.server.send": "every frame server's connection loop, before each response write",
    # The WAL sites are batch-aware: under group commit, append fires
    # once per *logical* append even though frames buffer and reach the
    # file as one write, so an N-append schedule covers the same slots
    # whatever the fsync policy.  A ``partial`` append drains the
    # buffered (already-acknowledgeable) frames first, then tears only
    # its own frame; sync fires before the drain+fsync pair, modelling
    # a durability barrier that fails as a whole.
    "store.wal.append": "WriteAheadLog.append, before framing the record",
    "store.wal.sync": "WriteAheadLog.sync, before drain+flush+fsync",
    "store.segment.write": "write_segment, before staging the temp file",
    # Fires inside cluster worker processes: once right after the
    # startup worker-hello and once per coordinator-driven worker-rotate, with
    # ``worker_index`` in the context for per-worker ``when`` routing
    # and ``point`` = "start" | "rotate".  A crash here exercises the
    # coordinator's dead-worker path: the fan-in pipe EOFs, the hash
    # ring is rebuilt over the survivors and publishers are redirected.
    "live.cluster.worker": "cluster _worker_main, after worker-hello and per rotate",
    # Fires in the fleet uplink's sender thread, once per snapshot send
    # attempt (retries fire again), with ``node``, ``host``, ``epoch``
    # and ``point`` = "send" in the context for ``when`` routing.  A
    # reset/error here exercises the reconnect + ack-cache replay path;
    # enough consecutive failures trigger the bounded-backoff failover
    # to the next parent with a full (watermark-deduplicated) replay.
    "fleet.uplink": "FleetUplink sender, before each snapshot send",
    # Fires inside the FTL each time garbage collection triggers on a
    # channel, with ``name`` (array name), ``channel`` and
    # ``free_blocks`` in the context for ``when`` routing.  A
    # ``partial`` here doubles the reclaim target for that run — a GC
    # storm that migrates far more valid pages than steady state,
    # stretching the ``gc_pause_us`` tail; ``error``/``crash``
    # propagate out of the write path like a drive-level fault.
    "ssd.gc": "Ftl._collect, at each GC trigger on a channel",
    # Fires once per (disk, epoch) inside OnlineAnalyzer._observe_disk,
    # with ``vm``, ``vdisk`` and ``epoch`` in the context for ``when``
    # routing.  A ``partial`` forces that reading's drift score to the
    # maximum 1.0 — a deterministic misclassification window aimed at
    # the hysteresis logic; ``error``/``reset`` propagate out of the
    # analysis stage (the live seal hook degrades instead of crashing).
    "analysis.drift": "OnlineAnalyzer._observe_disk, per disk per epoch",
}

_KINDS = ("error", "reset", "delay", "partial", "crash")


class FaultAction:
    """One scheduled fault.

    ``kind`` is one of:

    * ``"error"`` — raise ``OSError(errno, message)`` (default
      ``EIO``; use ``ENOSPC`` for disk-full).
    * ``"reset"`` — raise :class:`ConnectionResetError`.
    * ``"delay"`` — sleep ``seconds`` and continue.
    * ``"partial"`` — returned to the site, which writes only
      ``fraction`` of its buffer and then fails as the transport
      would (short write).
    * ``"crash"`` — ``os._exit(exit_code)``, but only when the firing
      context passes ``crashable=True`` (worker subprocesses); in any
      other process the crash is recorded and skipped, so a chaos test
      can never take its own runner down.

    ``when`` (optional dict) restricts the action to firing contexts
    whose keyword arguments are a superset of it — e.g.
    ``when={"worker_index": 0}`` kills only cluster worker 0.
    """

    __slots__ = ("kind", "errno", "message", "seconds", "fraction",
                 "exit_code", "when")

    def __init__(self, kind: str, errno: Optional[int] = None,
                 message: Optional[str] = None, seconds: float = 0.01,
                 fraction: float = 0.5, exit_code: int = 70,
                 when: Optional[Dict] = None):
        if kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        self.kind = kind
        self.errno = errno
        self.message = message
        self.seconds = seconds
        self.fraction = fraction
        self.exit_code = exit_code
        self.when = dict(when) if when else None

    def matches(self, ctx: Dict) -> bool:
        """Whether this action applies in the firing context."""
        if self.when is None:
            return True
        return all(ctx.get(key) == value for key, value in self.when.items())

    def build_exception(self) -> BaseException:
        """The exception an ``error``/``reset`` action raises."""
        if self.kind == "reset":
            return ConnectionResetError(
                self.message or "injected connection reset")
        code = self.errno if self.errno is not None else _errno.EIO
        return OSError(code, self.message
                       or f"{os.strerror(code)} (injected)")

    def to_dict(self) -> Dict:
        out: Dict = {"kind": self.kind}
        for field in ("errno", "message", "when"):
            value = getattr(self, field)
            if value is not None:
                out[field] = value
        if self.kind == "delay":
            out["seconds"] = self.seconds
        if self.kind == "partial":
            out["fraction"] = self.fraction
        if self.kind == "crash":
            out["exit_code"] = self.exit_code
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultAction":
        return cls(**data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultAction {self.to_dict()}>"


class FaultPlan:
    """A deterministic schedule: ``(site, invocation index) -> action``.

    Indices count a site's invocations from zero, process-wide.  The
    fluent adders return ``self`` so schedules chain::

        plan = (FaultPlan()
                .reset("live.client.send", at=2)
                .error("store.wal.append", at=0, errno=errno.ENOSPC)
                .crash("live.cluster.worker", at=1, when={"worker_index": 0}))
    """

    def __init__(self, name: str = "plan"):
        self.name = name
        self._rules: Dict[str, Dict[int, FaultAction]] = {}

    # -- fluent construction -------------------------------------------
    def add(self, site: str, at: int, action: FaultAction) -> "FaultPlan":
        if at < 0:
            raise ValueError(f"invocation index must be >= 0, got {at}")
        self._rules.setdefault(site, {})[at] = action
        return self

    def error(self, site: str, at: int, errno: Optional[int] = None,
              message: Optional[str] = None,
              when: Optional[Dict] = None) -> "FaultPlan":
        return self.add(site, at, FaultAction("error", errno=errno,
                                              message=message, when=when))

    def reset(self, site: str, at: int,
              when: Optional[Dict] = None) -> "FaultPlan":
        return self.add(site, at, FaultAction("reset", when=when))

    def delay(self, site: str, at: int, seconds: float = 0.01,
              when: Optional[Dict] = None) -> "FaultPlan":
        return self.add(site, at, FaultAction("delay", seconds=seconds,
                                              when=when))

    def partial(self, site: str, at: int, fraction: float = 0.5,
                when: Optional[Dict] = None) -> "FaultPlan":
        return self.add(site, at, FaultAction("partial", fraction=fraction,
                                              when=when))

    def crash(self, site: str, at: int, exit_code: int = 70,
              when: Optional[Dict] = None) -> "FaultPlan":
        return self.add(site, at, FaultAction("crash", exit_code=exit_code,
                                              when=when))

    # -- queries -------------------------------------------------------
    def lookup(self, site: str, index: int) -> Optional[FaultAction]:
        return self._rules.get(site, {}).get(index)

    def sites(self) -> List[str]:
        return sorted(self._rules)

    def rules(self) -> Iterator[Tuple[str, int, FaultAction]]:
        for site in sorted(self._rules):
            for index in sorted(self._rules[site]):
                yield site, index, self._rules[site][index]

    def __len__(self) -> int:
        return sum(len(slots) for slots in self._rules.values())

    # -- seeded schedules ----------------------------------------------
    @classmethod
    def scattered(cls, seed: int, sites: Sequence[str],
                  kinds: Sequence[str] = ("reset", "partial"),
                  faults: int = 3, horizon: int = 8) -> "FaultPlan":
        """Draw a pseudo-random schedule from ``seed``.

        Picks up to ``faults`` distinct ``(site, index)`` slots with
        indices below ``horizon`` and assigns each a kind from
        ``kinds``.  The same seed always yields the same plan, so a
        failing chaos seed is a complete reproduction recipe.
        """
        rng = random.Random(seed)
        plan = cls(name=f"scattered-{seed}")
        for _ in range(faults):
            site = rng.choice(list(sites))
            index = rng.randrange(horizon)
            if plan.lookup(site, index) is not None:
                continue
            kind = rng.choice(list(kinds))
            if kind == "partial":
                plan.partial(site, index,
                             fraction=rng.choice((0.25, 0.5, 0.75)))
            elif kind == "reset":
                plan.reset(site, index)
            elif kind == "delay":
                plan.delay(site, index, seconds=0.001)
            elif kind == "error":
                plan.error(site, index)
            else:
                raise ValueError(f"unknown kind {kind!r}")
        return plan

    # -- serialization (for ENV_VAR propagation) -----------------------
    def to_json(self) -> str:
        return json.dumps({
            "name": self.name,
            "rules": [
                {"site": site, "at": index, "action": action.to_dict()}
                for site, index, action in self.rules()
            ],
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        plan = cls(name=data.get("name", "plan"))
        for rule in data["rules"]:
            plan.add(rule["site"], rule["at"],
                     FaultAction.from_dict(rule["action"]))
        return plan

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {self.name!r} rules={len(self)}>"


class FaultInjector:
    """Counts per-site invocations and fires the plan's actions.

    Thread-safe: connection handlers, shard workers and the control
    plane all fire through one injector, and each site's invocation
    order is made deterministic by the callers' own serialization
    (e.g. one WAL has one writer; a sequential client emits sends in
    order).  ``fired`` logs every fault that actually fired as
    ``(site, index, kind)`` so tests can assert the schedule engaged.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.fired: List[Tuple[str, int, str]] = []
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()

    def count(self, site: str) -> int:
        """How many times ``site`` has fired (invocations, not faults)."""
        with self._lock:
            return self._counts.get(site, 0)

    def fire(self, site: str, **ctx) -> Optional[FaultAction]:
        with self._lock:
            index = self._counts.get(site, 0)
            self._counts[site] = index + 1
            action = self.plan.lookup(site, index)
            if action is None or not action.matches(ctx):
                return None
            self.fired.append((site, index, action.kind))
        if action.kind == "delay":
            time.sleep(action.seconds)
            return None
        if action.kind == "crash":
            if ctx.get("crashable"):
                os._exit(action.exit_code)
            return None  # never take down a non-worker process
        if action.kind == "partial":
            return action
        raise action.build_exception()


#: The process-wide armed injector (``None`` — the production state —
#: makes :func:`fire` a no-op).
_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The currently armed injector, if any."""
    return _ACTIVE


def fire(site: str, **ctx) -> Optional[FaultAction]:
    """Hook entry point: no-op unless a plan is armed.

    Hot paths call this bare (``fire("store.wal.append")``) so the
    disabled cost is one global read; sites with routing context
    (worker index, crashability) pass it as keywords for ``when``
    matching.
    """
    injector = _ACTIVE
    if injector is None:
        return None
    return injector.fire(site, **ctx)


@contextmanager
def inject(plan: FaultPlan):
    """Arm ``plan`` for the duration of the block.

    Exports the plan through :data:`ENV_VAR` so worker subprocesses
    started inside the block (fork *or* spawn) see the same schedule,
    and restores the previous injector/environment on exit.
    """
    global _ACTIVE
    injector = FaultInjector(plan)
    previous = _ACTIVE
    previous_env = os.environ.get(ENV_VAR)
    _ACTIVE = injector
    os.environ[ENV_VAR] = plan.to_json()
    try:
        yield injector
    finally:
        _ACTIVE = previous
        if previous_env is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous_env


def activate_from_env() -> Optional[FaultInjector]:
    """Arm the plan exported in :data:`ENV_VAR`, if any.

    Called by worker subprocess entry points.  A forked worker already
    inherited the parent's injector and keeps it (its counters include
    the parent's pre-fork history, which is what a fork *is*); a spawn
    worker starts fresh from the serialized plan.
    """
    global _ACTIVE
    if _ACTIVE is None:
        spec = os.environ.get(ENV_VAR)
        if spec:
            _ACTIVE = FaultInjector(FaultPlan.from_json(spec))
    return _ACTIVE
