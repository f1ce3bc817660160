"""Discrete-event simulation engine.

The engine is the time substrate underneath everything in this
reproduction: the hypervisor, the storage array, the guest operating
systems and the workload generators all schedule work on a single
shared :class:`Engine`.

Design notes
------------
* Simulated time is an **integer count of nanoseconds**.  The paper's
  instrumentation records the processor cycle counter and converts to
  microseconds when inserting into histograms; integer nanoseconds give
  us the same sub-microsecond resolution while keeping event ordering
  exactly deterministic (no floating-point ties).
* Events are ``(time, sequence, callback)`` entries on a binary heap.
  The monotonically increasing sequence number makes simultaneous
  events fire in scheduling order, which is the property the rest of
  the system relies on for reproducibility.
* Cancellation is *lazy*: a cancelled event stays on the heap but is
  skipped when popped.  This keeps :meth:`Engine.schedule` and
  :meth:`EventHandle.cancel` O(log n) / O(1).
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

__all__ = [
    "Engine",
    "EventHandle",
    "SimulationError",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_SEC",
    "us",
    "ms",
    "seconds",
]

#: Nanoseconds per microsecond.
NS_PER_US = 1_000
#: Nanoseconds per millisecond.
NS_PER_MS = 1_000_000
#: Nanoseconds per second.
NS_PER_SEC = 1_000_000_000


def us(value: float) -> int:
    """Convert microseconds to integer simulated nanoseconds."""
    return int(round(value * NS_PER_US))


def ms(value: float) -> int:
    """Convert milliseconds to integer simulated nanoseconds."""
    return int(round(value * NS_PER_MS))


def seconds(value: float) -> int:
    """Convert seconds to integer simulated nanoseconds."""
    return int(round(value * NS_PER_SEC))


class SimulationError(RuntimeError):
    """Raised for invalid engine operations (e.g. scheduling in the past)."""


class EventHandle:
    """Handle to a scheduled event, allowing cancellation.

    Instances are returned by :meth:`Engine.schedule`.  ``cancel()`` is
    idempotent and safe to call after the event has fired (it then has
    no effect).
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "fired", "_engine")

    def __init__(self, time: int, seq: int, callback: Callable[[], None],
                 engine: Optional["Engine"] = None):
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[[], None]] = callback
        self.cancelled = False
        self.fired = False
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if not self.cancelled and not self.fired and self._engine is not None:
            self._engine._live -= 1
        self.cancelled = True
        self.callback = None  # free the closure promptly

    # Heap ordering -----------------------------------------------------
    def __lt__(self, other: "EventHandle") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time}ns seq={self.seq} {state}>"


class Engine:
    """A deterministic discrete-event simulation loop.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(us(5), lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired == [5000]
    True
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: List[EventHandle] = []
        self._live: int = 0  # pending (not cancelled, not fired) events
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds (float, for reporting)."""
        return self._now / NS_PER_US

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds (float, for reporting)."""
        return self._now / NS_PER_SEC

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` nanoseconds from now.

        ``delay`` must be a non-negative integer.  Returns an
        :class:`EventHandle` that may be used to cancel the event.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + int(delay), callback)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute simulated time ``time`` (ns)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        handle = EventHandle(int(time), self._seq, callback, self)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``True`` if an event fired, ``False`` if the queue was
        empty (time does not advance in that case).
        """
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = handle.time
            handle.fired = True
            self._live -= 1
            callback = handle.callback
            handle.callback = None
            assert callback is not None
            callback()
            return True
        return False

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains or ``until`` (absolute ns).

        If ``until`` is given, all events with ``time <= until`` fire and
        the clock is then advanced to exactly ``until`` (mirroring how a
        real measurement interval ends at a wall-clock boundary).
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        pop = heapq.heappop
        try:
            while heap and not self._stopped:
                if until is not None and heap[0].time > until:
                    break
                handle = pop(heap)
                if handle.cancelled:
                    continue
                now = self._now = handle.time
                handle.fired = True
                self._live -= 1
                callback = handle.callback
                handle.callback = None
                assert callback is not None
                callback()
                # Drain the rest of the same-timestamp run inline: every
                # queued event with time == now is already <= until, so
                # the boundary check and the step() dispatch overhead are
                # skipped for all but the first event of the run.  Fire
                # order is still strictly (time, seq).
                while heap and heap[0].time == now and not self._stopped:
                    handle = pop(heap)
                    if handle.cancelled:
                        continue
                    handle.fired = True
                    self._live -= 1
                    callback = handle.callback
                    handle.callback = None
                    callback()
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False

    def stop(self) -> None:
        """Stop a ``run()`` in progress after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued.  O(1): a
        live counter is maintained by schedule/cancel/fire instead of
        scanning the heap (cancelled events linger there lazily)."""
        return self._live

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now}ns pending={len(self._heap)}>"
