"""Generator-coroutine processes on top of the event engine.

Workload generators (Filebench threads, DBT-2 connections, copy loops)
are most naturally written as sequential code with waits:

.. code-block:: python

    def worker(proc):
        while True:
            yield proc.timeout(us(100))      # think time
            done = proc.signal()
            issue_io(on_complete=done.fire)
            yield done                        # wait for completion

A :class:`Process` wraps such a generator and steps it whenever the
yielded waitable completes.  Two waitables are provided:

* :class:`Timeout` — fires after a fixed simulated delay.
* :class:`Signal` — fires when some other component calls
  :meth:`Signal.fire` (used for I/O completions).

:func:`all_of` combines signals into one wait.

This is intentionally a small subset of a full process algebra: it is
exactly what the workload models in this reproduction need and nothing
more.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from .engine import Engine, SimulationError

__all__ = ["Process", "Timeout", "Signal", "all_of"]


class _Waitable:
    """Base class for things a process generator can ``yield``."""

    def _arm(self, engine: Engine, resume: Callable[[Any], None]) -> None:
        raise NotImplementedError


class Timeout(_Waitable):
    """Wait for a fixed number of simulated nanoseconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = int(delay)

    def _arm(self, engine: Engine, resume: Callable[[Any], None]) -> None:
        engine.schedule(self.delay, lambda: resume(None))


class Signal(_Waitable):
    """A one-shot event another component fires.

    A ``Signal`` may be fired before or after a process waits on it;
    both orders work (the value is latched).  Firing twice raises.
    """

    __slots__ = ("_engine", "_fired", "_value", "_waiters")

    def __init__(self, engine: Engine):
        self._engine = engine
        self._fired = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def fire(self, value: Any = None) -> None:
        """Mark the signal complete and wake every waiter (same tick)."""
        if self._fired:
            raise SimulationError("Signal fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            # Resume on a fresh event so the firer's stack unwinds first.
            self._engine.schedule(0, lambda r=resume: r(self._value))

    def _arm(self, engine: Engine, resume: Callable[[Any], None]) -> None:
        if self._fired:
            engine.schedule(0, lambda: resume(self._value))
        else:
            self._waiters.append(resume)


class _AllOf(_Waitable):
    """Composite waitable: fires when every child has fired."""

    def __init__(self, children: List[Signal]):
        self.children = children

    def _arm(self, engine: Engine, resume: Callable[[Any], None]) -> None:
        remaining = [len(self.children)]
        if remaining[0] == 0:
            engine.schedule(0, lambda: resume([]))
            return

        def child_done(_value: Any) -> None:
            remaining[0] -= 1
            if remaining[0] == 0:
                resume([c.value for c in self.children])

        for child in self.children:
            child._arm(engine, child_done)


def all_of(signals: List[Signal]) -> _AllOf:
    """Waitable that completes when all ``signals`` have fired."""
    return _AllOf(list(signals))


class Process:
    """Drives a generator as a simulated process.

    The generator receives the :class:`Process` as its single argument
    and yields waitables.  When the generator returns, the process is
    finished; :attr:`done` is a :class:`Signal` fired at that moment.
    """

    def __init__(self, engine: Engine, body: Callable[["Process"], Generator],
                 name: str = "proc"):
        self.engine = engine
        self.name = name
        self.done = Signal(engine)
        self._gen: Optional[Generator] = body(self)
        self._alive = True
        # Start on a zero-delay event so construction order does not
        # matter within a tick.
        engine.schedule(0, lambda: self._resume(None))

    # Convenience constructors for waitables ---------------------------
    def timeout(self, delay: int) -> Timeout:
        """Waitable for ``delay`` simulated nanoseconds."""
        return Timeout(delay)

    def signal(self) -> Signal:
        """Fresh one-shot signal bound to this process's engine."""
        return Signal(self.engine)

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return self._alive

    def kill(self) -> None:
        """Terminate the process; its generator is closed immediately."""
        if not self._alive:
            return
        self._alive = False
        gen, self._gen = self._gen, None
        if gen is not None:
            gen.close()
        if not self.done.fired:
            self.done.fire(None)

    def _resume(self, value: Any) -> None:
        if not self._alive or self._gen is None:
            return
        try:
            waitable = self._gen.send(value)
        except StopIteration as stop:
            self._alive = False
            self._gen = None
            self.done.fire(getattr(stop, "value", None))
            return
        if not isinstance(waitable, _Waitable):
            raise SimulationError(
                f"process {self.name!r} yielded {waitable!r}, "
                "expected a Timeout, Signal or all_of()"
            )
        waitable._arm(self.engine, self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name!r} {state}>"
