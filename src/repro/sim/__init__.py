"""Discrete-event simulation substrate.

The paper's measurements run on a real ESX host; this package is the
time-and-causality substrate for our simulated reproduction of that
host: a deterministic event loop (:class:`Engine`), generator-coroutine
processes (:class:`Process`) for workload threads, and reproducible
named random streams (:class:`RandomSource`).
"""

from .engine import (
    Engine,
    EventHandle,
    SimulationError,
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    ms,
    seconds,
    us,
)
from .process import Process, Signal, Timeout, all_of
from .randomness import RandomSource

__all__ = [
    "Engine",
    "EventHandle",
    "SimulationError",
    "NS_PER_MS",
    "NS_PER_SEC",
    "NS_PER_US",
    "ms",
    "seconds",
    "us",
    "Process",
    "Signal",
    "Timeout",
    "all_of",
    "RandomSource",
]
