"""Workload generator base: the lifecycle every workload shares.

All workloads in the evaluation are *closed-loop*: a fixed population
of logical threads each keeps at most one (or a configured number of)
operations in flight, reissuing on completion — which is how Iometer,
Filebench and database connections all behave.
"""

from __future__ import annotations

__all__ = ["Workload"]


class Workload:
    """Minimal workload interface: ``start()`` then run the engine.

    Concrete workloads expose their own parameters and counters; this
    base only fixes the lifecycle so experiments can treat them
    uniformly.
    """

    name = "workload"

    def start(self) -> None:
        """Begin issuing I/O on the owning engine."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop issuing new I/O (in-flight operations drain)."""
        raise NotImplementedError
