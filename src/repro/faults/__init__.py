"""Deterministic fault injection (see :mod:`repro.faults.injector`).

The chaos plane behind ``tests/test_faults.py``: seedable schedules of
socket resets, partial writes, ``EIO``/``ENOSPC`` store errors, worker
crashes and delays, fired through hooks compiled into the live client
and server, the cluster workers, the fleet uplink and the store
WAL/segment writers.  With no plan armed the hooks cost one global read.
"""

from .injector import (
    ENV_VAR,
    SITES,
    FaultAction,
    FaultInjector,
    FaultPlan,
    activate_from_env,
    active,
    fire,
    inject,
)

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
