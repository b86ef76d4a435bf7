"""The cluster tier: persistent job stores, the dispatcher, replicas.

A bare ``JobManager`` needs only the store module (it opens an
in-memory store when no ``store_url`` is named); the dispatcher and the
replica harnesses are for running several replicas on one shared store.

Submodules above :mod:`~repro.service.cluster.store` are loaded
lazily: the manager imports the store at import time, and the replica
harness imports the manager, so an eager package init would be a
cycle.
"""

import importlib

from .store import (
    LIVE_STATES,
    JobStore,
    MemoryJobStore,
    SqliteJobStore,
    open_store,
)

#: Lazily loaded name → the module that defines it.
_LAZY = {
    "Dispatcher": ".dispatcher",
    "Replica": ".dispatcher",
    "routing_key": ".dispatcher",
    "run_dispatcher": "..http",
    "ClusterHarness": ".replica",
    "InProcessReplica": ".replica",
    "SubprocessReplica": ".replica",
}

__all__ = [
    "JobStore",
    "LIVE_STATES",
    "MemoryJobStore",
    "SqliteJobStore",
    "open_store",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name], __name__), name)
