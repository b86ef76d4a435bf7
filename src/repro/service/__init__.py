"""The long-running planning service (paper Fig. 5, module 4, as a daemon).

Turns the one-shot planner into an always-on system: jobs (plan /
refine / compare / simulate) arrive over a stdlib HTTP JSON API, run on
a bounded pool of worker *processes* (one solver per process — a wedged
simplex can never stall the service), and results are deduplicated
through a fingerprint-keyed cache.  Sequential refine jobs against the
same session are routed to the worker holding that session's warm
:class:`~repro.core.incremental.RevisionedModel`, so the incremental
re-solve engine pays off across HTTP requests, not just within one
process's lifetime.

Layers, bottom up: :mod:`~repro.service.jobs` (the job model and its
lifecycle state machine), :mod:`~repro.service.executor` (what runs
inside a worker), :mod:`~repro.service.workers` (the process pool),
:mod:`~repro.service.manager` (queueing, retries, timeouts, cache,
journal), :mod:`~repro.service.http` (the API, over a manager or the
cluster dispatcher), and :mod:`~repro.service.client` (a caller-side
helper).
"""

from .client import JobFailedError, ServiceClient, ServiceError
from .config import ServiceConfig
from .executor import PayloadError, execute_job
from .jobs import (
    CACHEABLE_KINDS,
    TERMINAL_STATES,
    JobKind,
    JobRecord,
    JobState,
)
from .manager import (
    JobManager,
    QueueFullError,
    ServiceUnavailableError,
    UnknownJobError,
    replay_journal,
)
from .cluster import JobStore, MemoryJobStore, SqliteJobStore, open_store
from .http import PlanningServer, run_service
from .workers import WorkerPool

__all__ = [
    "CACHEABLE_KINDS",
    "JobFailedError",
    "JobKind",
    "JobManager",
    "JobRecord",
    "JobState",
    "JobStore",
    "MemoryJobStore",
    "PayloadError",
    "PlanningServer",
    "QueueFullError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceUnavailableError",
    "SqliteJobStore",
    "TERMINAL_STATES",
    "UnknownJobError",
    "WorkerPool",
    "execute_job",
    "open_store",
    "replay_journal",
    "run_service",
]
