"""Configuration for the long-running planning service."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ServiceConfig:
    """Everything the service needs to run, validated up front.

    ``job_timeout`` bounds one *attempt* (the worker is killed past it
    and the job ends ``timeout``); ``max_retries`` bounds how many times
    a job is re-queued after its worker *died* underneath it (timeouts
    are not retried — a solve that blew its budget once will again).
    ``retry_backoff`` is the first re-queue delay, doubling per attempt.
    """

    host: str = "127.0.0.1"
    port: int = 8080
    workers: int = 4
    job_timeout: float | None = 300.0
    max_retries: int = 2
    retry_backoff: float = 0.25
    result_cache_size: int = 128
    #: Max *terminal* job records kept in memory: the manager's table
    #: and, without a ``store_url``, its in-memory job store both evict
    #: the oldest-finished past it (the JSONL journal stays the
    #: permanent audit trail).  It bounds records, not bytes: the
    #: in-memory store keeps every event of a job it holds, so it grows
    #: with solve length.  ``None`` disables eviction.
    job_history_limit: int | None = 1024
    journal_path: str | None = None
    #: How long a graceful drain waits for in-flight jobs on shutdown.
    drain_timeout: float = 60.0
    #: Admission control: submissions are rejected with 429 +
    #: ``Retry-After`` once this many jobs are queued (``None`` → accept
    #: everything, the single-process default).
    max_queue_depth: int | None = None
    #: The job store every record and event is written through.
    #: ``None`` or ``memory://`` opens an in-process store that no other
    #: process shares and no restart survives; ``sqlite:///path.db`` or
    #: a bare path opens the SQLite store replicas share and a
    #: restarted replica recovers its jobs from.
    store_url: str | None = None
    #: Stable identity of this replica in the shared store (claims,
    #: recovery after restart).  ``None`` derives a fresh random id.
    replica_id: str | None = None
    #: How often the supervisor polls the shared store for cancellations
    #: requested through *other* replicas (and how often a stream or a
    #: wait on a job only the store knows re-reads it).
    remote_cancel_interval: float = 0.25

    def validated(self) -> "ServiceConfig":
        if self.workers < 1:
            raise ValueError("the worker pool needs at least one process")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None for no limit)")
        if self.max_retries < 0:
            raise ValueError("max_retries cannot be negative")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff cannot be negative")
        if self.result_cache_size < 0:
            raise ValueError("result_cache_size cannot be negative")
        if self.job_history_limit is not None and self.job_history_limit < 1:
            raise ValueError(
                "job_history_limit must be at least 1 (or None for no eviction)"
            )
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise ValueError(
                "max_queue_depth must be at least 1 (or None for no limit)"
            )
        if self.remote_cancel_interval <= 0:
            raise ValueError("remote_cancel_interval must be positive")
        return self

    def replace(self, **changes) -> "ServiceConfig":
        return replace(self, **changes)
