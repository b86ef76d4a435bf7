"""The :class:`JobManager`: queue, dispatch, retries, cache, journal.

A single supervisor thread owns all lifecycle transitions (HTTP threads
only enqueue/cancel under the manager lock), which keeps the state
machine race-free without fine-grained locking:

* **dispatch** — ready queued jobs go to idle workers, oldest first;
  refine jobs are routed to the worker already holding their session so
  warm :class:`~repro.lp.SolveCache` state survives across requests;
* **completion** — worker results flip jobs to ``succeeded``/``failed``
  and feed the fingerprint-keyed result cache;
* **worker death** — a worker that dies mid-job (OOM kill, native
  crash, an operator's ``kill -9``) is replaced and its job re-queued
  with exponential backoff, up to ``max_retries``; the job fails with
  the death recorded once retries are exhausted;
* **timeouts** — a job past its per-attempt deadline gets its worker
  killed and ends ``timeout`` (deliberately *not* retried: a solve that
  blew its budget once will blow it again);
* **cancellation** — queued jobs die in the queue; running jobs get
  their worker killed and replaced (the only way to interrupt a solver
  that is deep inside native code).

Every transition is appended to the optional JSONL journal, so an
operator can reconstruct what the service did after the fact.
"""

from __future__ import annotations

import heapq
import sys
import threading
import time
import traceback
import uuid
from collections import OrderedDict, deque
from typing import Any

from ..io.serialization import append_jsonl, read_jsonl
from ..lp.fingerprint import payload_fingerprint
from ..telemetry import declare_counters, metrics
from .cluster.store import JobStore, open_store
from .config import ServiceConfig
from .executor import PayloadError, validate_payload
from .jobs import (
    CACHEABLE_KINDS,
    MAX_EVENT_BUFFER,
    TERMINAL_STATES,
    JobKind,
    JobRecord,
    JobState,
)
from .workers import WorkerHandle, WorkerPool

#: Counter names this module owns (guarded against double declaration).
SERVICE_COUNTERS = (
    "service.jobs.submitted",
    "service.jobs.succeeded",
    "service.jobs.failed",
    "service.jobs.cancelled",
    "service.jobs.timeout",
    "service.jobs.retried",
    "service.workers.restarts",
    "service.cache.hits",
    "service.cache.misses",
    "service.jobs.rejected",
    "service.jobs.recovered",
    "service.jobs.remote_cancelled",
    "service.progress.events",
)

declare_counters(__name__, SERVICE_COUNTERS)


class ServiceUnavailableError(RuntimeError):
    """The manager is draining/stopped and accepts no new jobs."""


class QueueFullError(RuntimeError):
    """Admission control rejected the job (maps to HTTP 429).

    ``retry_after`` estimates, in seconds, when the queue should have
    drained enough to try again (the ``Retry-After`` header value).
    """

    def __init__(self, depth: int, limit: int, retry_after: float) -> None:
        self.retry_after = retry_after
        super().__init__(
            f"job queue is full ({depth} queued, limit {limit}); "
            f"retry in {retry_after:.0f}s"
        )


class UnknownJobError(KeyError):
    """No job with that id (maps to HTTP 404)."""


class JobManager:
    """Accepts jobs, runs them on the worker pool, remembers everything."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        store: JobStore | None = None,
    ) -> None:
        self.config = (config or ServiceConfig()).validated()
        self.replica_id = self.config.replica_id or f"replica-{uuid.uuid4().hex[:8]}"
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        #: Min-heap of (ready_at, sequence, job_id); cancelled entries are
        #: skipped lazily at pop time.
        self._pending: list[tuple[float, int, str]] = []
        #: Terminal job ids, oldest finish first — the eviction order
        #: for ``job_history_limit``.
        self._history: deque[str] = deque()
        self._seq = 0
        self._cache: "OrderedDict[str, dict]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0
        self._pool: WorkerPool | None = None
        #: Shared persistent job store (cluster mode); ``None`` keeps
        #: the PR-4 in-process behavior byte for byte.
        self._store: JobStore | None = store
        self._owns_store = False
        if self._store is None and self.config.store_url is not None:
            self._store = open_store(self.config.store_url)
            self._owns_store = True
        #: EWMA of successful-attempt seconds — the Retry-After estimate.
        self._avg_job_seconds = 1.0
        self._last_cancel_poll = 0.0
        self._journal = None
        if self.config.journal_path:
            # Replay what an earlier incarnation journalled *before*
            # reopening the file for append, so restarts keep answering
            # for recently finished jobs (bounded by job_history_limit).
            self._replay_journal(self.config.journal_path)
            self._journal = open(self.config.journal_path, "a", encoding="utf-8")
        self._stop = threading.Event()
        self._accepting = False
        self._supervisor: threading.Thread | None = None
        self.started_at: float | None = None

    def _replay_journal(self, path: str) -> None:
        """Resurrect recently finished jobs from an existing journal.

        Only *terminal* records come back (a journal says nothing about
        payloads, so a queued/running entry cannot be re-dispatched from
        it — cluster mode recovers those from the job store instead),
        and only the newest ``job_history_limit`` of them: replaying a
        journal longer than the limit must not resurrect jobs the
        previous incarnation had already evicted.
        """
        terminal_names = {state.value for state in TERMINAL_STATES}
        final: "OrderedDict[str, dict]" = OrderedDict()
        for entry in read_jsonl(path):
            job_id = entry.get("job")
            if job_id is None or entry.get("state") not in terminal_names:
                continue
            final[job_id] = entry
            final.move_to_end(job_id)
        limit = self.config.job_history_limit
        entries = list(final.values())
        if limit is not None:
            entries = entries[-limit:]
        for entry in entries:
            record = JobRecord.from_store_dict(
                {
                    "id": entry["job"],
                    "kind": entry.get("kind", "plan"),
                    "state": entry["state"],
                    "attempts": entry.get("attempts", 0),
                    "error": entry.get("error"),
                    "via": entry.get("via"),
                    "created_at": entry.get("ts"),
                    "finished_at": entry.get("ts"),
                }
            )
            self._jobs[record.id] = record
            self._history.append(record.id)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobManager":
        """Spawn the worker pool and the supervisor thread."""
        if self._supervisor is not None:
            raise RuntimeError("manager already started")
        self._pool = WorkerPool(self.config.workers)
        self._accepting = True
        self.started_at = time.time()
        if self._store is not None:
            self._recover_from_store()
        self._supervisor = threading.Thread(
            target=self._supervise, name="planning-supervisor", daemon=True
        )
        self._supervisor.start()
        self._log_event(event="service_started", workers=self.config.workers)
        return self

    def _recover_from_store(self) -> None:
        """Re-queue this replica's unfinished jobs after a restart.

        The store persisted every payload at submit time, so jobs that
        were queued or mid-solve when the previous incarnation died are
        simply dispatched again — the restart acceptance path: a job
        submitted to any replica stays retrievable *and completable*
        through the cluster after that replica restarts.

        Jobs that never reached a worker are re-queued first.  A job
        that was mid-run when the previous incarnation died may be what
        killed it, and may be long; re-running it first would leave
        every job queued behind it waiting a second time.
        """
        from .cluster.store import LIVE_STATES

        with self._lock:
            live = self._store.list(claimed_by=self.replica_id, states=LIVE_STATES)
            live.sort(key=lambda data: data["state"] != JobState.QUEUED.value)
            for data in live:
                if data["id"] in self._jobs:
                    continue
                record = JobRecord.from_store_dict(data)
                record.state = JobState.QUEUED
                record.replica = self.replica_id
                self._jobs[record.id] = record
                self._store_sync(record)
                self._append_event(
                    record, {"type": "state", "state": "queued", "recovered": True}
                )
                metrics.increment("service.jobs.recovered")
                self._log_job(record, event="recovered")
                self._push(record, ready_at=time.monotonic())

    def __enter__(self) -> "JobManager":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=exc_info[0] is None)

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop the service; returns ``True`` when fully drained.

        ``drain=True`` (the SIGTERM path) stops accepting, lets queued
        and running jobs finish up to ``timeout`` (default: the config's
        ``drain_timeout``), then stops workers gracefully.  ``False``
        kills everything now.  Either way no worker process survives.
        """
        with self._lock:
            self._accepting = False
        drained = True
        if drain and self._supervisor is not None:
            deadline = time.monotonic() + (
                self.config.drain_timeout if timeout is None else timeout
            )
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._pending and self._pool.busy_count == 0:
                        break
                time.sleep(self.config.poll_interval)
            else:
                drained = False
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        if self._pool is not None:
            if drained:
                self._pool.stop_all()
            else:
                self._pool.kill_all()
        self._log_event(event="service_stopped", drained=drained)
        if self._journal is not None:
            self._journal.close()
            self._journal = None
        if self._store is not None and self._owns_store:
            self._store.close()
            self._store = None
        return drained

    # -- public job API ----------------------------------------------------

    def submit(
        self,
        kind: "JobKind | str",
        payload: dict[str, Any],
        timeout: float | None = None,
        max_retries: int | None = None,
    ) -> JobRecord:
        """Validate, fingerprint and enqueue one job; returns its record.

        Raises :class:`PayloadError` / ``ValueError`` on malformed
        requests (the HTTP layer maps those to 400) and
        :class:`ServiceUnavailableError` while draining (503).  A
        cacheable job whose fingerprint was already solved completes
        immediately from the result cache.
        """
        kind = JobKind(kind)
        validate_payload(kind, payload)
        if timeout is not None:
            if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
                raise PayloadError("field 'timeout' must be a number of seconds")
            if not timeout > 0:  # also rejects NaN
                raise PayloadError("field 'timeout' must be positive")
            timeout = float(timeout)
        if max_retries is not None:
            if isinstance(max_retries, bool) or not isinstance(max_retries, int):
                raise PayloadError("field 'max_retries' must be an integer")
            if max_retries < 0:
                raise PayloadError("field 'max_retries' cannot be negative")
        record = JobRecord(
            kind=kind,
            payload=payload,
            timeout=self.config.job_timeout if timeout is None else timeout,
            max_retries=(
                self.config.max_retries if max_retries is None else max_retries
            ),
            session=(
                payload.get("session", "default") if kind is JobKind.REFINE else None
            ),
        )
        if kind in CACHEABLE_KINDS:
            record.fingerprint = payload_fingerprint([kind.value, payload])
        with self._lock:
            if not self._accepting:
                raise ServiceUnavailableError(
                    "the planning service is draining and accepts no new jobs"
                )
            cached = (
                self._cache.get(record.fingerprint)
                if record.fingerprint is not None
                else None
            )
            if cached is None:
                self._check_admission()
            record.replica = self.replica_id
            self._jobs[record.id] = record
            metrics.increment("service.jobs.submitted")
            self._log_job(record, event="submitted")
            self._store_put(record)
            self._append_event(record, {"type": "state", "state": "queued"})
            if record.fingerprint is not None:
                if cached is not None:
                    self._cache.move_to_end(record.fingerprint)
                    self.cache_hits += 1
                    metrics.increment("service.cache.hits")
                    record.result = dict(cached)
                    record.via = "cache"
                    record.elapsed = 0.0
                    self._finish(record, JobState.SUCCEEDED)
                    return record
                self.cache_misses += 1
                metrics.increment("service.cache.misses")
            self._push(record, ready_at=time.monotonic())
        return record

    def _check_admission(self) -> None:
        """Backpressure: reject once the queue is deeper than configured.

        Called under the manager lock, before the record enters the
        table.  The Retry-After estimate assumes the pool keeps its
        recent pace: ``depth / workers`` jobs ahead of the caller per
        worker, each costing about the EWMA attempt time.
        """
        limit = self.config.max_queue_depth
        if limit is None:
            return
        depth = self._queue_depth()
        if depth < limit:
            return
        retry_after = min(
            120.0,
            max(1.0, depth * self._avg_job_seconds / self.config.workers),
        )
        metrics.increment("service.jobs.rejected")
        self._log_event(event="rejected", queue_depth=depth, limit=limit)
        raise QueueFullError(depth, limit, retry_after)

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            record = self._jobs.get(job_id)
        if record is not None:
            return record
        # Not (or no longer) in this replica's table: the shared store
        # still answers for evicted history and for jobs owned by other
        # replicas — the detached record is a read-only snapshot.
        if self._store is not None:
            data = self._store.get(job_id)
            if data is not None:
                return JobRecord.from_store_dict(data)
        raise UnknownJobError(job_id)

    def jobs(self) -> list[JobRecord]:
        with self._lock:
            return list(self._jobs.values())

    def events(self, job_id: str, after: int = 0) -> tuple[list[dict], bool]:
        """Events with ``seq > after`` plus whether the job is terminal.

        The streaming endpoint polls this; ``done=True`` tells it the
        stream is complete.  Local records answer from the in-memory
        buffer; anything else falls back to the shared store.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is not None:
                fresh = [e for e in record.events if e["seq"] > after]
                # The buffer is bounded: if the oldest retained event is
                # already past `after`, the gap lives only in the store.
                if (
                    self._store is not None
                    and record.events
                    and record.events[0]["seq"] > after + 1
                ):
                    fresh = None
                else:
                    return fresh, record.done
        if self._store is None:
            raise UnknownJobError(job_id)
        data = self._store.get(job_id)
        if data is None:
            raise UnknownJobError(job_id)
        events = [
            {"seq": seq, **event} for seq, event in self._store.events(job_id, after)
        ]
        return events, JobState(data["state"]) in TERMINAL_STATES

    def cancel(self, job_id: str) -> bool:
        """Cancel a job; ``False`` when it already reached a terminal state.

        Queued jobs are dropped in place.  A running job's worker is
        killed and replaced — cancellation must work even when the
        solver is wedged inside native code, so cooperative signalling
        is not enough.
        """
        with self._lock:
            record = self._jobs.get(job_id)
            if record is not None:
                if record.done:
                    return False
                if record.state is JobState.RUNNING:
                    worker = self._worker_running(job_id)
                    if worker is not None:
                        self._replace_worker(worker)
                record.via = None
                self._finish(record, JobState.CANCELLED)
                return True
        # A job this replica does not hold: flag it in the shared store;
        # the owning replica's supervisor polls the flag and kills the
        # worker locally (cancellation across replicas).
        if self._store is not None:
            data = self._store.get(job_id)
            if data is not None:
                if JobState(data["state"]) in TERMINAL_STATES:
                    return False
                self._store.request_cancel(job_id)
                self._log_event(event="cancel_requested", job=job_id)
                return True
        raise UnknownJobError(job_id)

    def wait(self, job_id: str, timeout: float = 60.0) -> JobRecord:
        """Block until ``job_id`` is terminal (test/CLI convenience)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            record = self.get(job_id)
            if record.done:
                return record
            time.sleep(self.config.poll_interval)
        raise TimeoutError(f"job {job_id} still {self.get(job_id).state.value}")

    # -- introspection -----------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        with self._lock:
            alive = self._pool.alive_count if self._pool else 0
            expected = self.config.workers
            status = "ok" if self._accepting and alive == expected else (
                "degraded" if self._accepting else "draining"
            )
            return {
                "status": status,
                "accepting": self._accepting,
                "workers_alive": alive,
                "workers_expected": expected,
                "replica_id": self.replica_id,
                "queue_depth": self._queue_depth(),
                "max_queue_depth": self.config.max_queue_depth,
                "uptime_seconds": (
                    time.time() - self.started_at if self.started_at else 0.0
                ),
            }

    def stats(self) -> dict[str, Any]:
        """The ``GET /metrics`` body: queues, jobs, cache, histograms."""
        with self._lock:
            by_state: dict[str, int] = {}
            for record in self._jobs.values():
                by_state[record.state.value] = by_state.get(record.state.value, 0) + 1
            queue_depth = self._queue_depth()
            counters = {
                name: value
                for name, value in metrics.snapshot().items()
                if name.startswith(("service.", "solves.", "incremental."))
            }
            return {
                "queue_depth": queue_depth,
                "in_flight": self._pool.busy_count if self._pool else 0,
                "workers": {
                    "size": len(self._pool.workers) if self._pool else 0,
                    "alive": self._pool.alive_count if self._pool else 0,
                    "restarts": self._pool.restarts if self._pool else 0,
                },
                "jobs": {"total": len(self._jobs), "by_state": by_state},
                "cache": {
                    "size": len(self._cache),
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                },
                "counters": counters,
                "solve_seconds": {
                    name.removeprefix("service.job_seconds."): hist
                    for name, hist in metrics.histogram_snapshot().items()
                    if name.startswith("service.job_seconds.")
                },
            }

    # -- supervisor --------------------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception:  # pragma: no cover - supervisor must survive
                # A dead supervisor freezes every job, so keep looping —
                # but loudly: a swallowed tick failure would otherwise
                # leave jobs stuck RUNNING with no trace anywhere.
                detail = traceback.format_exc()
                print(
                    f"planning supervisor tick failed:\n{detail}",
                    file=sys.stderr,
                    flush=True,
                )
                with self._lock:
                    self._log_event(event="supervisor_error", error=detail)
            time.sleep(self.config.poll_interval)

    def _tick(self) -> None:
        with self._lock:
            self._drain_results()
            self._reap_dead_workers()
            self._enforce_deadlines()
            self._check_remote_cancels()
            self._dispatch_ready()
            metrics.gauge("service.queue.depth").set(self._queue_depth())
            metrics.gauge("service.jobs.inflight").set(self._pool.busy_count)

    def _check_remote_cancels(self) -> None:
        """Honor cancellations requested through *other* replicas.

        Any replica (or the dispatcher) can flag a job in the shared
        store; only the owning replica can actually stop it — by the
        same worker-kill path a local DELETE uses.  Polled at
        ``remote_cancel_interval`` over this replica's live jobs only,
        so the store sees a handful of point reads per interval.
        """
        if self._store is None:
            return
        now = time.monotonic()
        if now - self._last_cancel_poll < self.config.remote_cancel_interval:
            return
        self._last_cancel_poll = now
        for record in list(self._jobs.values()):
            if record.done:
                continue
            try:
                flagged = self._store.cancel_requested(record.id)
            except Exception:  # pragma: no cover - store outage tolerated
                return
            if not flagged:
                continue
            if record.state is JobState.RUNNING:
                worker = self._worker_running(record.id)
                if worker is not None:
                    self._replace_worker(worker)
            record.via = None
            metrics.increment("service.jobs.remote_cancelled")
            self._finish(record, JobState.CANCELLED)

    def _drain_results(self) -> None:
        for message in self._pool.poll_results():
            worker_id, job_id, status, body, elapsed = message
            if status == "progress":
                # A mid-solve tick, not a completion: the worker stays
                # busy; file the tick under the running job's stream.
                record = self._jobs.get(job_id)
                if record is not None and record.state is JobState.RUNNING:
                    self._append_event(record, {"type": "progress", **body})
                continue
            worker = next(
                (w for w in self._pool.workers if w.worker_id == worker_id), None
            )
            if worker is not None and worker.busy_job == job_id:
                worker.busy_job = None
                worker.deadline = None
            record = self._jobs.get(job_id)
            if record is None or record.state is not JobState.RUNNING:
                continue  # cancelled/timed out just before the result landed
            if status == "ok":
                record.result = body
                record.via = "solve"
                record.elapsed = elapsed
                # Feed the Retry-After estimate (EWMA of attempt time).
                self._avg_job_seconds = (
                    0.8 * self._avg_job_seconds + 0.2 * max(elapsed, 0.01)
                )
                backend = body.get("backend", "auto") if isinstance(body, dict) else "auto"
                metrics.observe(f"service.job_seconds.{backend}", elapsed)
                if record.fingerprint is not None:
                    self._cache[record.fingerprint] = dict(body)
                    self._cache.move_to_end(record.fingerprint)
                    while len(self._cache) > self.config.result_cache_size:
                        self._cache.popitem(last=False)
                self._finish(record, JobState.SUCCEEDED)
            else:
                record.error = str(body)
                self._finish(record, JobState.FAILED)

    def _reap_dead_workers(self) -> None:
        for worker in list(self._pool.workers):
            if worker.alive:
                continue
            job_id = worker.busy_job
            self._replace_worker(worker)
            if job_id is None:
                continue
            record = self._jobs.get(job_id)
            if record is None or record.state is not JobState.RUNNING:
                continue
            if record.attempts <= record.max_retries:
                record.transition(JobState.RETRYING)
                self._log_job(record, event="retrying")
                metrics.increment("service.jobs.retried")
                backoff = self.config.retry_backoff * (2 ** (record.attempts - 1))
                record.transition(JobState.QUEUED)
                self._push(record, ready_at=time.monotonic() + backoff)
            else:
                record.error = (
                    f"worker died during attempt {record.attempts} "
                    f"(of {record.max_retries + 1} allowed)"
                )
                self._finish(record, JobState.FAILED)

    def _enforce_deadlines(self) -> None:
        now = time.monotonic()
        for worker in list(self._pool.workers):
            if worker.busy_job is None or worker.deadline is None:
                continue
            if now <= worker.deadline:
                continue
            record = self._jobs.get(worker.busy_job)
            self._replace_worker(worker)
            if record is not None and record.state is JobState.RUNNING:
                record.error = (
                    f"attempt exceeded the {record.timeout:.1f}s job timeout"
                )
                self._finish(record, JobState.TIMEOUT)

    def _dispatch_ready(self) -> None:
        now = time.monotonic()
        deferred: list[tuple[float, int, str]] = []
        while self._pending and self._pending[0][0] <= now:
            ready_at, seq, job_id = heapq.heappop(self._pending)
            record = self._jobs.get(job_id)
            if record is None or record.state is not JobState.QUEUED:
                continue  # cancelled while queued (and possibly evicted)
            worker = self._pick_worker(record)
            if worker is None:
                deferred.append((ready_at, seq, job_id))
                if not self._pool.idle_workers():
                    break  # pool saturated; stop scanning
                continue  # session-pinned worker busy; try other jobs
            self._start_on(worker, record)
        for item in deferred:
            heapq.heappush(self._pending, item)

    def _pick_worker(self, record: JobRecord) -> WorkerHandle | None:
        if record.session is not None:
            pinned = self._pool.worker_for_session(record.session)
            if pinned is not None:
                return pinned if pinned.idle else None
        idle = self._pool.idle_workers()
        return idle[0] if idle else None

    def _start_on(self, worker: WorkerHandle, record: JobRecord) -> None:
        record.attempts += 1
        record.transition(JobState.RUNNING)
        worker.busy_job = record.id
        worker.deadline = (
            time.monotonic() + record.timeout if record.timeout else None
        )
        if record.session is not None:
            worker.sessions.add(record.session)
        worker.send(record.id, record.kind, record.payload)
        self._log_job(record, event="dispatched", worker=worker.worker_id)
        self._store_sync(record)
        self._append_event(
            record,
            {"type": "state", "state": "running", "attempt": record.attempts},
        )

    def _replace_worker(self, worker: WorkerHandle) -> None:
        self._pool.restart(worker)
        metrics.increment("service.workers.restarts")
        self._log_event(
            event="worker_restarted", worker=worker.worker_id, pid=worker.pid
        )

    def _worker_running(self, job_id: str) -> WorkerHandle | None:
        for worker in self._pool.workers:
            if worker.busy_job == job_id:
                return worker
        return None

    # -- bookkeeping -------------------------------------------------------

    def _push(self, record: JobRecord, ready_at: float) -> None:
        self._seq += 1
        heapq.heappush(self._pending, (ready_at, self._seq, record.id))

    def _queue_depth(self) -> int:
        """Live entries in the heap (evicted/cancelled ones linger lazily)."""
        return sum(
            1
            for _, _, job_id in self._pending
            if (record := self._jobs.get(job_id)) is not None and not record.done
        )

    def _finish(self, record: JobRecord, state: JobState) -> None:
        record.transition(state)
        metrics.increment(f"service.jobs.{state.value}")
        self._log_job(record, event=state.value)
        self._store_sync(record)
        terminal_event: dict[str, Any] = {"type": "state", "state": state.value}
        if record.via is not None:
            terminal_event["via"] = record.via
        if record.error is not None:
            terminal_event["error"] = record.error
        self._append_event(record, terminal_event)
        # Bound in-memory retention: terminal records (and their payload
        # + result bodies) are evicted oldest-first past the configured
        # limit; the journal keeps the permanent audit trail.
        self._history.append(record.id)
        limit = self.config.job_history_limit
        if limit is not None:
            while len(self._history) > limit:
                self._jobs.pop(self._history.popleft(), None)

    def _store_put(self, record: JobRecord) -> None:
        """First write of a record to the shared store (claimed by us)."""
        if self._store is None:
            return
        try:
            self._store.put(record.to_store_dict(), claimed_by=self.replica_id)
        except Exception:  # pragma: no cover - store outage must not kill jobs
            self._log_event(event="store_error", op="put", job=record.id)

    def _store_sync(self, record: JobRecord) -> None:
        """Mirror a record's current state into the shared store."""
        if self._store is None:
            return
        try:
            self._store.update(record.id, record.to_store_dict())
        except Exception:  # pragma: no cover - store outage must not kill jobs
            self._log_event(event="store_error", op="update", job=record.id)

    def _append_event(self, record: JobRecord, event: dict[str, Any]) -> None:
        """File one event under the job: in-memory buffer + store stream.

        The embedded ``seq`` is what streaming clients resume from
        (``?after=<seq>``); it is dense per job and identical between
        the in-memory buffer and the store.
        """
        data = {"ts": time.time(), **event}
        seq = None
        if self._store is not None:
            # The store is the seq authority — a recovered job's stream
            # continues from where the previous incarnation left it.
            try:
                seq = self._store.append_event(record.id, data)
            except Exception:  # pragma: no cover - store outage tolerated
                self._log_event(event="store_error", op="event", job=record.id)
        if seq is None:
            seq = record.events[-1]["seq"] + 1 if record.events else 1
        record.events.append({"seq": seq, **data})
        if len(record.events) > MAX_EVENT_BUFFER:
            del record.events[: len(record.events) - MAX_EVENT_BUFFER]
        if event.get("type") == "progress":
            metrics.increment("service.progress.events")

    def _log_job(self, record: JobRecord, event: str, **extra: Any) -> None:
        self._log_event(
            event=event,
            job=record.id,
            kind=record.kind.value,
            state=record.state.value,
            attempts=record.attempts,
            error=record.error,
            via=record.via,
            **extra,
        )

    def _log_event(self, **record: Any) -> None:
        if self._journal is None:
            return
        try:
            append_jsonl(self._journal, {"ts": time.time(), **record})
        except ValueError:  # pragma: no cover - journal closed mid-write
            pass


def replay_journal(path: str) -> dict[str, str]:
    """Reconstruct job id → final state from a service journal."""
    final: dict[str, str] = {}
    for record in read_jsonl(path):
        job_id = record.get("job")
        if job_id is not None and "state" in record:
            final[job_id] = record["state"]
    return final
