"""The cluster dispatcher: one front door over N ``serve`` replicas.

Clients talk to the dispatcher exactly as they would to a single
replica: :mod:`repro.service.http` serves both, so the routes, bodies
(JSON or wire) and error statuses are the same.  The dispatcher raises
the manager's exceptions (:class:`UnknownJobError`,
:class:`QueueFullError`, :class:`ServiceUnavailableError`) and lets a
replica's :class:`ServiceError` through for the HTTP layer to map.
Behind that one contract it:

* **shards by state fingerprint** — the routing key is the fingerprint
  of the payload's ``state`` document, so every job about one
  enterprise state (its plan, its refine session, its what-if
  simulations) lands on the same replica and reuses that replica's warm
  :class:`~repro.lp.SolveCache` and pinned refine sessions.  Rendezvous
  (highest-random-weight) hashing keeps the key→replica mapping stable
  when replicas are evicted or re-added: only keys owned by the dead
  replica move;
* **keeps a shared result cache** — fingerprint-keyed results observed
  from *any* replica are served directly on resubmission, so a plan
  solved through replica A is a cache hit when resubmitted through the
  dispatcher even if the shard hash would have sent it to replica B;
* **applies cluster-level backpressure** — a replica answering 429 is
  not the end: the job is offered to every other healthy replica once,
  and only when all of them refuse does the client see 429, with the
  largest ``Retry-After`` the cluster quoted;
* **health-gates the replica set** — a background monitor probes
  ``/healthz``; ``eviction_threshold`` consecutive failures evict a
  replica from routing, a later successful probe re-adds it.  Reads for
  jobs owned by a dead replica fall back to any healthy replica and
  then to the shared job store, so results outlive their replica;
* **relays event streams** — ``follow`` holds one open stream from the
  owner replica and passes it on line for line.  The terminal event (or
  the replica closing the stream) ends it; a stream that breaks resumes
  from the last ``seq`` on whichever replica answers next, so the
  watcher sees every event once, in order, across a replica's death.

The dispatcher holds no job state of its own beyond the owner map, its
cache-born records (both bounded like a manager's job history) and the
result cache — restartable at will; the job store is the durable tier.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Any, Iterable, Iterator

from ...lp.fingerprint import payload_fingerprint
from ...telemetry import declare_counters, metrics
from ..client import TERMINAL, ServiceClient, ServiceError
from ..config import ServiceConfig
from ..jobs import CACHEABLE_KINDS, JobKind, new_job_id
from ..manager import QueueFullError, ServiceUnavailableError, UnknownJobError
from .store import JobStore, MemoryJobStore, open_store

DISPATCHER_COUNTERS = (
    "dispatcher.jobs.routed",
    "dispatcher.jobs.rerouted",
    "dispatcher.jobs.rejected",
    "dispatcher.cache.hits",
    "dispatcher.replicas.evicted",
    "dispatcher.replicas.readded",
)

declare_counters(__name__, DISPATCHER_COUNTERS)


class Replica:
    """One backend ``serve`` process, as the dispatcher sees it."""

    def __init__(self, url: str, client: ServiceClient) -> None:
        self.url = url.rstrip("/")
        self.client = client
        self.healthy = True
        self.consecutive_failures = 0
        self.last_error: str | None = None
        self.last_probe: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


def routing_key(kind: JobKind, payload: dict[str, Any]) -> str:
    """The shard key: the *state* fingerprint when the payload has one.

    Keying on the state document (not the full payload) is what makes
    affinity useful: a plan, its refinements and its simulations all
    share the state and therefore the replica — and with it the warm
    solve cache and the pinned refine session.
    """
    state = payload.get("state")
    if isinstance(state, dict) and state:
        return payload_fingerprint(state)
    return payload_fingerprint([kind.value, payload])


class Dispatcher:
    """Routing, caching and failover policy (no HTTP of its own)."""

    def __init__(
        self,
        replica_urls: Iterable[str],
        store: "JobStore | None" = None,
        store_url: str | None = None,
        cache_size: int = 256,
        health_interval: float = 1.0,
        eviction_threshold: int = 3,
        client_timeout: float = 30.0,
    ) -> None:
        urls = [url.rstrip("/") for url in replica_urls]
        if not urls:
            raise ValueError("the dispatcher needs at least one replica URL")
        if len(set(urls)) != len(urls):
            raise ValueError("duplicate replica URLs")
        if cache_size < 0:
            raise ValueError("cache_size cannot be negative")
        if health_interval <= 0:
            raise ValueError("health_interval must be positive")
        if eviction_threshold < 1:
            raise ValueError("eviction_threshold must be at least 1")
        self.replicas = [
            Replica(
                url,
                ServiceClient(
                    url,
                    timeout=client_timeout,
                    # The dispatcher owns retry policy; the per-client
                    # connection-refused retry would only slow failover.
                    connect_retries=0,
                    connect_timeout=min(client_timeout, 2.0),
                ),
            )
            for url in urls
        ]
        #: The replicas' store, the last resort for reads once no
        #: replica answers (an empty in-memory one when none is named).
        self._store: JobStore = (
            store if store is not None else open_store(store_url)
        )
        self._owns_store = store is None
        self._lock = threading.RLock()
        #: Notified when a replica is evicted or re-added: a relay that
        #: found no replica to stream from waits on it.
        self._replicas_changed = threading.Condition(self._lock)
        #: job id → owning replica URL (routing for status/result reads).
        self._owners: "OrderedDict[str, str]" = OrderedDict()
        #: Jobs the dispatcher completed itself from the result cache.
        self._local: "OrderedDict[str, dict[str, Any]]" = OrderedDict()
        #: Bound on each of the two tables above, oldest entry out
        #: first: the manager's default ``job_history_limit``.
        self._history_limit = ServiceConfig.job_history_limit
        self._cache: "OrderedDict[str, dict]" = OrderedDict()
        self._cache_size = cache_size
        self.cache_hits = 0
        self.jobs_routed = 0
        self._health_interval = health_interval
        self._eviction_threshold = eviction_threshold
        self._stop = threading.Event()
        self._monitor: threading.Thread | None = None
        self.started_at: float | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "Dispatcher":
        """Probe every replica once, so routing works before the first
        monitor tick, then start the health monitor."""
        if self._monitor is not None:
            raise RuntimeError("dispatcher already started")
        self.started_at = time.time()
        for replica in self.replicas:
            self.probe(replica)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="dispatcher-health", daemon=True
        )
        self._monitor.start()
        return self

    def shutdown(self) -> bool:
        """Stop the monitor; ``True``: the dispatcher holds no jobs to drain."""
        with self._replicas_changed:
            self._stop.set()
            self._replicas_changed.notify_all()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        if self._owns_store:
            # As in JobManager.shutdown: reads after it answer 404.
            self._store.close()
            self._store = MemoryJobStore()
        return True

    def __enter__(self) -> "Dispatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- health ------------------------------------------------------------

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self._health_interval):
            for replica in self.replicas:
                self.probe(replica)

    def probe(self, replica: Replica) -> bool:
        """One health check; updates eviction state, returns liveness."""
        try:
            health = replica.client.healthz()
            ok = health.get("status") in ("ok", "degraded")
            error = None if ok else f"status {health.get('status')}"
        except (ServiceError, OSError) as exc:
            ok, error = False, str(exc)
        with self._lock:
            replica.last_probe = time.time()
            replica.last_error = error
            if ok:
                if not replica.healthy:
                    metrics.increment("dispatcher.replicas.readded")
                    self._replicas_changed.notify_all()
                replica.healthy = True
                replica.consecutive_failures = 0
            else:
                self._count_failure(replica)
        return ok

    def _mark_failure(self, replica: Replica, error: str) -> None:
        """An actual request failed — count it like a failed probe."""
        with self._lock:
            replica.last_error = error
            self._count_failure(replica)

    def _count_failure(self, replica: Replica) -> None:
        replica.consecutive_failures += 1
        if (
            replica.healthy
            and replica.consecutive_failures >= self._eviction_threshold
        ):
            replica.healthy = False
            metrics.increment("dispatcher.replicas.evicted")
            self._replicas_changed.notify_all()

    def healthy_replicas(self) -> list[Replica]:
        with self._lock:
            return [r for r in self.replicas if r.healthy]

    # -- routing -----------------------------------------------------------

    def _ranked(self, key: str) -> list[Replica]:
        """Healthy replicas by rendezvous weight for ``key``, best first.

        Each (key, replica) pair hashes to an independent weight; the
        max wins.  Removing a replica only remaps the keys it owned,
        which is exactly the affinity-preservation property sharded
        solve caches need.
        """
        replicas = self.healthy_replicas()
        return sorted(
            replicas,
            key=lambda r: hashlib.sha256(
                f"{key}|{r.url}".encode("utf-8")
            ).digest(),
            reverse=True,
        )

    def submit(
        self,
        kind: str,
        payload: dict[str, Any],
        timeout: float | None = None,
        max_retries: int | None = None,
    ) -> dict[str, Any]:
        """Route one submission; returns the job record dict.

        Raises ``ValueError`` (unknown kind), :class:`ServiceError` (a
        replica rejected the payload with a 4xx), :class:`QueueFullError`
        (every healthy replica answered 429) or
        :class:`ServiceUnavailableError` (no healthy replica took it).
        """
        kind = JobKind(kind)
        fingerprint = (
            payload_fingerprint([kind.value, payload])
            if kind in CACHEABLE_KINDS
            else None
        )
        if fingerprint is not None:
            with self._lock:
                cached = self._cache.get(fingerprint)
                if cached is not None:
                    self._cache.move_to_end(fingerprint)
                    self.cache_hits += 1
                    metrics.increment("dispatcher.cache.hits")
                    record = {
                        "id": new_job_id(),
                        "kind": kind.value,
                        "state": "succeeded",
                        "via": "dispatcher-cache",
                        "fingerprint": fingerprint,
                        "created_at": time.time(),
                        "finished_at": time.time(),
                        "elapsed": 0.0,
                        "attempts": 0,
                        "error": None,
                        "result": dict(cached),
                    }
                    self._remember(self._local, record["id"], record)
                    return record
        key = routing_key(kind, payload)
        candidates = self._ranked(key)
        if not candidates:
            raise ServiceUnavailableError("no healthy replica to route to")
        retry_afters: list[float] = []
        last_error: ServiceError | None = None
        for position, replica in enumerate(candidates):
            try:
                record = replica.client.submit(
                    kind.value, payload, timeout=timeout, max_retries=max_retries
                )
            except ServiceError as exc:
                if exc.status == 429:
                    # Saturated, not broken: spill to the next-ranked
                    # replica (losing affinity beats losing the job).
                    retry_afters.append(exc.retry_after or 1.0)
                    last_error = exc
                    continue
                if exc.status == 0 or exc.status >= 500:
                    self._mark_failure(replica, str(exc))
                    last_error = exc
                    continue
                raise  # 4xx: the payload is bad everywhere
            with self._lock:
                self._remember(self._owners, record["id"], replica.url)
                self.jobs_routed += 1
            metrics.increment("dispatcher.jobs.routed")
            if position > 0:
                metrics.increment("dispatcher.jobs.rerouted")
            self._maybe_cache(record)
            return record
        if retry_afters:
            metrics.increment("dispatcher.jobs.rejected")
            raise QueueFullError("all replicas are saturated", max(retry_afters))
        raise ServiceUnavailableError(str(last_error or "no replica accepted"))

    def _remember(self, table: OrderedDict, job_id: str, value: Any) -> None:
        """File ``value`` under ``job_id``, evicting the oldest entries
        past the history limit (under the lock)."""
        table[job_id] = value
        while len(table) > self._history_limit:
            table.popitem(last=False)

    def _maybe_cache(self, record: dict[str, Any]) -> None:
        """Feed the shared cache from any completed record we see."""
        if (
            record.get("state") == "succeeded"
            and record.get("fingerprint")
            and isinstance(record.get("result"), dict)
        ):
            with self._lock:
                self._cache[record["fingerprint"]] = dict(record["result"])
                self._cache.move_to_end(record["fingerprint"])
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)

    # -- reads -------------------------------------------------------------

    def _owner(self, job_id: str) -> Replica | None:
        with self._lock:
            url = self._owners.get(job_id)
        if url is None:
            return None
        for replica in self.replicas:
            if replica.url == url:
                return replica
        return None

    def _read_candidates(self, job_id: str) -> list[Replica]:
        """Replicas to ask about a job: owner first, then the rest."""
        owner = self._owner(job_id)
        ordered: list[Replica] = []
        if owner is not None and owner.healthy:
            ordered.append(owner)
        ordered.extend(
            r for r in self.healthy_replicas() if r is not owner
        )
        return ordered

    def get(self, job_id: str) -> dict[str, Any]:
        """The job record, from wherever still answers for it."""
        with self._lock:
            local = self._local.get(job_id)
        if local is not None:
            return dict(local)
        for replica in self._read_candidates(job_id):
            try:
                record = replica.client.job(job_id)
            except ServiceError as exc:
                if exc.status == 404:
                    continue  # this replica genuinely does not know it
                self._mark_failure(replica, str(exc))
                continue
            self._maybe_cache(record)
            return record
        record = self._store.get(job_id)
        if record is None:
            raise UnknownJobError(job_id)
        return record

    def jobs(self) -> list[dict[str, Any]]:
        """Job summaries, no result bodies: every healthy replica's, then
        the ones the dispatcher completed from its result cache."""
        summaries: list[dict[str, Any]] = []
        for replica in self.healthy_replicas():
            try:
                summaries.extend(replica.client.jobs())
            except ServiceError as exc:
                self._mark_failure(replica, str(exc))
        with self._lock:
            local = list(self._local.values())
        summaries.extend(
            {key: value for key, value in record.items() if key != "result"}
            for record in local
        )
        return summaries

    def cancel(self, job_id: str) -> bool:
        """``True`` cancelled, ``False`` already finished."""
        with self._lock:
            local = self._local.get(job_id)
        if local is not None:
            return False  # dispatcher-cache jobs are born terminal
        for replica in self._read_candidates(job_id):
            try:
                replica.client.cancel(job_id)
                return True
            except ServiceError as exc:
                if exc.status == 409:
                    return False
                if exc.status == 404:
                    continue
                self._mark_failure(replica, str(exc))
                continue
        data = self._store.get(job_id)
        if data is None:
            raise UnknownJobError(job_id)
        if data.get("state") in TERMINAL:
            return False
        self._store.request_cancel(job_id)
        return True

    def follow(self, job_id: str, after: int = 0) -> Iterator[dict[str, Any]]:
        """The job's events with ``seq > after``, live, across the cluster.

        Opens the first event source now, so an id nothing knows raises
        :class:`UnknownJobError` before anything is yielded; a
        cache-born job has no events.
        """
        with self._lock:
            if job_id in self._local:
                return (event for event in ())
        source, final = self._open_events(job_id, after)
        return self._relay(job_id, after, source, final)

    def _open_events(
        self, job_id: str, after: int
    ) -> tuple[Iterator[dict[str, Any]], bool]:
        """An event source for the job, from ``after`` on.

        The owner replica's stream when it answers, else any other
        replica's, else the store's events so far.  The flag says
        whether the source running out means the job is over: a
        replica closes its stream only after the terminal event, the
        store's snapshot is over only if the job is.
        """
        for replica in self._read_candidates(job_id):
            try:
                return replica.client.stream(job_id, after=after), True
            except ServiceError as exc:
                if exc.status != 404:
                    self._mark_failure(replica, str(exc))
        data = self._store.get(job_id)
        if data is None:
            raise UnknownJobError(job_id)
        events = [
            {"seq": seq, **event} for seq, event in self._store.events(job_id, after)
        ]
        return (event for event in events), data.get("state") in TERMINAL

    def _relay(
        self,
        job_id: str,
        after: int,
        source: Iterator[dict[str, Any]],
        final: bool,
    ) -> Iterator[dict[str, Any]]:
        """Pass ``source`` on; on a break, resume from the last ``seq``."""
        while True:
            try:
                for event in source:
                    yield event
                    after = max(after, event["seq"])
                    if event.get("type") == "state" and event.get("state") in TERMINAL:
                        return
                if final:
                    return
                # Only the store knew the job and it is still live: its
                # owner is down.  Nothing moves until a replica comes
                # back, which the health monitor announces.
                with self._replicas_changed:
                    self._replicas_changed.wait(self._health_interval)
                    if self._stop.is_set():
                        raise ServiceUnavailableError("the dispatcher stopped")
            except ServiceError:
                pass  # the replica went away or fell silent: resume below
            finally:
                source.close()
            source, final = self._open_events(job_id, after)

    # -- introspection -----------------------------------------------------

    def healthz(self) -> dict[str, Any]:
        with self._lock:
            replicas = [r.to_dict() for r in self.replicas]
        healthy = sum(1 for r in replicas if r["healthy"])
        return {
            "status": "ok" if healthy else "down",
            "role": "dispatcher",
            "replicas": replicas,
            "replicas_healthy": healthy,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
        }

    def stats(self) -> dict[str, Any]:
        with self._lock:
            cache_size = len(self._cache)
            routed = self.jobs_routed
        counters = {
            name: value
            for name, value in metrics.snapshot().items()
            if name.startswith("dispatcher.")
        }
        return {
            "role": "dispatcher",
            "jobs_routed": routed,
            "cache": {"size": cache_size, "hits": self.cache_hits},
            "counters": counters,
            "replicas": [r.to_dict() for r in self.replicas],
        }
