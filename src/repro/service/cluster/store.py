"""Persistent job stores: any replica can load, serve and finish any job.

Every :class:`~repro.service.manager.JobManager` writes each record
and lifecycle/progress event through a :class:`JobStore`, which answers
for a job once the manager's own table no longer does (evicted history,
the full event stream).  With a shared store, a job submitted to one
replica is visible — status, result, event stream — from every other
replica and from the dispatcher, and survives the owning replica's
death.

Two implementations:

* :class:`MemoryJobStore` — a dict under a lock that keeps as many
  records as the manager's job history (and every event of each); the
  default of standalone ``etransform serve``.  It lives and dies with its process, so ``memory://`` is
  never shared between replicas and survives no restart.
* :class:`SqliteJobStore` — one SQLite file in WAL mode shared by every
  replica on the host, and the only store a job survives a restart in.
  WAL gives concurrent readers against a single writer, which matches
  the access pattern exactly: many dispatcher / replica reads, one
  short write per lifecycle transition.

Records cross the store as wire-encoded blobs
(:mod:`repro.io.wire` — binary CSC/state arrays, version byte, JSON
fallback), not JSON text, so persisting a job costs a memcpy rather
than a serialize-parse round trip of its state payload.

Each record names its owner (``claimed_by``, set by :meth:`JobStore.put`);
a restarted replica re-adopts its own unfinished jobs through
``list(claimed_by=...)``.  Cancellation across replicas rides the same
table: any replica may :meth:`request_cancel`; the owning replica polls
the flag for its running jobs and kills the worker locally.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from typing import Any, Iterable

from ...io.wire import decode_payload, encode_payload

#: Job states a restarted replica re-adopts from the store (everything
#: non-terminal; mirrors ``jobs.TERMINAL_STATES`` without the import).
LIVE_STATES = ("queued", "running", "retrying")


class JobStore:
    """Interface every store implements (see module docstring)."""

    def put(self, record: dict[str, Any], claimed_by: str | None = None) -> None:
        """Insert (or fully replace) one job record."""
        raise NotImplementedError

    def update(self, job_id: str, record: dict[str, Any]) -> None:
        """Replace the stored record for ``job_id`` (state included)."""
        raise NotImplementedError

    def get(self, job_id: str) -> dict[str, Any] | None:
        """The stored record, or ``None`` for an unknown id."""
        raise NotImplementedError

    def list(
        self,
        claimed_by: str | None = None,
        states: Iterable[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Stored records, optionally filtered by owner and/or state."""
        raise NotImplementedError

    def request_cancel(self, job_id: str) -> bool:
        """Flag the job for cancellation; ``False`` for an unknown id."""
        raise NotImplementedError

    def cancel_requested(self, job_id: str) -> bool:
        """Whether some replica flagged this job for cancellation."""
        raise NotImplementedError

    def append_event(self, job_id: str, event: dict[str, Any]) -> int:
        """Append one progress/lifecycle event; returns its 1-based seq."""
        raise NotImplementedError

    def events(self, job_id: str, after: int = 0) -> list[tuple[int, dict]]:
        """Events with seq > ``after``, in order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (idempotent)."""

    # -- context manager ----------------------------------------------------

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryJobStore(JobStore):
    """The in-process store: exact same contract, no persistence.

    ``history_limit`` bounds the terminal records it keeps: past it, the
    record that turned terminal first is dropped together with its
    events, claim and cancel flag — the order a manager evicts its own
    job history in, so the store never answers for a job the manager
    already forgot.  Live records are never dropped; ``None`` keeps
    everything.  The limit counts records, not events: a record held
    keeps its whole event stream.
    """

    def __init__(self, history_limit: int | None = None) -> None:
        self._lock = threading.Lock()
        self._records: dict[str, dict[str, Any]] = {}
        self._claims: dict[str, str | None] = {}
        self._cancels: set[str] = set()
        #: Each job's events, wire-encoded as in SQLite (a private copy
        #: at under half a dict's footprint); seq ``i + 1`` at index ``i``.
        self._events: dict[str, list[bytes]] = {}
        self._history_limit = history_limit
        #: Terminal job ids in the order they turned terminal (a dict
        #: as an ordered set): the eviction order.
        self._terminal: dict[str, None] = {}

    def put(self, record: dict[str, Any], claimed_by: str | None = None) -> None:
        job_id = record["id"]
        with self._lock:
            self._claims[job_id] = claimed_by
            self._events.setdefault(job_id, [])
            self._file(job_id, record)

    def update(self, job_id: str, record: dict[str, Any]) -> None:
        with self._lock:
            if job_id in self._records:
                self._file(job_id, record)

    def _file(self, job_id: str, record: dict[str, Any]) -> None:
        """Store the record and evict past the history limit (under the lock)."""
        self._records[job_id] = dict(record)
        if self._history_limit is None or record.get("state") in LIVE_STATES:
            return
        self._terminal.setdefault(job_id)
        while len(self._terminal) > self._history_limit:
            oldest = next(iter(self._terminal))
            del self._terminal[oldest]
            del self._records[oldest]
            self._claims.pop(oldest, None)
            self._cancels.discard(oldest)
            self._events.pop(oldest, None)

    def get(self, job_id: str) -> dict[str, Any] | None:
        with self._lock:
            record = self._records.get(job_id)
            return dict(record) if record is not None else None

    def list(self, claimed_by=None, states=None) -> list[dict[str, Any]]:
        states = set(states) if states is not None else None
        with self._lock:
            return [
                dict(record)
                for job_id, record in self._records.items()
                if (claimed_by is None or self._claims.get(job_id) == claimed_by)
                and (states is None or record.get("state") in states)
            ]

    def request_cancel(self, job_id: str) -> bool:
        with self._lock:
            if job_id not in self._records:
                return False
            self._cancels.add(job_id)
            return True

    def cancel_requested(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._cancels

    def append_event(self, job_id: str, event: dict[str, Any]) -> int:
        with self._lock:
            events = self._events.setdefault(job_id, [])
            events.append(encode_payload(event))
            return len(events)

    def events(self, job_id: str, after: int = 0) -> list[tuple[int, dict]]:
        with self._lock:
            after = max(after, 0)
            blobs = self._events.get(job_id, [])[after:]
        return [
            (seq, decode_payload(blob)) for seq, blob in enumerate(blobs, after + 1)
        ]


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id               TEXT PRIMARY KEY,
    state            TEXT NOT NULL,
    claimed_by       TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    updated_at       REAL NOT NULL,
    record           BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    job_id TEXT NOT NULL,
    seq    INTEGER NOT NULL,
    data   BLOB NOT NULL,
    PRIMARY KEY (job_id, seq)
);
CREATE INDEX IF NOT EXISTS jobs_by_owner ON jobs (claimed_by, state);
"""


class SqliteJobStore(JobStore):
    """The shared persistent store: one WAL-mode SQLite file per cluster.

    Connections are per-instance (every replica process and the
    dispatcher holds its own); SQLite's file locking plus WAL serialize
    the writers.  All writes are single short transactions, so the
    5-second busy timeout is orders of magnitude above observed
    contention.  Thread-safe within a process: one connection guarded
    by a lock (the store is off every hot path — solves dwarf it).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(
            path, timeout=5.0, check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)

    def put(self, record: dict[str, Any], claimed_by: str | None = None) -> None:
        blob = encode_payload(record)
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO jobs "
                "(id, state, claimed_by, cancel_requested, updated_at, record) "
                "VALUES (?, ?, ?, 0, ?, ?)",
                (record["id"], record["state"], claimed_by, time.time(), blob),
            )

    def update(self, job_id: str, record: dict[str, Any]) -> None:
        blob = encode_payload(record)
        with self._lock:
            self._conn.execute(
                "UPDATE jobs SET state = ?, updated_at = ?, record = ? "
                "WHERE id = ?",
                (record["state"], time.time(), blob, job_id),
            )

    def get(self, job_id: str) -> dict[str, Any] | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT record FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return decode_payload(row[0]) if row is not None else None

    def list(self, claimed_by=None, states=None) -> list[dict[str, Any]]:
        query = "SELECT record FROM jobs"
        clauses, params = [], []
        if claimed_by is not None:
            clauses.append("claimed_by = ?")
            params.append(claimed_by)
        if states is not None:
            states = list(states)
            clauses.append(f"state IN ({','.join('?' * len(states))})")
            params.extend(states)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        with self._lock:
            rows = self._conn.execute(query + " ORDER BY updated_at", params).fetchall()
        return [decode_payload(row[0]) for row in rows]

    def request_cancel(self, job_id: str) -> bool:
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE jobs SET cancel_requested = 1, updated_at = ? WHERE id = ?",
                (time.time(), job_id),
            )
            return cursor.rowcount == 1

    def cancel_requested(self, job_id: str) -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
            ).fetchone()
        return bool(row and row[0])

    def append_event(self, job_id: str, event: dict[str, Any]) -> int:
        blob = encode_payload(event)
        with self._lock:
            # BEGIN IMMEDIATE takes the write lock up front so the
            # MAX(seq) read and the INSERT are one atomic step even
            # against appenders in other processes.
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                row = self._conn.execute(
                    "SELECT COALESCE(MAX(seq), 0) FROM events WHERE job_id = ?",
                    (job_id,),
                ).fetchone()
                seq = row[0] + 1
                self._conn.execute(
                    "INSERT INTO events (job_id, seq, data) VALUES (?, ?, ?)",
                    (job_id, seq, blob),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return seq

    def events(self, job_id: str, after: int = 0) -> list[tuple[int, dict]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, data FROM events WHERE job_id = ? AND seq > ? "
                "ORDER BY seq",
                (job_id, after),
            ).fetchall()
        return [(seq, decode_payload(data)) for seq, data in rows]

    def close(self) -> None:
        with self._lock:
            self._conn.close()


def open_store(url: str | None, history_limit: int | None = None) -> JobStore:
    """Open the store a ``store_url`` names.

    ``None`` → :class:`MemoryJobStore` bounded by ``history_limit``;
    ``memory://`` likewise; ``sqlite:///path/to/file.db`` (the path is
    everything after ``sqlite://``) or a bare filesystem path →
    :class:`SqliteJobStore`, which keeps every record.
    """
    if url is None or url == "memory://":
        return MemoryJobStore(history_limit)
    if url.startswith("sqlite://"):
        path = url.removeprefix("sqlite://")
        if not path:
            raise ValueError(f"store url {url!r} names no database file")
        return SqliteJobStore(path)
    if url.startswith(("http://", "https://")):
        raise ValueError(f"unsupported store url scheme in {url!r}")
    directory = os.path.dirname(url)
    if directory and not os.path.isdir(directory):
        raise ValueError(f"store directory {directory!r} does not exist")
    return SqliteJobStore(url)
