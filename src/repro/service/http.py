"""The stdlib HTTP JSON API of ``etransform serve`` and ``etransform dispatch``.

One handler serves both.  The server wraps a *front*: a
:class:`JobManager` (a replica) or a
:class:`~repro.service.cluster.dispatcher.Dispatcher` (the cluster's
front door).  Both fronts answer the same calls — ``submit``, ``get``,
``jobs``, ``follow``, ``cancel``, ``healthz``, ``stats`` — and raise the
same exceptions, so every route below works identically on either.

Routes::

    POST   /jobs          {"kind": ..., "payload": {...},
                           "timeout": s?, "max_retries": n?}   → 201 job
    GET    /jobs          list of job summaries (no result bodies)
    GET    /jobs/{id}     full job record, result included       → 200/404
    GET    /jobs/{id}/events   chunked ndjson event stream
                          (?after=N resumes mid-stream)          → 200/404
    DELETE /jobs/{id}     cancel                                 → 200/404/409
    GET    /healthz       liveness + worker or replica census    → 200/503
    GET    /metrics       queues, jobs, cache, counters          → 200

Errors are JSON too: ``{"error": "..."}`` with 400 for malformed
requests, 404 for unknown ids, 409 for cancelling a finished job, 429
with a ``Retry-After`` header when admission control rejects a
submission (on a dispatcher: when every replica did), 502 when a
replica answers a dispatcher with anything but a 4xx, and 503 while
draining or with no healthy replica.  ``POST /jobs`` bodies may be
JSON or the compact binary wire format (``Content-Type:
application/x-etransform-wire``, :mod:`repro.io.wire`).  Built on
:class:`http.server.ThreadingHTTPServer` — requests are cheap
bookkeeping; all heavy lifting happens on the worker pool, so
thread-per-request is plenty (the event stream ties up one thread per
watcher, blocked until its job's next event: a manager front wakes it
from a condition its job table notifies, a dispatcher front from the
replica stream it relays).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import urllib.parse
import weakref
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable

from ..io.wire import WIRE_CONTENT_TYPE, WireFormatError, decode_payload
from .client import ServiceError
from .cluster.dispatcher import Dispatcher
from .config import ServiceConfig
from .executor import PayloadError
from .jobs import JobRecord
from .manager import (
    JobManager,
    QueueFullError,
    ServiceUnavailableError,
    UnknownJobError,
)

#: What a front raises for a request it cannot serve (see ``_fail``).
_FRONT_ERRORS = (UnknownJobError, QueueFullError, ServiceUnavailableError, ServiceError)

#: Sockets to close in forked children (see below).
_FORK_CLOSED_SOCKETS: "weakref.WeakSet" = weakref.WeakSet()
_FORK_HOOK = threading.Event()


def _close_sockets_in_child() -> None:  # pragma: no cover - runs post-fork
    for sock in list(_FORK_CLOSED_SOCKETS):
        try:
            sock.close()
        except OSError:
            pass


def register_server_socket(sock) -> None:
    """Make ``sock`` die with any forked child (solver workers).

    ``fork`` copies the whole FD table, so a worker forked while some
    *other* replica's HTTP server is listening in this process keeps
    that listening socket alive after the replica closes it — the port
    then accepts connections into a backlog nothing ever drains, and
    clients hang instead of getting the prompt connection-refused the
    failover path relies on.  An accepted connection has the same
    problem: a child's copy of an open event stream keeps it open after
    its server dropped it, so the reader never sees the end it fails
    over on.  Closing every registered socket in the ``after_in_child``
    fork hook restores honest death semantics.
    """
    if not _FORK_HOOK.is_set():
        _FORK_HOOK.set()
        os.register_at_fork(after_in_child=_close_sockets_in_child)
    _FORK_CLOSED_SOCKETS.add(sock)


def _record_dict(
    record: "JobRecord | dict[str, Any]", include_result: bool = True
) -> dict[str, Any]:
    """A front's job record as the wire dict.

    The manager returns :class:`JobRecord` objects; the dispatcher
    relays the replicas' dicts as they came.
    """
    if isinstance(record, JobRecord):
        return record.to_dict(include_result=include_result)
    return record


class PlanningRequestHandler(BaseHTTPRequestHandler):
    server_version = "etransform-planning/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    @property
    def front(self) -> "JobManager | Dispatcher":
        return self.server.front  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def _send_json(
        self,
        status: int,
        body: dict[str, Any],
        headers: dict[str, str] | None = None,
    ) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _error(
        self, status: int, message: str, headers: dict[str, str] | None = None
    ) -> None:
        self._send_json(status, {"error": message}, headers=headers)

    def _fail(self, exc: Exception) -> None:
        """Answer with the status ``exc`` maps to (one contract, both fronts)."""
        headers = None
        message = str(exc)
        if isinstance(exc, UnknownJobError):
            status, message = 404, "no such job"
        elif isinstance(exc, QueueFullError):
            status = 429
            headers = {"Retry-After": f"{exc.retry_after:.0f}"}
        elif isinstance(exc, ServiceUnavailableError):
            status = 503
        elif isinstance(exc, ServiceError):
            # A replica's answer relayed by the dispatcher: its 4xx
            # verdict stands; anything else is a bad gateway.
            status = exc.status if 400 <= exc.status < 500 else 502
            message = exc.message
        else:  # PayloadError, ValueError, TypeError: a malformed request
            status = 400
        self._error(status, message, headers=headers)

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise PayloadError("request body must be a JSON object")
        content_type = (self.headers.get("Content-Type") or "").split(";")[0].strip()
        if content_type == WIRE_CONTENT_TYPE:
            try:
                body = decode_payload(raw)
            except WireFormatError as exc:
                raise PayloadError(f"malformed wire body: {exc}") from exc
        else:
            try:
                body = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise PayloadError(
                    f"request body is not valid JSON: {exc.msg}"
                ) from exc
        if not isinstance(body, dict):
            raise PayloadError("request body must be a JSON object")
        return body

    def _write_chunk(self, data: bytes) -> None:
        """One HTTP/1.1 chunk; an empty ``data`` terminates the stream."""
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = urllib.parse.urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        try:
            if path.startswith("/jobs/") and path.endswith("/events"):
                job_id = path.removeprefix("/jobs/").removesuffix("/events")
                query = urllib.parse.parse_qs(parts.query)
                try:
                    after = int(query.get("after", ["0"])[0])
                except ValueError:
                    self._error(400, "query parameter 'after' must be an integer")
                    return
                self._stream_events(job_id, after)
            elif path == "/healthz":
                health = self.front.healthz()
                self._send_json(200 if health["status"] == "ok" else 503, health)
            elif path == "/metrics":
                self._send_json(200, self.front.stats())
            elif path == "/jobs":
                jobs = self.front.jobs()
                self._send_json(
                    200,
                    {"jobs": [_record_dict(job, include_result=False) for job in jobs]},
                )
            elif path.startswith("/jobs/"):
                record = self.front.get(path.removeprefix("/jobs/"))
                self._send_json(200, _record_dict(record))
            else:
                self._error(404, f"no route {self.path!r}")
        except _FRONT_ERRORS as exc:
            self._fail(exc)

    def _stream_events(self, job_id: str, after: int) -> None:
        """``GET /jobs/{id}/events``: chunked ndjson until terminal.

        One JSON event per line, written the moment the front yields
        it, so a watcher sees queue/dispatch transitions and solver
        progress ticks live.  The stream closes itself once the job
        reaches a terminal state (the final ``state`` event is always
        delivered first).  If the front cannot go on (it is shutting
        down, or the record vanished), the connection is dropped
        without the closing chunk, so the reader knows the stream broke
        rather than ended and can resume elsewhere with ``?after=``.
        """
        events = self.front.follow(job_id, after)  # 404 before headers
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.send_header("Cache-Control", "no-cache")
            self.end_headers()
            for event in events:
                self._write_chunk(json.dumps(event).encode("utf-8") + b"\n")
            self._write_chunk(b"")
        except (BrokenPipeError, ConnectionResetError, *_FRONT_ERRORS):
            self.close_connection = True
        finally:
            events.close()

    def do_POST(self) -> None:  # noqa: N802
        if self.path.rstrip("/") != "/jobs":
            self._error(404, f"no route {self.path!r}")
            return
        try:
            body = self._read_body()
            kind = body.get("kind")
            if not isinstance(kind, str):
                raise PayloadError("field 'kind' must be a job kind string")
            record = self.front.submit(
                kind,
                body.get("payload") or {},
                timeout=body.get("timeout"),
                max_retries=body.get("max_retries"),
            )
        except (*_FRONT_ERRORS, PayloadError, ValueError, TypeError) as exc:
            self._fail(exc)
        else:
            self._send_json(201, _record_dict(record))

    def do_DELETE(self) -> None:  # noqa: N802
        if not self.path.startswith("/jobs/"):
            self._error(404, f"no route {self.path!r}")
            return
        try:
            cancelled = self.front.cancel(self.path.rstrip("/").removeprefix("/jobs/"))
        except _FRONT_ERRORS as exc:
            self._fail(exc)
            return
        if cancelled:
            self._send_json(200, {"cancelled": True})
        else:
            self._error(409, "job already finished")


class PlanningServer(ThreadingHTTPServer):
    """The HTTP front end over ``front``; owns the socket and, once
    :meth:`start` ran, the thread serving it."""

    daemon_threads = True

    def process_request(self, request, client_address) -> None:
        register_server_socket(request)
        super().process_request(request, client_address)

    def __init__(
        self,
        address: tuple[str, int],
        front: "JobManager | Dispatcher",
        verbose: bool = False,
    ) -> None:
        super().__init__(address, PlanningRequestHandler)
        register_server_socket(self.socket)
        self.front = front
        self.verbose = verbose
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self, name: str = "planning-http") -> "PlanningServer":
        """Serve from a daemon thread (in-process replicas, clusters, tests)."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the :meth:`start` thread, if any, and close the socket."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()


def serve(
    front: "JobManager | Dispatcher",
    host: str,
    port: int,
    label: str,
    detail: str,
    verbose: bool = False,
) -> int:
    """Serve a started ``front`` until SIGTERM/SIGINT, then shut it down.

    The one serve loop of ``etransform serve`` and ``etransform
    dispatch``.  ``port 0`` binds an ephemeral port; the banner
    ``<label> listening on <url> (<detail>)`` names the bound address
    (replica harnesses parse it).  ``front.shutdown()`` returns whether
    it stopped cleanly: exit code 0 if so, 1 otherwise.
    """
    try:
        server = PlanningServer((host, port), front, verbose=verbose)
    except OSError as exc:
        front.shutdown()
        print(f"cannot bind {host}:{port}: {exc}")
        return 1

    def _request_stop(signum, frame):
        # Wake serve_forever promptly; shutdown() must come from
        # another thread than the serving one.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    print(f"{label} listening on {server.url} ({detail})", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
        clean = front.shutdown()
        print(
            f"{label} stopped "
            + ("(drained cleanly)" if clean else "(drain timed out)"),
            flush=True,
        )
    return 0 if clean else 1


def run_service(config: ServiceConfig, verbose: bool = False) -> int:
    """The ``etransform serve`` entry point: a :class:`JobManager` front.

    On SIGTERM the service drains: in-flight and queued jobs finish (up
    to ``drain_timeout``), workers exit, then the process does.
    """
    return serve(
        JobManager(config).start(),
        config.host,
        config.port,
        "planning service",
        f"{config.workers} workers, journal={config.journal_path or 'off'}",
        verbose=verbose,
    )


def run_dispatcher(
    replicas: Iterable[str],
    host: str = "127.0.0.1",
    port: int = 8079,
    store_url: str | None = None,
    cache_size: int = 256,
    health_interval: float = 1.0,
    verbose: bool = False,
) -> int:
    """The ``etransform dispatch`` entry point: a :class:`Dispatcher` front."""
    dispatcher = Dispatcher(
        replicas,
        store_url=store_url,
        cache_size=cache_size,
        health_interval=health_interval,
    ).start()
    healthy = len(dispatcher.healthy_replicas())
    return serve(
        dispatcher,
        host,
        port,
        "cluster dispatcher",
        f"{healthy}/{len(dispatcher.replicas)} replicas healthy",
        verbose=verbose,
    )
