"""A small stdlib client for the planning service HTTP API.

Accepts in-memory :class:`~repro.core.entities.AsIsState` objects and
converts them to the wire format, so driving a remote planner reads
like driving the local library::

    client = ServiceClient("http://127.0.0.1:8080")
    job = client.submit_plan(state, options={"backend": "highs"})
    done = client.wait(job["id"])  # follows the job's event stream
    print(done["result"]["summary"]["total_cost"])
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Iterator

from ..core.entities import AsIsState
from ..io.serialization import state_to_dict
from ..io.wire import WIRE_CONTENT_TYPE, encode_payload

#: Terminal job states, as the wire spells them.
TERMINAL = ("succeeded", "failed", "cancelled", "timeout")


class ServiceError(RuntimeError):
    """The service answered with an error status (or not at all).

    ``retry_after`` carries the server's ``Retry-After`` header (as
    seconds) when admission control answered 429, else ``None``.
    """

    def __init__(
        self, status: int, message: str, retry_after: float | None = None
    ) -> None:
        self.status = status
        self.message = message
        self.retry_after = retry_after
        super().__init__(f"HTTP {status}: {message}")


class JobFailedError(RuntimeError):
    """A waited-on job reached a non-success terminal state."""

    def __init__(self, job: dict[str, Any]) -> None:
        self.job = job
        super().__init__(
            f"job {job.get('id')} ended {job.get('state')}: {job.get('error')}"
        )


def _state_payload(state: "AsIsState | dict") -> dict:
    return state_to_dict(state) if isinstance(state, AsIsState) else dict(state)


def _is_connection_refused(exc: urllib.error.URLError) -> bool:
    reason = getattr(exc, "reason", None)
    return isinstance(reason, (ConnectionRefusedError, ConnectionResetError))


class ServiceClient:
    """Typed convenience wrapper over the JSON API.

    ``timeout`` bounds each read; ``connect_timeout`` (default: the
    read timeout capped at 5 s) bounds connection establishment, so a
    black-holed replica cannot stall a caller for the full read budget.
    A connection *refused* — the replica is restarting, nothing was
    processed — is retried ``connect_retries`` times with doubling
    backoff before giving up; errors after the connection is up are
    never retried here (the dispatcher owns failover policy).

    ``binary=True`` posts submissions in the compact wire format
    (:mod:`repro.io.wire`) instead of JSON — same payloads, smaller
    bodies and no JSON float round-trip for big states.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        connect_timeout: float | None = None,
        connect_retries: int = 2,
        retry_backoff: float = 0.2,
        binary: bool = False,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.connect_timeout = (
            min(timeout, 5.0) if connect_timeout is None else connect_timeout
        )
        self.connect_retries = connect_retries
        self.retry_backoff = retry_backoff
        self.binary = binary

    # -- transport ---------------------------------------------------------

    def _open(self, request: urllib.request.Request, timeout: float):
        """urlopen with connect/read phases timed separately.

        urllib exposes one deadline for the whole exchange; probing the
        connection first with ``connect_timeout`` splits it so "host is
        down" fails in seconds while a long solve may still stream its
        response for the full read timeout.
        """
        parsed = urllib.parse.urlsplit(request.full_url)
        port = parsed.port or (443 if parsed.scheme == "https" else 80)
        probe = socket.create_connection(
            (parsed.hostname, port), timeout=self.connect_timeout
        )
        probe.close()
        return urllib.request.urlopen(request, timeout=timeout)

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        tolerate: tuple[int, ...] = (),
    ) -> dict[str, Any]:
        if body is None:
            data, content_type = None, None
        elif self.binary and method == "POST":
            data, content_type = encode_payload(body), WIRE_CONTENT_TYPE
        else:
            data, content_type = json.dumps(body).encode("utf-8"), "application/json"
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": content_type} if data else {},
        )
        attempt = 0
        while True:
            try:
                with self._open(request, timeout=self.timeout) as response:
                    return json.loads(response.read().decode("utf-8"))
            except urllib.error.HTTPError as exc:
                raw = exc.read().decode("utf-8", errors="replace")
                try:
                    parsed = json.loads(raw)
                except json.JSONDecodeError:
                    parsed = None
                if exc.code in tolerate and isinstance(parsed, dict):
                    return parsed
                message = (
                    parsed.get("error", exc.reason)
                    if isinstance(parsed, dict)
                    else exc.reason
                )
                retry_after = exc.headers.get("Retry-After")
                raise ServiceError(
                    exc.code,
                    message,
                    retry_after=float(retry_after) if retry_after else None,
                ) from None
            except (urllib.error.URLError, OSError) as exc:
                refused = (
                    isinstance(exc, urllib.error.URLError)
                    and _is_connection_refused(exc)
                ) or isinstance(exc, (ConnectionRefusedError, ConnectionResetError))
                if refused and attempt < self.connect_retries:
                    time.sleep(self.retry_backoff * (2**attempt))
                    attempt += 1
                    continue
                reason = getattr(exc, "reason", exc)
                raise ServiceError(
                    0, f"cannot reach {self.base_url}: {reason}"
                ) from None

    # -- job submission ----------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: dict[str, Any],
        timeout: float | None = None,
        max_retries: int | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"kind": kind, "payload": payload}
        if timeout is not None:
            body["timeout"] = timeout
        if max_retries is not None:
            body["max_retries"] = max_retries
        return self._request("POST", "/jobs", body)

    def submit_plan(
        self, state: "AsIsState | dict", options: dict | None = None, **submit_kwargs
    ) -> dict[str, Any]:
        payload = {"state": _state_payload(state), "options": options or {}}
        return self.submit("plan", payload, **submit_kwargs)

    def submit_compare(
        self, state: "AsIsState | dict", options: dict | None = None, **submit_kwargs
    ) -> dict[str, Any]:
        payload = {"state": _state_payload(state), "options": options or {}}
        return self.submit("compare", payload, **submit_kwargs)

    def submit_simulate(
        self,
        state: "AsIsState | dict",
        options: dict | None = None,
        simulation: dict | None = None,
        **submit_kwargs,
    ) -> dict[str, Any]:
        payload = {
            "state": _state_payload(state),
            "options": options or {},
            "simulation": simulation or {},
        }
        return self.submit("simulate", payload, **submit_kwargs)

    def submit_refine(
        self,
        state: "AsIsState | dict",
        directives: list[dict],
        session: str = "default",
        options: dict | None = None,
        **submit_kwargs,
    ) -> dict[str, Any]:
        """Submit a refine step: the *cumulative* directive list.

        Sending the full list every time keeps refine jobs idempotent
        (safe to retry after a worker death) while still re-solving
        incrementally: the pinned worker applies only the new suffix to
        its warm session.
        """
        payload = {
            "state": _state_payload(state),
            "options": options or {},
            "session": session,
            "directives": directives,
        }
        return self.submit("refine", payload, **submit_kwargs)

    # -- reads -------------------------------------------------------------

    def job(self, job_id: str) -> dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        return self._request("GET", "/jobs")["jobs"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        timeout: float = 120.0,
        raise_on_failure: bool = True,
    ) -> dict[str, Any]:
        """Block until the job is terminal; returns the final record.

        Follows the job's event stream to its terminal ``state`` event,
        then reads the record once.  A stream that ends or breaks before
        that resumes from the last ``seq`` it delivered, until
        ``timeout`` runs out.
        """
        deadline = time.monotonic() + timeout
        after = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining > 0:
                try:
                    events = self.stream(job_id, after=after, timeout=remaining)
                    try:
                        for event in events:
                            after = max(after, event["seq"])
                            if (
                                event.get("type") == "state"
                                and event.get("state") in TERMINAL
                            ):
                                break
                    finally:
                        events.close()
                except ServiceError as exc:
                    if exc.status != 0:
                        raise
            record = self.job(job_id)
            if record["state"] in TERMINAL:
                if raise_on_failure and record["state"] != "succeeded":
                    raise JobFailedError(record)
                return record
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after {timeout}s"
                )

    # -- streaming ---------------------------------------------------------

    def stream(
        self, job_id: str, after: int = 0, timeout: float | None = None
    ) -> Iterator[dict[str, Any]]:
        """The job's events, live, until it reaches a terminal state.

        Wraps ``GET /jobs/{id}/events`` (chunked ndjson); each yielded
        dict has at least ``seq``/``ts``/``type``.  ``after`` resumes a
        broken stream without replaying delivered events.  ``timeout``
        bounds the *read gap between events*, not the whole stream — a
        healthy long solve ticks progress well inside it.

        The request is made now, so an unknown job or an unreachable
        service raises :class:`ServiceError` here.  The returned
        iterator ends when the server closes the stream (after the
        terminal event); a stream that breaks instead — the server went
        away, or no event came within ``timeout`` — raises
        :class:`ServiceError` with status 0.
        """
        request = urllib.request.Request(
            f"{self.base_url}/jobs/{job_id}/events?after={after}", method="GET"
        )
        try:
            response = self._open(
                request, timeout=self.timeout if timeout is None else timeout
            )
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(raw).get("error", exc.reason)
            except (json.JSONDecodeError, AttributeError):
                message = exc.reason
            raise ServiceError(exc.code, message) from None
        except (urllib.error.URLError, OSError) as exc:
            reason = getattr(exc, "reason", exc)
            raise ServiceError(0, f"cannot reach {self.base_url}: {reason}") from None
        return self._events(response)

    def _events(self, response) -> Iterator[dict[str, Any]]:
        with response:
            try:
                # read1 returns what the next chunk holds, blocking until
                # it arrives, and b"" only for the closing chunk: a
                # connection dropped without one raises IncompleteRead
                # (readline would swallow that and look like an end).
                pending = b""
                while data := response.read1():
                    *lines, pending = (pending + data).split(b"\n")
                    for line in lines:
                        if line.strip():
                            yield json.loads(line.decode("utf-8"))
            except (OSError, http.client.HTTPException) as exc:
                raise ServiceError(
                    0, f"event stream from {self.base_url} broke: {exc!r}"
                ) from None

    # -- service introspection ---------------------------------------------

    def healthz(self) -> dict[str, Any]:
        # A degraded/draining service answers 503 with the same body.
        return self._request("GET", "/healthz", tolerate=(503,))

    def metrics(self) -> dict[str, Any]:
        return self._request("GET", "/metrics")
