"""ServiceClient transport behaviour: timeouts, retry, wire bodies, 429.

The solver never runs in most of these tests; they poke at the
connection-establishment path (monkeypatched ``socket.create_connection``
calls, raw-socket stub servers) and at admission control on a
deliberately tiny queue.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

import repro.service.client as client_module
from repro.service import (
    PlanningServer,
    QueueFullError,
    ServiceClient,
    ServiceError,
)

from .conftest import VERY_SLOW_HORIZON, plan_payload, sim_payload


@pytest.fixture
def service(make_manager):
    def boot(**overrides):
        manager = make_manager(**overrides)
        server = PlanningServer(("127.0.0.1", 0), manager).start()
        servers.append(server)
        return manager, server

    servers: list = []
    yield boot
    for server in servers:
        server.stop()


def closed_port() -> int:
    """A port that was just bound and released — nothing listens on it."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestConnectRetry:
    def test_refused_connection_fails_fast_without_retries(self):
        client = ServiceClient(
            f"http://127.0.0.1:{closed_port()}", connect_retries=0
        )
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.job("any")
        assert excinfo.value.status == 0
        assert "cannot reach" in str(excinfo.value)
        assert time.monotonic() - start < 2.0  # no backoff sleeps happened

    def test_refused_connection_retries_with_doubling_backoff(
        self, monkeypatch
    ):
        attempts = []
        naps = []
        real_create = socket.create_connection

        def refusing_create(address, *args, **kwargs):
            attempts.append(address)
            raise ConnectionRefusedError("test refusal")

        monkeypatch.setattr(
            client_module.socket, "create_connection", refusing_create
        )
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: naps.append(s)
        )
        client = ServiceClient(
            "http://127.0.0.1:1", connect_retries=3, retry_backoff=0.1
        )
        with pytest.raises(ServiceError) as excinfo:
            client.job("any")
        assert excinfo.value.status == 0
        assert len(attempts) == 4  # initial try + 3 retries
        assert naps == [0.1, 0.2, 0.4]
        monkeypatch.setattr(
            client_module.socket, "create_connection", real_create
        )

    def test_retry_rides_out_a_restarting_server(
        self, monkeypatch, service, state_doc
    ):
        manager, server = service()
        real_create = socket.create_connection
        failures = iter([ConnectionRefusedError("still booting")])

        def flaky_create(address, *args, **kwargs):
            exc = next(failures, None)
            if exc is not None:
                raise exc
            return real_create(address, *args, **kwargs)

        monkeypatch.setattr(
            client_module.socket, "create_connection", flaky_create
        )
        client = ServiceClient(
            server.url, timeout=30.0, connect_retries=2, retry_backoff=0.01
        )
        job = client.submit("plan", plan_payload(state_doc))
        assert client.wait(job["id"], timeout=60.0)["state"] == "succeeded"

    def test_errors_after_connect_are_not_retried(self, service):
        manager, server = service()
        client = ServiceClient(server.url, connect_retries=5)
        with pytest.raises(ServiceError) as excinfo:
            client.job("no-such-job")  # 404 must surface immediately
        assert excinfo.value.status == 404

    def test_connect_timeout_defaults_to_capped_read_timeout(self):
        assert ServiceClient("http://h", timeout=30.0).connect_timeout == 5.0
        assert ServiceClient("http://h", timeout=2.0).connect_timeout == 2.0
        client = ServiceClient("http://h", timeout=30.0, connect_timeout=1.5)
        assert client.connect_timeout == 1.5


class StubServer:
    """A raw TCP server that counts connections and answers each request
    with ``respond(conn)`` after reading its head and body."""

    def __init__(self, respond) -> None:
        self.respond = respond
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    chunk = conn.recv(65536)
                    if not chunk:
                        break
                    request += chunk
                head, _, body = request.partition(b"\r\n\r\n")
                for line in head.split(b"\r\n"):
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        while len(body) < int(value):
                            body += conn.recv(65536)
                if request:
                    self.respond(conn)

    def close(self) -> None:
        self._listener.close()


def json_reply(conn, body: bytes = b'{"jobs": []}') -> None:
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
    )


def broken_stream(conn) -> None:
    """A chunked event stream cut off before its closing chunk."""
    event = b'{"seq": 1, "ts": 0.0, "type": "state", "state": "running"}\n'
    conn.sendall(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n" % (len(event), event)
    )


@pytest.fixture
def stub():
    servers: list[StubServer] = []

    def boot(respond) -> StubServer:
        servers.append(StubServer(respond))
        return servers[-1]

    yield boot
    for server in servers:
        server.close()


class TestOneConnectionPerRequest:
    def test_each_request_opens_exactly_one_connection(self, stub):
        server = stub(json_reply)
        client = ServiceClient(server.url, timeout=5.0)
        for n in range(1, 4):
            assert client.jobs() == []
            assert server.connections == n
        client.submit("plan", {"state": {}})
        assert server.connections == 4

    def test_a_closed_port_fails_within_the_connect_timeout(self):
        client = ServiceClient(
            f"http://127.0.0.1:{closed_port()}",
            timeout=30.0,
            connect_timeout=1.0,
            connect_retries=0,
        )
        start = time.monotonic()
        with pytest.raises(ServiceError) as excinfo:
            client.jobs()
        assert excinfo.value.status == 0
        assert time.monotonic() - start < client.connect_timeout

    def test_only_plain_http_urls_are_accepted(self):
        for url in ("https://h", "h:8080", "http://"):
            with pytest.raises(ValueError):
                ServiceClient(url)

    def test_a_dropped_event_stream_raises_status_zero(self, stub):
        server = stub(broken_stream)
        events = ServiceClient(server.url, timeout=5.0).stream("job")
        assert next(events)["state"] == "running"
        with pytest.raises(ServiceError) as excinfo:
            next(events)
        assert excinfo.value.status == 0
        assert server.connections == 1

    def test_a_connection_closed_unanswered_raises_status_zero(self, stub):
        server = stub(lambda conn: None)
        client = ServiceClient(server.url, timeout=5.0, connect_retries=0)
        with pytest.raises(ServiceError) as excinfo:
            client.stream("job")
        assert excinfo.value.status == 0
        assert server.connections == 1


class TestBinaryClient:
    def test_wire_submission_roundtrips(self, service, state_doc):
        manager, server = service()
        client = ServiceClient(server.url, timeout=30.0, binary=True)
        job = client.submit("plan", plan_payload(state_doc))
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "succeeded"
        assert done["result"]["summary"]["total_cost"] > 0

    def test_wire_and_json_submissions_share_the_cache(
        self, service, state_doc
    ):
        manager, server = service()
        json_client = ServiceClient(server.url, timeout=30.0)
        wire_client = ServiceClient(server.url, timeout=30.0, binary=True)
        payload = plan_payload(state_doc)
        first = json_client.wait(
            json_client.submit("plan", payload)["id"], timeout=60.0
        )
        again = wire_client.submit("plan", payload)
        assert again["via"] == "cache"
        assert again["fingerprint"] == first["fingerprint"]


class TestAdmissionControl:
    def test_queue_full_is_429_with_retry_after(self, service, state_doc):
        manager, server = service(workers=1, max_queue_depth=1)
        client = ServiceClient(server.url, timeout=30.0)
        accepted = []
        rejection = None
        for n in range(4):  # 1 running + 1 queued; a later one must bounce
            doc = dict(state_doc)
            doc["name"] = f"adm-{n}"
            try:
                accepted.append(
                    client.submit(
                        "simulate", sim_payload(doc, VERY_SLOW_HORIZON)
                    )["id"]
                )
            except ServiceError as exc:
                rejection = exc
                break
        assert rejection is not None
        assert rejection.status == 429
        assert rejection.retry_after is not None
        assert rejection.retry_after >= 1.0
        # Everything that got a 201 is still alive and cancellable.
        for job_id in accepted:
            assert client.job(job_id)["state"] in ("queued", "running")
            assert client.cancel(job_id)["cancelled"] is True

    def test_manager_raises_queue_full_directly(self, make_manager, state_doc):
        manager = make_manager(workers=1, max_queue_depth=1)
        submitted = []
        with pytest.raises(QueueFullError) as excinfo:
            for n in range(4):
                doc = dict(state_doc)
                doc["name"] = f"direct-{n}"
                submitted.append(
                    manager.submit(
                        "simulate", sim_payload(doc, VERY_SLOW_HORIZON)
                    )
                )
        assert excinfo.value.retry_after >= 1.0
        for record in submitted:
            manager.cancel(record.id)
