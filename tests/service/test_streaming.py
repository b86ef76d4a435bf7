"""Job event streams: telemetry hooks, HTTP endpoint, client, CLI."""

from __future__ import annotations

import io
import json
import time
import urllib.request
from contextlib import redirect_stdout

import pytest

from repro.cli import main as cli_main
from repro.service import PlanningServer, ServiceClient
from repro.telemetry import emit_progress, progress_enabled, set_progress_sink

from .conftest import SLOW_HORIZON, plan_payload, sim_payload


@pytest.fixture
def service(make_manager):
    manager = make_manager()
    server = PlanningServer(("127.0.0.1", 0), manager).start()
    try:
        yield manager, ServiceClient(server.url, timeout=15.0)
    finally:
        server.stop()


class TestProgressSink:
    def teardown_method(self):
        set_progress_sink(None)

    def test_disabled_by_default(self):
        assert progress_enabled() is False
        emit_progress({"phase": "noop"})  # must not raise

    def test_sink_receives_events(self):
        seen = []
        set_progress_sink(seen.append)
        emit_progress({"phase": "x", "n": 1})
        assert seen == [{"phase": "x", "n": 1}]

    def test_throttle_drops_rapid_ticks(self):
        seen = []
        set_progress_sink(seen.append, min_interval=10.0)
        emit_progress({"n": 1})
        emit_progress({"n": 2})  # inside the window: dropped
        assert [e["n"] for e in seen] == [1]

    def test_non_finite_floats_become_none(self):
        seen = []
        set_progress_sink(seen.append)
        emit_progress({"bound": float("inf"), "gap": float("nan"), "ok": 1.5})
        assert seen == [{"bound": None, "gap": None, "ok": 1.5}]

    def test_sink_exceptions_are_swallowed(self):
        def explode(event):
            raise RuntimeError("sink died")

        set_progress_sink(explode)
        emit_progress({"n": 1})  # must not raise


class TestManagerEvents:
    def test_lifecycle_events_in_order(self, make_manager, state_doc):
        manager = make_manager()
        record = manager.submit("plan", plan_payload(state_doc))
        manager.wait(record.id, timeout=30.0)
        events, done = manager.events(record.id)
        assert done is True
        states = [e["state"] for e in events if e["type"] == "state"]
        assert states == ["queued", "running", "succeeded"]
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_after_filters_delivered_events(self, make_manager, state_doc):
        manager = make_manager()
        record = manager.submit("plan", plan_payload(state_doc))
        manager.wait(record.id, timeout=30.0)
        full, _ = manager.events(record.id)
        tail, done = manager.events(record.id, after=full[0]["seq"])
        assert done is True
        assert [e["seq"] for e in tail] == [e["seq"] for e in full[1:]]

    def test_branch_bound_jobs_emit_progress_ticks(
        self, make_manager, state_doc
    ):
        manager = make_manager()
        record = manager.submit(
            "plan", plan_payload(state_doc, backend="branch_bound")
        )
        manager.wait(record.id, timeout=30.0)
        events, _ = manager.events(record.id)
        ticks = [e for e in events if e["type"] == "progress"]
        assert ticks, "no solver progress reached the event stream"
        assert ticks[0]["phase"] == "branch_bound"
        assert ticks[0]["nodes_explored"] >= 1

    def test_cancelled_job_stream_terminates(self, make_manager, state_doc):
        manager = make_manager()
        record = manager.submit(
            "simulate", sim_payload(state_doc, SLOW_HORIZON)
        )
        manager.cancel(record.id)
        events, done = manager.events(record.id)
        assert done is True
        assert events[-1]["state"] == "cancelled"


class TestHttpStream:
    def test_stream_delivers_and_closes(self, service, state_doc):
        _, client = service
        job = client.submit("plan", plan_payload(state_doc))
        events = list(client.stream(job["id"]))
        states = [e["state"] for e in events if e["type"] == "state"]
        assert states == ["queued", "running", "succeeded"]

    def test_stream_resume_with_after(self, service, state_doc):
        _, client = service
        job = client.submit("plan", plan_payload(state_doc))
        client.wait(job["id"], timeout=30.0)
        full = list(client.stream(job["id"]))
        resumed = list(client.stream(job["id"], after=full[1]["seq"]))
        assert [e["seq"] for e in resumed] == [e["seq"] for e in full[2:]]

    def test_stream_is_chunked_ndjson(self, service, state_doc):
        manager, client = service
        job = client.submit("plan", plan_payload(state_doc))
        client.wait(job["id"], timeout=30.0)
        response = urllib.request.urlopen(
            f"{client.base_url}/jobs/{job['id']}/events", timeout=10.0
        )
        assert response.headers["Content-Type"] == "application/x-ndjson"
        assert response.headers.get("Transfer-Encoding") == "chunked"
        lines = [line for line in response.read().split(b"\n") if line]
        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["state"] == "succeeded"

    def test_live_stream_sees_events_before_completion(
        self, service, state_doc
    ):
        _, client = service
        job = client.submit("simulate", sim_payload(state_doc, SLOW_HORIZON))
        stream = client.stream(job["id"])
        first = next(stream)
        assert first["type"] == "state" and first["state"] == "queued"
        # The job is still running; the stream already delivered.
        assert client.job(job["id"])["state"] in ("queued", "running")
        client.cancel(job["id"])
        remaining = list(stream)
        assert remaining[-1]["state"] == "cancelled"


class TestWatchCli:
    def test_watch_prints_events_and_exit_code(self, service, state_doc):
        _, client = service
        job = client.submit("plan", plan_payload(state_doc))
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(
                ["watch", job["id"], "--url", client.base_url]
            )
        assert code == 0
        text = out.getvalue()
        assert "queued" in text and "succeeded" in text

    def test_watch_failed_job_exits_nonzero(self, service, state_doc):
        _, client = service
        bad = dict(plan_payload(state_doc))
        # Passes submit-time parsing, fails in the worker's MILP solve.
        bad["options"] = {"backend": "highs", "solver_options": {"node_limit": 5}}
        job = client.submit("plan", bad)
        client.wait(job["id"], timeout=30.0, raise_on_failure=False)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(["watch", job["id"], "--url", client.base_url])
        assert code == 1
        assert "failed" in out.getvalue()
