"""End-to-end tests of the HTTP API + :class:`ServiceClient`.

A real :class:`PlanningServer` is bound to an ephemeral port with a
real worker pool behind it; the client drives it over actual sockets.
The error contract is checked twice: against a replica and against a
one-replica cluster's dispatcher, which the same handler serves.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.service import PlanningServer, ServiceClient, ServiceError
from repro.service.cluster import ClusterHarness

from .conftest import SLOW_HORIZON, plan_payload, sim_payload


@pytest.fixture
def service(make_manager):
    """(manager, client) for a live server on an ephemeral port."""
    manager = make_manager()
    server = PlanningServer(("127.0.0.1", 0), manager).start()
    try:
        yield manager, ServiceClient(server.url, timeout=10.0)
    finally:
        server.stop()


@pytest.fixture(params=["replica", "dispatcher"])
def client(request):
    """A client of either front: a replica, or a dispatcher before one."""
    if request.param == "replica":
        yield request.getfixturevalue("service")[1]
        return
    with ClusterHarness(n_replicas=1, workers_per_replica=1) as cluster:
        yield ServiceClient(cluster.url, timeout=10.0)


def post_raw(client: ServiceClient, data: bytes) -> urllib.error.HTTPError:
    """POST ``data`` to ``/jobs`` as is; returns the error response."""
    request = urllib.request.Request(
        client.base_url + "/jobs", data=data, method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request, timeout=10.0)
    return err.value


class TestJobRoutes:
    def test_submit_poll_fetch_result(self, service, state_doc):
        _, client = service
        job = client.submit("plan", plan_payload(state_doc))
        assert job["state"] in ("queued", "running", "succeeded")
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "succeeded"
        assert done["via"] == "solve"
        assert done["result"]["summary"]["total_cost"] > 0
        assert done["result"]["plan"]["placement"]

    def test_client_state_conversion(self, service, tiny_state):
        # The client accepts a live AsIsState and wires it itself.
        _, client = service
        job = client.submit_plan(tiny_state, options={"backend": "highs"})
        done = client.wait(job["id"], timeout=60.0)
        assert len(done["result"]["summary"]["datacenters_used"]) >= 1

    def test_repeat_submission_is_a_cache_hit_over_http(
        self, service, state_doc
    ):
        _, client = service
        first = client.submit("plan", plan_payload(state_doc))
        client.wait(first["id"], timeout=60.0)
        second = client.submit("plan", plan_payload(state_doc))
        assert second["state"] == "succeeded"
        assert second["via"] == "cache"

    def test_listing_omits_result_bodies(self, service, state_doc):
        _, client = service
        job = client.submit("plan", plan_payload(state_doc))
        client.wait(job["id"], timeout=60.0)
        listed = client.jobs()
        assert any(j["id"] == job["id"] for j in listed)
        assert all("result" not in j for j in listed)

    def test_worker_killed_mid_job_retries_through_http(
        self, service, state_doc
    ):
        manager, client = service
        job = client.submit("simulate", sim_payload(state_doc, SLOW_HORIZON))
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if client.job(job["id"])["state"] == "running":
                break
            time.sleep(0.01)
        with manager._lock:
            worker = manager._worker_running(job["id"])
        assert worker is not None
        os.kill(worker.pid, signal.SIGKILL)
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "succeeded"
        assert done["attempts"] == 2
        assert client.metrics()["workers"]["restarts"] >= 1

    def test_cancel_running_job(self, service, state_doc):
        from .conftest import VERY_SLOW_HORIZON

        _, client = service
        job = client.submit(
            "simulate", sim_payload(state_doc, VERY_SLOW_HORIZON)
        )
        assert client.cancel(job["id"]) == {"cancelled": True}
        assert client.job(job["id"])["state"] == "cancelled"


class TestErrorMapping:
    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("doesnotexist")
        assert err.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/nope")
        assert err.value.status == 404

    def test_malformed_payload_is_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit("plan", {"options": {}})  # no state
        assert err.value.status == 400
        assert "state" in str(err.value)

    def test_unknown_kind_is_400(self, client, state_doc):
        with pytest.raises(ServiceError) as err:
            client.submit("transmogrify", plan_payload(state_doc))
        assert err.value.status == 400

    def test_string_timeout_is_400(self, client, state_doc):
        with pytest.raises(ServiceError) as err:
            client._request(
                "POST",
                "/jobs",
                {"kind": "plan", "payload": plan_payload(state_doc), "timeout": "10"},
            )
        assert err.value.status == 400
        # The replica's own message, not re-wrapped by a dispatcher.
        assert err.value.message == "field 'timeout' must be a number of seconds"

    def test_string_max_retries_is_400(self, client, state_doc):
        with pytest.raises(ServiceError) as err:
            client._request(
                "POST",
                "/jobs",
                {
                    "kind": "plan",
                    "payload": plan_payload(state_doc),
                    "max_retries": "2",
                },
            )
        assert err.value.status == 400
        assert "max_retries" in str(err.value)

    def test_non_json_body_is_400(self, client):
        err = post_raw(client, b"not json")
        assert err.code == 400
        assert b"request body is not valid JSON" in err.read()

    def test_non_object_body_is_400(self, client):
        err = post_raw(client, b"[1, 2]")
        assert err.code == 400
        assert json.loads(err.read()) == {"error": "request body must be a JSON object"}

    def test_unknown_job_cancel_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.cancel("doesnotexist")
        assert err.value.status == 404

    def test_unknown_job_events_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            list(client.stream("doesnotexist"))
        assert err.value.status == 404

    def test_bad_after_parameter_is_400(self, client, state_doc):
        job = client.submit("plan", plan_payload(state_doc))
        with pytest.raises(ServiceError) as err:
            list(client.stream(job["id"], after="bogus"))
        assert err.value.status == 400

    def test_cancelling_finished_job_is_409(self, client, state_doc):
        job = client.submit("plan", plan_payload(state_doc))
        client.wait(job["id"], timeout=60.0)
        with pytest.raises(ServiceError) as err:
            client.cancel(job["id"])
        assert err.value.status == 409


class TestIntrospectionRoutes:
    def test_healthz_reports_full_pool(self, service):
        _, client = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers_alive"] == health["workers_expected"]

    def test_metrics_shape(self, service, state_doc):
        _, client = service
        job = client.submit("plan", plan_payload(state_doc))
        client.wait(job["id"], timeout=60.0)
        stats = client.metrics()
        assert stats["jobs"]["by_state"]["succeeded"] >= 1
        assert stats["queue_depth"] == 0
        assert "service.jobs.submitted" in stats["counters"]
        # A solve ran, so its backend histogram must exist and be JSON.
        assert "highs" in stats["solve_seconds"]
        assert stats["solve_seconds"]["highs"]["count"] >= 1

    def test_draining_service_answers_503(self, make_manager, state_doc):
        manager = make_manager()
        server = PlanningServer(("127.0.0.1", 0), manager).start()
        client = ServiceClient(server.url, timeout=10.0)
        try:
            manager.shutdown(drain=True, timeout=10.0)
            health = client.healthz()  # tolerated 503
            assert health["status"] == "draining"
            with pytest.raises(ServiceError) as err:
                client.submit("plan", plan_payload(state_doc))
            assert err.value.status == 503
        finally:
            server.stop()
