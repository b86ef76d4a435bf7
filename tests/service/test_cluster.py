"""The cluster tier end to end: dispatcher + replicas + shared store.

Real HTTP on ephemeral ports throughout; replicas are in-process (the
solver work still forks worker processes) so deaths and restarts are
cheap to orchestrate.
"""

from __future__ import annotations

import time

import pytest

from repro.service import (
    QueueFullError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceUnavailableError,
    UnknownJobError,
)
from repro.service.cluster import (
    ClusterHarness,
    Dispatcher,
    InProcessReplica,
    routing_key,
)
from repro.service.cluster.store import SqliteJobStore
from repro.service.jobs import JobKind

from .conftest import SLOW_HORIZON, VERY_SLOW_HORIZON, plan_payload, sim_payload


@pytest.fixture
def cluster(tmp_path):
    with ClusterHarness(
        n_replicas=2,
        workers_per_replica=1,
        store_url=f"sqlite://{tmp_path}/jobs.db",
        job_timeout=60.0,
    ) as harness:
        yield harness


@pytest.fixture
def cluster_client(cluster):
    return ServiceClient(cluster.url, timeout=30.0)


def distinct_state(state_doc: dict, tag: str) -> dict:
    """A copy of ``state_doc`` with a different identity (new shard key)."""
    doc = dict(state_doc)
    doc["name"] = f"{state_doc.get('name', 'state')}-{tag}"
    return doc


class TestRoutingAndCache:
    def test_submit_through_dispatcher_completes(self, cluster_client, state_doc):
        job = cluster_client.submit("plan", plan_payload(state_doc))
        done = cluster_client.wait(job["id"], timeout=60.0)
        assert done["state"] == "succeeded"
        assert done["result"]["summary"]["total_cost"] > 0
        assert done["replica"] in ("replica-0", "replica-1")

    def test_same_state_routes_to_same_replica(self, cluster_client, state_doc):
        # Different options → different fingerprints, same state → the
        # shard key (and therefore the replica) must match.
        first = cluster_client.wait(
            cluster_client.submit(
                "plan", plan_payload(state_doc, backend="highs")
            )["id"],
            timeout=60.0,
        )
        second = cluster_client.wait(
            cluster_client.submit(
                "plan", plan_payload(state_doc, backend="auto")
            )["id"],
            timeout=60.0,
        )
        assert first["replica"] == second["replica"]

    def test_routing_key_ignores_non_state_payload(self, state_doc):
        plan_key = routing_key(JobKind.PLAN, plan_payload(state_doc))
        refine_key = routing_key(
            JobKind.REFINE,
            {"state": state_doc, "directives": [], "session": "s"},
        )
        assert plan_key == refine_key  # plan + refine co-locate

    def test_shared_cache_hit_on_resubmission(self, cluster_client, state_doc):
        payload = plan_payload(state_doc)
        job = cluster_client.submit("plan", payload)
        cluster_client.wait(job["id"], timeout=60.0)  # wait() feeds the cache
        again = cluster_client.submit("plan", payload)
        assert again["state"] == "succeeded"
        assert again["via"] in ("dispatcher-cache", "cache")
        assert again["result"]["summary"]["total_cost"] > 0
        # The synthesized record is retrievable like any other.
        fetched = cluster_client.job(again["id"])
        assert fetched["state"] == "succeeded"


class TestRouteParity:
    """What a replica serves, the dispatcher serves the same way."""

    def test_binary_wire_submission(self, cluster, tiny_state):
        client = ServiceClient(cluster.url, timeout=30.0, binary=True)
        job = client.submit_plan(tiny_state, options={"backend": "highs"})
        done = client.wait(job["id"], timeout=60.0)
        assert done["result"]["summary"]["total_cost"] > 0

    def test_listing_covers_replica_and_cache_born_jobs(
        self, cluster_client, state_doc
    ):
        payload = plan_payload(state_doc)
        solved = cluster_client.wait(
            cluster_client.submit("plan", payload)["id"], timeout=60.0
        )
        again = cluster_client.submit("plan", payload)
        assert again["via"] == "dispatcher-cache"
        listed = {job["id"]: job for job in cluster_client.jobs()}
        assert {solved["id"], again["id"]} <= set(listed)
        assert listed[solved["id"]]["state"] == "succeeded"
        assert all("result" not in job for job in listed.values())


class TestReplicaFailure:
    def test_result_survives_owning_replica_death(
        self, cluster, cluster_client, state_doc
    ):
        job = cluster_client.submit("plan", plan_payload(state_doc))
        done = cluster_client.wait(job["id"], timeout=60.0)
        owner_index = int(done["replica"].rsplit("-", 1)[1])
        cluster.replicas[owner_index].stop()  # abrupt replica death
        fetched = cluster_client.job(job["id"])
        assert fetched["state"] == "succeeded"
        assert fetched["result"]["summary"]["total_cost"] > 0
        events = list(cluster_client.stream(job["id"]))
        assert events and events[-1].get("state") == "succeeded"

    def test_pending_job_completes_after_replica_restart(
        self, cluster, cluster_client, state_doc
    ):
        # Occupy the single worker of the shard replica with a very
        # slow simulation, then queue a plan behind it.
        sim = cluster_client.submit(
            "simulate", sim_payload(state_doc, VERY_SLOW_HORIZON)
        )
        owner_id = sim["replica"]
        owner_index = int(owner_id.rsplit("-", 1)[1])
        plan_state = distinct_state(state_doc, "restartable")
        # Steer the plan to the same replica by submitting directly.
        replica_url = cluster.replicas[owner_index].url
        direct = ServiceClient(replica_url, timeout=30.0)
        plan = direct.submit("plan", plan_payload(plan_state))
        assert cluster_client.job(plan["id"])["state"] in ("queued", "running")

        replica = cluster.replicas[owner_index]
        host, port = replica.server.server_address[:2]
        replica.stop()  # dies with one running + one queued job

        restarted = InProcessReplica(
            replica.config.replace(port=port)
        ).start()
        cluster.replicas[owner_index] = restarted  # harness tears it down
        done = cluster_client.wait(plan["id"], timeout=60.0)
        assert done["state"] == "succeeded"
        assert done["result"]["summary"]["total_cost"] > 0
        # The recovery left its trace in the event stream.
        events, _ = restarted.manager.events(plan["id"])
        assert any(e.get("recovered") for e in events)
        # Cross-replica cancellation: stop the re-adopted slow sim; its
        # event stream ends on the cancellation.
        assert cluster_client.cancel(sim["id"])["cancelled"] is True
        cancelled = cluster_client.wait(
            sim["id"], timeout=15.0, raise_on_failure=False
        )
        assert cancelled["state"] == "cancelled"
        assert cluster_client.job(sim["id"])["state"] == "cancelled"

    def test_dispatcher_stream_survives_owner_restart(
        self, cluster, cluster_client, state_doc
    ):
        job = cluster_client.submit(
            "simulate", sim_payload(distinct_state(state_doc, "relay"), SLOW_HORIZON)
        )
        owner_index = int(job["replica"].rsplit("-", 1)[1])
        stream = cluster_client.stream(job["id"], timeout=60.0)
        events = []
        for event in stream:
            events.append(event)
            if event.get("state") == "running":
                break
        replica = cluster.replicas[owner_index]
        port = replica.server.server_address[1]
        replica.stop()  # the owner dies mid-job, its stream with it
        restarted = InProcessReplica(replica.config.replace(port=port)).start()
        cluster.replicas[owner_index] = restarted
        events.extend(stream)
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(1, len(seqs) + 1))  # each once, in order
        assert any(event.get("recovered") for event in events)
        assert events[-1]["type"] == "state"
        assert events[-1]["state"] == "succeeded"

    def test_eviction_and_readd(self, cluster, cluster_client, state_doc):
        dispatcher = cluster.dispatcher
        victim = cluster.replicas[0]
        host, port = victim.server.server_address[:2]
        victim.stop()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(dispatcher.healthy_replicas()) == 1:
                break
            time.sleep(0.05)
        assert len(dispatcher.healthy_replicas()) == 1  # evicted

        # Every submission routes around the dead replica.
        for tag in ("a", "b", "c"):
            job = cluster_client.submit(
                "plan", plan_payload(distinct_state(state_doc, tag))
            )
            done = cluster_client.wait(job["id"], timeout=60.0)
            assert done["replica"] == "replica-1"

        restarted = InProcessReplica(victim.config.replace(port=port)).start()
        cluster.replicas[0] = restarted
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if len(dispatcher.healthy_replicas()) == 2:
                break
            time.sleep(0.05)
        assert len(dispatcher.healthy_replicas()) == 2  # re-added

    def test_no_replicas_is_503(self, tmp_path, state_doc):
        dispatcher = Dispatcher(
            ["http://127.0.0.1:9"],  # port 9: discard protocol, nothing there
            eviction_threshold=1,
        )
        dispatcher.probe(dispatcher.replicas[0])
        assert dispatcher.healthy_replicas() == []
        with pytest.raises(ServiceUnavailableError):
            dispatcher.submit("plan", plan_payload(state_doc))
        # With no replica and no store, no id is known anywhere.
        with pytest.raises(UnknownJobError):
            dispatcher.get("ghost")
        with pytest.raises(UnknownJobError):
            dispatcher.cancel("ghost")
        with pytest.raises(UnknownJobError):
            dispatcher.follow("ghost")


class TestDispatcherHistory:
    def test_cache_born_records_are_bounded(self, cluster, cluster_client, state_doc):
        dispatcher = cluster.dispatcher
        assert dispatcher._history_limit == ServiceConfig().job_history_limit
        dispatcher._history_limit = 50  # the default bound, scaled down
        payload = plan_payload(state_doc)
        cluster_client.wait(cluster_client.submit("plan", payload)["id"], timeout=60.0)
        ids = []
        for _ in range(200):
            again = cluster_client.submit("plan", payload)
            assert again["via"] == "dispatcher-cache"
            ids.append(again["id"])
        assert len(dispatcher._local) <= 50
        listed = {job["id"] for job in cluster_client.jobs()}
        assert set(ids[-50:]) <= listed
        assert ids[0] not in listed


class _NoSleep:
    """Stands in for a module's ``time``: everything but ``sleep``."""

    def __init__(self) -> None:
        self.calls: list[float] = []

    def __getattr__(self, name):
        return getattr(time, name)

    def sleep(self, seconds: float) -> None:
        self.calls.append(seconds)
        raise AssertionError(f"time.sleep({seconds}) on the job path")


class TestNoSleepPolling:
    """Every hop of the job path waits on events, never in a sleep."""

    @pytest.fixture
    def sleepless(self, monkeypatch):
        import repro.service.cluster.dispatcher as dispatcher_module
        import repro.service.http as http_module
        import repro.service.manager as manager_module

        stand_in = _NoSleep()
        for module in (manager_module, http_module, dispatcher_module):
            monkeypatch.setattr(module, "time", stand_in, raising=False)
        return stand_in

    @staticmethod
    def follow_to_end(client, job_id, until=None):
        """The job's events through the dispatcher's stream; ``until``,
        a ``(state, action)`` pair, runs the action when that state
        event arrives."""
        events = []
        for event in client.stream(job_id, timeout=60.0):
            events.append(event)
            if until is not None and event.get("state") == until[0]:
                until[1]()
        return events

    def test_plan_refine_cancel_and_timeout(self, sleepless, tmp_path, state_doc):
        with ClusterHarness(
            n_replicas=1,
            workers_per_replica=1,
            store_url=f"sqlite://{tmp_path}/jobs.db",
            job_timeout=60.0,
        ) as cluster:
            client = ServiceClient(cluster.url, timeout=30.0)
            plan = client.submit("plan", plan_payload(state_doc))
            refine = client.submit(
                "refine",
                {
                    "state": state_doc,
                    "options": {"backend": "highs"},
                    "session": "adm",
                    "directives": [{"kind": "retire_site", "datacenter": "cheap-far"}],
                },
            )
            slow = client.submit("simulate", sim_payload(state_doc, VERY_SLOW_HORIZON))
            expiring = client.submit(
                "simulate",
                sim_payload(distinct_state(state_doc, "expiring"), VERY_SLOW_HORIZON),
                timeout=0.5,
            )
            finals = {
                "plan": self.follow_to_end(client, plan["id"]),
                "refine": self.follow_to_end(client, refine["id"]),
                "cancel": self.follow_to_end(
                    client, slow["id"], until=("running", lambda: client.cancel(slow["id"]))
                ),
                "timeout": self.follow_to_end(client, expiring["id"]),
            }
            states = {name: events[-1]["state"] for name, events in finals.items()}
            assert states == {
                "plan": "succeeded",
                "refine": "succeeded",
                "cancel": "cancelled",
                "timeout": "timeout",
            }
            for events in finals.values():
                seqs = [event["seq"] for event in events]
                assert seqs == list(range(1, len(seqs) + 1))
            assert client.wait(plan["id"], timeout=10.0)["result"] is not None
        assert sleepless.calls == []


class TestBackpressure:
    @pytest.fixture
    def tight_cluster(self, tmp_path):
        with ClusterHarness(
            n_replicas=2,
            workers_per_replica=1,
            store_url=f"sqlite://{tmp_path}/jobs.db",
            max_queue_depth=1,
            job_timeout=60.0,
        ) as harness:
            yield harness

    def test_cluster_wide_429_and_no_lost_jobs(
        self, tight_cluster, state_doc
    ):
        client = ServiceClient(tight_cluster.url, timeout=30.0)
        accepted: list[str] = []
        rejection: ServiceError | None = None
        # 2 replicas × (1 running + 1 queued) = 4 slots; the fifth (or
        # an earlier one, under scheduling jitter) must see 429.
        for n in range(8):
            payload = sim_payload(
                distinct_state(state_doc, f"sat{n}"), VERY_SLOW_HORIZON
            )
            try:
                accepted.append(client.submit("simulate", payload)["id"])
            except ServiceError as exc:
                rejection = exc
                break
        assert rejection is not None, "cluster never pushed back"
        assert rejection.status == 429
        assert rejection.retry_after is not None and rejection.retry_after >= 1.0
        # Nothing accepted was silently dropped: every 201'd job is
        # still tracked and cancellable.
        for job_id in accepted:
            record = client.job(job_id)
            assert record["state"] in ("queued", "running")
            assert client.cancel(job_id)["cancelled"] is True

    def test_429_spills_to_other_replica_first(
        self, tight_cluster, state_doc
    ):
        client = ServiceClient(tight_cluster.url, timeout=30.0)
        dispatcher = tight_cluster.dispatcher
        target_state = distinct_state(state_doc, "spill")
        key = routing_key(JobKind.PLAN, plan_payload(target_state))
        ranked = dispatcher._ranked(key)
        home_url = ranked[0].url
        home_index = next(
            i for i, r in enumerate(tight_cluster.replicas)
            if r.url == home_url
        )
        # Saturate only the home shard, straight at the replica.
        direct = ServiceClient(home_url, timeout=30.0)
        held = []
        for n in range(2):  # 1 running + 1 queued = full
            held.append(
                direct.submit(
                    "simulate",
                    sim_payload(
                        distinct_state(state_doc, f"hold{n}"),
                        VERY_SLOW_HORIZON,
                    ),
                )["id"]
            )
            # Let the first sim reach the worker so the second enters
            # the queue instead of tripping admission control itself.
            deadline = time.monotonic() + 10.0
            while (
                n == 0
                and time.monotonic() < deadline
                and direct.job(held[0])["state"] != "running"
            ):
                time.sleep(0.02)
        # The dispatcher must spill the plan to the *other* replica
        # rather than surface the home replica's 429.
        job = client.submit("plan", plan_payload(target_state))
        done = client.wait(job["id"], timeout=60.0)
        assert done["state"] == "succeeded"
        assert done["replica"] != f"replica-{home_index}"
        for job_id in held:
            direct.cancel(job_id)


class TestDispatcherErrors:
    """The dispatcher raises the manager's exceptions (no HTTP involved)."""

    @staticmethod
    def answering(dispatcher, monkeypatch, *errors: ServiceError) -> None:
        """Make replica ``i`` answer every submission with ``errors[i]``."""
        for replica, error in zip(dispatcher.replicas, errors):

            def submit(*args, error=error, **kwargs):
                raise error

            monkeypatch.setattr(replica.client, "submit", submit)

    def test_every_replica_429_is_queue_full(self, monkeypatch, state_doc):
        dispatcher = Dispatcher(["http://127.0.0.1:9", "http://127.0.0.1:10"])
        self.answering(
            dispatcher,
            monkeypatch,
            ServiceError(429, "queue full", retry_after=2.0),
            ServiceError(429, "queue full", retry_after=5.0),
        )
        with pytest.raises(QueueFullError) as excinfo:
            dispatcher.submit("plan", plan_payload(state_doc))
        assert excinfo.value.retry_after == 5.0  # the largest quote

    def test_failing_replicas_are_unavailable(self, monkeypatch, state_doc):
        dispatcher = Dispatcher(["http://127.0.0.1:9", "http://127.0.0.1:10"])
        self.answering(
            dispatcher, monkeypatch, ServiceError(500, "boom"), ServiceError(0, "down")
        )
        with pytest.raises(ServiceUnavailableError):
            dispatcher.submit("plan", plan_payload(state_doc))

    def test_a_replica_4xx_passes_through(self, monkeypatch, state_doc):
        dispatcher = Dispatcher(["http://127.0.0.1:9"])
        self.answering(dispatcher, monkeypatch, ServiceError(400, "bad payload"))
        with pytest.raises(ServiceError) as excinfo:
            dispatcher.submit("plan", plan_payload(state_doc))
        assert excinfo.value.status == 400
        with pytest.raises(ValueError):
            dispatcher.submit("transmogrify", plan_payload(state_doc))

    def test_reads_after_shutdown_are_unknown(self, monkeypatch, tmp_path):
        # The dispatcher closes the store it opened; a job no replica
        # knows must still answer "unknown job", not a closed database.
        dispatcher = Dispatcher(
            ["http://127.0.0.1:9"], store_url=f"sqlite://{tmp_path / 'jobs.db'}"
        )

        def unknown(*args, **kwargs):
            raise ServiceError(404, "unknown job")

        for name in ("job", "cancel"):
            monkeypatch.setattr(dispatcher.replicas[0].client, name, unknown)
        dispatcher.shutdown()
        with pytest.raises(UnknownJobError):
            dispatcher.get("nope")
        with pytest.raises(UnknownJobError):
            dispatcher.cancel("nope")


class TestStoreBackedManagerUnit:
    """Manager↔store integration that needs no dispatcher."""

    def test_get_falls_back_to_store_for_foreign_jobs(self, tmp_path, state_doc):
        path = str(tmp_path / "jobs.db")
        store = SqliteJobStore(path)
        store.put(
            {
                "id": "foreign01",
                "kind": "plan",
                "state": "succeeded",
                "payload": {},
                "result": {"summary": {"total_cost": 1.0}},
            },
            claimed_by="someone-else",
        )
        config = ServiceConfig(workers=1, replica_id="local")
        from repro.service import JobManager

        manager = JobManager(config, store=store)
        try:
            record = manager.get("foreign01")
            assert record.state.value == "succeeded"
            assert record.result == {"summary": {"total_cost": 1.0}}
        finally:
            store.close()
