"""Integration tests for :class:`JobManager` against real worker processes.

These cover the acceptance points of the planning-service PR: a worker
SIGKILLed mid-solve is replaced and its job retried to the correct
result, a repeated identical plan job is served from the fingerprint
cache without re-solving, and shutdown drains with no orphan worker
processes.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

import repro
from repro import PlannerOptions
from repro.service import (
    JobState,
    PayloadError,
    ServiceUnavailableError,
    UnknownJobError,
    replay_journal,
)

from .conftest import SLOW_HORIZON, VERY_SLOW_HORIZON, plan_payload, sim_payload


def wait_for_state(manager, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = manager.get(job_id)
        if record.state is state:
            return record
        if record.done:
            raise AssertionError(
                f"job ended {record.state.value} while waiting for "
                f"{state.value}: {record.error}"
            )
        time.sleep(0.01)
    raise AssertionError(f"job never reached {state.value}")


def busy_worker(manager, job_id):
    with manager._lock:
        worker = manager._worker_running(job_id)
    assert worker is not None, f"no worker is running job {job_id}"
    return worker


class TestPlanJobs:
    def test_plan_job_matches_local_solve(self, manager, tiny_state, state_doc):
        record = manager.submit("plan", plan_payload(state_doc))
        done = manager.wait(record.id, timeout=60.0)
        assert done.state is JobState.SUCCEEDED
        assert done.via == "solve"
        assert done.attempts == 1
        local = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert done.result["summary"]["total_cost"] == pytest.approx(
            local.breakdown.total, rel=1e-6
        )
        assert done.result["summary"]["datacenters_used"] == local.datacenters_used

    def test_repeat_job_served_from_cache_without_resolving(
        self, manager, state_doc
    ):
        payload = plan_payload(state_doc)
        first = manager.wait(manager.submit("plan", payload).id, timeout=60.0)
        hits_before = manager.cache_hits
        second = manager.submit("plan", payload)
        # A cache hit completes synchronously inside submit(): no worker
        # attempt ever starts, which is the "without re-solving" proof.
        assert second.state is JobState.SUCCEEDED
        assert second.via == "cache"
        assert second.attempts == 0
        assert second.elapsed == 0.0
        assert second.result == first.result
        assert manager.cache_hits == hits_before + 1

    def test_different_payloads_do_not_share_cache(self, manager, state_doc):
        a = manager.wait(
            manager.submit("plan", plan_payload(state_doc, "highs")).id, timeout=60.0
        )
        b = manager.submit("plan", plan_payload(state_doc, "branch_bound"))
        assert b.via is None  # queued, not served from a's cache entry
        b = manager.wait(b.id, timeout=60.0)
        assert b.via == "solve"
        assert a.fingerprint != b.fingerprint


class TestJobHistoryEviction:
    def test_terminal_records_evicted_past_the_limit(
        self, make_manager, state_doc
    ):
        manager = make_manager(job_history_limit=2)
        payload = plan_payload(state_doc)
        first = manager.wait(manager.submit("plan", payload).id, timeout=60.0)
        second = manager.submit("plan", payload)  # cache hit, terminal at once
        third = manager.submit("plan", payload)
        with pytest.raises(UnknownJobError):
            manager.get(first.id)
        assert {r.id for r in manager.jobs()} == {second.id, third.id}

    def test_stale_heap_entry_of_an_evicted_job_is_harmless(
        self, make_manager, state_doc
    ):
        # A job cancelled while queued leaves its heap entry behind; if
        # the record is then evicted, dispatch must skip the entry, not
        # crash the supervisor on a missing id.
        manager = make_manager(workers=1, job_history_limit=1)
        blocker = manager.submit(
            "simulate", sim_payload(state_doc, VERY_SLOW_HORIZON)
        )
        queued = manager.submit("plan", plan_payload(state_doc))
        assert manager.cancel(queued.id) is True
        follow_up = manager.submit("plan", plan_payload(state_doc, "branch_bound"))
        assert manager.cancel(blocker.id) is True  # evicts `queued`, frees pool
        done = manager.wait(follow_up.id, timeout=60.0)
        assert done.state is JobState.SUCCEEDED
        with pytest.raises(UnknownJobError):
            manager.get(queued.id)


class TestRefineSessions:
    def test_sequential_refines_reuse_a_warm_session(self, manager, state_doc):
        first = [{"kind": "retire_site", "datacenter": "cheap-far"}]
        payload = {
            "state": state_doc,
            "options": {"backend": "highs"},
            "session": "adm",
            "directives": first,
        }
        done1 = manager.wait(manager.submit("refine", payload).id, timeout=60.0)
        assert done1.result["warm"] is False
        assert done1.result["directives_applied"] == 1

        payload2 = dict(payload, directives=first + [
            {"kind": "cap_groups", "datacenter": "mid", "limit": 3},
        ])
        done2 = manager.wait(manager.submit("refine", payload2).id, timeout=60.0)
        assert done2.result["warm"] is True
        assert done2.result["directives_applied"] == 2
        assert done2.result["summary"]["total_cost"] >= done1.result["summary"][
            "total_cost"
        ] - 1e-6  # extra constraints can only cost

    def test_reused_session_id_with_changed_options_rebuilds(
        self, manager, state_doc
    ):
        # Same session id, same directives, different options: the warm
        # session answers a different model now, so it must be rebuilt
        # and the plan computed with the *new* options.
        directives = [{"kind": "retire_site", "datacenter": "cheap-far"}]
        payload = {
            "state": state_doc,
            "options": {"backend": "highs"},
            "session": "switch",
            "directives": directives,
        }
        done1 = manager.wait(manager.submit("refine", payload).id, timeout=60.0)
        assert done1.result["warm"] is False

        payload2 = dict(payload, options={"backend": "branch_bound"})
        done2 = manager.wait(manager.submit("refine", payload2).id, timeout=60.0)
        assert done2.result["warm"] is False  # rebuilt, not silently stale
        assert done2.result["summary"]["solver"] != done1.result["summary"]["solver"]

        # Unchanged resubmission is warm again (and still correct).
        done3 = manager.wait(manager.submit("refine", payload2).id, timeout=60.0)
        assert done3.result["warm"] is True
        assert done3.result["summary"]["total_cost"] == pytest.approx(
            done2.result["summary"]["total_cost"], rel=1e-6
        )

    def test_refine_jobs_are_not_cached(self, manager, state_doc):
        payload = {
            "state": state_doc,
            "options": {"backend": "highs"},
            "session": "nc",
            "directives": [],
        }
        a = manager.wait(manager.submit("refine", payload).id, timeout=60.0)
        b = manager.wait(manager.submit("refine", payload).id, timeout=60.0)
        assert a.fingerprint is None
        assert b.via == "solve"


class TestWorkerDeath:
    def test_sigkilled_worker_is_replaced_and_job_retried(
        self, make_manager, state_doc
    ):
        manager = make_manager()
        reference = manager.wait(
            manager.submit("simulate", sim_payload(state_doc, SLOW_HORIZON)).id,
            timeout=60.0,
        )
        record = manager.submit(
            "simulate", sim_payload(state_doc, SLOW_HORIZON, seed=2)
        )
        wait_for_state(manager, record.id, JobState.RUNNING)
        restarts_before = manager.stats()["workers"]["restarts"]
        os.kill(busy_worker(manager, record.id).pid, signal.SIGKILL)

        done = manager.wait(record.id, timeout=60.0)
        assert done.state is JobState.SUCCEEDED
        assert done.attempts == 2  # first attempt died, retry finished
        assert manager.stats()["workers"]["restarts"] == restarts_before + 1
        # The retried result is correct: deterministic fields match a
        # clean run of the same workload (different seed, same model).
        clean = manager.wait(
            manager.submit(
                "simulate", sim_payload(state_doc, SLOW_HORIZON, seed=2)
            ).id,
            timeout=60.0,
        )
        assert clean.via == "cache"  # identical payload → cached retry result
        assert done.result["plan_summary"]["total_cost"] == pytest.approx(
            reference.result["plan_summary"]["total_cost"]
        )

    def test_retries_exhausted_fails_the_job(self, make_manager, state_doc):
        manager = make_manager()
        record = manager.submit(
            "simulate",
            sim_payload(state_doc, VERY_SLOW_HORIZON),
            max_retries=0,
        )
        wait_for_state(manager, record.id, JobState.RUNNING)
        os.kill(busy_worker(manager, record.id).pid, signal.SIGKILL)
        done = manager.wait(record.id, timeout=30.0)
        assert done.state is JobState.FAILED
        assert "worker died" in done.error
        assert done.attempts == 1

    def test_worker_exception_fails_without_retry(self, make_manager, state_doc):
        # An in-worker exception is deterministic: retrying would fail
        # identically, so the job must fail on attempt 1.  The options
        # parse at submit time; only the MILP solve rejects a node limit
        # HiGHS does not honour.
        manager = make_manager()
        payload = plan_payload(state_doc)
        payload["options"] = {"backend": "highs", "solver_options": {"node_limit": 5}}
        record = manager.submit("plan", payload)
        done = manager.wait(record.id, timeout=60.0)
        assert done.state is JobState.FAILED
        assert done.attempts == 1
        assert "node_limit" in done.error


class TestTimeoutsAndCancellation:
    def test_deadline_times_the_job_out_without_retry(
        self, make_manager, state_doc
    ):
        manager = make_manager()
        record = manager.submit(
            "simulate", sim_payload(state_doc, VERY_SLOW_HORIZON), timeout=1.0
        )
        done = manager.wait(record.id, timeout=30.0)
        assert done.state is JobState.TIMEOUT
        assert done.attempts == 1
        assert "job timeout" in done.error

    def test_cancel_queued_job(self, make_manager, state_doc):
        manager = make_manager(workers=1)
        blocker = manager.submit(
            "simulate", sim_payload(state_doc, VERY_SLOW_HORIZON)
        )
        queued = manager.submit("plan", plan_payload(state_doc))
        assert manager.cancel(queued.id) is True
        assert manager.get(queued.id).state is JobState.CANCELLED
        assert manager.cancel(blocker.id) is True  # unblock teardown

    def test_cancel_running_job_replaces_its_worker(
        self, make_manager, state_doc
    ):
        manager = make_manager()
        record = manager.submit(
            "simulate", sim_payload(state_doc, VERY_SLOW_HORIZON)
        )
        wait_for_state(manager, record.id, JobState.RUNNING)
        restarts = manager.stats()["workers"]["restarts"]
        assert manager.cancel(record.id) is True
        assert manager.get(record.id).state is JobState.CANCELLED
        assert manager.stats()["workers"]["restarts"] == restarts + 1
        # The pool recovers: a follow-up job still solves.
        after = manager.wait(
            manager.submit("plan", plan_payload(state_doc)).id, timeout=60.0
        )
        assert after.state is JobState.SUCCEEDED

    def test_cancel_finished_job_returns_false(self, manager, state_doc):
        record = manager.wait(
            manager.submit("plan", plan_payload(state_doc)).id, timeout=60.0
        )
        assert manager.cancel(record.id) is False

    def test_unknown_job_raises(self, manager):
        with pytest.raises(UnknownJobError):
            manager.get("no-such-job")
        with pytest.raises(UnknownJobError):
            manager.cancel("no-such-job")


class TestShutdown:
    def test_drain_finishes_jobs_and_leaves_no_orphans(
        self, make_manager, state_doc
    ):
        manager = make_manager()
        jobs = [
            manager.submit("plan", plan_payload(state_doc)),
            manager.submit("plan", plan_payload(state_doc, "branch_bound")),
        ]
        processes = [w.process for w in manager._pool.workers]
        assert manager.shutdown(drain=True, timeout=60.0) is True
        for record in jobs:
            assert manager.get(record.id).state is JobState.SUCCEEDED
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None  # reaped, not orphaned

    def test_draining_manager_rejects_new_jobs(self, make_manager, state_doc):
        manager = make_manager()
        manager.shutdown(drain=True, timeout=10.0)
        with pytest.raises(ServiceUnavailableError):
            manager.submit("plan", plan_payload(state_doc))

    def test_journal_records_every_terminal_state(
        self, make_manager, state_doc, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        manager = make_manager(workers=1, journal_path=str(journal))
        ok = manager.wait(
            manager.submit("plan", plan_payload(state_doc)).id, timeout=60.0
        )
        dropped = manager.submit(
            "simulate", sim_payload(state_doc, VERY_SLOW_HORIZON)
        )
        manager.cancel(dropped.id)
        manager.shutdown(drain=True, timeout=30.0)
        final = replay_journal(str(journal))
        assert final[ok.id] == "succeeded"
        assert final[dropped.id] == "cancelled"


class TestSubmitValidation:
    def test_unknown_kind(self, manager, state_doc):
        with pytest.raises(ValueError):
            manager.submit("transmogrify", plan_payload(state_doc))

    def test_missing_state(self, manager):
        with pytest.raises(PayloadError, match="state"):
            manager.submit("plan", {"options": {}})

    def test_unknown_option_rejected_at_submit_time(self, manager, state_doc):
        for options in ({"lp_export_path": "/x"}, {"presolve": True}):
            with pytest.raises(PayloadError, match="unknown planner option"):
                manager.submit("plan", {"state": state_doc, "options": options})

    @pytest.mark.parametrize(
        "options, match",
        [
            ({"solver_options": {"bogus": 1}}, "bogus"),
            ({"solver_options": {"node_limit": -5}}, "node_limit"),
            ({"solver_options": {"node_resolve": "primal"}}, "node_resolve"),
            ({"solver_options": {"presolve": False}}, "presolve"),
            ({"solver_options": {"relaxation_engine": "tableau"}}, "tableau"),
            ({"backend": "nope"}, "unknown backend"),
            ({"backend": "simplex"}, "unknown backend"),
        ],
    )
    def test_bad_solver_option_rejected_at_submit_time(
        self, manager, state_doc, options, match
    ):
        # Parsed as the worker would parse them: each of these used to
        # pass submit and fail (or be ignored) on the worker.
        with pytest.raises(PayloadError, match=match):
            manager.submit("plan", {"state": state_doc, "options": options})

    def test_bad_directive_rejected_at_submit_time(self, manager, state_doc):
        with pytest.raises(PayloadError, match="directive"):
            manager.submit(
                "refine",
                {
                    "state": state_doc,
                    "session": "s",
                    "directives": [{"kind": "explode"}],
                },
            )

    @pytest.mark.parametrize("timeout", ["10", True, 0, -1.0, float("nan"), [5]])
    def test_non_numeric_or_non_positive_timeout_rejected(
        self, manager, state_doc, timeout
    ):
        # A bad timeout accepted here would blow up later on the
        # supervisor thread and wedge the job RUNNING forever.
        with pytest.raises(PayloadError, match="timeout"):
            manager.submit("plan", plan_payload(state_doc), timeout=timeout)

    @pytest.mark.parametrize("max_retries", ["2", True, 1.5, -1])
    def test_non_integer_or_negative_max_retries_rejected(
        self, manager, state_doc, max_retries
    ):
        with pytest.raises(PayloadError, match="max_retries"):
            manager.submit(
                "plan", plan_payload(state_doc), max_retries=max_retries
            )

    def test_integral_timeout_is_accepted(self, manager, state_doc):
        record = manager.submit("plan", plan_payload(state_doc), timeout=30)
        assert record.timeout == 30.0
        assert manager.wait(record.id, timeout=60.0).state is JobState.SUCCEEDED


class TestJournalReplay:
    """Restart recovery from the JSONL journal (cluster-less mode)."""

    @staticmethod
    def _entry(job_id: str, state: str, **extra) -> dict:
        return {
            "ts": time.time(),
            "event": "finished" if state in (
                "succeeded", "failed", "cancelled", "timeout"
            ) else state,
            "job": job_id,
            "kind": "plan",
            "state": state,
            "attempts": 1,
            "error": None,
            "via": "solve",
            **extra,
        }

    @staticmethod
    def _write_journal(path, entries) -> None:
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry) + "\n")

    def test_terminal_jobs_resurrect_with_final_state(
        self, make_manager, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        self._write_journal(
            journal,
            [
                self._entry("done-1", "queued"),
                self._entry("done-1", "running"),
                self._entry("done-1", "succeeded"),
                self._entry("dead-1", "failed", error="boom"),
            ],
        )
        manager = make_manager(journal_path=str(journal))
        assert manager.get("done-1").state is JobState.SUCCEEDED
        record = manager.get("dead-1")
        assert record.state is JobState.FAILED
        assert record.error == "boom"

    def test_non_terminal_jobs_do_not_resurrect(self, make_manager, tmp_path):
        # A journal knows nothing about payloads, so a queued/running
        # entry cannot be re-dispatched from it; it must simply vanish.
        journal = tmp_path / "journal.jsonl"
        self._write_journal(
            journal,
            [
                self._entry("stuck-1", "queued"),
                self._entry("stuck-2", "running"),
            ],
        )
        manager = make_manager(journal_path=str(journal))
        for job_id in ("stuck-1", "stuck-2"):
            with pytest.raises(UnknownJobError):
                manager.get(job_id)

    def test_replay_respects_job_history_limit(self, make_manager, tmp_path):
        # Regression: a journal longer than job_history_limit used to
        # resurrect every terminal job it mentioned, bringing back
        # records the previous incarnation had already evicted (and
        # growing without bound across restarts).  Only the *newest*
        # ``limit`` terminal jobs may come back.
        journal = tmp_path / "journal.jsonl"
        self._write_journal(
            journal,
            [self._entry(f"job-{n}", "succeeded") for n in range(6)],
        )
        manager = make_manager(journal_path=str(journal), job_history_limit=2)
        for n in range(4):
            with pytest.raises(UnknownJobError):
                manager.get(f"job-{n}")
        assert manager.get("job-4").state is JobState.SUCCEEDED
        assert manager.get("job-5").state is JobState.SUCCEEDED

    def test_replay_keeps_the_latest_entry_per_job(
        self, make_manager, tmp_path
    ):
        # A retried job journals failed-then-succeeded; recency (for
        # the history limit) and state must follow the *last* entry.
        journal = tmp_path / "journal.jsonl"
        self._write_journal(
            journal,
            [
                self._entry("flaky", "failed", error="first try"),
                self._entry("other", "succeeded"),
                self._entry("flaky", "succeeded", attempts=2),
            ],
        )
        manager = make_manager(journal_path=str(journal), job_history_limit=1)
        with pytest.raises(UnknownJobError):
            manager.get("other")  # older than flaky's final entry
        record = manager.get("flaky")
        assert record.state is JobState.SUCCEEDED
        assert record.attempts == 2

    def test_resurrected_jobs_evict_before_new_work(
        self, make_manager, state_doc, tmp_path
    ):
        journal = tmp_path / "journal.jsonl"
        self._write_journal(journal, [self._entry("old-1", "succeeded")])
        manager = make_manager(journal_path=str(journal), job_history_limit=1)
        fresh = manager.wait(
            manager.submit("plan", plan_payload(state_doc)).id, timeout=60.0
        )
        assert fresh.state is JobState.SUCCEEDED
        with pytest.raises(UnknownJobError):
            manager.get("old-1")
