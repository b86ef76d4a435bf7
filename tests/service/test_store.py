"""The persistent job stores (:mod:`repro.service.cluster.store`).

The SQLite store is exercised the way the cluster uses it: *two
separate connections to one database file*, standing in for two
replica processes.
"""

from __future__ import annotations

import threading

import pytest

from repro.service.cluster.store import (
    MemoryJobStore,
    SqliteJobStore,
    open_store,
)


def job_record(job_id: str, state: str = "queued", **extra) -> dict:
    record = {
        "id": job_id,
        "kind": "plan",
        "state": state,
        "payload": {"state": {"name": "t"}, "options": {}},
        "attempts": 0,
        "result": None,
        "error": None,
    }
    record.update(extra)
    return record


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        with MemoryJobStore() as store:
            yield store
    else:
        with SqliteJobStore(str(tmp_path / "jobs.db")) as store:
            yield store


class TestStoreContract:
    def test_put_get_roundtrip(self, store):
        store.put(job_record("j1"), claimed_by="r1")
        data = store.get("j1")
        assert data["id"] == "j1"
        assert data["payload"]["state"] == {"name": "t"}
        assert store.get("missing") is None

    def test_update_replaces_state_and_body(self, store):
        store.put(job_record("j1"))
        store.update("j1", job_record("j1", state="succeeded", result={"ok": 1}))
        data = store.get("j1")
        assert data["state"] == "succeeded"
        assert data["result"] == {"ok": 1}

    def test_list_filters_by_owner_and_state(self, store):
        store.put(job_record("a"), claimed_by="r1")
        store.put(job_record("b", state="succeeded"), claimed_by="r1")
        store.put(job_record("c"), claimed_by="r2")
        mine = store.list(claimed_by="r1", states=("queued", "running"))
        assert [r["id"] for r in mine] == ["a"]
        assert {r["id"] for r in store.list()} == {"a", "b", "c"}

    def test_cancel_flag_roundtrip(self, store):
        store.put(job_record("j1"))
        assert store.cancel_requested("j1") is False
        assert store.request_cancel("j1") is True
        assert store.cancel_requested("j1") is True
        assert store.request_cancel("ghost") is False

    def test_events_are_dense_and_resumable(self, store):
        store.put(job_record("j1"))
        for n in range(5):
            seq = store.append_event("j1", {"type": "progress", "n": n})
            assert seq == n + 1
        assert [seq for seq, _ in store.events("j1")] == [1, 2, 3, 4, 5]
        tail = store.events("j1", after=3)
        assert [(seq, event["n"]) for seq, event in tail] == [(4, 3), (5, 4)]
        assert store.events("j1", after=5) == []

    def test_events_are_private_copies(self, store):
        store.put(job_record("j1"))
        event = {"type": "progress", "n": 1}
        store.append_event("j1", event)
        event["n"] = 99
        store.events("j1")[0][1]["n"] = 42
        assert store.events("j1") == [(1, {"type": "progress", "n": 1})]


class TestMemoryHistoryLimit:
    """A bounded :class:`MemoryJobStore` forgets like a manager's history."""

    def test_oldest_terminal_records_dropped_with_their_traces(self):
        store = MemoryJobStore(history_limit=2)
        store.put(job_record("live"), claimed_by="r1")  # older than them all
        store.append_event("live", {"type": "state", "state": "queued"})
        for job_id in ("a", "b", "c"):
            store.put(job_record(job_id), claimed_by="r1")
            store.append_event(job_id, {"type": "state", "state": "queued"})
            store.request_cancel(job_id)
            store.update(job_id, job_record(job_id, state="cancelled"))
        assert store.get("a") is None
        assert store.events("a") == []
        assert store.cancel_requested("a") is False
        assert {r["id"] for r in store.list(claimed_by="r1")} == {"live", "b", "c"}
        assert store.cancel_requested("b") is True
        # A fourth terminal record drops the next oldest, never the live one.
        store.put(job_record("d", state="succeeded"), claimed_by="r1")
        assert store.get("b") is None
        assert {r["id"] for r in store.list()} == {"live", "c", "d"}
        assert [seq for seq, _ in store.events("live")] == [1]


class TestTwoReplicaSqlite:
    """Two store handles on one file — the multi-process access pattern."""

    @pytest.fixture
    def pair(self, tmp_path):
        path = str(tmp_path / "shared.db")
        a, b = SqliteJobStore(path), SqliteJobStore(path)
        yield a, b
        a.close()
        b.close()

    def test_completed_result_visible_from_other_replica(self, pair):
        a, b = pair
        a.put(job_record("j1"), claimed_by="r1")
        a.update(
            "j1",
            job_record("j1", state="succeeded", result={"objective": 42.0}),
        )
        a.append_event("j1", {"type": "state", "state": "succeeded"})
        seen = b.get("j1")
        assert seen["state"] == "succeeded"
        assert seen["result"] == {"objective": 42.0}
        assert [e["state"] for _, e in b.events("j1")] == ["succeeded"]

    def test_cross_replica_cancellation_flag(self, pair):
        a, b = pair
        a.put(job_record("j1"), claimed_by="r1")
        assert b.request_cancel("j1") is True  # requested via the *other* one
        assert a.cancel_requested("j1") is True  # owner polls and sees it

    def test_event_seq_is_atomic_across_connections(self, pair):
        a, b = pair
        a.put(job_record("j1"))
        seqs = []
        lock = threading.Lock()

        def append(store, count):
            for n in range(count):
                seq = store.append_event("j1", {"n": n})
                with lock:
                    seqs.append(seq)

        threads = [
            threading.Thread(target=append, args=(a, 20)),
            threading.Thread(target=append, args=(b, 20)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seqs) == list(range(1, 41))  # dense, no duplicates


class TestOpenStore:
    def test_none_and_memory_urls(self):
        assert isinstance(open_store(None), MemoryJobStore)
        assert isinstance(open_store("memory://"), MemoryJobStore)
        bounded = open_store(None, history_limit=1)
        bounded.put(job_record("old", state="succeeded"))
        bounded.put(job_record("new", state="succeeded"))
        assert [r["id"] for r in bounded.list()] == ["new"]

    def test_sqlite_url_and_bare_path(self, tmp_path):
        with open_store(f"sqlite://{tmp_path}/a.db") as store:
            assert isinstance(store, SqliteJobStore)
        with open_store(str(tmp_path / "b.db")) as store:
            assert isinstance(store, SqliteJobStore)

    def test_bad_urls_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            open_store("sqlite://")
        with pytest.raises(ValueError):
            open_store("http://example.com/store")
        with pytest.raises(ValueError):
            open_store(str(tmp_path / "missing-dir" / "x.db"))
