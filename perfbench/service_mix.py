"""service-mix: closed-loop clients against ``etransform dispatch`` + 2 replicas.

The dispatcher and two ``etransform serve`` replicas (one worker each,
one shared SQLite job store) run as child processes; only the two
closed-loop client threads run in this process.  Each client walks its
share of a seeded list of small enterprise1-shaped estates, and for each
estate runs one script of four jobs with default planner options:

1. ``plan``: a dispatcher and replica cache miss, solved in a worker;
2. the same ``plan`` again, sent only after (1) finished and was read
   back through the dispatcher, so it is always a dispatcher-cache hit
   with zero solver work; the hit count is therefore fixed and checked;
3. ``refine`` with one ``forbid`` directive: a new session on the
   pinned replica (a cold session build);
4. ``refine`` with that directive plus a second one (the cumulative
   list): a warm re-solve of the session.

An op is one job, from building its request to its terminal state as
the job record stamps it; the client learns of that state from the
job's event stream.  This is the only workload that exercises HTTP, the
dispatcher, the store, queueing and worker IPC.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time

from repro.core.validation import validate_plan
from repro.datasets import load_enterprise1
from repro.io import plan_from_dict, state_to_dict
from repro.service import ServiceClient
from repro.service.cluster.replica import SubprocessReplica

from harness import Op, child_pids, rss_peak_mb_of

#: Estate scripts per second of ``--seconds``.
SCRIPTS_PER_SECOND = 5.0
ESTATE_SCALE = 0.05
JOB_TIMEOUT = 60.0
CLIENTS = 2
#: Scripts per leg of a pass.  Between legs no job is in flight, and the
#: speed kernel runs there, never while jobs run: during a leg it would
#: compete with the clients, the dispatcher and the workers and track
#: the program's own load.
LEG_SCRIPTS = 10
#: Speed-kernel samples at each stop between legs.
STOP_SAMPLES = 5
#: Draw of the fixed warm-up estates (the same in every run).
WARM_UP_SEED = 1
TERMINAL = ("succeeded", "failed", "cancelled", "timeout")


def _estate(seed: int, index: int):
    return load_enterprise1(seed=seed * 100_003 + index, scale=ESTATE_SCALE)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Workload:
    name = "service-mix"
    #: Its times move with the speed kernel's time, not faster: across two
    #: changes of the host's speed, its throughput and set-up moved 1.0 to
    #: 1.1 times as much as the kernel did, in log terms (README).
    elasticity = 1.0

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        self.encode = state_to_dict
        self.seed = seed
        store = "sqlite://" + os.path.join(workdir, "jobs.db")
        self.replicas = []
        self.dispatcher = None
        try:
            for index in range(2):
                self.replicas.append(
                    SubprocessReplica(
                        workers=1,
                        store_url=store,
                        replica_id=f"replica-{index}",
                        job_timeout=JOB_TIMEOUT,
                    ).start()
                )
            self.dispatcher = DispatcherProcess(
                [r.url for r in self.replicas], store
            ).start()
        except BaseException:
            self.close()
            raise
        self.url = self.dispatcher.url
        count = max(2, round(SCRIPTS_PER_SECOND * seconds))
        self.estates = [_estate(seed, i) for i in range(count)]
        self.extra = [_estate(seed, count + i) for i in range(max(2, count // 4))]
        self.window: tuple[dict, dict] = ({}, {})
        self._warm_up()

    # -- processes -----------------------------------------------------------

    def _processes(self) -> list[int]:
        pids = [p.process.pid for p in [*self.replicas, self.dispatcher] if p]
        return pids + [c for pid in pids for c in child_pids(pid)]

    def children_rss_mb(self) -> float:
        return sum(rss_peak_mb_of(pid) for pid in self._processes())

    def close(self) -> None:
        pids = self._processes() if self.replicas else []
        for proc in [self.dispatcher, *reversed(self.replicas)]:
            if proc is not None:
                proc.terminate(timeout=20.0)
        for pid in pids:
            try:
                os.kill(pid, 9)
            except OSError:
                pass  # already gone, as it should be
        self.replicas, self.dispatcher = [], None

    # -- jobs ----------------------------------------------------------------

    def _warm_up(self) -> None:
        """One script on each replica directly, then one through dispatch.

        Going to each replica directly makes both workers pay their
        first-solve costs whatever the shard hashing does with the
        warm-up estates; the dispatcher must first report both healthy.
        """
        client = ServiceClient(self.url, timeout=JOB_TIMEOUT)
        deadline = time.monotonic() + 30.0
        while client.healthz().get("replicas_healthy") != len(self.replicas):
            if time.monotonic() > deadline:
                raise RuntimeError("the dispatcher never saw every replica healthy")
            time.sleep(0.05)
        clients = [ServiceClient(r.url, timeout=JOB_TIMEOUT) for r in self.replicas]
        for index, target in enumerate([*clients, client], start=1):
            ops: list[Op] = []
            state = _estate(WARM_UP_SEED, -index)
            self._script(target, state, f"warm-{index}", None, ops)
            if not all(op.ok for op in ops):
                raise RuntimeError(f"warm-up job failed: {ops[-1].info}")

    def _job(self, client, kind: str, state, extra: dict, tracer) -> Op:
        start = time.perf_counter()
        start_epoch = time.time()
        info: dict = {"kind": kind}
        try:
            if tracer is not None:
                encoded = tracer.span("io.encode", self.encode, state)
            else:
                encoded = self.encode(state)
            payload = {"state": encoded, "options": {}, **extra}
            encoded_at = time.perf_counter()
            if tracer is not None:
                body = {"kind": kind, "payload": payload, "timeout": JOB_TIMEOUT}
                info["bytes"] = len(json.dumps(body).encode("utf-8"))
            record = client.submit(kind, payload, timeout=JOB_TIMEOUT)
            submitted = time.perf_counter()
            final_state = record["state"]
            if final_state not in TERMINAL:
                for event in client.stream(record["id"], timeout=JOB_TIMEOUT):
                    if event.get("type") == "state" and event.get("state") in TERMINAL:
                        final_state = event["state"]
                        break
            seen = time.perf_counter() - start
            if record["state"] not in TERMINAL:
                # Read the result back through the dispatcher (this also
                # feeds its result cache for the repeat that follows).
                record = client.job(record["id"])
                if record["state"] not in TERMINAL:
                    record = client.wait(
                        record["id"], timeout=JOB_TIMEOUT, raise_on_failure=False
                    )
        except (OSError, ValueError, RuntimeError) as exc:
            info["error"] = repr(exc)
            return Op(time.perf_counter() - start, False, start, info=info)
        info.update(
            record=record,
            encode_s=encoded_at - start,
            submit_s=submitted - encoded_at,
            final_state=final_state,
        )
        # The op ends when the job reaches its terminal state, as the
        # record stamps it (the same host clock).  The event stream shows
        # that state up to one 50 ms stream poll later, which would
        # quantise every latency to that poll.
        finished = record.get("finished_at")
        latency = finished - start_epoch if finished else seen
        ok = record["state"] == "succeeded" and final_state == "succeeded"
        cost = record["result"]["summary"]["total_cost"] if ok else float("nan")
        return Op(latency, ok, start, cost=cost, info=info)

    def _script(self, client, state, session: str, tracer, ops: list[Op]) -> None:
        first = self._job(client, "plan", state, {}, tracer)
        first.info["role"] = "miss"
        ops.append(first)
        if not first.ok:
            return
        repeat = self._job(client, "plan", state, {}, tracer)
        repeat.info["role"] = "hit"
        repeat.info["expected"] = first.cost
        ops.append(repeat)
        placement = first.info["record"]["result"]["plan"]["placement"]
        largest = sorted(state.app_groups, key=lambda g: (-g.servers, g.name))[:2]
        directives: list[dict] = []
        for group in largest:
            directives.append(
                {"kind": "forbid", "group": group.name,
                 "datacenter": placement[group.name]}
            )
            op = self._job(
                client, "refine", state,
                {"session": session, "directives": list(directives)}, tracer,
            )
            op.info["role"] = "refine"
            op.info["directives"] = list(directives)
            ops.append(op)
            if not op.ok:
                return

    def _metrics(self) -> dict:
        client = ServiceClient(self.url, timeout=JOB_TIMEOUT)
        replicas = [
            ServiceClient(r.url, timeout=JOB_TIMEOUT).metrics() for r in self.replicas
        ]
        return {"dispatcher": client.metrics(), "replicas": replicas}

    # -- passes ----------------------------------------------------------------

    def specs(self) -> list:
        return list(self.estates)

    def overhead_specs(self) -> tuple[list, bool]:
        return list(self.extra), False

    def run(self, specs, speed, tracer=None) -> tuple[list[Op], list[float]]:
        """Run ``specs`` in legs of ``LEG_SCRIPTS`` scripts; one wall per leg."""
        before = self._metrics()
        results: list[tuple[int, list[Op]]] = []

        def client_loop(slot: int, indices: range) -> None:
            client = ServiceClient(self.url, timeout=JOB_TIMEOUT)
            for index in indices[slot::CLIENTS]:
                ops: list[Op] = []
                session = f"{self.seed}-{id(specs)}-{index}"
                self._script(client, specs[index], session, tracer, ops)
                for op in ops:
                    op.info["state"] = specs[index]
                results.append((index, ops))

        walls = []
        for first in range(0, len(specs), LEG_SCRIPTS):
            speed.sample(STOP_SAMPLES)
            indices = range(first, min(len(specs), first + LEG_SCRIPTS))
            threads = [
                threading.Thread(
                    target=client_loop, args=(slot, indices), name=f"client-{slot}"
                )
                for slot in range(CLIENTS)
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            walls.append(time.perf_counter() - start)
        speed.sample(STOP_SAMPLES)
        self.window = (before, self._metrics())
        return [op for _, ops in sorted(results) for op in ops], walls

    # -- results ---------------------------------------------------------------

    def _count(self, name: str) -> float:
        before, after = self.window
        return after["dispatcher"]["counters"].get(name, 0.0) - before[
            "dispatcher"
        ]["counters"].get(name, 0.0)

    def _replica_delta(self, path: tuple[str, ...]) -> float:
        def read(snapshot):
            total = 0.0
            for replica in snapshot["replicas"]:
                value = replica
                for key in path:
                    value = value[key]
                total += value
            return total

        before, after = self.window
        return read(after) - read(before)

    def check(self, ops: list[Op]) -> list[str]:
        """Valid plans, honoured directives, and the designed hit/miss counts."""
        errors = []
        for op in ops:
            if not op.ok:
                continue
            role, state = op.info["role"], op.info["state"]
            record = op.info["record"]
            plan = plan_from_dict(record["result"]["plan"])
            try:
                validate_plan(state, plan)
            except ValueError as exc:
                errors.append(f"{record['id']}: invalid plan: {exc}")
            if role == "hit":
                if record.get("via") != "dispatcher-cache":
                    errors.append(f"{record['id']}: repeat not served by the cache")
                if op.cost != op.info["expected"]:
                    errors.append(f"{record['id']}: cached cost differs")
            for directive in op.info.get("directives", ()):
                if plan.placement[directive["group"]] == directive["datacenter"]:
                    errors.append(f"{record['id']}: forbid directive ignored")
        hits = sum(1 for op in ops if op.info.get("role") == "hit")
        misses = sum(1 for op in ops if op.info.get("role") == "miss")
        if self._count("dispatcher.cache.hits") != hits:
            errors.append(
                f"dispatcher cache hits {self._count('dispatcher.cache.hits'):.0f} "
                f"!= {hits} repeats"
            )
        replica_misses = self._replica_delta(("cache", "misses"))
        if replica_misses != misses:
            errors.append(f"replica cache misses {replica_misses:.0f} != {misses} plans")
        return errors

    def summary(self, ops: list[Op]) -> dict[str, float]:
        return {
            "plan_cost_usd": sum(
                op.cost for op in ops if op.ok and op.info["role"] != "hit"
            ),
        }

    def layers(self, ops, tracer, before, after) -> dict[str, float]:
        done = [op for op in ops if "record" in op.info]
        worked = [op for op in done if op.info["role"] != "hit"]

        def queue_wait(op) -> float:
            record = op.info["record"]
            return (record.get("started_at") or record["created_at"]) - record[
                "created_at"
            ]

        refines = [op for op in done if op.info["role"] == "refine"]
        plans = [op for op in done if op.info["role"] in ("miss", "hit")]
        served = self._count("dispatcher.cache.hits") + self._replica_delta(
            ("cache", "hits")
        )
        return {
            "io.encode_s": _median([op.info["encode_s"] for op in done]),
            "io.request_bytes": _median([op.info.get("bytes", 0) for op in done]),
            "service.submit_s": _median([op.info["submit_s"] for op in done]),
            "service.queue_wait_s": _median([queue_wait(op) for op in worked]),
            "service.worker_s": _median(
                [op.info["record"]["elapsed"] or 0.0 for op in worked]
            ),
            "service.overhead_s": _median(
                [op.latency - (op.info["record"]["elapsed"] or 0.0) for op in done]
            ),
            "service.cache_hit_ratio": served / len(plans) if plans else 0.0,
            "service.refine_warm_ratio": (
                sum(1 for op in refines if op.info["record"]["result"].get("warm"))
                / len(refines)
                if refines
                else 0.0
            ),
            "service.retries": float(
                sum(max(0, op.info["record"]["attempts"] - 1) for op in worked)
            ),
            "service.worker_restarts": self._replica_delta(("workers", "restarts")),
            "dispatcher.routed": self._count("dispatcher.jobs.routed"),
            "dispatcher.cache_hits": self._count("dispatcher.cache.hits"),
            "dispatcher.rejected": self._count("dispatcher.jobs.rejected"),
            "unattributed_s": sum(
                max(
                    0.0,
                    op.latency
                    - op.info["encode_s"]
                    - (queue_wait(op) if op.info["role"] != "hit" else 0.0)
                    - (op.info["record"]["elapsed"] or 0.0),
                )
                for op in done
            ),
        }


class DispatcherProcess(SubprocessReplica):
    """``etransform dispatch`` as a child process (same banner protocol)."""

    def __init__(self, replica_urls: list[str], store_url: str) -> None:
        super().__init__(store_url=store_url)
        self.replica_urls = replica_urls

    def _command(self) -> list[str]:
        command = [sys.executable, "-m", "repro.cli", "dispatch", "--port", "0"]
        for url in self.replica_urls:
            command += ["--replica", url]
        return command + ["--store", self.store_url]
