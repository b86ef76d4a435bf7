"""Cluster-tier load benchmark: latency percentiles + replica scaling.

The same open-loop workload — ``JOBS`` distinct plan requests fired
back-to-back at the dispatcher — is run against a cluster of 1 replica
and then ``N_REPLICAS`` replicas (fresh SQLite job store per run, so no
result leaks between configurations).  Reported per configuration:

* **saturation throughput** — jobs/second with every job in flight at
  once, the figure the >= 1.8x N-replica acceptance floor applies to.
  The floor is asserted only on a multi-core runner: replicas are
  separate worker *processes*, so on one core adding a replica just
  adds scheduling overhead, and the archived ``cpu_count`` says which
  regime produced the numbers.
* **job latency p50/p95/p99** — server-side ``finished_at -
  created_at`` per job (queue wait + solve), immune to client polling
  granularity.

A separate backpressure probe floods a deliberately tiny queue
(1 worker, depth 1) and checks the admission-control contract under
load: overflow is an explicit 429 with a ``Retry-After`` hint, and
every job that got a 201 is still tracked and cancellable — nothing is
silently dropped.

Smoke mode (``CLUSTER_SMOKE=1``, used by CI) shrinks the workload and
skips the scaling assertion.  Archives ``bench_results/cluster.txt`` +
``BENCH_cluster.json``.
"""

from __future__ import annotations

import math
import os
import time

from repro.datasets import load_enterprise1
from repro.io import state_to_dict
from repro.service import ServiceClient, ServiceError
from repro.service.cluster import ClusterHarness

SMOKE = os.environ.get("CLUSTER_SMOKE", "") not in ("", "0")
JOBS = 6 if SMOKE else 16
N_REPLICAS = 2
WORKERS_PER_REPLICA = 2
THROUGHPUT_FLOOR = 1.8  # N-replica vs 1-replica saturation throughput


def _percentile(values: list[float], q: float) -> float:
    ranked = sorted(values)
    index = max(0, min(len(ranked) - 1, math.ceil(q * len(ranked)) - 1))
    return ranked[index]


def _payloads(count: int) -> list[dict]:
    """``count`` distinct plan requests (distinct shard keys)."""
    doc = state_to_dict(load_enterprise1(scale=0.10))
    payloads = []
    for n in range(count):
        variant = dict(doc)
        variant["name"] = f"{doc['name']}-load{n}"
        payloads.append({"state": variant, "options": {"backend": "highs"}})
    return payloads


def _run_config(
    n_replicas: int, payloads: list[dict], store_url: str
) -> dict:
    with ClusterHarness(
        n_replicas=n_replicas,
        workers_per_replica=WORKERS_PER_REPLICA,
        store_url=store_url,
        job_timeout=300.0,
    ) as harness:
        client = ServiceClient(harness.url, timeout=120.0)
        start = time.perf_counter()
        job_ids = [
            client.submit("plan", payload)["id"] for payload in payloads
        ]
        latencies = []
        replicas_used = set()
        for job_id in job_ids:
            done = client.wait(job_id, timeout=300.0)
            assert done["state"] == "succeeded", done.get("error")
            latencies.append(done["finished_at"] - done["created_at"])
            replicas_used.add(done["replica"])
        wall = time.perf_counter() - start
        stats = harness.dispatcher.stats()
    return {
        "replicas": n_replicas,
        "wall_seconds": round(wall, 3),
        "jobs_per_second": round(len(payloads) / wall, 4),
        "latency_p50": round(_percentile(latencies, 0.50), 4),
        "latency_p95": round(_percentile(latencies, 0.95), 4),
        "latency_p99": round(_percentile(latencies, 0.99), 4),
        "replicas_used": sorted(replicas_used),
        "routed": stats["counters"].get("dispatcher.jobs.routed", 0),
    }


def _backpressure_probe(store_url: str) -> dict:
    """Flood a 1-worker depth-1 replica; the overflow must 429."""
    doc = state_to_dict(load_enterprise1(scale=0.10))
    with ClusterHarness(
        n_replicas=1,
        workers_per_replica=1,
        store_url=store_url,
        max_queue_depth=1,
        job_timeout=120.0,
    ) as harness:
        client = ServiceClient(harness.url, timeout=30.0)
        accepted: list[str] = []
        rejected = 0
        retry_after = None
        for n in range(6):
            variant = dict(doc)
            variant["name"] = f"{doc['name']}-flood{n}"
            payload = {
                "state": variant,
                "options": {"backend": "highs"},
                "simulation": {
                    "horizon_months": 200_000.0,
                    "mtbf_hours": 100.0,
                    "mttr_hours": 24.0,
                    "seed": n,
                },
            }
            try:
                accepted.append(client.submit("simulate", payload)["id"])
            except ServiceError as exc:
                assert exc.status == 429, f"unexpected status {exc.status}"
                assert exc.retry_after is not None and exc.retry_after >= 1.0
                rejected += 1
                retry_after = exc.retry_after
        # The no-silent-drop contract: every 201 is still tracked.
        for job_id in accepted:
            state = client.job(job_id)["state"]
            assert state in ("queued", "running"), state
            assert client.cancel(job_id)["cancelled"] is True
    return {
        "submitted": len(accepted) + rejected,
        "accepted": len(accepted),
        "rejected_429": rejected,
        "retry_after_hint": retry_after,
    }


def test_bench_cluster_scaling(archive, archive_json, tmp_path):
    payloads = _payloads(JOBS)
    single = _run_config(1, payloads, f"sqlite://{tmp_path}/jobs_1.db")
    multi = _run_config(
        N_REPLICAS, payloads, f"sqlite://{tmp_path}/jobs_n.db"
    )
    backpressure = _backpressure_probe(f"sqlite://{tmp_path}/jobs_bp.db")

    speedup = multi["jobs_per_second"] / single["jobs_per_second"]
    cpus = os.cpu_count() or 1
    lines = [
        "Cluster-tier load benchmark",
        f"workload: {JOBS} distinct plan requests (enterprise1 @ 0.10, "
        f"backend=highs), {WORKERS_PER_REPLICA} workers/replica, {cpus} cpu",
        "",
        f"{'config':<24} {'wall':>8} {'jobs/s':>8} "
        f"{'p50':>7} {'p95':>7} {'p99':>7}",
    ]
    for row in (single, multi):
        lines.append(
            f"{str(row['replicas']) + ' replica(s)':<24} "
            f"{row['wall_seconds']:>7.2f}s {row['jobs_per_second']:>8.2f} "
            f"{row['latency_p50']:>6.2f}s {row['latency_p95']:>6.2f}s "
            f"{row['latency_p99']:>6.2f}s"
        )
    lines += [
        "",
        f"saturation throughput {N_REPLICAS} vs 1 replicas: {speedup:.2f}x"
        + (
            f" (single-core runner: no parallelism to win; the "
            f">= {THROUGHPUT_FLOOR}x floor applies on >= 2 cpus)"
            if cpus < 2
            else f" (acceptance floor >= {THROUGHPUT_FLOOR}x)"
        ),
        f"backpressure probe: {backpressure['accepted']} accepted, "
        f"{backpressure['rejected_429']} rejected with 429 "
        f"(Retry-After {backpressure['retry_after_hint']}s); every "
        "accepted job remained tracked and cancellable",
    ]
    archive("cluster", "\n".join(lines))
    archive_json(
        "cluster",
        {
            "workload_jobs": JOBS,
            "workers_per_replica": WORKERS_PER_REPLICA,
            "single_replica": single,
            "multi_replica": multi,
            "throughput_speedup": round(speedup, 3),
            "throughput_floor": THROUGHPUT_FLOOR,
            "floor_asserted": not SMOKE and cpus >= 2,
            "backpressure": backpressure,
            "cpu_count": cpus,
            "smoke": SMOKE,
        },
    )
    print("\n".join(lines))

    # The multi-replica run actually spread the shard keys around.
    assert len(multi["replicas_used"]) == N_REPLICAS
    assert backpressure["rejected_429"] >= 1
    if not SMOKE and cpus >= 2:
        assert speedup >= THROUGHPUT_FLOOR, (
            f"{N_REPLICAS}-replica saturation throughput only {speedup:.2f}x "
            f"the single replica's on a {cpus}-cpu runner "
            f"(floor {THROUGHPUT_FLOOR}x)"
        )
