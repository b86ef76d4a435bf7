"""Planning-service throughput vs sequential one-shot CLI runs.

The same mixed workload — several distinct plan requests, each
submitted twice, the way a dashboard or a fleet of admins actually
drives a planner — is executed two ways:

* **sequential baseline**: one ``python -m repro.cli plan`` subprocess
  per request.  Every run pays the full interpreter + numpy/scipy cold
  start and re-solves duplicates from scratch; this is what operating
  the planner as a one-shot tool costs.
* **service**: one :class:`~repro.service.JobManager` with a pool of 4
  forked workers.  Workers inherit the warm solver stack (no cold
  start) and the fingerprint-keyed result cache serves every duplicate
  without touching a worker.

Two figures are reported, deliberately kept apart so cache dedup is
never conflated with pool throughput:

* **cache-cold pool throughput** — the first wave, where every request
  misses the result cache and actually occupies a worker, against the
  sequential per-job rate.  On a multi-core box this shows pool
  parallelism; on a single-core runner it is only the amortized
  interpreter + numpy start-up, so the CPU count is archived with it.
* **aggregate workload throughput** — all waves, where the fingerprint
  cache serves every repeat.  This is the figure the PR's >= 3x
  acceptance floor applies to: repeat traffic is the workload the
  service exists for, and serving it without a solve is the design.

Smoke mode (``SERVICE_SMOKE=1``, used by CI) shrinks the workload and
skips the speedup assertion — machine load must not fail CI.
Archives ``bench_results/service.txt`` + ``BENCH_service.json``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

from repro.datasets import load_enterprise1
from repro.io import save_state, state_to_dict
from repro.service import JobManager, JobState, ServiceConfig

SMOKE = os.environ.get("SERVICE_SMOKE", "") not in ("", "0")
SCALES = (0.10, 0.15) if SMOKE else (0.10, 0.15, 0.20, 0.25)
REPEATS = 3  # each unique request submitted this many times
WORKERS = 4
SPEEDUP_FLOOR = 3.0

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _sequential_cli(state_files: list[str]) -> float:
    """Run one cold ``repro.cli plan`` subprocess per request."""
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC
    start = time.perf_counter()
    for path in state_files:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "plan", path, "--backend", "highs"],
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
    return time.perf_counter() - start


def _service(waves: list[list[dict]]) -> tuple[list[float], dict]:
    """Run each wave of requests against a warm 4-worker service.

    Waves model repeat traffic: the second wave re-requests what the
    first already asked for, the way operators and dashboards do, so
    the fingerprint cache gets to serve it without a solve.  Each wave
    is timed separately — wave 1 is all cache misses, so its wall time
    is the pool's cache-cold throughput.
    """
    config = ServiceConfig(workers=WORKERS, job_timeout=300.0)
    wave_walls: list[float] = []
    with JobManager(config) as manager:
        for wave in waves:
            start = time.perf_counter()
            records = [manager.submit("plan", payload) for payload in wave]
            for record in records:
                done = manager.wait(record.id, timeout=300.0)
                assert done.state is JobState.SUCCEEDED, done.error
            wave_walls.append(time.perf_counter() - start)
        stats = manager.stats()
    return wave_walls, stats


def test_bench_service_throughput(archive, archive_json, tmp_path):
    states = [load_enterprise1(scale=scale) for scale in SCALES]
    state_files = []
    for scale, state in zip(SCALES, states):
        path = str(tmp_path / f"state_{scale}.json")
        save_state(state, path)
        state_files.append(path)

    # The workload: every unique request arrives REPEATS times, in
    # waves (the second wave re-requests the first wave's plans).
    cli_jobs = state_files * REPEATS
    wave = [
        {"state": state_to_dict(state), "options": {"backend": "highs"}}
        for state in states
    ]
    waves = [wave] * REPEATS

    seq_wall = _sequential_cli(cli_jobs)
    wave_walls, stats = _service(waves)
    svc_wall = sum(wave_walls)
    cold_wall = wave_walls[0]  # wave 1: every request misses the cache

    jobs = len(cli_jobs)
    unique = len(SCALES)
    seq_jps = jobs / seq_wall
    cold_jps = unique / cold_wall if cold_wall > 0 else float("inf")
    svc_jps = jobs / svc_wall if svc_wall > 0 else float("inf")
    cold_speedup = cold_jps / seq_jps
    overall_speedup = svc_jps / seq_jps
    cpus = os.cpu_count() or 1
    lines = [
        "Planning-service throughput benchmark",
        f"workload: {unique} unique plan requests x {REPEATS} "
        f"submissions = {jobs} jobs (backend=highs, {cpus} cpu)",
        "",
        f"{'mode':<38} {'jobs':>5} {'wall':>9} {'jobs/s':>8}",
        f"{'sequential one-shot CLI':<38} {jobs:>5} "
        f"{seq_wall:>8.2f}s {seq_jps:>8.2f}",
        f"{'service pool=' + str(WORKERS) + ', cache-cold (wave 1)':<38} "
        f"{unique:>5} {cold_wall:>8.2f}s {cold_jps:>8.2f}",
        f"{'service pool=' + str(WORKERS) + ', all waves (warm+cache)':<38} "
        f"{jobs:>5} {svc_wall:>8.2f}s {svc_jps:>8.2f}",
        "",
        f"cache-cold pool throughput: {cold_speedup:.1f}x vs one-shot CLI"
        + (
            " (single-core runner: start-up amortization only, no parallel win)"
            if cpus == 1
            else f" (pool parallelism across {cpus} cpus + start-up amortization)"
        ),
        f"aggregate workload throughput: {overall_speedup:.1f}x "
        f"({stats['cache']['hits']} of {jobs} jobs served from the result "
        f"cache, {stats['cache']['misses']} solved; acceptance floor "
        f">= {SPEEDUP_FLOOR:.0f}x applies to this figure)",
    ]
    archive("service", "\n".join(lines))
    archive_json(
        "service",
        {
            "workload_jobs": jobs,
            "unique_requests": unique,
            "pool_size": WORKERS,
            "sequential_wall_seconds": round(seq_wall, 3),
            "service_cold_wall_seconds": round(cold_wall, 3),
            "service_wall_seconds": round(svc_wall, 3),
            "sequential_jobs_per_second": round(seq_jps, 4),
            "service_cold_jobs_per_second": round(cold_jps, 4),
            "service_jobs_per_second": round(svc_jps, 4),
            "speedup_cache_cold": round(cold_speedup, 3),
            "speedup_overall": round(overall_speedup, 3),
            "cpu_count": cpus,
            "cache": stats["cache"],
            "smoke": SMOKE,
        },
    )
    print("\n".join(lines))

    # Correct dedup: every duplicate was a fingerprint-cache hit.
    expected_hits = jobs - unique
    assert stats["cache"]["hits"] == expected_hits
    if not SMOKE:
        assert overall_speedup >= SPEEDUP_FLOOR, (
            f"aggregate service speedup {overall_speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x floor (sequential {seq_wall:.2f}s vs "
            f"service {svc_wall:.2f}s)"
        )
        # The cold figure has no parallelism to win on a 1-cpu runner;
        # elsewhere the pool itself must clear the floor too.
        if cpus >= WORKERS:
            assert cold_speedup >= SPEEDUP_FLOOR, (
                f"cache-cold service speedup {cold_speedup:.2f}x below the "
                f"{SPEEDUP_FLOOR}x floor on a {cpus}-cpu runner"
            )
