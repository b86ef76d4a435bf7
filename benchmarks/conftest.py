"""Benchmark plumbing.

Each benchmark regenerates one table/figure of the paper, asserts its
qualitative shape, and archives the rendered text under
``bench_results/`` so the series the paper reports can be inspected
after a ``pytest benchmarks/ --benchmark-only`` run.

Alongside each human-readable ``<name>.txt``, every benchmark module
also writes a machine-readable ``BENCH_<name>.json`` — wall time,
solver throughput (solves/second) and the telemetry-counter deltas the
module produced (solve cache hits, incremental shortcuts, service
counters).  The record is assembled automatically by a module-scoped
fixture; benchmarks with extra figures of merit merge them in through
the ``archive_json`` fixture.  Each record is stamped with the commit
and library versions that produced it and also appended, as one line,
to ``bench_results/history.jsonl``, so successive runs form a history
instead of overwriting each other.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "bench_results"
HISTORY = RESULTS_DIR / "history.jsonl"

#: Extra JSON fields contributed by individual benchmarks, name → dict.
_EXTRA_JSON: dict[str, dict] = {}


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _environment() -> dict:
    """Commit, CPU count and library versions behind a bench record."""
    import numpy

    try:
        import scipy
    except ImportError:
        scipy = None
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy is not None else None,
    }


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def archive(results_dir):
    """Callable: archive(name, text) → writes bench_results/<name>.txt."""

    def _archive(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n", encoding="utf-8")

    return _archive


@pytest.fixture(scope="session")
def archive_json():
    """Callable: archive_json(name, record) → extra fields for the
    module's ``BENCH_<name>.json`` (merged over the automatic ones)."""

    def _archive(name: str, record: dict) -> None:
        _EXTRA_JSON.setdefault(name, {}).update(record)

    return _archive


@pytest.fixture(scope="module", autouse=True)
def bench_json(request, results_dir):
    """Write ``BENCH_<module>.json`` after each benchmark module runs."""
    from repro.telemetry import metrics

    name = request.module.__name__.rsplit(".", 1)[-1]
    name = name.removeprefix("test_bench_")
    before = metrics.snapshot()
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    after = metrics.snapshot()
    counters = {
        key: after[key] - before.get(key, 0.0)
        for key in sorted(after)
        if after[key] != before.get(key, 0.0)
    }
    solves = counters.get("solves.total", 0.0)
    record = {
        "benchmark": name,
        "generated_at": time.time(),
        "wall_seconds": round(wall, 6),
        "solves": solves,
        "ops_per_second": round(solves / wall, 6) if wall > 0 else 0.0,
        "counters": counters,
        **_environment(),
    }
    record.update(_EXTRA_JSON.get(name, {}))
    path = results_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    with HISTORY.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def run_once(benchmark, fn):
    """Run an expensive experiment exactly once under the timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
