"""Shared machinery of the benchmark: op records, outside-in layer
timing, summary statistics, memory and the environment stamp.

Layer timing wraps the public functions of each layer *from here*: the
wrapper replaces the function object wherever a loaded ``repro`` module
holds a reference to it (``from x import f`` copies the reference into
the importing module), so every call site is timed without touching the
program's source.  Nothing is wrapped unless a :class:`Tracer` is
installed, so untraced passes run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Op:
    """One timed operation: a solve, a replay episode or a service job."""

    latency: float
    ok: bool
    #: ``time.perf_counter()`` when the op began.
    start: float = 0.0
    cost: float = math.nan
    #: Seconds of the op covered by outermost layer spans (traced runs).
    covered: float = 0.0
    info: dict = field(default_factory=dict)


#: Seconds :func:`_speed_kernel` takes on the reference core; timings
#: are reported in seconds of a core running at that speed.
REFERENCE_KERNEL_S = 0.0025
#: Op times move more than the kernel's as the host's speed changes: in
#: log terms, per-run throughput of the sequential workloads moved 0.9 to
#: 2.6 times as much as the kernel.  A slowdown is the kernel's time ratio
#: to this power, the value that made the ten-seed spreads narrowest
#: (perfbench/README.md).  A workload may set its own ``elasticity``.
ELASTICITY = 1.5


def _speed_kernel() -> int:
    # Pure interpreter work: of the kernels tried (adding array work,
    # dict lookups or mat-vec products), this one tracked the solve
    # times of the branch-and-bound best.
    total = 0
    for i in range(30_000):
        total += i * i
    return total


class Speed:
    """How fast the core runs right now, sampled between ops.

    On a shared host the same solve can take 30 % longer from one minute
    to the next as the core's speed changes.  A fixed pure-Python kernel
    timed next to the ops tracks that speed, and dividing each op's time
    by the slowdown the kernel saw around it reports the op in seconds
    of the reference core.  The samples run between ops, never inside
    one.
    """

    def __init__(self, interval: float = 0.05, elasticity: float = ELASTICITY) -> None:
        self.interval = interval
        self.elasticity = elasticity
        self.samples: list[tuple[float, float]] = []
        self._last = -math.inf

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = time.perf_counter()
            _speed_kernel()
            end = time.perf_counter()
            self.samples.append((start, end - start))
            self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """Slowdown from the kernel's median time around ``[start, end]``."""
        near = [d for t, d in self.samples if start - 1.0 <= t <= end + 1.0]
        if len(near) < 3:
            mid = (start + end) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        if not near:
            return 1.0
        return (statistics.median(near) / REFERENCE_KERNEL_S) ** self.elasticity

    def mean_slowdown(self) -> float:
        if not self.samples:
            return 1.0
        mean = statistics.mean(d for _, d in self.samples)
        return (mean / REFERENCE_KERNEL_S) ** self.elasticity

    def normalized(self, op: "Op") -> float:
        return op.latency / self.slowdown(op.start, op.start + op.latency)


class Tracer:
    """Spans around layer calls: totals, call counts and self time.

    The span stack is per thread (the service clients encode payloads
    from two threads); totals are shared under a lock.
    """

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.child: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = defaultdict(float)
        self.solve_stats: list = []
        self._covered = 0.0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, on_result=None):
        stack = self._stack()
        stack.append(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self._lock:
                self.total[name] += elapsed
                self.calls[name] += 1
                if stack:
                    self.child[stack[-1]] += elapsed
                else:
                    self._covered += elapsed
        if on_result is not None:
            with self._lock:
                on_result(args, result)
        return result

    def span(self, name: str, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` as a span named ``name``."""
        return self.call(name, fn, args, kwargs)

    @property
    def covered(self) -> float:
        """Seconds spent in outermost spans so far (all threads)."""
        with self._lock:
            return self._covered

    def self_time(self, name: str) -> float:
        return self.total[name] - self.child[name]

    # -- wrapping ------------------------------------------------------------

    def wrap_function(self, orig, name: str, on_result=None) -> None:
        """Time every call of module-level function ``orig``."""

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, on_result)

        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, attr, orig))
                    setattr(module, attr, wrapper)

    def wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``cls.attr``."""
        orig = cls.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, orig, args, kwargs, on_result)

        self._restore.append((cls, attr, orig))
        setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        """Wrap the public entry points of the in-process layers."""
        from repro.core import decomposition, formulation, plan, validation
        from repro.lp import master, solvers

        def model_built(args, _result):
            problem = args[0].problem
            self.values["formulation.vars"] += problem.num_variables
            self.values["formulation.rows"] += problem.num_constraints

        def lp_solved(_args, solution):
            if solution.stats is not None:
                self.solve_stats.append(solution.stats)
            if solution.status.value == "feasible":
                self.values["lp.unproven"] += 1

        def master_solved(_args, solution):
            self.values["decomp.master_iterations"] += solution.iterations

        self.wrap_method(
            formulation.ConsolidationModel, "__init__", "formulation.build",
            model_built,
        )
        self.wrap_function(validation.validate_state, "validation.state")
        self.wrap_function(validation.validate_plan, "validation.plan")
        self.wrap_function(plan.evaluate_plan, "plan.evaluate")
        self.wrap_function(solvers.solve, "lp.solve", lp_solved)
        self.wrap_function(decomposition.extract_group_blocks, "decomp.blocks")
        self.wrap_function(decomposition.solve_decomposition, "decomp.solve")
        self.wrap_method(
            master.RestrictedMasterLP, "solve", "decomp.master", master_solved
        )
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()


def counter_delta(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def lp_layer(tracer: Tracer, before: dict, after: dict) -> dict[str, float]:
    """``lp.*`` metrics from the wrapped ``lp.solve`` and its SolveStats."""
    stats = tracer.solve_stats
    solve_s = tracer.total["lp.solve"]
    relax = sum(s.relaxation_solve_seconds for s in stats)
    convert = sum(s.conversion_seconds for s in stats)
    hits = sum(s.warm_start_hits for s in stats)
    misses = sum(s.warm_start_misses for s in stats)
    node_solves = counter_delta(before, after, "relaxation.node_solves")
    return {
        "lp.solve_s": solve_s,
        "lp.relax_s": relax,
        "lp.convert_s": convert,
        "lp.bb_self_s": solve_s - relax - convert,
        "lp.nodes": sum(s.nodes_explored for s in stats),
        "lp.node_solves_per_s": node_solves / solve_s if solve_s > 0 else 0.0,
        "lp.cuts_added": sum(s.cuts_added for s in stats),
        "lp.iterations": sum(s.lp_iterations for s in stats),
        "lp.refactorizations": sum(s.refactorizations for s in stats),
        "lp.dual_entries": sum(s.dual_entries for s in stats),
        "lp.dual_fallbacks": sum(s.dual_fallbacks for s in stats),
        "lp.warm_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "lp.presolve_rows_dropped": counter_delta(
            before, after, "relaxation.presolve_rows_dropped"
        ),
        # Solves that stopped on a node or time budget with an incumbent.
        "lp.unproven_solves": tracer.values["lp.unproven"],
    }


def cache_layer(before: dict, after: dict) -> dict[str, float]:
    """``cache.*`` metrics: SolveCache / incremental counter movement."""

    def delta(name: str) -> float:
        return counter_delta(before, after, f"incremental.{name}")

    hits, misses = delta("fingerprint_hits"), delta("fingerprint_misses")
    return {
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.context_rebuilds": delta("context_rebuilds"),
        "cache.context_extended": delta("context_extended"),
        "cache.hint_repaired": delta("hint_repaired"),
        "cache.warm_start_seeded": delta("warm_start_seeded"),
        "cache.reduced_cost_fixed": delta("reduced_cost_fixed"),
    }


def core_layers(tracer: Tracer) -> dict[str, float]:
    """Formulation, validation, evaluation and decomposition spans."""
    return {
        "formulation.build_s": tracer.total["formulation.build"],
        "formulation.vars": tracer.values["formulation.vars"],
        "formulation.rows": tracer.values["formulation.rows"],
        "validation.state_s": tracer.total["validation.state"],
        "validation.plan_s": tracer.total["validation.plan"],
        "plan.evaluate_s": tracer.total["plan.evaluate"],
        "decomp.blocks_s": tracer.total["decomp.blocks"],
        "decomp.master_s": tracer.total["decomp.master"],
        "decomp.master_solves": float(tracer.calls["decomp.master"]),
        "decomp.master_iterations": tracer.values["decomp.master_iterations"],
        "decomp.self_s": tracer.self_time("decomp.solve"),
    }


# -- summaries -----------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def rss_self_mb() -> float:
    """Peak resident memory of this process (MiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_peak_mb_of(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of a live process (Linux ``/proc``)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as handle:
            return [int(p) for p in handle.read().split()]
    except OSError:
        return []


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    """The stamp every result carries."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
