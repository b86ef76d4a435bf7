"""milp-cold: one-shot ``repro.solve(method="milp")`` on many small estates.

Every op builds and solves a fresh monolithic MILP with the repo's own
branch-and-bound over the builtin revised/dual simplex (the planner's
``branch_bound`` backend relaxes nodes with scipy's HiGHS unless told
otherwise; that would time the dependency, not this repo).  No cache,
online loop, decomposition or service is on this path, so it is the
bypass arm for each of them.

Estates alternate between enterprise1- and florida-shaped draws (about
100 and 200 servers).  Branch-and-bound time is heavy-tailed in the
instance: one larger estate per run would make the run's figures a
property of that one draw, so each run solves well over a hundred
distinct small ones and its medians and rates average over them.
"""

from __future__ import annotations

import math
import time

import repro
from repro import PlannerOptions, SolveOptions
from repro.core.validation import validate_plan
from repro.datasets import load_enterprise1, load_florida

from harness import Op, cache_layer, core_layers, lp_layer

#: Estates solved per second of ``--seconds`` (sized so a run of the
#: current program takes about ``--seconds`` on a 2-CPU host).
OPS_PER_SECOND = 11
#: Per-solve limit; a solve that hits it has no proof and counts failed.
TIME_LIMIT = 30.0
#: Relative tolerance against the HiGHS reference objective.
REFERENCE_RTOL = 1e-6
#: (loader, scale) pairs the estate stream cycles through.
SHAPES = (("enterprise1", 0.10), ("florida", 0.05))
#: Draw of the fixed warm-up estate (the same in every run).
WARM_UP_SEED = 1


def _options(backend: str = "branch_bound"):
    if backend == "highs":
        # HiGHS stops at a 1e-4 relative gap by default, and did return
        # plans 5e-5 dearer than the proven optimum; the reference must
        # be exact.
        return PlannerOptions(
            backend="highs", solve_options=SolveOptions(mip_rel_gap=1e-9)
        )
    return PlannerOptions(
        backend="branch_bound",
        solve_options=SolveOptions(relaxation_engine="builtin", time_limit=TIME_LIMIT),
    )


def _estate(seed: int, index: int):
    name, scale = SHAPES[index % len(SHAPES)]
    loader = load_enterprise1 if name == "enterprise1" else load_florida
    return loader(seed=seed * 100_003 + index, scale=scale)


class Workload:
    name = "milp-cold"

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        self.solve = repro.solve
        self.options = _options()
        count = max(2, OPS_PER_SECOND * seconds)
        self.estates = [_estate(seed, i) for i in range(count)]
        # Warm-up: the first builtin solve in a process pays lazy set-up.
        # Its estate is the same in every run, so set-up does fixed work.
        self.solve(_estate(WARM_UP_SEED, -1), method="milp", options=self.options)

    def specs(self) -> list:
        return list(range(len(self.estates)))

    def overhead_specs(self) -> tuple[list, bool]:
        return self.specs()[: max(1, len(self.estates) // 4)], True

    def run(self, specs, speed, tracer=None) -> tuple[list[Op], list[float]]:
        ops = []
        for index in specs:
            speed.maybe_sample()
            state = self.estates[index]
            covered = tracer.covered if tracer else 0.0
            start = time.perf_counter()
            try:
                result = self.solve(state, method="milp", options=self.options)
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                ops.append(
                    Op(time.perf_counter() - start, False, start, info={"error": repr(exc)})
                )
                continue
            latency = time.perf_counter() - start
            proven = result.stats is not None and result.gap <= 1e-9
            ops.append(
                Op(
                    latency,
                    proven,
                    start,
                    cost=result.objective,
                    covered=(tracer.covered - covered) if tracer else 0.0,
                    info={"index": index, "result": result},
                )
            )
        speed.sample()
        return ops, [op.latency for op in ops]

    def check(self, ops: list[Op]) -> list[str]:
        """Valid plans whose objective matches an untimed HiGHS solve."""
        errors = []
        reference = _options("highs")
        for op in ops:
            if not op.ok:
                continue
            state = self.estates[op.info["index"]]
            try:
                validate_plan(state, op.info["result"].plan)
            except ValueError as exc:
                errors.append(f"estate {op.info['index']}: invalid plan: {exc}")
                continue
            expected = self.solve(state, method="milp", options=reference).objective
            if abs(op.cost - expected) > REFERENCE_RTOL * max(1.0, abs(expected)):
                errors.append(
                    f"estate {op.info['index']}: objective {op.cost:.6f} "
                    f"!= HiGHS {expected:.6f}"
                )
        return errors

    def summary(self, ops: list[Op]) -> dict[str, float]:
        good = [op for op in ops if op.ok]
        return {
            "plan_cost_usd": sum(op.cost for op in good),
            "gap_max": max((op.info["result"].gap for op in good), default=math.nan),
        }

    def layers(self, ops, tracer, before, after) -> dict[str, float]:
        return {
            **core_layers(tracer),
            **lp_layer(tracer, before, after),
            **cache_layer(before, after),
        }

    def close(self) -> None:
        pass
