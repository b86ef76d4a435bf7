"""decomp-scale: ``repro.solve(method="decomposition")`` on both coordinators.

Ops cycle through synthetic enterprise shapes on both sides of the
engine's ``master_group_limit`` (1,500 groups):

* 300 groups / 1,600 servers / 20 sites: the restricted-master-LP
  column generation path (``lp.master``), where the master LP dominates;
* 1,600 groups / 8,000 servers / 20 sites: the subgradient path, with no
  master LP at all, so a master-LP change must not move it.

There is no branch-and-bound here.  Column-generation time swings by an
order of magnitude between draws of larger master-path estates (an
800-group estate took 4 s on one seed and 58 s on another), so the run
solves a few dozen mid-size estates rather than one big one.
"""

from __future__ import annotations

import math
import time

import repro
from repro.core.validation import validate_plan
from repro.datasets.builders import EnterpriseSpec, build_enterprise_state

from harness import Op, cache_layer, core_layers, lp_layer

#: Decomposition solves per second of ``--seconds``.
OPS_PER_SECOND = 1.5
TIME_LIMIT = 60.0
#: (groups, servers, target sites, expected coordination).  Two master
#: estates per subgradient one: the subgradient estates take about twice
#: as long, and an even mix would put the median between the two modes.
SHAPES = (
    (300, 1_600, 20, "master"),
    (300, 1_600, 20, "master"),
    (1_600, 8_000, 20, "subgradient"),
)
#: Draw of the fixed warm-up estate.
WARM_UP_SEED = 1


def _estate(seed: int, index: int, shape=None):
    groups, servers, targets, _ = shape or SHAPES[index % len(SHAPES)]
    return build_enterprise_state(
        EnterpriseSpec(
            name=f"synthetic-{groups}",
            app_groups=groups,
            total_servers=servers,
            current_datacenters=max(5, targets // 3),
            target_datacenters=targets,
            total_users=float(servers) * 4.0,
            seed=seed * 100_003 + index,
        )
    )


class Workload:
    name = "decomp-scale"

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        self.solve = repro.solve
        self.options = repro.PlannerOptions(solver_options={"time_limit": TIME_LIMIT})
        count = max(2, round(OPS_PER_SECOND * seconds))
        self.estates = [_estate(seed, i) for i in range(count)]
        # Warm-up on an estate that is the same in every run.
        self.solve(
            _estate(WARM_UP_SEED, -1, (60, 300, 10, "master")),
            method="decomposition",
            options=self.options,
        )

    def specs(self) -> list:
        return list(range(len(self.estates)))

    def overhead_specs(self) -> tuple[list, bool]:
        return self.specs()[: max(2, len(self.estates) // 4)], True

    def run(self, specs, speed, tracer=None) -> tuple[list[Op], list[float]]:
        ops = []
        for index in specs:
            speed.maybe_sample()
            covered = tracer.covered if tracer else 0.0
            start = time.perf_counter()
            try:
                result = self.solve(
                    self.estates[index], method="decomposition", options=self.options
                )
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                ops.append(
                    Op(time.perf_counter() - start, False, start, info={"error": repr(exc)})
                )
                continue
            latency = time.perf_counter() - start
            ops.append(
                Op(
                    latency,
                    math.isfinite(result.gap) and latency < TIME_LIMIT,
                    start,
                    cost=result.objective,
                    covered=(tracer.covered - covered) if tracer else 0.0,
                    info={"index": index, "result": result},
                )
            )
        speed.sample()
        return ops, [op.latency for op in ops]

    def check(self, ops: list[Op]) -> list[str]:
        """Valid plans, honest bounds, and the intended coordinator."""
        errors = []
        for op in ops:
            if not op.ok:
                continue
            index, result = op.info["index"], op.info["result"]
            try:
                validate_plan(self.estates[index], result.plan)
            except ValueError as exc:
                errors.append(f"estate {index}: invalid plan: {exc}")
            if result.lower_bound > op.cost * (1 + 1e-9):
                errors.append(f"estate {index}: bound {result.lower_bound} > {op.cost}")
            gap = (op.cost - result.lower_bound) / op.cost
            if abs(gap - result.gap) > 1e-9:
                errors.append(f"estate {index}: gap {result.gap} disagrees with bound")
            master = result.stats.extra.get("decomp_master") == 1.0
            expected = SHAPES[index % len(SHAPES)][3]
            if master != (expected == "master"):
                errors.append(f"estate {index}: expected the {expected} path")
        return errors

    def summary(self, ops: list[Op]) -> dict[str, float]:
        good = [op for op in ops if op.ok]
        return {
            "plan_cost_usd": sum(op.cost for op in good),
            "gap_max": max((op.info["result"].gap for op in good), default=math.nan),
        }

    def layers(self, ops, tracer, before, after) -> dict[str, float]:
        extras = [op.info["result"].stats.extra for op in ops if op.ok]
        return {
            **core_layers(tracer),
            **lp_layer(tracer, before, after),
            **cache_layer(before, after),
            "decomp.rounds": sum(e.get("decomp_rounds", 0.0) for e in extras),
            "decomp.columns": sum(e.get("decomp_columns", 0.0) for e in extras),
        }

    def close(self) -> None:
        pass
