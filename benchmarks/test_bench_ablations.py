"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these isolate what each modeling ingredient buys:

* economies of scale (Schoomer segment binaries) vs flat base pricing;
* shared single-failure backup pools vs dedicated per-group backups;
* metered vs dedicated-VPN WAN pricing;
* the exact solvers against each other (HiGHS vs our branch & bound)
  and against the relax-and-round heuristic.
"""

from __future__ import annotations

import pytest

import repro
from repro.core import (
    ConsolidationModel,
    ETransformPlanner,
    ModelOptions,
    PlannerOptions,
)
from repro.datasets import load_enterprise1
from repro.lp import SolveOptions, SolveStatus, solve

from .conftest import run_once

GAP = {"mip_rel_gap": 0.005, "time_limit": 120}


def test_bench_ablation_economies_of_scale(benchmark, archive):
    """Volume discounts modeled exactly vs ignored (base-tier pricing)."""
    state = load_enterprise1()

    def run():
        with_scale = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(backend="highs", solver_options=GAP),
        ).plan
        flat = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs",
                economies_of_scale=False,
                solver_options=GAP,
            ),
        ).plan
        return with_scale, flat

    with_scale, flat = run_once(benchmark, run)
    # Both plans are re-priced by the same evaluator (true step costs),
    # so the exact model can only win: it optimizes the real bill while
    # the flat model optimizes a distorted one.  Tolerance covers the
    # MIP gap on both solves.
    tolerance = 0.012 * flat.total_cost
    assert with_scale.total_cost <= flat.total_cost + tolerance
    # And the flat model's own belief (base-tier pricing) overestimates
    # what its placement actually costs — the distortion being ablated.
    base_tier_estimate = sum(
        state.target(name).space_cost.unit_price(1) * usage.total_servers
        for name, usage in flat.usage.items()
    )
    assert base_tier_estimate > flat.breakdown.space
    archive(
        "ablation_economies_of_scale",
        f"plan optimized with exact volume discounts: ${with_scale.total_cost:,.0f}\n"
        f"plan optimized at flat base-tier prices:    ${flat.total_cost:,.0f}\n"
        f"flat model's believed space bill: ${base_tier_estimate:,.0f} "
        f"(actual: ${flat.breakdown.space:,.0f})",
    )


def test_bench_ablation_shared_vs_dedicated_pools(benchmark, archive):
    """The paper's shared single-failure pools vs per-group backups."""
    state = load_enterprise1(scale=0.2)

    def run():
        shared = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                enable_dr=True,
                backend="highs",
                solve_options=SolveOptions(mip_rel_gap=0.02, time_limit=90),
            ),
        ).plan
        planner = ETransformPlanner(
            state,
            PlannerOptions(
                enable_dr=True,
                dedicated_backups=True,
                backend="highs",
                solver_options={"mip_rel_gap": 0.02, "time_limit": 90},
            ),
        )
        dedicated = planner.build_plan()
        return shared, dedicated

    shared, dedicated = run_once(benchmark, run)
    assert shared.total_cost <= dedicated.total_cost + 1e-6
    assert sum(shared.backup_servers.values()) <= sum(dedicated.backup_servers.values())
    archive(
        "ablation_backup_sharing",
        f"shared pools:    {sum(shared.backup_servers.values())} servers, "
        f"${shared.total_cost:,.0f}\n"
        f"dedicated pools: {sum(dedicated.backup_servers.values())} servers, "
        f"${dedicated.total_cost:,.0f}",
    )


def test_bench_ablation_wan_models(benchmark, archive):
    """Metered per-megabit vs distance-priced dedicated VPN links."""
    state = load_enterprise1(scale=0.3)

    def run():
        metered = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs",
                wan_model="metered",
                solver_options=GAP,
            ),
        ).plan
        vpn = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs",
                wan_model="vpn",
                solver_options=GAP,
            ),
        ).plan
        return metered, vpn

    metered, vpn = run_once(benchmark, run)
    # Different regimes price different placements; both must be valid
    # and WAN must be a live component under each.
    assert metered.breakdown.wan > 0
    assert vpn.breakdown.wan > 0
    archive(
        "ablation_wan_models",
        f"metered WAN plan: ${metered.total_cost:,.0f} "
        f"(WAN ${metered.breakdown.wan:,.0f}) into {metered.datacenters_used}\n"
        f"VPN WAN plan:     ${vpn.total_cost:,.0f} "
        f"(WAN ${vpn.breakdown.wan:,.0f}) into {vpn.datacenters_used}",
    )


def test_bench_ablation_solver_backends(benchmark, archive):
    """Our exact branch & bound agrees with HiGHS."""
    state = load_enterprise1(scale=0.08)
    model = ConsolidationModel(state, ModelOptions())

    def run():
        highs = solve(model.problem, backend="highs")
        bb = solve(
            model.problem,
            backend="branch_bound",
            options=SolveOptions(node_limit=50_000),
        )
        return highs, bb

    highs, bb = run_once(benchmark, run)
    assert highs.status is SolveStatus.OPTIMAL
    assert bb.status is SolveStatus.OPTIMAL
    assert highs.objective == pytest.approx(bb.objective, rel=1e-6)
    lines = [
        f"highs:        obj ${highs.objective:,.0f}",
        f"branch&bound: obj ${bb.objective:,.0f} ({bb.iterations} nodes)",
    ]
    archive("ablation_solver_backends", "\n".join(lines))
