"""Decomposition vs monolithic B&B: the scaling headline of PR 8.

Two ladders under the same per-solve wall-clock budget:

* **monolithic** — the builtin branch-and-bound MILP on growing
  enterprise1 scales, climbing until a solve blows the budget (no
  incumbent / gap over target).  The last rung that solves is the
  monolithic frontier.
* **decomposition** — the Dantzig-Wolfe/Lagrangian engine on estates
  from enterprise1 scale (~1k servers) up to a 110k-server synthetic
  enterprise, each solve reporting its certified duality gap.

Acceptance (asserted here, archived in ``BENCH_decomp.json``):

* the decomposition frontier is at least **10x** the monolithic
  frontier in servers, inside the same budget;
* every **at-scale** decomposition arm (the rungs past the monolithic
  frontier, marked ``certify`` in the ladder) certifies a gap of at
  most **2 %**;
* on estates where both engines solve, the decomposition objective is
  within its own reported gap of the monolithic optimum.

The small enterprise1 rungs record their gap but are not held to the
2 % certificate: the Lagrangian bound prices space at its convex
envelope, which only meets the step schedule once site loads reach the
deep tiers, so toy estates certify ~5 % even when the plan itself is
within 0.2 % of the exact optimum (the parity assertion shows this).
Those estates are ``method="milp"`` territory under the auto rule; the
certificate tightens exactly where decomposition is the only engine
that can still solve.

A ``federal`` arm runs the second case-study dataset through the
engine as a distribution shift check (different price ranges and
estate shape than enterprise1).

Smoke mode (``DECOMP_SMOKE=1``, used by CI) shrinks both ladders and
the budget so the module finishes in seconds; the 10x assertion is
relaxed to "decomposition out-scales monolithic" since at toy scale
both frontiers sit inside the ladder.
"""

from __future__ import annotations

import os
import time

from repro.core.decomposition import DecompositionConfig, solve_decomposition
from repro.core.planner import ETransformPlanner, PlannerOptions, PlanningError
from repro.datasets import load_enterprise1, load_federal
from repro.datasets.builders import EnterpriseSpec, build_enterprise_state

SMOKE = os.environ.get("DECOMP_SMOKE", "") not in ("", "0")

#: Per-solve wall-clock budget, both ladders (seconds).
BUDGET = 20.0 if SMOKE else 120.0

#: Monolithic ladder: enterprise1 scales, climbed until a rung fails.
MONO_SCALES = (0.08, 0.12) if SMOKE else (0.3, 0.5, 0.7, 1.0)

#: Decomposition ladder: (label, state builder).
GAP_TARGET = 0.02


def _synthetic(groups: int, servers: int, targets: int, seed: int = 5):
    return build_enterprise_state(
        EnterpriseSpec(
            name=f"synthetic-{servers}",
            app_groups=groups,
            total_servers=servers,
            current_datacenters=max(5, targets // 3),
            target_datacenters=targets,
            total_users=float(servers) * 4.0,
            seed=seed,
        )
    )


def _decomp_ladder():
    """(label, state builder, must-certify) rungs, smallest first."""
    if SMOKE:
        return [
            ("enterprise1 x0.3", lambda: load_enterprise1(scale=0.3), False),
            ("synthetic-11k", lambda: _synthetic(2_000, 11_000, 40), True),
        ]
    return [
        ("enterprise1", lambda: load_enterprise1(), False),
        ("synthetic-11k", lambda: _synthetic(2_000, 11_000, 40), True),
        ("synthetic-110k", lambda: _synthetic(20_000, 110_000, 120), True),
    ]


def _servers(state) -> int:
    return sum(g.servers for g in state.app_groups)


def _run_monolithic(state) -> dict:
    start = time.perf_counter()
    try:
        plan = ETransformPlanner(
            state,
            PlannerOptions(
                backend="branch_bound",
                solver_options={"time_limit": BUDGET, "gap_tolerance": GAP_TARGET},
            ),
        ).build_plan()
    except PlanningError as exc:
        return {
            "solved": False,
            "elapsed_seconds": round(time.perf_counter() - start, 3),
            "error": str(exc),
        }
    elapsed = time.perf_counter() - start
    stats = plan.solver_stats
    gap = stats.mip_gap if stats is not None else None
    solved = elapsed <= BUDGET * 1.05 and gap is not None and gap <= GAP_TARGET + 1e-9
    return {
        "solved": solved,
        "elapsed_seconds": round(elapsed, 3),
        "objective": plan.breakdown.total,
        "gap": gap,
        "nodes": stats.nodes_explored if stats is not None else None,
        "cuts_added": stats.cuts_added if stats is not None else None,
    }


def _run_decomposition(state) -> dict:
    start = time.perf_counter()
    outcome = solve_decomposition(
        state,
        config=DecompositionConfig(time_limit=BUDGET, gap_target=GAP_TARGET),
    )
    elapsed = time.perf_counter() - start
    return {
        "solved": elapsed <= BUDGET * 1.05,
        "certified": outcome.gap <= GAP_TARGET,
        "elapsed_seconds": round(elapsed, 3),
        "objective": outcome.upper_bound,
        "lower_bound": outcome.lower_bound,
        "gap": outcome.gap,
        "rounds": outcome.rounds,
        "columns": outcome.columns,
        "lp_iterations": outcome.stats.lp_iterations,
        "master_seconds": round(outcome.stats.extra["decomp_master_seconds"], 6),
        "master_iterations": int(outcome.stats.extra["decomp_master_iterations"]),
        "coordination": outcome.coordination,
    }


def test_bench_decomposition_scaling(archive, archive_json):
    record: dict = {
        "budget_seconds": BUDGET,
        "gap_target": GAP_TARGET,
        "smoke": SMOKE,
        "monolithic": [],
        "decomposition": [],
    }
    lines = [
        "Decomposition vs monolithic branch-and-bound",
        f"  per-solve budget             {BUDGET:g} s "
        f"(gap target {GAP_TARGET:.0%})",
    ]

    # --- monolithic ladder: climb until a rung fails ----------------------
    mono_frontier = 0
    mono_results: dict[float, dict] = {}
    for scale in MONO_SCALES:
        state = load_enterprise1(scale=scale)
        servers = _servers(state)
        result = _run_monolithic(state)
        result.update(scale=scale, servers=servers,
                      groups=len(state.app_groups))
        record["monolithic"].append(result)
        mono_results[scale] = result
        status = (
            f"ok {result['elapsed_seconds']:.1f}s gap {result['gap']:.2%} "
            f"{result['nodes']} nodes {result['cuts_added']} cuts"
            if result["solved"]
            else f"FAILED after {result['elapsed_seconds']:.1f}s"
        )
        lines.append(
            f"  monolithic x{scale:<4} {len(state.app_groups):>6} groups "
            f"{servers:>7} servers   {status}"
        )
        if not result["solved"]:
            break
        mono_frontier = servers
    assert mono_frontier > 0, "monolithic must solve at least the smallest rung"

    # --- decomposition ladder --------------------------------------------
    decomp_frontier = 0
    for label, build, must_certify in _decomp_ladder():
        state = build()
        servers = _servers(state)
        result = _run_decomposition(state)
        result.update(label=label, servers=servers, groups=len(state.app_groups),
                      targets=len(state.target_datacenters),
                      at_scale=must_certify)
        record["decomposition"].append(result)
        lines.append(
            f"  decomp {label:<14} {len(state.app_groups):>6} groups "
            f"{servers:>7} servers   {result['elapsed_seconds']:>6.1f}s "
            f"gap {result['gap']:.2%} ({result['coordination']}; master "
            f"{result['master_seconds']:.2f}s / {result['master_iterations']} pivots)"
        )
        assert result["solved"], f"{label}: blew the wall-clock budget"
        if must_certify:
            assert result["certified"], (
                f"{label}: certified gap {result['gap']:.2%} over target"
            )
            decomp_frontier = max(decomp_frontier, servers)

    # --- parity where both engines solve ---------------------------------
    parity_scale = MONO_SCALES[0]
    mono = mono_results[parity_scale]
    state = load_enterprise1(scale=parity_scale)
    decomp = _run_decomposition(state)
    rel = (decomp["objective"] - mono["objective"]) / mono["objective"]
    record["parity"] = {
        "scale": parity_scale,
        "monolithic_objective": mono["objective"],
        "decomposition_objective": decomp["objective"],
        "relative_excess": rel,
        "reported_gap": decomp["gap"],
    }
    lines.append(
        f"  parity (x{parity_scale:g})            decomp is {rel:+.3%} vs "
        f"monolithic (certified {decomp['gap']:.2%})"
    )
    # The bound certificate must cover the distance to the true optimum
    # (the monolithic solve itself stops at GAP_TARGET, hence the slack).
    assert decomp["lower_bound"] <= mono["objective"] * (1 + GAP_TARGET) + 1e-6
    assert rel <= decomp["gap"] + GAP_TARGET + 1e-9

    # --- federal arm ------------------------------------------------------
    federal = load_federal(scale=0.3 if SMOKE else 1.0)
    fed = _run_decomposition(federal)
    fed.update(label="federal", servers=_servers(federal),
               groups=len(federal.app_groups))
    record["federal"] = fed
    lines.append(
        f"  federal        {fed['groups']:>6} groups {fed['servers']:>7} "
        f"servers   {fed['elapsed_seconds']:>6.1f}s gap {fed['gap']:.2%}"
    )
    assert fed["gap"] <= GAP_TARGET

    # --- the headline -----------------------------------------------------
    ratio = decomp_frontier / mono_frontier
    record["monolithic_frontier_servers"] = mono_frontier
    record["decomposition_frontier_servers"] = decomp_frontier
    record["scale_ratio"] = round(ratio, 2)
    lines += [
        f"  frontier                     monolithic {mono_frontier} servers, "
        f"decomposition {decomp_frontier} servers",
        f"  scale ratio                  {ratio:.1f}x",
        f"  smoke mode                   {SMOKE}",
    ]
    if SMOKE:
        assert ratio > 1.0
    else:
        assert ratio >= 10.0, (
            f"decomposition frontier only {ratio:.1f}x the monolithic one"
        )

    archive("decomp", "\n".join(lines))
    archive_json("decomp", record)
