"""Human-readable "to-be" state reports (the output-generation module)."""

from __future__ import annotations

import math

from ..core.entities import AsIsState
from ..core.plan import TransformationPlan
from ..telemetry import SolveStats


def _money(value: float) -> str:
    return f"${value:,.0f}"


def _bound(value: float) -> str:
    return f"{value:,.2f}" if math.isfinite(value) else "n/a"


def _gap(value: float) -> str:
    return f"{value * 100.0:.4f}%" if math.isfinite(value) else "n/a"


def render_solve_stats(stats: SolveStats) -> str:
    """Per-solve statistics block (the CLI's ``--profile`` output)."""
    lines = [
        "Solver statistics",
        f"  backend                        {stats.backend or 'n/a'}",
        f"  wall-clock seconds             {stats.elapsed_seconds:.3f}",
        f"  LP iterations                  {stats.lp_iterations}",
        f"    phase-1 / phase-2            {stats.phase1_iterations} / {stats.phase2_iterations}",
        f"    Bland switches               {stats.bland_switches}",
        f"    degenerate pivots            {stats.degenerate_pivots}",
        f"  conversion / solve seconds     {stats.conversion_seconds:.3f} / "
        f"{stats.relaxation_solve_seconds:.3f}",
        f"  warm starts (hit / miss)       {stats.warm_start_hits} / {stats.warm_start_misses}",
        f"  basis refactorizations         {stats.refactorizations}",
        f"    eta file length at refactor  {stats.eta_file_length}",
        f"  pricing passes                 {stats.pricing_passes}",
        f"  bound-flip pivots              {stats.bound_flips}",
        "  dual re-solves (entry / fall)  "
        f"{stats.dual_entries} / {stats.dual_fallbacks}",
        f"    dual pivots                  {stats.dual_pivots}",
        "  context extended / hint fixed  "
        f"{stats.context_extended} / {stats.hint_repaired} "
        f"({stats.hint_repair_seconds:.3f} s repairing)",
        f"    bordered dual re-entries     {stats.extension_dual_entries}",
        f"  B&B nodes explored             {stats.nodes_explored}",
        f"  B&B nodes pruned               {stats.nodes_pruned}",
        f"  cut rounds / cuts added        {stats.cut_rounds} / {stats.cuts_added}",
        f"  incumbent objective            {_bound(stats.incumbent)}",
        f"  best bound                     {_bound(stats.best_bound)}",
        f"  best-bound gap                 {_gap(stats.mip_gap)}",
        "  presolve reductions            "
        f"{stats.presolve_dropped_constraints} rows dropped, "
        f"{stats.presolve_tightened_bounds} bounds tightened "
        f"({stats.presolve_rounds} rounds)",
    ]
    return "\n".join(lines)


def render_plan_report(state: AsIsState, plan: TransformationPlan) -> str:
    """Full text report: headline, per-site table, cost breakdown."""
    lines: list[str] = []
    title = f'Transformation plan for "{state.name}"'
    lines.append(title)
    lines.append("=" * len(title))
    lines.append(
        f"{len(state.app_groups)} application groups / {state.total_servers} servers "
        f"consolidated into {len(plan.datacenters_used)} of "
        f"{len(state.target_datacenters)} candidate sites"
        + (" (with disaster recovery)" if plan.has_dr else "")
    )
    lines.append("")

    lines.append(
        f"{'site':<14} {'groups':>7} {'servers':>8} {'backups':>8} "
        f"{'space':>12} {'power':>10} {'labor':>10} {'WAN':>12} {'fixed':>10} {'penalty':>12}"
    )
    for name in plan.datacenters_used:
        slot = plan.usage.get(name)
        if slot is None:
            continue
        lines.append(
            f"{name:<14} {len(slot.groups):>7d} {slot.primary_servers:>8d} "
            f"{slot.backup_servers:>8d} {_money(slot.space_cost):>12} "
            f"{_money(slot.power_cost):>10} {_money(slot.labor_cost):>10} "
            f"{_money(slot.wan_cost):>12} {_money(slot.fixed_cost):>10} "
            f"{_money(slot.latency_penalty):>12}"
        )
    lines.append("")

    b = plan.breakdown
    lines.append("Monthly cost breakdown")
    for label, value in (
        ("space", b.space),
        ("power", b.power),
        ("labor", b.labor),
        ("WAN", b.wan),
        ("fixed facilities", b.fixed),
        ("latency penalty", b.latency_penalty),
        ("DR server purchase (one-off)", b.dr_purchase),
    ):
        lines.append(f"  {label:<30} {_money(value):>14}")
    lines.append(f"  {'TOTAL':<30} {_money(b.total):>14}")
    lines.append("")
    lines.append(
        f"Latency violations: {plan.latency_violations}   solver: {plan.solver or 'n/a'}"
    )
    if plan.has_dr:
        pools = ", ".join(
            f"{name}:{count}" for name, count in sorted(plan.backup_servers.items())
        )
        lines.append(f"Backup pools: {pools or 'none'}")
    return "\n".join(lines)


def render_placement_listing(plan: TransformationPlan) -> str:
    """Group → site listing (plus DR site when present)."""
    lines = [f"{'application group':<24} {'primary':<14}" + ("secondary" if plan.has_dr else "")]
    for group in sorted(plan.placement):
        row = f"{group:<24} {plan.placement[group]:<14}"
        if plan.has_dr:
            row += plan.secondary.get(group, "-")
        lines.append(row)
    return "\n".join(lines)
