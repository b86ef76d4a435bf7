"""The unified planning entry point: ``repro.solve(state, method=...)``.

One documented front door for every planning engine::

    from repro import load_enterprise1, solve

    result = solve(load_enterprise1(), method="auto")
    print(result.method, result.plan.breakdown.total, result.gap)

``method`` selects the engine:

* ``"milp"`` — the monolithic MILP through :class:`ETransformPlanner`
  (exact; the default choice for small/medium estates).
* ``"decomposition"`` — the Dantzig-Wolfe/Lagrangian engine
  (:mod:`repro.core.decomposition`): parallel per-group pricing against
  capacity duals, greedy rounding, certified duality gap.  Scales to
  estates far beyond what the monolithic branch-and-bound can hold.
* ``"greedy"`` — the marginal-cost greedy baseline (no bound).
* ``"auto"`` — ``milp`` for small estates and DR states,
  ``decomposition`` once the (group x target) pair count passes
  :data:`AUTO_DECOMPOSITION_PAIRS`.

Every engine returns the same typed :class:`PlanResult` carrying the
plan, the resolved method, the solver's :class:`SolveStats`, and the
lower bound / relative gap when the engine certifies one.  It is the
only planning entry point; LP-level models (:class:`repro.lp.Problem`)
are solved with :func:`repro.lp.solve`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core.decomposition import DecompositionConfig, solve_decomposition
from .core.entities import AsIsState
from .core.plan import TransformationPlan
from .core.planner import ETransformPlanner, PlannerOptions, PlanningError
from .telemetry import SolveStats

__all__ = [
    "AUTO_DECOMPOSITION_PAIRS",
    "METHODS",
    "PlanResult",
    "solve",
]

#: Planning engines accepted by :func:`solve` / ``PlannerOptions.method``.
METHODS = ("auto", "milp", "decomposition", "greedy")

#: ``method="auto"`` switches to the decomposition engine when the
#: estate's (group x target) pair count reaches this; below it the
#: monolithic MILP is exact and fast enough.
AUTO_DECOMPOSITION_PAIRS = 50_000


@dataclass
class PlanResult:
    """One planning run: the plan plus how (and how well) it was solved.

    ``gap`` is the engine's certified relative optimality gap
    (``nan`` when the engine provides no bound, e.g. greedy);
    ``lower_bound`` is the matching proven bound on the objective.
    """

    plan: TransformationPlan
    method: str
    stats: SolveStats | None
    gap: float = math.nan
    lower_bound: float = -math.inf

    @property
    def objective(self) -> float:
        return self.plan.breakdown.total


def resolve_method(state: AsIsState, options: PlannerOptions) -> str:
    """The engine ``method="auto"`` picks for this state.

    DR states always plan through the monolithic MILP (the
    decomposition engine does not cover joint DR yet); otherwise the
    decomposition engine takes over once the estate has at least
    :data:`AUTO_DECOMPOSITION_PAIRS` (group, target) pairs.
    """
    if options.enable_dr:
        return "milp"
    pairs = len(state.app_groups) * len(state.target_datacenters)
    return "decomposition" if pairs >= AUTO_DECOMPOSITION_PAIRS else "milp"


def solve(
    state: AsIsState,
    *,
    method: str | None = None,
    options: PlannerOptions | None = None,
    **kwargs,
) -> PlanResult:
    """Plan a consolidation for ``state`` with the selected engine.

    Parameters
    ----------
    state:
        The as-is estate to plan.
    method:
        One of :data:`METHODS`; ``None`` defers to ``options.method``
        (whose default is ``"auto"``).
    options:
        Full :class:`PlannerOptions` record (model knobs, solver
        options, the ``jobs`` fan-out for decomposition pricing).

    Returns
    -------
    PlanResult
        Plan, resolved method, solver stats, bound and gap.
    """
    if kwargs:
        raise TypeError(
            f"solve() got unexpected keyword arguments {sorted(kwargs)}; "
            "pass solver settings through options=PlannerOptions(...)"
        )
    options = options or PlannerOptions()
    chosen = method if method is not None else options.method
    if chosen not in METHODS:
        raise ValueError(
            f"unknown planning method {chosen!r} "
            f"(expected one of {', '.join(METHODS)})"
        )
    if chosen == "auto":
        chosen = resolve_method(state, options)

    if chosen == "milp":
        planner = ETransformPlanner(state, options)
        plan = planner.build_plan()
        stats = plan.solver_stats
        gap = math.nan
        lower = -math.inf
        if stats is not None:
            gap = stats.mip_gap
            lower = stats.best_bound
        return PlanResult(
            plan=plan, method="milp", stats=stats, gap=gap, lower_bound=lower
        )

    if chosen == "decomposition":
        solve_opts = options.resolved_solve_options()
        config = DecompositionConfig(
            jobs=options.jobs,
            time_limit=solve_opts.time_limit,
            gap_target=(
                solve_opts.mip_rel_gap
                if solve_opts.mip_rel_gap is not None
                else DecompositionConfig.gap_target
            ),
        )
        outcome = solve_decomposition(
            state, options.model_options(), config
        )
        return PlanResult(
            plan=outcome.plan,
            method="decomposition",
            stats=outcome.stats,
            gap=outcome.gap,
            lower_bound=outcome.lower_bound,
        )

    # greedy
    from .baselines.greedy import run_greedy

    plan = run_greedy(
        state,
        enable_dr=options.enable_dr,
        wan_model=options.wan_model,
    )
    return PlanResult(plan=plan, method="greedy", stats=plan.solver_stats)
