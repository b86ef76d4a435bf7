"""LP-relaxation rounding heuristic backend.

Solves the continuous relaxation, rounds integral variables to the
nearest integer, and reports the result only when it is feasible for the
original model.  This is a *heuristic*: it trades optimality for speed
and is used as a fast warm-start / sanity baseline.  Domain-aware repair
(reassigning application groups when a capacity breaks) lives in the
planner, not here.
"""

from __future__ import annotations

import time

import numpy as np

from ..telemetry import SolveStats
from .matrix_lp import solve_lp_arrays
from .problem import Problem
from .solution import Solution, SolveStatus
from .standard_form import to_matrix_form


def solve_with_rounding(problem: Problem, engine: str = "highs") -> Solution:
    """Relax-and-round. Status is ``FEASIBLE`` at best (never OPTIMAL)."""
    start = time.monotonic()
    form = to_matrix_form(problem)
    relax = solve_lp_arrays(
        form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
        form.lb, form.ub, engine=engine,
    )

    def make_stats() -> SolveStats:
        return SolveStats(
            backend="rounding",
            elapsed_seconds=time.monotonic() - start,
            lp_iterations=relax.iterations,
            phase1_iterations=relax.phase1_iterations,
            phase2_iterations=relax.phase2_iterations,
            bland_switches=relax.bland_switches,
            degenerate_pivots=relax.degenerate_pivots,
        )

    if relax.status == "infeasible":
        return Solution(SolveStatus.INFEASIBLE, solver="rounding",
                        message="relaxation infeasible", stats=make_stats())
    if relax.status == "unbounded":
        return Solution(SolveStatus.UNBOUNDED, solver="rounding",
                        message="relaxation unbounded", stats=make_stats())
    if relax.status != "optimal":
        return Solution(SolveStatus.ERROR, solver="rounding",
                        message=relax.status, stats=make_stats())

    x = relax.x.copy()
    integral = form.integrality.astype(bool)
    x[integral] = np.round(x[integral])
    # Clamp rounded values back into bounds.
    x = np.clip(x, form.lb, form.ub)
    values = {var: float(x[i]) for i, var in enumerate(form.variables)}
    if not problem.is_feasible(values, tol=1e-6):
        return Solution(
            SolveStatus.ERROR,
            solver="rounding",
            message="rounded point infeasible; use an exact backend",
            stats=make_stats(),
        )
    objective = problem.evaluate_objective(values)
    stats = make_stats()
    stats.incumbent = objective
    return Solution(
        status=SolveStatus.FEASIBLE,
        objective=objective,
        values=values,
        solver="rounding",
        iterations=relax.iterations,
        message="rounded LP relaxation",
        stats=stats,
    )
