"""One-shot branch-and-bound roots enter the dual simplex from the slack basis.

A tree that builds its own relaxation context (no solve cache, no root
token from an earlier solve) solves its root with the dual simplex from
the all-slack basis instead of the primal two-phase method.  These tests
pin that the new root reaches the primal root's objective, that the
search still matches HiGHS, that the fallback and infeasible cases stay
correct, that the counters keep meaning reuse of an earlier basis, and
that solve-cache contexts keep their primal root.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import repro
from repro import PlannerOptions
from repro.core.formulation import ConsolidationModel
from repro.core.validation import StateValidationError, validate_state
from repro.datasets import load_enterprise1, load_florida, online_line_scenario
from repro.lp import Problem, SolveOptions, SolveStatus, solve
from repro.lp.branch_bound import solve_branch_and_bound
from repro.lp.matrix_lp import SLACK_TOKEN, RelaxationContext
from repro.lp.revised_simplex import AT_LOWER, BASIC, SparseBoundedLP, slack_basis
from repro.lp.solvers import SolveCache
from repro.lp.sparse import CSCMatrix
from repro.lp.standard_form import to_matrix_form

BUILTIN = SolveOptions(relaxation_engine="builtin")
ESTATES_PER_SHAPE = 10


@functools.cache
def _online_estates() -> list:
    states = []
    seed = 0
    while len(states) < ESTATES_PER_SHAPE:
        seed += 1
        state = online_line_scenario(
            n_groups=12, total_servers=300, n_datacenters=5, capacity=170, seed=seed
        )
        try:
            validate_state(state)
        except StateValidationError:
            continue
        states.append(state)
    return states


def _estates() -> list:
    cases = []
    for seed in range(1, ESTATES_PER_SHAPE + 1):
        cases.append(pytest.param(lambda s=seed: load_enterprise1(seed=s, scale=0.1),
                                  id=f"enterprise1-x0.1-seed{seed}"))
        cases.append(pytest.param(lambda s=seed: load_florida(seed=s, scale=0.05),
                                  id=f"florida-x0.05-seed{seed}"))
    for index in range(ESTATES_PER_SHAPE):
        cases.append(pytest.param(lambda i=index: _online_estates()[i],
                                  id=f"online-line-{index}"))
    return cases


def _root_context(form) -> RelaxationContext:
    return RelaxationContext(
        form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lb, form.ub,
        engine="builtin", integrality=form.integrality,
    )


@pytest.mark.parametrize("make_state", _estates())
def test_slack_root_matches_primal_root_and_search_matches_highs(make_state):
    state = make_state()
    form = to_matrix_form(ConsolidationModel(state).problem)
    primal = _root_context(form).solve()
    dual = _root_context(form).solve(warm=SLACK_TOKEN)
    assert (primal.status, primal.engine) == ("optimal", "primal")
    assert (dual.status, dual.engine) == ("optimal", "dual")
    assert dual.phase1_iterations == 0
    assert not dual.warm_started  # a slack start reuses no earlier basis
    assert dual.objective == pytest.approx(primal.objective, rel=1e-9, abs=1e-9)

    builtin = repro.solve(state, method="milp", options=PlannerOptions(
        backend="branch_bound", solve_options=BUILTIN,
    ))
    reference = repro.solve(state, method="milp", options=PlannerOptions(
        backend="highs", solve_options=SolveOptions(mip_rel_gap=1e-9),
    ))
    assert builtin.stats.root_lp_engine == "dual"
    assert builtin.gap <= 1e-9
    assert builtin.objective == pytest.approx(reference.objective, rel=1e-6)


def test_slack_basis_is_the_identity_basis():
    a_ub = CSCMatrix.from_dense(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]]))
    a_eq = CSCMatrix.from_dense(np.zeros((0, 3)))
    lp = SparseBoundedLP(np.ones(3), a_ub, np.array([4.0, 3.0]), a_eq, np.zeros(0))
    basis, vstat = slack_basis(lp)
    assert basis.tolist() == [3, 4]
    assert vstat.tolist() == [AT_LOWER] * 3 + [BASIC] * 2


def test_negative_cost_column_without_upper_bound_falls_back_to_primal():
    # x has cost -1 and no upper bound (x ≤ 1 + y with y unbounded gives
    # presolve nothing finite), so the slack basis is not dual feasible.
    p = Problem("fallback")
    x = p.add_integer("x", lb=0.0)
    y = p.add_variable("y", lb=0.0)
    p.add_constraint(x - y <= 1)
    p.set_objective(-x + 2 * y)
    sol = solve_branch_and_bound(p, relaxation_engine="builtin")
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0)
    assert sol.objective == pytest.approx(solve(p, backend="highs").objective)
    stats = sol.stats
    assert stats.root_lp_engine == "primal"
    assert stats.dual_fallbacks == 1
    assert (stats.dual_entries, stats.warm_start_hits, stats.warm_start_misses) == (0, 0, 0)


def test_infeasible_root_lp_ends_infeasible_like_highs():
    # x ≥ y + 1 and y ≥ x + 1: no bound propagation closes this, the
    # dual walk finds the Farkas row.
    p = Problem("infeasible")
    x = p.add_integer("x", lb=0.0)
    y = p.add_variable("y", lb=0.0)
    p.add_constraint(x - y >= 1)
    p.add_constraint(y - x >= 1)
    p.set_objective(x + y)
    sol = solve_branch_and_bound(p, relaxation_engine="builtin")
    assert sol.status is SolveStatus.INFEASIBLE
    assert solve(p, backend="highs").status is SolveStatus.INFEASIBLE
    assert sol.stats.root_lp_engine == "dual"
    assert sol.stats.dual_fallbacks == 0


def test_slack_root_is_no_warm_start_or_dual_entry():
    p = Problem("lp")
    x = p.add_variable("x", lb=0.0, ub=4.0)
    y = p.add_variable("y", lb=0.0, ub=4.0)
    p.add_constraint(x + y >= 3)
    p.add_constraint(x - y <= 1)
    p.set_objective(2 * x + y)
    sol = solve_branch_and_bound(p, relaxation_engine="builtin")
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(solve(p, backend="highs").objective)
    stats = sol.stats
    assert stats.root_lp_engine == "dual"
    assert stats.root_lp_seconds > 0.0
    assert stats.phase1_iterations == 0
    assert (stats.dual_entries, stats.dual_fallbacks) == (0, 0)
    assert (stats.warm_start_hits, stats.warm_start_misses) == (0, 0)


def test_a_root_without_rows_is_no_dual_fallback():
    p = Problem("bounds-only")
    x = p.add_variable("x", lb=0.0, ub=2.0)
    p.set_objective(-x)
    sol = solve_branch_and_bound(p, relaxation_engine="builtin")
    assert sol.objective == pytest.approx(-2.0)
    assert sol.stats.root_lp_engine == "primal"
    assert sol.stats.dual_fallbacks == 0


def test_solve_cache_contexts_keep_the_primal_root():
    problem = ConsolidationModel(load_enterprise1(seed=1, scale=0.1)).problem
    cached = solve(problem, backend="branch_bound", options=BUILTIN, cache=SolveCache())
    one_shot = solve(problem, backend="branch_bound", options=BUILTIN)
    assert cached.stats.root_lp_engine == "primal"
    assert cached.stats.phase1_iterations > 0
    assert one_shot.stats.root_lp_engine == "dual"
    assert cached.objective == pytest.approx(one_shot.objective, rel=1e-9)
