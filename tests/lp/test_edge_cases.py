"""Solver-stack edge cases that the happy-path tests skip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import (
    Problem,
    Solution,
    SolveOptions,
    SolveStatus,
    Variable,
    quicksum,
    solve,
)
from repro.lp.branch_bound import solve_branch_and_bound
from repro.lp.matrix_lp import solve_lp_arrays
from repro.lp.standard_form import to_matrix_form

from ..oracles.reference import solve_lp_arrays_reference
from ..oracles.simplex import solve_standard_form

#: The from-scratch LP path: branch and bound over the builtin engine
#: (a pure LP is one root relaxation).
BUILTIN = SolveOptions(relaxation_engine="builtin")


class TestSimplexLimits:
    def test_iteration_limit_reported(self):
        # A genuine LP with the pivot budget set to zero mid-phase-2.
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.array([4.0])
        c = np.array([-1.0, -2.0, 0.0])
        res = solve_standard_form(a, b, c, max_iterations=1)
        assert res.status in ("iteration_limit", "optimal")
        if res.status == "iteration_limit":
            assert res.x is None

    def test_tiny_coefficients(self):
        a = np.array([[1e-6, 1.0]])
        b = np.array([1.0])
        c = np.array([0.0, -1.0])
        res = solve_standard_form(a, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0)

    def test_builtin_engine_iteration_limit_is_error(self):
        kw = dict(
            c=np.array([-1.0, -2.0]),
            a_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([4.0]),
            a_eq=np.zeros((0, 2)),
            b_eq=np.zeros(0),
            lb=np.zeros(2),
            ub=np.array([3.0, 2.0]),
        )
        res = solve_lp_arrays(engine="builtin", max_iterations=1, **kw)
        assert res.status in ("error", "optimal")


class TestBranchBoundLimits:
    def wide_model(self):
        p = Problem()
        xs = [p.add_binary(f"x{i}") for i in range(14)]
        p.add_constraint(quicksum(3 * x for x in xs) <= 20)
        p.set_objective(-quicksum((i % 5 + 1) * x for i, x in enumerate(xs)))
        return p

    def test_time_limit_returns_incumbent_or_error(self):
        sol = solve_branch_and_bound(self.wide_model(), time_limit=0.0)
        assert sol.status in (SolveStatus.FEASIBLE, SolveStatus.ERROR)
        assert "time limit" in sol.message

    def test_node_limit_message(self):
        sol = solve_branch_and_bound(self.wide_model(), node_limit=2)
        assert sol.status in (SolveStatus.FEASIBLE, SolveStatus.ERROR)
        if sol.status is SolveStatus.ERROR:
            assert "node limit" in sol.message

    def test_gap_tolerance_accepts_near_optimal(self):
        p = self.wide_model()
        exact = solve_branch_and_bound(p)
        loose = solve_branch_and_bound(p, gap_tolerance=5.0)
        assert loose.status is SolveStatus.OPTIMAL
        # A 5-unit gap may stop early but never returns worse than 5 off.
        assert loose.objective <= exact.objective + 5.0


class TestSolutionType:
    def test_restrict(self):
        x = Variable("x")
        y = Variable("y")
        sol = Solution(SolveStatus.OPTIMAL, 1.0, {x: 2.0})
        out = sol.restrict({"ex": x, "why": y})
        assert out == {"ex": 2.0, "why": 0.0}

    def test_nan_objective_when_no_solution(self):
        sol = Solution(SolveStatus.INFEASIBLE)
        assert sol.objective != sol.objective  # NaN

    def test_as_name_dict_empty(self):
        assert Solution(SolveStatus.ERROR).as_name_dict() == {}


class TestDegenerateModels:
    def test_zero_objective(self):
        p = Problem()
        x = p.add_binary("x")
        p.add_constraint(x <= 1)
        p.set_objective(0)
        sol = solve(p, backend="highs")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0.0

    def test_single_variable_problem_all_backends(self):
        for backend in ("highs", "branch_bound", "rounding"):
            p = Problem()
            x = p.add_binary("x")
            p.set_objective(-x)
            sol = solve(p, backend=backend)
            assert sol.status.has_solution
            assert sol.value(x) == pytest.approx(1.0)

    def test_duplicate_constraints_harmless(self):
        p = Problem()
        x = p.add_variable("x", ub=5.0)
        p.add_constraint(x <= 3, "a")
        p.add_constraint(x <= 3, "b")
        p.set_objective(-x)
        for backend, options in (
            ("highs", None), ("branch_bound", BUILTIN), ("branch_bound", None)
        ):
            sol = solve(p, backend=backend, options=options)
            assert sol.objective == pytest.approx(-3.0)

    def test_variable_absent_from_constraints(self):
        p = Problem()
        x = p.add_variable("x", ub=1.0)
        y = p.add_variable("y", ub=2.0)
        p.add_constraint(x <= 1)
        p.set_objective(-(x + y))
        sol = solve(p, backend="highs")
        assert sol.value(y) == pytest.approx(2.0)

    def test_equality_with_negative_rhs_builtin(self):
        # A negative rhs on a free variable: the builtin engine takes it
        # as a slack bound; the tableau oracle exercises its b<0 row-flip.
        p = Problem()
        x = p.add_variable("x", lb=None, ub=None)
        p.add_constraint(x == -5)
        p.set_objective(x)
        sol = solve(p, backend="branch_bound", options=BUILTIN)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value(x) == pytest.approx(-5.0)
        form = to_matrix_form(p)
        ref = solve_lp_arrays_reference(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lb, form.ub
        )
        assert ref.status == "optimal"
        assert ref.x[0] == pytest.approx(-5.0)
