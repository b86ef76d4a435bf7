"""Tests for the Problem → matrix-form conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import ObjectiveSense, Problem
from repro.lp.standard_form import to_matrix_form


def small_problem():
    p = Problem()
    x = p.add_variable("x", lb=1.0, ub=4.0)
    y = p.add_variable("y", lb=None, ub=None)  # free
    z = p.add_binary("z")
    p.add_constraint(x + 2 * y <= 10, "c_le")
    p.add_constraint(y + z >= -2, "c_ge")
    p.add_constraint(x - z == 1, "c_eq")
    p.set_objective(3 * x - y + 5 * z + 7)
    return p, x, y, z


class TestMatrixForm:
    def test_shapes_and_bounds(self):
        p, x, y, z = small_problem()
        form = to_matrix_form(p)
        assert form.c.shape == (3,)
        assert form.a_ub.shape == (2, 3)  # LE row + flipped GE row
        assert form.a_eq.shape == (1, 3)
        assert form.lb[0] == 1.0 and form.ub[0] == 4.0
        assert np.isneginf(form.lb[1]) and np.isposinf(form.ub[1])
        assert form.integrality.tolist() == [0, 0, 1]

    def test_ge_rows_are_flipped(self):
        p, x, y, z = small_problem()
        form = to_matrix_form(p)
        # second ub row encodes -(y + z) <= 2
        assert form.b_ub[1] == pytest.approx(2.0)
        assert form.a_ub[1].tolist() == [0.0, -1.0, -1.0]

    def test_objective_constant_carried(self):
        p, *_ = small_problem()
        form = to_matrix_form(p)
        assert form.c0 == pytest.approx(7.0)

    def test_maximize_flips_sign(self):
        p = Problem(sense=ObjectiveSense.MAXIMIZE)
        x = p.add_variable("x")
        p.set_objective(2 * x)
        form = to_matrix_form(p)
        assert form.c[0] == pytest.approx(-2.0)
        assert form.objective_sign == -1.0

    def test_empty_constraint_matrices(self):
        p = Problem()
        p.add_variable("x")
        form = to_matrix_form(p)
        assert form.a_ub.shape == (0, 1)
        assert form.a_eq.shape == (0, 1)


class TestFreeVariableUpperBound:
    """Regression: a free variable's upper bound must keep its minus column.

    A standardization that emits ``x_plus <= ub`` instead of
    ``x_plus - x_minus <= ub`` makes a negative upper bound unsatisfiable
    (``x_plus >= 0``) and reports a feasible problem infeasible.  The
    revised core and the tableau oracle each standardize the matrix form
    themselves; the raw arrays are solved without presolve so the bound
    reaches them intact.
    """

    def _solve(self, problem):
        from repro.lp.revised_simplex import SparseBoundedLP, solve_bounded_lp

        from ..oracles.reference import solve_lp_arrays_reference

        form = to_matrix_form(problem)
        family = SparseBoundedLP(form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq)
        results = [
            solve_bounded_lp(family, form.lb, form.ub),
            solve_lp_arrays_reference(
                form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lb, form.ub
            ),
        ]
        return form, results

    def test_negative_optimum_of_free_upper_bounded_variable(self):
        # max x  s.t.  x free, x <= -2  →  optimum x = -2 (negative).
        p = Problem()
        x = p.add_variable("x", lb=None, ub=-2.0)
        p.add_constraint(x >= -10)  # keep the LP bounded below
        p.set_objective(-x)
        _, results = self._solve(p)
        for res in results:
            assert res.status == "optimal"
            assert res.x[0] == pytest.approx(-2.0)

    def test_interacting_constraint_with_negative_ub(self):
        # min x + y with x free, x <= -1, y >= 0, x + y >= -3.
        p = Problem()
        x = p.add_variable("x", lb=None, ub=-1.0)
        y = p.add_variable("y", lb=0.0)
        p.add_constraint(x + y >= -3)
        p.set_objective(x + y)
        form, results = self._solve(p)
        for res in results:
            assert res.status == "optimal"
            assert res.objective + form.c0 == pytest.approx(-3.0)
