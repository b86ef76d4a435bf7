"""Tests for the Problem → matrix-form conversion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import ObjectiveSense, Problem
from repro.lp.cuts import binary_mask, implied_bound_pairs
from repro.lp.expressions import Sense
from repro.lp.sparse import CSCMatrix, iter_constraint_terms
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
        assert form.a_ub.to_dense()[1].tolist() == [0.0, -1.0, -1.0]

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
                form.c, form.a_ub.to_dense(), form.b_ub, form.a_eq.to_dense(),
                form.b_eq, form.lb, form.ub,
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


def _dense_reference(problem):
    """``(a_ub, a_eq)`` built densely, row by row, off the canonical walk."""
    n = problem.num_variables
    ub_rows, eq_rows = [], []
    for con, terms in iter_constraint_terms(problem):
        row = np.zeros(n)
        for col, _var, coef in terms:
            row[col] = coef
        if con.sense is Sense.EQ:
            eq_rows.append(row)
        else:
            ub_rows.append(-row if con.sense is Sense.GE else row)
    return (
        np.array(ub_rows).reshape(len(ub_rows), n),
        np.array(eq_rows).reshape(len(eq_rows), n),
    )


def _dense_implied_bound_pairs(a_ub, b_ub, integral, lb, ub):
    """The implied-bound scan over a dense matrix, in row-major order."""
    binary = binary_mask(integral, lb, ub)
    m = a_ub.shape[0]
    rows, cols = np.nonzero(a_ub)
    vals = a_ub[rows, cols]
    neg = vals < 0.0
    neg_count = np.bincount(rows[neg], minlength=m)
    unbounded_pos = np.bincount(rows[~neg & (lb[cols] < -1e-9)], minlength=m)
    u_of_row = np.zeros(m, dtype=np.int64)
    u_of_row[rows[neg]] = cols[neg]
    source = (neg_count == 1) & (unbounded_pos == 0) & binary[u_of_row]
    take = ~neg & source[rows] & binary[cols] & (vals > b_ub[rows] + 1e-9)
    pairs = np.column_stack([cols[take], u_of_row[rows[take]]]).astype(np.int64)
    return np.unique(pairs, axis=0)


@pytest.mark.parametrize("dr", [False, True], ids=["plain", "dr"])
@pytest.mark.parametrize("estate", ["enterprise1", "florida"])
class TestCSCFormIsExact:
    """The CSC blocks are exactly what a dense build would compress to."""

    @staticmethod
    def _problem(estate, dr):
        from repro.core import ConsolidationModel
        from repro.core.formulation import ModelOptions
        from repro.datasets import load_enterprise1, load_florida

        load = load_enterprise1 if estate == "enterprise1" else load_florida
        state = load(scale=0.05)
        return ConsolidationModel(state, ModelOptions(enable_dr=dr)).problem

    def test_blocks_match_the_dense_reference(self, estate, dr):
        problem = self._problem(estate, dr)
        form = to_matrix_form(problem)
        for got, dense in zip((form.a_ub, form.a_eq), _dense_reference(problem)):
            want = CSCMatrix.from_dense(dense)
            assert got.shape == want.shape
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, name
                assert np.array_equal(a, b), name

    def test_implied_bound_pairs_match_the_dense_scan(self, estate, dr):
        problem = self._problem(estate, dr)
        form = to_matrix_form(problem)
        a_ub, _ = _dense_reference(problem)
        integral = form.integrality.astype(bool)
        got = implied_bound_pairs(form.a_ub, form.b_ub, integral, form.lb, form.ub)
        want = _dense_implied_bound_pairs(
            a_ub, form.b_ub, integral, form.lb, form.ub
        )
        assert got.size
        np.testing.assert_array_equal(got, want)
