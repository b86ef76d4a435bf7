"""Unit tests for the array-level presolve.

Each reduction class gets a targeted instance, and a randomized sweep
checks the global contract: presolving must never change the optimum.
A presolved instance is re-solved (bounds from the result, rows sliced
by the keep masks) and compared against the raw solve through HiGHS and
the builtin revised simplex.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.array_presolve import presolve_arrays
from repro.lp.matrix_lp import RelaxationContext
from repro.lp.sparse import CSCMatrix

NO_EQ = dict(a_eq=CSCMatrix.from_dense(np.zeros((0, 2))), b_eq=np.zeros(0))


class TestSingletonRows:
    def test_le_singleton_becomes_upper_bound(self):
        # 2x <= 4 is the bound x <= 2; the row must vanish.
        res = presolve_arrays(
            c=np.array([-1.0, 0.0]),
            a_ub=CSCMatrix.from_dense([[2.0, 0.0]]), b_ub=np.array([4.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert not res.infeasible
        assert not res.keep_ub[0]
        assert res.singleton_rows == 1
        assert res.ub[0] == pytest.approx(2.0)

    def test_negative_coefficient_flips_direction(self):
        # -3x <= -6 is the bound x >= 2.
        res = presolve_arrays(
            c=np.array([1.0, 0.0]),
            a_ub=CSCMatrix.from_dense([[-3.0, 0.0]]), b_ub=np.array([-6.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert not res.infeasible
        assert res.lb[0] == pytest.approx(2.0)

    def test_eq_singleton_fixes_the_column(self):
        res = presolve_arrays(
            c=np.array([1.0, 1.0]),
            a_ub=CSCMatrix.from_dense(np.zeros((0, 2))), b_ub=np.zeros(0),
            a_eq=CSCMatrix.from_dense([[0.0, 2.0]]), b_eq=np.array([3.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0),
        )
        assert not res.infeasible
        assert not res.keep_eq[0]
        assert res.lb[1] == pytest.approx(1.5)
        assert res.ub[1] == pytest.approx(1.5)

    def test_eq_singleton_outside_bounds_is_infeasible(self):
        res = presolve_arrays(
            c=np.array([1.0, 1.0]),
            a_ub=CSCMatrix.from_dense(np.zeros((0, 2))), b_ub=np.zeros(0),
            a_eq=CSCMatrix.from_dense([[2.0, 0.0]]), b_eq=np.array([30.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0),
        )
        assert res.infeasible


class TestRedundantRowsAndTightening:
    def test_redundant_le_row_dropped(self):
        # With x, y in [0, 1], x + y <= 5 can never bind.
        res = presolve_arrays(
            c=np.array([-1.0, -1.0]),
            a_ub=CSCMatrix.from_dense([[1.0, 1.0]]), b_ub=np.array([5.0]),
            lb=np.zeros(2), ub=np.ones(2), **NO_EQ,
        )
        assert not res.keep_ub[0]
        assert res.rows_dropped == 1

    def test_activity_bound_tightening(self):
        # x + y <= 1 with y >= 0 forces x <= 1 (from ub=10).
        res = presolve_arrays(
            c=np.array([-1.0, -1.0]),
            a_ub=CSCMatrix.from_dense([[1.0, 1.0]]), b_ub=np.array([1.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert res.ub[0] == pytest.approx(1.0)
        assert res.ub[1] == pytest.approx(1.0)
        assert res.bounds_tightened >= 2

    def test_min_activity_infeasibility(self):
        # x + y <= 1 with both lower bounds at 1: min activity 2 > 1.
        res = presolve_arrays(
            c=np.array([1.0, 1.0]),
            a_ub=CSCMatrix.from_dense([[1.0, 1.0]]), b_ub=np.array([1.0]),
            lb=np.ones(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert res.infeasible

    def test_integer_bounds_snap(self):
        # 3x <= 4 tightens integral x to ub=1 (floor of 4/3).
        res = presolve_arrays(
            c=np.array([-1.0, 0.0]),
            a_ub=CSCMatrix.from_dense([[3.0, 0.0]]), b_ub=np.array([4.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
            integrality=np.array([1, 0]),
        )
        assert res.ub[0] == pytest.approx(1.0)

    def test_csc_input_accepted(self):
        a = CSCMatrix.from_dense(np.array([[2.0, 0.0]]))
        res = presolve_arrays(
            c=np.array([-1.0, 0.0]), a_ub=a, b_ub=np.array([4.0]),
            lb=np.zeros(2), ub=np.full(2, 10.0), **NO_EQ,
        )
        assert res.ub[0] == pytest.approx(2.0)

    def test_no_reduction_is_reported(self):
        res = presolve_arrays(
            c=np.array([1.0, 1.0]),
            a_ub=CSCMatrix.from_dense([[1.0, 1.0]]), b_ub=np.array([1.0]),
            lb=np.zeros(2), ub=np.ones(2), **NO_EQ,
        )
        assert not res.infeasible
        assert not res.reduced


class TestOptimumPreservation:
    @pytest.mark.parametrize("seed", range(25))
    def test_presolved_solve_matches_raw(self, seed):
        rng = np.random.default_rng(8800 + seed)
        n = int(rng.integers(3, 8))
        m = int(rng.integers(2, 6))
        lb = np.round(rng.uniform(-2.0, 0.0, size=n), 3)
        ub = lb + np.round(rng.uniform(0.5, 6.0, size=n), 3)
        c = np.round(rng.uniform(-5.0, 5.0, size=n), 3)
        a_ub = np.round(rng.uniform(-2.0, 2.0, size=(m, n)), 3)
        # Plant singleton and wide-rhs rows so reductions actually fire.
        a_ub[0, 1:] = 0.0
        a_ub[0, 0] = 1.0
        x0 = rng.uniform(lb, ub)
        b_ub = a_ub @ x0 + np.round(rng.uniform(0.1, 2.0, size=m), 3)
        b_ub[-1] += 50.0  # redundant row
        no_eq = CSCMatrix.from_dense(np.zeros((0, n)))
        kw = dict(c=c, a_ub=CSCMatrix.from_dense(a_ub), b_ub=b_ub, a_eq=no_eq,
                  b_eq=np.zeros(0), lb=lb, ub=ub)
        raw = RelaxationContext(engine="highs", **kw).solve()

        res = presolve_arrays(**kw)
        if res.infeasible:
            assert raw.status == "infeasible"
            return
        red = RelaxationContext(
            engine="highs", c=c,
            a_ub=CSCMatrix.from_dense(a_ub[res.keep_ub]), b_ub=b_ub[res.keep_ub],
            a_eq=no_eq, b_eq=np.zeros(0),
            lb=res.lb, ub=res.ub,
        ).solve()
        assert red.status == raw.status
        if raw.status == "optimal":
            assert red.objective == pytest.approx(
                raw.objective, rel=1e-6, abs=1e-6
            )
        # The builtin engine on the reduced arrays agrees too.
        bres = RelaxationContext(
            engine="builtin", c=c,
            a_ub=CSCMatrix.from_dense(a_ub[res.keep_ub]), b_ub=b_ub[res.keep_ub],
            a_eq=no_eq, b_eq=np.zeros(0),
            lb=res.lb, ub=res.ub,
        ).solve()
        assert bres.status == raw.status
        if raw.status == "optimal":
            assert bres.objective == pytest.approx(
                raw.objective, rel=1e-6, abs=1e-6
            )

    def test_empty_column_fixing_off_by_default(self):
        # A costed column in no row stays free unless explicitly enabled.
        res = presolve_arrays(
            c=np.array([0.0, 1.0]),
            a_ub=CSCMatrix.from_dense([[1.0, 0.0]]), b_ub=np.array([1.0]),
            lb=np.zeros(2), ub=np.full(2, 3.0), **NO_EQ,
        )
        assert res.cols_fixed == 0
        assert res.lb[1] == pytest.approx(0.0)
        assert res.ub[1] == pytest.approx(3.0)

    def test_empty_column_fixing_opt_in(self):
        res = presolve_arrays(
            c=np.array([0.0, 1.0]),
            a_ub=CSCMatrix.from_dense([[1.0, 0.0]]), b_ub=np.array([1.0]),
            lb=np.zeros(2), ub=np.full(2, 3.0), **NO_EQ,
            fix_empty_columns=True,
        )
        # min +1*y over [0, 3] fixes y at its lower bound.
        assert res.cols_fixed >= 1
        assert res.lb[1] == pytest.approx(0.0)
        assert res.ub[1] == pytest.approx(0.0)


class TestSparseHelpers:
    def test_row_nnz(self):
        a = CSCMatrix.from_dense(
            np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        )
        np.testing.assert_array_equal(a.row_nnz(), [2, 0, 2])

    def test_take_rows(self):
        dense = np.array([[1.0, 0.0, 2.0], [5.0, 6.0, 0.0], [3.0, 4.0, 0.0]])
        a = CSCMatrix.from_dense(dense)
        keep = np.array([True, False, True])
        sub = a.take_rows(keep)
        assert sub.shape == (2, 3)
        np.testing.assert_allclose(sub.to_dense(), dense[keep])
