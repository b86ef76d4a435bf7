"""The dense tableau oracle: unit cases plus property tests against HiGHS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from ..oracles.simplex import solve_standard_form


class TestStandardFormSolver:
    def test_simple_optimum(self):
        # min -x1 - 2x2  s.t. x1 + x2 + s = 4; bounds via extra rows.
        a = np.array([[1.0, 1.0, 1.0]])
        b = np.array([4.0])
        c = np.array([-1.0, -2.0, 0.0])
        res = solve_standard_form(a, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-8.0)

    def test_degenerate_problem(self):
        # Redundant constraints causing degeneracy.
        a = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 1.0]])
        b = np.array([2.0, 2.0])
        c = np.array([-1.0, -1.0, 0.0, 0.0])
        res = solve_standard_form(a, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0)

    def test_infeasible(self):
        # x1 = 1 and x1 = 2 simultaneously.
        a = np.array([[1.0], [1.0]])
        b = np.array([1.0, 2.0])
        c = np.array([1.0])
        res = solve_standard_form(a, b, c)
        assert res.status == "infeasible"

    def test_unbounded(self):
        # min -x1 with x1 - x2 = 0 (both can grow forever).
        a = np.array([[1.0, -1.0]])
        b = np.array([0.0])
        c = np.array([-1.0, 0.0])
        res = solve_standard_form(a, b, c)
        assert res.status == "unbounded"

    def test_no_constraints_zero_optimum(self):
        res = solve_standard_form(np.zeros((0, 2)), np.zeros(0), np.array([1.0, 2.0]))
        assert res.status == "optimal"
        assert res.objective == 0.0

    def test_no_constraints_unbounded(self):
        res = solve_standard_form(np.zeros((0, 1)), np.zeros(0), np.array([-1.0]))
        assert res.status == "unbounded"

    def test_negative_rhs_rejected(self):
        with pytest.raises(ValueError):
            solve_standard_form(np.ones((1, 1)), np.array([-1.0]), np.ones(1))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_standard_form(np.ones((1, 2)), np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            solve_standard_form(np.ones((1, 2)), np.ones(1), np.ones(3))

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0, 1, size=(3, 6))
        x_feas = rng.uniform(0, 1, size=6)
        b = a @ x_feas  # feasible by construction
        c = rng.uniform(-1, 1, size=6)
        res = solve_standard_form(a, b, c)
        assert res.status == "optimal"
        assert np.allclose(a @ res.x, b, atol=1e-7)
        assert (res.x >= -1e-9).all()


@st.composite
def random_feasible_lp(draw):
    """Random standard-form LP that is feasible by construction."""
    m = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=m, max_value=7))
    elems = st.floats(min_value=-3, max_value=3, allow_nan=False)
    a = np.array(
        draw(
            st.lists(
                st.lists(elems, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )
    # Coefficients below the solvers' tolerances are ambiguous (HiGHS
    # presolve treats them as zero, our simplex does not): snap to zero.
    a[np.abs(a) < 1e-6] = 0.0
    x_feas = np.array(
        draw(st.lists(st.floats(min_value=0, max_value=3, allow_nan=False),
                      min_size=n, max_size=n))
    )
    b = a @ x_feas
    # Standard form wants b >= 0: flip offending rows.
    neg = b < 0
    a[neg] *= -1
    b[neg] *= -1
    c = np.array(draw(st.lists(elems, min_size=n, max_size=n)))
    # Same ambiguity for costs: a reduced cost inside HiGHS's dual
    # tolerance reads "optimal" there but can drive our exact simplex
    # to "unbounded" along a zero row.
    c[np.abs(c) < 1e-6] = 0.0
    return a, b, c


@given(random_feasible_lp())
@settings(max_examples=60, deadline=None)
def test_simplex_matches_highs_on_random_lps(lp):
    a, b, c = lp
    ours = solve_standard_form(a, b, c)
    ref = linprog(c, A_eq=a, b_eq=b, bounds=[(0, None)] * len(c), method="highs")
    if ref.status == 0:
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
    elif ref.status == 3:
        assert ours.status == "unbounded"
    elif ref.status == 2:
        assert ours.status == "infeasible"


class TestBlandTieBreak:
    """Regression: Bland ties must break on basic-variable index, not row."""

    def test_tie_breaks_on_basic_variable_index(self):
        from ..oracles.simplex import _choose_leaving

        # Two rows tied at ratio 1.0; row 0's basic variable is 7, row
        # 1's is 3.  Bland must evict the lower *variable* (row 1).
        tableau = np.array(
            [
                [1.0, 0.0, 2.0, 2.0],
                [0.0, 1.0, 2.0, 2.0],
                [0.0, 0.0, -1.0, 0.0],
            ]
        )
        basis = [7, 3]
        assert _choose_leaving(tableau, col=2, nrows=2, basis=basis, bland=True) == 1
        # Outside Bland mode the cheap lowest-row tie-break is kept.
        assert _choose_leaving(tableau, col=2, nrows=2, basis=basis, bland=False) == 0

    def test_beale_cycling_example_terminates(self):
        # Beale's classic cycling LP: Dantzig pricing with a row-index
        # tie-break cycles forever; Bland on variable indices terminates.
        # min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4, optimum -0.05.
        a = np.array(
            [
                [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        b = np.array([0.0, 0.0, 1.0])
        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        res = solve_standard_form(a, b, c, max_iterations=500)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-0.05, abs=1e-9)


class TestRedundantRows:
    """Phase 2 with a redundant constraint (artificial basic at zero)."""

    def test_duplicate_row_is_harmless(self):
        # Row 2 is 2x row 1: phase 1 leaves an artificial basic in a
        # zero row; phase 2 must still reach the true optimum.
        a = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
        b = np.array([2.0, 4.0])
        c = np.array([-1.0, 0.0, 0.0])
        res = solve_standard_form(a, b, c)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0)
        assert np.allclose(a @ res.x, b)


class TestWarmStart:
    def _lp(self):
        # min -x1 - 2 x2  s.t.  x1 + x2 + s1 = 4, x2 + s2 = 3.
        a = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
        b = np.array([4.0, 3.0])
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        return a, b, c

    def test_optimal_result_reports_basis(self):
        a, b, c = self._lp()
        res = solve_standard_form(a, b, c)
        assert res.status == "optimal"
        assert res.basis is not None and len(res.basis) == a.shape[0]
        # The reported basis reproduces the solution when re-factorized.
        x = np.zeros(a.shape[1])
        x[res.basis] = np.linalg.solve(a[:, res.basis], b)
        assert np.allclose(x, res.x, atol=1e-9)

    def test_feasible_warm_basis_skips_phase_one(self):
        a, b, c = self._lp()
        cold = solve_standard_form(a, b, c)
        warm = solve_standard_form(a, b, c, warm_basis=cold.basis)
        assert warm.status == "optimal"
        assert warm.warm_started
        assert warm.phase1_iterations == 0
        assert warm.objective == pytest.approx(cold.objective)

    def test_warm_basis_survives_rhs_change(self):
        # Tighten the rhs so the old optimum is infeasible: the warm
        # start must still land on the new optimum.
        a, b, c = self._lp()
        cold = solve_standard_form(a, b, c)
        b2 = np.array([4.0, 1.0])
        warm = solve_standard_form(a, b2, c, warm_basis=cold.basis)
        fresh = solve_standard_form(a, b2, c)
        assert warm.status == fresh.status == "optimal"
        assert warm.objective == pytest.approx(fresh.objective)

    def test_garbage_warm_basis_falls_back_to_cold(self):
        a, b, c = self._lp()
        res = solve_standard_form(a, b, c, warm_basis=[0, 0])  # duplicate
        assert res.status == "optimal"
        assert not res.warm_started
        singular = solve_standard_form(a, b, c, warm_basis=[99, 1])
        assert singular.status == "optimal"
        assert not singular.warm_started
