"""Row-dual extraction from the builtin simplex engines.

The decomposition master depends on these: duals are ``y = c_B B^{-1}``
in the min-problem convention (``a_ub`` rows first, then ``a_eq``;
binding ``<=`` rows carry ``y_i <= 0``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.dual_simplex import solve_bounded_lp_dual
from repro.lp.matrix_lp import _solve_highs_arrays, solve_lp_arrays
from repro.lp.revised_simplex import SparseBoundedLP, solve_bounded_lp
from repro.lp.sparse import CSCMatrix


def dense_csc(rows: list[list[float]]) -> CSCMatrix:
    arr = np.array(rows, dtype=float)
    m, n = arr.shape
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for j in range(n):
        for i in range(m):
            if arr[i, j] != 0.0:
                indices.append(i)
                data.append(arr[i, j])
        indptr.append(len(indices))
    return CSCMatrix(
        shape=(m, n),
        indptr=np.array(indptr, dtype=np.int64),
        indices=np.array(indices, dtype=np.int64),
        data=np.array(data),
    )


def knapsack_family() -> tuple[SparseBoundedLP, np.ndarray, np.ndarray]:
    # min -3x - 2y  s.t.  x + y <= 4, x <= 3;  0 <= x, y <= 10.
    # Optimum (3, 1), objective -11; row duals: y1 = -2, y2 = -1.
    family = SparseBoundedLP(
        c=np.array([-3.0, -2.0]),
        a_ub=dense_csc([[1.0, 1.0], [1.0, 0.0]]),
        b_ub=np.array([4.0, 3.0]),
        a_eq=np.zeros((0, 2)),
        b_eq=np.zeros(0),
    )
    lb = np.zeros(2)
    ub = np.full(2, 10.0)
    return family, lb, ub


class TestRevisedSimplexDuals:
    def test_binding_ub_rows_have_nonpositive_duals(self):
        family, lb, ub = knapsack_family()
        result = solve_bounded_lp(family, lb, ub)
        assert result.status == "optimal"
        assert result.duals is not None
        np.testing.assert_allclose(result.duals, [-2.0, -1.0], atol=1e-9)
        # Strong duality: b . y == objective (both bounds at 0 here).
        assert result.duals @ family.b == pytest.approx(result.objective)

    def test_eq_row_duals(self):
        # min x + 2y  s.t.  x + y == 3, x <= 1  ->  (1, 2), objective 5.
        family = SparseBoundedLP(
            c=np.array([1.0, 2.0]),
            a_ub=dense_csc([[1.0, 0.0]]),
            b_ub=np.array([1.0]),
            a_eq=dense_csc([[1.0, 1.0]]),
            b_eq=np.array([3.0]),
        )
        result = solve_bounded_lp(family, np.zeros(2), np.full(2, 10.0))
        assert result.status == "optimal"
        assert result.objective == pytest.approx(5.0)
        # Ordering: a_ub rows first, then a_eq.
        np.testing.assert_allclose(result.duals, [-1.0, 2.0], atol=1e-9)

    def test_nonbinding_row_dual_is_zero(self):
        # min -x  s.t.  x <= 2, x + 0y <= 50 (slack);  0 <= x <= 10.
        family = SparseBoundedLP(
            c=np.array([-1.0]),
            a_ub=dense_csc([[1.0], [1.0]]),
            b_ub=np.array([2.0, 50.0]),
            a_eq=np.zeros((0, 1)),
            b_eq=np.zeros(0),
        )
        result = solve_bounded_lp(family, np.zeros(1), np.full(1, 10.0))
        assert result.status == "optimal"
        np.testing.assert_allclose(result.duals, [-1.0, 0.0], atol=1e-9)


class TestDualSimplexDuals:
    def test_dual_resolve_reports_duals(self):
        # The dual driver is a warm re-solve engine: seed it with the
        # primal optimum's token, then tighten x's upper bound to 2.
        # New optimum (2, 2), objective -10; row 1 binds (y1 = -2),
        # row 2 goes slack (y2 = 0).
        family, lb, ub = knapsack_family()
        primal = solve_bounded_lp(family, lb, ub)
        assert primal.status == "optimal"
        tighter = ub.copy()
        tighter[0] = 2.0
        result = solve_bounded_lp_dual(
            family, lb, tighter, warm=(primal.basis, primal.vstat)
        )
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-10.0)
        assert result.duals is not None
        np.testing.assert_allclose(result.duals, [-2.0, 0.0], atol=1e-9)

    def test_dual_and_primal_agree_on_random_bound_tightenings(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m, n = 4, 6
            a = rng.uniform(0.0, 2.0, size=(m, n))
            family = SparseBoundedLP(
                c=rng.uniform(-3.0, 1.0, size=n),
                a_ub=dense_csc(a.tolist()),
                b_ub=rng.uniform(2.0, 8.0, size=m),
                a_eq=np.zeros((0, n)),
                b_eq=np.zeros(0),
            )
            lb = np.zeros(n)
            ub = np.full(n, 5.0)
            root = solve_bounded_lp(family, lb, ub)
            assert root.status == "optimal"
            tighter = ub.copy()
            tighter[int(rng.integers(n))] = 1.0
            primal = solve_bounded_lp(family, lb, tighter)
            dual = solve_bounded_lp_dual(
                family, lb, tighter, warm=(root.basis, root.vstat)
            )
            assert primal.status == "optimal"
            if dual.status != "optimal":
                continue  # dual_lost is "use the primal engine", not a bug
            assert primal.objective == pytest.approx(dual.objective, abs=1e-7)
            # Dual feasibility of the reported row prices (min problem,
            # <= rows): y <= 0 and reduced costs respect the bounds.
            for result in (primal, dual):
                assert (result.duals <= 1e-9).all()
                reduced = family.c - result.duals @ a
                x = result.x
                at_lower = x <= lb + 1e-9
                at_upper = x >= tighter - 1e-9
                assert (reduced[at_lower & ~at_upper] >= -1e-7).all()
                assert (reduced[at_upper & ~at_lower] <= 1e-7).all()


class TestArrayLPDuals:
    ARRAYS = dict(
        c=np.array([-3.0, -2.0]),
        a_ub=np.array([[1.0, 1.0], [1.0, 0.0]]),
        b_ub=np.array([4.0, 3.0]),
        a_eq=np.zeros((0, 2)),
        b_eq=np.zeros(0),
        lb=np.zeros(2),
        ub=np.full(2, 10.0),
    )

    @classmethod
    def _solve(cls, engine: str):
        # Raw arrays, no presolve: the singleton row ``x <= 3`` must stay
        # a row (presolve would turn it into a bound) to carry its dual.
        kw = cls.ARRAYS
        if engine == "highs":
            return _solve_highs_arrays(**kw)
        family = SparseBoundedLP(kw["c"], kw["a_ub"], kw["b_ub"], kw["a_eq"], kw["b_eq"])
        return solve_bounded_lp(family, kw["lb"], kw["ub"])

    @pytest.mark.parametrize("engine", ["builtin", "highs"])
    def test_presolved_context_duals_cover_the_kept_rows(self, engine):
        # The context drops the singleton row into x's bound, so only
        # the coupling row is left to price.
        if engine == "highs":
            pytest.importorskip("scipy")
        res = solve_lp_arrays(engine=engine, **self.ARRAYS)
        assert res.status == "optimal"
        np.testing.assert_allclose(res.duals, [-2.0], atol=1e-7)

    def test_builtin_array_path_carries_duals(self):
        res = self._solve("builtin")
        assert res.status == "optimal"
        assert res.duals is not None
        np.testing.assert_allclose(res.duals, [-2.0, -1.0], atol=1e-7)

    def test_highs_array_path_carries_duals(self):
        pytest.importorskip("scipy")
        res = self._solve("highs")
        assert res.status == "optimal"
        assert res.duals is not None
        np.testing.assert_allclose(res.duals, [-2.0, -1.0], atol=1e-7)
