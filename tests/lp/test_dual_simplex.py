"""Unit tests for the bounded-variable dual simplex.

The dual engine is warm-only by contract: it re-solves a family member
from a parent's ``(basis, vstat)`` token after a bound change, the
branch-and-bound child-node pattern.  Every terminal answer here is
cross-checked against a cold primal solve of the same member, and the
refusal statuses (``dual_lost`` / ``dual_infeasible``) are asserted to
appear exactly where the contract says: no token, malformed token.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.dual_simplex import DualResult, solve_bounded_lp_dual
from repro.lp.revised_simplex import SparseBoundedLP, solve_bounded_lp
from repro.lp.sparse import CSCMatrix


def _family(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    return SparseBoundedLP(
        c,
        CSCMatrix.from_dense(np.zeros((0, n)) if a_ub is None else a_ub),
        np.zeros(0) if b_ub is None else np.asarray(b_ub, float),
        CSCMatrix.from_dense(np.zeros((0, n)) if a_eq is None else a_eq),
        np.zeros(0) if b_eq is None else np.asarray(b_eq, float),
    )


def _random_family(seed: int):
    """A random bounded LP family plus its root box (mostly feasible)."""
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(3, 8))
    m_ub = int(rng.integers(1, 5))
    lb = np.round(rng.uniform(-2.0, 0.0, size=n), 3)
    ub = lb + np.round(rng.uniform(0.5, 4.0, size=n), 3)
    c = np.round(rng.uniform(-5.0, 5.0, size=n), 3)
    a_ub = np.round(rng.uniform(-2.0, 2.0, size=(m_ub, n)), 3)
    x0 = rng.uniform(lb, ub)
    b_ub = a_ub @ x0 + np.round(rng.uniform(0.0, 1.5, size=m_ub), 3)
    if seed % 2 == 0:
        a_eq = np.round(rng.uniform(-1.0, 1.0, size=(1, n)), 3)
        b_eq = a_eq @ x0
    else:
        a_eq, b_eq = None, None
    return _family(c, a_ub, b_ub, a_eq, b_eq), lb, ub, rng


def _tighten(lb, ub, rng):
    lb, ub = lb.copy(), ub.copy()
    j = int(rng.integers(0, lb.shape[0]))
    mid = float(rng.uniform(lb[j], ub[j]))
    if rng.random() < 0.5:
        lb[j] = mid
    else:
        ub[j] = mid
    return lb, ub


class TestEntryContract:
    def test_cold_entry_refuses(self):
        lp = _family([-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[3.0])
        res = solve_bounded_lp_dual(lp, np.zeros(2), np.full(2, 2.0))
        assert res.status == "dual_lost"

    def test_malformed_token_refuses(self):
        lp = _family([-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[3.0])
        bad = (np.array([0, 0], dtype=np.int64), np.zeros(3, dtype=np.int8))
        res = solve_bounded_lp_dual(lp, np.zeros(2), np.full(2, 2.0), warm=bad)
        assert res.status == "dual_lost"

    def test_crossed_bounds_short_circuit(self):
        lp = _family([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        res = solve_bounded_lp_dual(
            lp, np.array([2.0, 0.0]), np.array([1.0, 1.0])
        )
        assert res.status == "infeasible"
        assert res.iterations == 0


class TestChildResolves:
    def test_single_bound_change_matches_primal(self):
        # min -x - 2y st x + y <= 3 on [0,2]^2: optimum (1, 2).
        # Branch y <= 1: the basic x picks up the slack, optimum (2, 1).
        lp = _family([-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[3.0])
        lb, ub = np.zeros(2), np.full(2, 2.0)
        parent = solve_bounded_lp(lp, lb, ub)
        assert parent.status == "optimal"
        child_ub = ub.copy()
        child_ub[1] = 1.0
        res = solve_bounded_lp_dual(
            lp, lb, child_ub, warm=(parent.basis, parent.vstat)
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-4.0)
        np.testing.assert_allclose(res.x, [2.0, 1.0], atol=1e-9)
        assert res.warm_started

    def test_infeasible_child_detected(self):
        # x + y <= 1; branching both variables up to >= 1 is infeasible.
        lp = _family([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        lb, ub = np.zeros(2), np.full(2, 5.0)
        parent = solve_bounded_lp(lp, lb, ub)
        assert parent.status == "optimal"
        child_lb = np.ones(2)
        res = solve_bounded_lp_dual(
            lp, child_lb, ub, warm=(parent.basis, parent.vstat)
        )
        assert res.status == "infeasible"

    def test_fixed_column_child(self):
        # Branch-fixing a binary to 1 (lb == ub) must not stall the walk
        # on the fixed column's unconstrained reduced-cost sign.
        lp = _family(
            [-3.0, -2.0, -1.0], a_ub=[[2.0, 3.0, 1.0]], b_ub=[4.0],
            a_eq=[[1.0, 1.0, 1.0]], b_eq=[2.0],
        )
        lb, ub = np.zeros(3), np.ones(3)
        parent = solve_bounded_lp(lp, lb, ub)
        assert parent.status == "optimal"
        child_lb = lb.copy()
        child_lb[1] = 1.0  # fix x1 = 1 (ub already 1)
        res = solve_bounded_lp_dual(
            lp, child_lb, ub, warm=(parent.basis, parent.vstat)
        )
        ref = solve_bounded_lp(lp, child_lb, ub)
        assert res.status == ref.status
        if ref.status == "optimal":
            assert res.objective == pytest.approx(ref.objective, abs=1e-8)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_children_agree_with_primal(self, seed):
        lp, lb, ub, rng = _random_family(seed)
        parent = solve_bounded_lp(lp, lb, ub)
        if parent.status != "optimal":
            pytest.skip("root infeasible for this seed")
        for _ in range(3):
            clb, cub = _tighten(lb, ub, rng)
            res = solve_bounded_lp_dual(
                lp, clb, cub, warm=(parent.basis, parent.vstat)
            )
            ref = solve_bounded_lp(lp, clb, cub)
            # The dual engine may refuse (fallback statuses) but when it
            # answers, the answer must match the primal engine exactly.
            if res.status in ("dual_lost", "dual_infeasible"):
                continue
            assert res.status == ref.status
            if ref.status == "optimal":
                assert res.objective == pytest.approx(
                    ref.objective, rel=1e-6, abs=1e-6
                )
                assert (res.x >= clb - 1e-6).all()
                assert (res.x <= cub + 1e-6).all()

    @pytest.mark.parametrize("seed", range(0, 30, 3))
    def test_nested_chain_with_binv_reuse(self, seed):
        """Grandchild solves fed the parent's cached inverse stay exact."""
        lp, lb, ub, rng = _random_family(seed)
        node = solve_bounded_lp(lp, lb, ub)
        if node.status != "optimal":
            pytest.skip("root infeasible for this seed")
        binv = None
        clb, cub = lb, ub
        for _ in range(4):
            clb, cub = _tighten(clb, cub, rng)
            res = solve_bounded_lp_dual(
                lp, clb, cub, warm=(node.basis, node.vstat), binv=binv
            )
            ref = solve_bounded_lp(lp, clb, cub)
            if res.status in ("dual_lost", "dual_infeasible"):
                node = ref
                binv = None
                if ref.status != "optimal":
                    break
                continue
            assert res.status == ref.status
            if res.status != "optimal":
                break
            assert res.objective == pytest.approx(
                ref.objective, rel=1e-6, abs=1e-6
            )
            assert isinstance(res, DualResult)
            node = res
            binv = res.binv  # None unless the eta file was empty at exit

    def test_optimal_exit_exposes_binv(self):
        lp = _family([-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[3.0])
        lb, ub = np.zeros(2), np.full(2, 2.0)
        parent = solve_bounded_lp(lp, lb, ub)
        child_ub = ub.copy()
        child_ub[1] = 1.0
        res = solve_bounded_lp_dual(
            lp, lb, child_ub, warm=(parent.basis, parent.vstat)
        )
        assert res.status == "optimal"
        if res.binv is not None:
            # The exposed inverse must actually invert the exit basis
            # (structural columns from the CSC store, slacks as units).
            m = res.basis.shape[0]
            b_mat = np.zeros((m, m))
            for k, j in enumerate(res.basis):
                j = int(j)
                if j < lp.n:
                    idx, dat = lp.a.col(j)
                    b_mat[idx, k] = dat
                else:
                    b_mat[j - lp.n, k] = 1.0
            np.testing.assert_allclose(res.binv @ b_mat, np.eye(m), atol=1e-8)
