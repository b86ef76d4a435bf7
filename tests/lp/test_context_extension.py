"""Row-append context extension: family, bordered factors, cache parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp import Problem, SolveStatus, quicksum
from repro.lp.branch_bound import solve_branch_and_bound
from repro.lp.matrix_lp import RelaxationContext
from repro.lp.options import SolveOptions
from repro.lp.revised_simplex import (
    BASIC,
    SparseBoundedLP,
    bordered_binv,
    extend_warm_pair,
)
from repro.lp.solvers import SolveCache
from repro.lp.sparse import CSCMatrix


def arrays():
    """min -x - 2y - z, one coupling row; all bounds finite."""
    return dict(
        c=np.array([-1.0, -2.0, -1.0]),
        a_ub=CSCMatrix.from_dense([[1.0, 1.0, 1.0]]),
        b_ub=np.array([6.0]),
        a_eq=CSCMatrix.from_dense(np.zeros((0, 3))),
        b_eq=np.zeros(0),
        lb=np.zeros(3),
        ub=np.array([4.0, 3.0, 5.0]),
    )


def dense_of(lp: SparseBoundedLP) -> np.ndarray:
    out = np.zeros(lp.a.shape)
    for j in range(lp.a.shape[1]):
        idx, dat = lp.a.col(j)
        out[idx, j] = dat
    return out


def basis_matrix(lp: SparseBoundedLP, basis: np.ndarray) -> np.ndarray:
    """Dense basis matrix: structural columns from ``a``, slacks as units."""
    a = dense_of(lp)
    cols = []
    for j in basis:
        j = int(j)
        if j < lp.n:
            cols.append(a[:, j])
        else:
            e = np.zeros(lp.m)
            e[j - lp.n] = 1.0
            cols.append(e)
    return np.column_stack(cols)


class TestFamilyAppend:
    def test_rows_append_below_existing_stack(self):
        kw = arrays()
        lp = SparseBoundedLP(kw["c"], kw["a_ub"], kw["b_ub"], kw["a_eq"], kw["b_eq"])
        a_new = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        lp.append_le_rows(CSCMatrix.from_dense(a_new), np.array([3.0, 2.0]))
        assert lp.m == 3
        np.testing.assert_allclose(
            dense_of(lp), np.vstack([kw["a_ub"].to_dense(), a_new])
        )
        np.testing.assert_allclose(lp.b, [6.0, 3.0, 2.0])
        # New slacks are plain <= slacks: [0, inf).
        np.testing.assert_allclose(lp.slack_lb, np.zeros(3))
        assert np.isinf(lp.slack_ub[1:]).all()

    def test_extend_warm_pair_adds_basic_slacks(self):
        kw = arrays()
        lp = SparseBoundedLP(kw["c"], kw["a_ub"], kw["b_ub"], kw["a_eq"], kw["b_eq"])
        basis = np.array([1], dtype=np.int64)  # y basic in the single row
        vstat = np.zeros(lp.n + lp.m, dtype=np.int8)
        lp.append_le_rows(CSCMatrix.from_dense([[1.0, 0.0, 0.0]]), np.array([2.0]))
        ext = extend_warm_pair(lp, basis, vstat)
        assert ext is not None
        basis_ext, vstat_ext = ext
        np.testing.assert_array_equal(basis_ext, [1, lp.n + 1])
        assert vstat_ext[-1] == BASIC
        # A pair from a family this one cannot descend from is refused.
        assert extend_warm_pair(lp, basis, np.zeros(2, dtype=np.int8)) is None


class TestBorderedBinv:
    def test_matches_dense_inverse_of_extended_basis(self):
        kw = arrays()
        ctx = RelaxationContext(engine="builtin", **kw)
        root = ctx.solve()
        assert root.status == "optimal"
        _, basis, _ = root.warm_token
        lp = ctx._family
        m_old = lp.m
        binv_old = np.linalg.inv(basis_matrix(lp, basis))
        lp.append_le_rows(
            CSCMatrix.from_dense([[1.0, 1.0, 0.0], [0.5, 0.0, 2.0]]),
            np.array([4.0, 7.0]),
        )
        new_slacks = np.arange(lp.n + m_old, lp.n + lp.m, dtype=np.int64)
        basis_ext = np.concatenate([np.asarray(basis, dtype=np.int64), new_slacks])
        binv_ext = bordered_binv(lp, basis_ext, binv_old, m_old)
        assert binv_ext is not None
        np.testing.assert_allclose(
            binv_ext, np.linalg.inv(basis_matrix(lp, basis_ext)), atol=1e-9
        )

    def test_size_mismatch_refused(self):
        kw = arrays()
        lp = SparseBoundedLP(kw["c"], kw["a_ub"], kw["b_ub"], kw["a_eq"], kw["b_eq"])
        assert bordered_binv(lp, np.array([0], dtype=np.int64), np.eye(1), 1) is None


class TestContextExtension:
    @pytest.mark.parametrize("engine", ["builtin", "highs"])
    def test_extended_solve_matches_cold_rebuild(self, engine):
        kw = arrays()
        ctx = RelaxationContext(engine=engine, **kw)
        root = ctx.solve()
        a_app = CSCMatrix.from_dense([[0.0, 1.0, 1.0]])
        b_app = np.array([2.5])
        ctx.extend_rows(a_app, b_app)
        assert ctx.row_extensions == 1
        res = ctx.solve(warm=ctx.extend_warm_token(root.warm_token))
        fresh = RelaxationContext(
            engine="highs",
            c=kw["c"],
            a_ub=CSCMatrix.vstack(kw["a_ub"], a_app),
            b_ub=np.concatenate([kw["b_ub"], b_app]),
            a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=kw["lb"], ub=kw["ub"],
        ).solve()
        assert res.status == fresh.status == "optimal"
        assert res.objective == pytest.approx(fresh.objective, abs=1e-8)
        np.testing.assert_allclose(res.x, fresh.x, atol=1e-7)

    def test_extended_token_reenters_via_dual_simplex(self):
        kw = arrays()
        ctx = RelaxationContext(engine="builtin", **kw)
        root = ctx.solve()
        ctx.extend_rows(CSCMatrix.from_dense([[0.0, 1.0, 1.0]]), np.array([2.5]))
        token = ctx.extend_warm_token(root.warm_token)
        assert token is not None
        res = ctx.solve(warm=token)
        assert res.status == "optimal"
        assert res.warm_started
        assert ctx.extension_dual_entries >= 1


class TestExtensionPresolve:
    def test_appended_row_tightens_the_bound_box(self):
        kw = arrays()
        ctx = RelaxationContext(
            engine="builtin",
            integrality=np.ones(3, dtype=bool), **kw,
        )
        ctx.solve()
        before = ctx.presolve_bounds_tightened
        # x + y + z >= everything is already capped at 6; forcing
        # x <= 0.4 with x integral must fix x to 0 in the eff box.
        ctx.extend_rows(CSCMatrix.from_dense([[1.0, 0.0, 0.0]]), np.array([0.4]))
        assert ctx.presolve_bounds_tightened > before
        assert ctx._eff_ub[0] == pytest.approx(0.0)
        res = ctx.solve()
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(0.0, abs=1e-9)

    def test_cut_rows_skip_the_extension_presolve(self):
        # The row that tightens x to 0 as a directive (above) appended as
        # a cut: no presolve round runs and the box stays as it was, but
        # the row itself still binds.
        kw = arrays()
        directive, cut = (
            RelaxationContext(
                engine="builtin", integrality=np.ones(3, dtype=bool), **kw
            )
            for _ in range(2)
        )
        row = CSCMatrix.from_dense([[1.0, 0.0, 0.0]])
        rounds = cut.presolve_rounds
        tightened = cut.presolve_bounds_tightened
        directive.extend_rows(row, np.array([0.4]))
        cut.add_cut_rows(row, np.array([0.4]), kw["lb"], kw["ub"])
        assert directive.presolve_rounds > rounds
        assert cut.presolve_rounds == rounds
        assert cut.presolve_bounds_tightened == tightened
        assert cut._eff_ub[0] == kw["ub"][0]
        assert cut.row_extensions == 1
        res = cut.solve()
        assert res.status == "optimal"
        assert res.x[0] <= 0.4 + 1e-9

    def test_infeasible_append_detected_at_extension_time(self):
        kw = arrays()
        ctx = RelaxationContext(engine="builtin", **kw)
        ctx.solve()
        # x + y + z <= -1 with nonnegative bounds: hopeless.
        ctx.extend_rows(CSCMatrix.from_dense([[1.0, 1.0, 1.0]]), np.array([-1.0]))
        assert ctx.solve().status == "infeasible"


class TestReducedCosts:
    @pytest.mark.parametrize("engine", ["builtin", "highs"])
    def test_matches_hand_computed_duals(self, engine):
        # min -x - 2y st x + y <= 6, x <= 4, y <= 3: optimum (3, 3),
        # row dual -1, so d = c - A'y = (0, -1).
        ctx = RelaxationContext(
            engine=engine,
            c=np.array([-1.0, -2.0]),
            a_ub=CSCMatrix.from_dense([[1.0, 1.0]]),
            b_ub=np.array([6.0]),
            a_eq=CSCMatrix.from_dense(np.zeros((0, 2))), b_eq=np.zeros(0),
            lb=np.zeros(2), ub=np.array([4.0, 3.0]),
        )
        res = ctx.solve()
        d = ctx.reduced_costs(res.duals)
        assert d is not None
        np.testing.assert_allclose(d, [0.0, -1.0], atol=1e-8)

    @pytest.mark.parametrize(
        "engine",
        [
            pytest.param(
                "builtin",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=(
                        "known defect: the builtin family orders duals "
                        "[a_ub, a_eq, appended] but reduced_costs splits "
                        "them as [a_ub + appended, a_eq]"
                    ),
                ),
            ),
            "highs",
        ],
    )
    def test_after_append_match_the_engine_dual_order(self, engine):
        # Three <= rows, one = row, then one appended <= row that binds
        # at the new optimum, as do the = row and the last row before it.
        c = np.array([-1.2, 0.4, -0.3, -3.6, -3.2, 0.2])
        a_ub = np.array([
            [0.0, 2.5, 2.4, 1.4, 0.9, 0.8],
            [0.8, 1.3, 1.5, 1.7, 3.0, 2.4],
            [1.9, 3.0, 0.6, 0.5, 1.8, 0.1],
        ])
        a_eq = np.array([[0.1, 1.0, 0.9, 1.8, 1.3, 1.0]])
        a_app = np.array([[1.5, 0.7, 0.0, 0.6, 2.1, 0.6]])
        lb, ub = np.zeros(6), np.full(6, 4.0)
        ctx = RelaxationContext(
            c, CSCMatrix.from_dense(a_ub), np.array([6.4, 8.6, 6.3]),
            CSCMatrix.from_dense(a_eq), np.array([6.1]), lb, ub, engine=engine,
        )
        root = ctx.solve()
        ctx.extend_rows(CSCMatrix.from_dense(a_app), np.array([2.8]))
        res = ctx.solve(warm=ctx.extend_warm_token(root.warm_token))
        assert res.status == "optimal"
        assert ctx.presolve_rows_dropped == 0
        if engine == "highs":
            stacked = np.vstack([a_ub, a_app, a_eq])
        else:
            stacked = np.vstack([a_ub, a_eq, a_app])
        d = ctx.reduced_costs(res.duals)
        np.testing.assert_allclose(d, c - stacked.T @ res.duals, atol=1e-9)
        basic = (res.x > lb + 1e-7) & (res.x < ub - 1e-7)
        assert basic.any()
        np.testing.assert_allclose(d[basic], 0.0, atol=1e-9)

    def test_mismatched_or_missing_duals_return_none(self):
        kw = arrays()
        ctx = RelaxationContext(engine="builtin", **kw)
        assert ctx.reduced_costs(None) is None
        assert ctx.reduced_costs(np.zeros(5)) is None


class TestReducedCostFixing:
    def problem(self):
        # min -3x - y st x + y <= 1.5, binaries: LP root (1, 0.5) with
        # objective -3.5; integer optimum (1, 0) at -3.
        p = Problem("rc-fix")
        x = p.add_binary("x")
        y = p.add_binary("y")
        p.add_constraint(x + y <= 1.5)
        p.set_objective(-3 * x - y)
        return p

    def test_seeded_solve_fixes_at_root_and_matches_cold(self):
        cold = solve_branch_and_bound(self.problem())
        seeded = solve_branch_and_bound(
            self.problem(), warm_start={"x": 1.0, "y": 0.0}
        )
        assert cold.status is seeded.status is SolveStatus.OPTIMAL
        assert seeded.objective == pytest.approx(cold.objective)
        assert seeded.stats.extra.get("warm_start_incumbent") == 1.0
        assert seeded.stats.extra.get("warm_start_objective") == pytest.approx(-3.0)
        # At the root, x sits at its upper bound with |d| = 2 >= the
        # 0.5 cutoff slack: it must be fixed there.
        assert seeded.stats.extra.get("reduced_cost_fixed", 0) >= 1

    def test_unseeded_solve_never_fixes(self):
        cold = solve_branch_and_bound(self.problem())
        assert "reduced_cost_fixed" not in cold.stats.extra


class TestCacheExtension:
    def mip(self):
        p = Problem("cache-ext")
        xs = [p.add_binary(f"x{i}") for i in range(6)]
        p.add_constraint(quicksum((i + 1) * x for i, x in enumerate(xs)) <= 9)
        p.set_objective(-quicksum((2 * i + 3) * x for i, x in enumerate(xs)))
        return p, xs

    def test_appended_row_extends_instead_of_rebuilding(self):
        p, xs = self.mip()
        cache = SolveCache()
        options = SolveOptions()
        first = cache.solve(p, "branch_bound", options)
        assert first.status is SolveStatus.OPTIMAL
        rebuilds = cache.context_rebuilds
        p.add_constraint(xs[0] + xs[1] + xs[2] <= 1)
        second = cache.solve(p, "branch_bound", options)
        assert cache.context_extensions == 1
        assert cache.context_rebuilds == rebuilds  # no cold restandardize
        fresh = solve_branch_and_bound(p)
        assert second.status is SolveStatus.OPTIMAL
        assert second.objective == pytest.approx(fresh.objective)
        assert p.is_feasible(second.values)
        assert second.stats.context_extended == 1

    def test_extension_keeps_fingerprint_chain_distinct(self):
        p, xs = self.mip()
        cache = SolveCache()
        options = SolveOptions()
        cache.solve(p, "branch_bound", options)
        p.add_constraint(xs[3] + xs[4] <= 1)
        a = cache.solve(p, "branch_bound", options)
        hits = cache.hits
        again = cache.solve(p, "branch_bound", options)
        assert cache.hits == hits + 1  # extended structure is cacheable
        assert again.objective == pytest.approx(a.objective)

    def test_removal_to_a_cached_structure_is_a_fingerprint_hit(self):
        # Popping a directive restores an already-seen structure; the
        # fingerprint cache answers it without touching the context.
        p, xs = self.mip()
        cache = SolveCache()
        options = SolveOptions()
        first = cache.solve(p, "branch_bound", options)
        p.add_constraint(xs[0] + xs[1] <= 1)
        cache.solve(p, "branch_bound", options)
        hits = cache.hits
        p.truncate_constraints(len(p.constraints) - 1)
        out = cache.solve(p, "branch_bound", options)
        assert cache.hits == hits + 1
        assert out.objective == pytest.approx(first.objective)

    def test_removal_to_a_new_structure_rebuilds(self):
        p, xs = self.mip()
        base = p.num_constraints
        p.add_constraint(xs[0] + xs[1] <= 1)
        p.add_constraint(xs[2] + xs[3] <= 1)
        cache = SolveCache()
        options = SolveOptions()
        cache.solve(p, "branch_bound", options)
        rebuilds = cache.context_rebuilds
        # Dropping both rows lands on a structure the cache never saw
        # as a context: families cannot shrink in place, so it rebuilds.
        p.truncate_constraints(base)
        out = cache.solve(p, "branch_bound", options)
        assert cache.context_rebuilds == rebuilds + 1
        assert out.status is SolveStatus.OPTIMAL
