"""Unit tests for the sparse bounded-variable revised simplex core."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.dual_simplex import solve_bounded_lp_dual
from repro.lp.revised_simplex import (
    BASIC,
    FEAS_TOL,
    PIV_TOL,
    REFACTOR_INTERVAL,
    RevisedResult,
    SparseBoundedLP,
    _Solver,
    bordered_binv,
    solve_bounded_lp,
)
from repro.lp.sparse import CSCMatrix

NO_ROWS = dict(
    a_ub=np.zeros((0, 2)), b_ub=np.zeros(0), a_eq=np.zeros((0, 2)), b_eq=np.zeros(0)
)


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


class TestStatuses:
    def test_simple_box_lp(self):
        # min -x - 2y st x + y <= 3, 0 <= x,y <= 2 → x=1, y=2, obj=-5.
        lp = _family([-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[3.0])
        res = solve_bounded_lp(lp, np.zeros(2), np.full(2, 2.0))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-5.0)
        np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-9)

    def test_unbounded(self):
        lp = _family([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0])
        res = solve_bounded_lp(lp, np.zeros(2), np.full(2, np.inf))
        assert res.status == "unbounded"
        assert res.objective == -np.inf

    def test_infeasible_rows(self):
        # x + y <= 1 with x, y >= 1 each.
        lp = _family([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        res = solve_bounded_lp(lp, np.ones(2), np.full(2, np.inf))
        assert res.status == "infeasible"

    def test_crossed_bounds_short_circuit(self):
        lp = _family([1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0])
        res = solve_bounded_lp(lp, np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        assert res.status == "infeasible"
        assert res.iterations == 0

    def test_equality_rows_only(self):
        # min x + y st x + y = 2, x - y = 0 → x = y = 1.
        lp = _family([1.0, 1.0], a_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[2.0, 0.0])
        res = solve_bounded_lp(lp, np.zeros(2), np.full(2, np.inf))
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)

    def test_free_variable(self):
        # min y st y >= x - 3, y >= -x - 1, x free → y = -2 at x = 1.
        lp = _family(
            [0.0, 1.0], a_ub=[[1.0, -1.0], [-1.0, -1.0]], b_ub=[3.0, 1.0]
        )
        res = solve_bounded_lp(
            lp, np.array([-np.inf, -np.inf]), np.array([np.inf, np.inf])
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-2.0, abs=1e-8)

    def test_iteration_limit(self):
        lp = _family([-1.0, -2.0], a_ub=[[1.0, 1.0]], b_ub=[3.0])
        res = solve_bounded_lp(lp, np.zeros(2), np.full(2, 2.0), max_iterations=1)
        assert res.status in ("iteration_limit", "optimal")


class TestNoRows:
    def test_bounds_only_minimization(self):
        lp = _family([1.0, -1.0])
        res = solve_bounded_lp(lp, np.array([-1.0, -2.0]), np.array([5.0, 3.0]))
        assert res.status == "optimal"
        np.testing.assert_allclose(res.x, [-1.0, 3.0], atol=1e-12)

    def test_bounds_only_unbounded(self):
        lp = _family([1.0, -1.0])
        res = solve_bounded_lp(lp, np.array([-np.inf, 0.0]), np.array([np.inf, 1.0]))
        assert res.status == "unbounded"


class TestBoundFlips:
    def test_flip_is_counted_and_correct(self):
        # min -x st x <= 1 slackly rowed: x enters, hits its own upper
        # bound before any basic blocks → a bound flip, no basis change.
        lp = _family([-1.0], a_ub=[[1.0]], b_ub=[10.0])
        res = solve_bounded_lp(lp, np.zeros(1), np.ones(1))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-1.0)
        assert res.bound_flips >= 1


def _fixed_column_lp(rng, n, m_ub, m_eq, n_fixed, boxed):
    """A feasible LP whose first ``n_fixed`` columns have ``lb == ub``.

    Rows hold through a known point ``x0``: equalities exactly, ``<=``
    rows with slack.  ``boxed=False`` leaves the other columns
    ``[0, inf)``, so only fixed columns could ever bound-flip.
    """
    lb = np.zeros(n)
    ub = rng.uniform(0.5, 2.0, size=n) if boxed else np.full(n, np.inf)
    lb[:n_fixed] = ub[:n_fixed] = rng.uniform(0.2, 1.5, size=n_fixed)
    x0 = rng.uniform(0.1, 1.0, size=n)
    x0 = np.where(np.isfinite(ub), x0 * ub, x0)
    x0[:n_fixed] = lb[:n_fixed]
    a_ub = rng.normal(size=(m_ub, n))
    a_eq = rng.uniform(0.1, 1.0, size=(m_eq, n))
    b_ub = a_ub @ x0 + rng.uniform(0.1, 1.0, size=m_ub)
    b_eq = a_eq @ x0
    return a_ub, b_ub, a_eq, b_eq, lb, ub


class TestFixedColumns:
    """Columns with ``lb == ub`` are never priced, in either phase."""

    def test_attractive_fixed_columns_never_flip(self):
        rng = np.random.default_rng(11)
        n, n_fixed = 9, 3
        a_ub, b_ub, a_eq, b_eq, lb, ub = _fixed_column_lp(
            rng, n, 3, 2, n_fixed, boxed=False
        )
        c = rng.uniform(1.0, 3.0, size=n)
        c[:n_fixed] = -100.0  # would enter at once if priced
        lp = _family(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        res = solve_bounded_lp(lp, lb, ub)
        assert res.status == "optimal"
        assert res.bound_flips == 0
        np.testing.assert_array_equal(res.x[:n_fixed], lb[:n_fixed])

        fixed = lb[:n_fixed]
        sub = _family(
            c[n_fixed:],
            a_ub=a_ub[:, n_fixed:], b_ub=b_ub - a_ub[:, :n_fixed] @ fixed,
            a_eq=a_eq[:, n_fixed:], b_eq=b_eq - a_eq[:, :n_fixed] @ fixed,
        )
        ref = solve_bounded_lp(sub, lb[n_fixed:], ub[n_fixed:])
        assert ref.status == "optimal"
        np.testing.assert_allclose(res.x[n_fixed:], ref.x, rtol=1e-9, atol=1e-9)
        assert res.objective == pytest.approx(
            ref.objective + c[:n_fixed] @ fixed, rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_highs_with_fixed_columns_and_equalities(self, seed):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        m_ub, m_eq = int(rng.integers(1, 8)), int(rng.integers(1, 5))
        n_fixed = int(rng.integers(1, n // 2))
        a_ub, b_ub, a_eq, b_eq, lb, ub = _fixed_column_lp(
            rng, n, m_ub, m_eq, n_fixed, boxed=True
        )
        c = rng.normal(size=n)
        c[:n_fixed] -= 10.0
        lp = _family(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
        res = solve_bounded_lp(lp, lb, ub)
        ref = linprog(
            c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
            bounds=list(zip(lb, ub)), method="highs",
        )
        assert ref.status == 0
        assert res.status == "optimal"
        assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
        np.testing.assert_array_equal(res.x[:n_fixed], lb[:n_fixed])


class TestWarmStart:
    def _kw(self):
        rng = np.random.default_rng(77)
        n, m = 8, 5
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.normal(size=m) + 4.0
        return _family(rng.normal(size=n), a_ub=a_ub, b_ub=b_ub), n

    def test_warm_start_round_trip(self):
        lp, n = self._kw()
        lb, ub = np.zeros(n), np.ones(n)
        cold = solve_bounded_lp(lp, lb, ub)
        assert cold.status == "optimal"
        warm = solve_bounded_lp(lp, lb, ub, warm=(cold.basis, cold.vstat))
        assert warm.status == "optimal"
        assert warm.warm_started
        assert warm.objective == pytest.approx(cold.objective)
        # Re-solving at the optimum needs no phase-1 repair pivots.
        assert warm.phase1_iterations == 0

    def test_corrupt_token_falls_back_to_cold_start(self):
        lp, n = self._kw()
        lb, ub = np.zeros(n), np.ones(n)
        cold = solve_bounded_lp(lp, lb, ub)
        bad_basis = np.zeros_like(cold.basis)  # duplicated indices: singular
        warm = solve_bounded_lp(lp, lb, ub, warm=(bad_basis, cold.vstat))
        assert warm.status == "optimal"
        assert not warm.warm_started
        assert warm.objective == pytest.approx(cold.objective)

    def test_wrong_shape_token_falls_back(self):
        lp, n = self._kw()
        lb, ub = np.zeros(n), np.ones(n)
        warm = solve_bounded_lp(lp, lb, ub, warm=(np.array([0]), np.array([BASIC])))
        assert warm.status == "optimal"
        assert not warm.warm_started


class TestRefactorization:
    def test_long_solves_refactorize_periodically(self):
        # A dense random LP big enough to take > REFACTOR_INTERVAL pivots.
        rng = np.random.default_rng(5)
        n, m = 60, 45
        lp = _family(
            rng.normal(size=n),
            a_ub=rng.normal(size=(m, n)),
            b_ub=rng.normal(size=m) + float(n),
        )
        res = solve_bounded_lp(lp, np.zeros(n), np.ones(n))
        assert res.status == "optimal"
        if res.iterations > REFACTOR_INTERVAL:
            assert res.refactorizations >= 2
        # Every retired eta was one basis-changing pivot.
        assert res.eta_file_length <= res.iterations
        assert res.pricing_passes >= 1

    def test_counters_present_on_result(self):
        res = RevisedResult(status="optimal", x=None, objective=0.0, iterations=0)
        for name in (
            "refactorizations", "eta_file_length", "pricing_passes", "bound_flips",
        ):
            assert getattr(res, name) == 0


# -- vectorized helpers are exact -------------------------------------------


def _random_csc(rng, m, n, density=0.3, empty_cols=()):
    dense = rng.normal(size=(m, n)) * (rng.random((m, n)) < density)
    dense[:, list(empty_cols)] = 0.0
    return dense, CSCMatrix.from_dense(dense)


def _assert_same_csc(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name


class TestExactHelpers:
    def test_matvec_and_rmatvec_match_per_nonzero_accumulation(self):
        rng = np.random.default_rng(11)
        for m, n in ((7, 9), (1, 5), (6, 1), (0, 4), (4, 0)):
            _, a = _random_csc(rng, m, n, empty_cols=range(0, n, 3))
            x, y = rng.normal(size=n), rng.normal(size=m)
            ax, aty = np.zeros(m), np.zeros(n)
            for j in range(n):
                for p in range(a.indptr[j], a.indptr[j + 1]):
                    ax[a.indices[p]] += a.data[p] * x[j]
                    aty[j] += a.data[p] * y[a.indices[p]]
            got_ax, got_aty = a.matvec(x), a.rmatvec(y)
            assert got_ax.dtype == got_aty.dtype == np.float64
            assert np.array_equal(got_ax, ax)
            assert np.array_equal(got_aty, aty)

    def test_vstack_matches_dense_stacking(self):
        rng = np.random.default_rng(12)
        n = 8
        for m_top, m_bot in ((5, 3), (1, 1), (0, 4), (4, 0), (0, 0)):
            top_d, top = _random_csc(rng, m_top, n, empty_cols=(2, 5))
            bot_d, bot = _random_csc(rng, m_bot, n, empty_cols=(5, 7))
            got = CSCMatrix.vstack(top, bot)
            _assert_same_csc(got, CSCMatrix.from_dense(np.vstack([top_d, bot_d])))

    def test_bordered_binv_matches_dense_construction(self):
        rng = np.random.default_rng(13)
        n, m_old, k = 6, 4, 3
        a_ub = rng.normal(size=(m_old + k, n)) * (rng.random((m_old + k, n)) < 0.6)
        lp = _family(np.zeros(n), a_ub=a_ub, b_ub=np.ones(m_old + k))
        # Old basis: three structural columns and one slack (n + 2).
        basis_old = np.array([0, 3, n + 2, 5], dtype=np.int64)
        basis = np.concatenate([basis_old, np.arange(n + m_old, n + m_old + k)])
        b_old = np.column_stack(
            [a_ub[:m_old, j] if j < n else np.eye(m_old)[j - n] for j in basis_old]
        )
        binv_old = np.linalg.inv(b_old)
        C = np.column_stack(
            [a_ub[m_old:, j] if j < n else np.zeros(k) for j in basis_old]
        )
        want = np.block([
            [binv_old, np.zeros((m_old, k))],
            [-C @ binv_old, np.eye(k)],
        ])
        got = bordered_binv(lp, basis, binv_old, m_old)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("phase1", [False, True])
    def test_ratio_test_matches_masked_reference(self, phase1):
        rng = np.random.default_rng(14 + phase1)
        m, n = 12, 5
        lp = _family(np.zeros(n), a_ub=rng.normal(size=(m, n)), b_ub=np.ones(m))
        for trial in range(300):
            lower = np.where(rng.random(n + m) < 0.2, -np.inf, rng.normal(size=n + m))
            upper = np.where(
                rng.random(n + m) < 0.3, np.inf, lower + rng.random(n + m) * 3
            )
            upper[np.isneginf(lower) & np.isinf(upper)] = 1.0
            solver = _Solver(lp, lower[:n], upper[:n], 100, None)
            solver.lower, solver.upper = lower, upper
            solver.basis = rng.permutation(n + m)[:m]
            lB, uB = lower[solver.basis], upper[solver.basis]
            # Basics inside, on and (phase 1) outside their bounds.
            solver.xB = np.where(
                np.isfinite(lB), lB, np.where(np.isfinite(uB), uB, 0.0)
            ) + rng.choice([0.0, 0.5, -0.5, 2.0, -1e-10], size=m)
            alpha = rng.normal(size=m) * (rng.random(m) < 0.7)
            alpha[rng.random(m) < 0.1] = 1e-12
            q = int(rng.integers(n + m))
            s = float(rng.choice([1.0, -1.0]))
            solver.bland = trial % 5 == 0
            got = solver._ratio_test(alpha, s, q, phase1)
            want = _masked_ratio_test(solver, alpha, s, q, phase1)
            assert got == want


def _masked_ratio_test(self, alpha, s, q, phase1):
    """The per-case masked ratio test the vectorized one replaced."""
    dvec = -s * alpha
    lB = self.lower[self.basis]
    uB = self.upper[self.basis]
    xB = self.xB
    m = self.m
    delta = 1e-9
    t_str = np.full(m, np.inf)
    t_rel = np.full(m, np.inf)
    hit_lower = np.zeros(m, dtype=bool)
    dec = dvec < -PIV_TOL
    inc = dvec > PIV_TOL
    if phase1:
        below = xB < lB - FEAS_TOL
        above = xB > uB + FEAS_TOL
        feas = ~(below | above)
    else:
        feas = np.ones(m, dtype=bool)
    sel = feas & dec & np.isfinite(lB)
    t_str[sel] = (xB[sel] - lB[sel]) / -dvec[sel]
    t_rel[sel] = (xB[sel] - lB[sel] + delta) / -dvec[sel]
    hit_lower[sel] = True
    sel = feas & inc & np.isfinite(uB)
    t_str[sel] = (uB[sel] - xB[sel]) / dvec[sel]
    t_rel[sel] = (uB[sel] - xB[sel] + delta) / dvec[sel]
    if phase1:
        sel = below & inc
        t_str[sel] = (lB[sel] - xB[sel]) / dvec[sel]
        t_rel[sel] = (lB[sel] - xB[sel] + delta) / dvec[sel]
        hit_lower[sel] = True
        sel = above & dec
        t_str[sel] = (uB[sel] - xB[sel]) / dvec[sel]
        t_rel[sel] = (uB[sel] - xB[sel] - delta) / dvec[sel]
    np.maximum(t_str, 0.0, out=t_str)
    np.maximum(t_rel, 0.0, out=t_rel)
    t_bound = self.upper[q] - self.lower[q]
    if not np.isfinite(t_str).any():
        if np.isfinite(t_bound):
            return ("flip", float(t_bound))
        return ("unbounded",)
    tmax = float(t_rel.min())
    cand = np.nonzero(t_str <= tmax)[0]
    if cand.size == 0:
        cand = np.array([int(np.argmin(t_str))])
    if self.bland:
        tmin = float(t_str[cand].min())
        tied = cand[t_str[cand] <= tmin + 1e-12]
        r = int(tied[np.argmin(self.basis[tied])])
    else:
        r = int(cand[np.argmax(np.abs(alpha[cand]))])
    theta = float(t_str[r])
    if np.isfinite(t_bound) and t_bound <= theta:
        return ("flip", float(t_bound))
    return ("pivot", theta, r, bool(hit_lower[r]))


# -- compact product-form kernel ---------------------------------------------


def _dense_basis(lp, basis):
    a = lp.a.to_dense()
    slack = np.eye(lp.m)
    return np.column_stack([a[:, j] if j < lp.n else slack[:, j - lp.n] for j in basis])


def _rel_err(got, want):
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


class TestProductFormKernel:
    def _solver(self, seed, m=24, n=70):
        rng = np.random.default_rng(seed)
        lp = _family(
            rng.normal(size=n), a_ub=rng.normal(size=(m, n)), b_ub=np.ones(m),
            a_eq=rng.normal(size=(2, n)), b_eq=np.zeros(2),
        )
        solver = _Solver(lp, np.zeros(n), np.ones(n), 1000, None)
        solver._cold_start()
        return solver, rng

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ftran_btran_match_dense_solves(self, seed):
        solver, rng = self._solver(seed)
        m = solver.m
        checkpoints = {0, 1, REFACTOR_INTERVAL - 1, REFACTOR_INTERVAL, REFACTOR_INTERVAL + 1}
        for k in range(max(checkpoints) + 1):
            if k in checkpoints:
                B = _dense_basis(solver.lp, solver.basis)
                v, u = rng.normal(size=m), rng.normal(size=m)
                assert _rel_err(solver._ftran(v), np.linalg.solve(B, v)) < 1e-9
                assert _rel_err(solver._btran(u), np.linalg.solve(B.T, u)) < 1e-9
                for j in (0, solver.n - 1, solver.n, solver.N - 1):
                    col = _dense_basis(solver.lp, [j])[:, 0]
                    assert _rel_err(solver._ftran_col(j), np.linalg.solve(B, col)) < 1e-9
            if k == max(checkpoints):
                break
            # One basis-changing pivot: a random nonbasic column enters
            # at the row of its largest FTRAN entry.
            q = int(rng.choice(np.flatnonzero(solver.vstat != BASIC)))
            alpha = solver._ftran_col(q)
            r = int(np.argmax(np.abs(alpha)))
            solver.vstat[solver.basis[r]] = 0
            solver.vstat[q] = BASIC
            assert solver._update_basis(r, q, alpha)
        # 65 pivots: one refactorization retired 64 updates, one pends.
        assert solver.refactorizations == 1
        assert solver.eta_file_length == REFACTOR_INTERVAL
        assert solver._k == 1

    def test_dual_solve_never_writes_a_pooled_inverse(self):
        rng = np.random.default_rng(21)
        n, m = 60, 40
        lp = _family(
            rng.normal(size=n), a_ub=rng.normal(size=(m, n)),
            b_ub=rng.normal(size=m) + 2.0,
        )
        lb, ub = np.zeros(n), np.ones(n)
        root = solve_bounded_lp(lp, lb, ub)
        assert root.status == "optimal" and root.binv is not None
        pooled = root.binv
        before = pooled.tobytes()
        # Round every fractional basic down: the dual walk must pivot,
        # and its updates must land in its own buffers.
        child_ub = ub.copy()
        child_ub[(root.x > 1e-6) & (root.x < 1 - 1e-6)] = 0.0
        child = solve_bounded_lp_dual(
            lp, lb, child_ub, warm=(root.basis, root.vstat), binv=pooled
        )
        assert child.status in ("optimal", "infeasible")
        assert child.dual_pivots > 0
        assert pooled.tobytes() == before

    def test_long_solve_matches_highs(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(3)
        n, m = 200, 140
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.normal(size=m) + 2.0
        lp = _family(c, a_ub=a_ub, b_ub=b_ub)
        res = solve_bounded_lp(lp, np.zeros(n), np.ones(n))
        assert res.status == "optimal"
        assert res.iterations > 2 * REFACTOR_INTERVAL
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0.0, 1.0), method="highs")
        assert ref.status == 0
        assert res.objective == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
