"""Unit tests for the Dantzig-Wolfe restricted master LP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.master import RestrictedMasterLP, _GubSolver
from repro.lp.revised_simplex import solve_bounded_lp
from tests.oracles.master import RevisedMasterLP


def make_master(capacities=(100.0, 80.0), n_groups=2, big=1e6):
    return RestrictedMasterLP(
        capacities=np.array(capacities, dtype=float),
        n_groups=n_groups,
        artificial_cost=big,
    )


class TestColumnPool:
    def test_artificials_seed_the_pool(self):
        master = make_master()
        assert master.n_columns == 2
        assert master.col_target == [-1, -1]
        assert master.col_cost == [1e6, 1e6]

    def test_add_column_rejects_duplicates(self):
        master = make_master()
        assert master.add_column(0, 1, 50.0, 10.0)
        assert not master.add_column(0, 1, 50.0, 10.0)
        assert master.add_column(0, 0, 40.0, 10.0)
        assert master.has_column(0, 1)
        assert not master.has_column(1, 1)
        assert master.n_columns == 4


class TestMasterSolve:
    def test_artificial_only_master_is_feasible(self):
        master = make_master()
        solution = master.solve()
        assert solution.status == "optimal"
        # Both groups sit fully on their artificial columns.
        assert solution.artificial_weight == pytest_approx(2.0)
        assert solution.objective == pytest_approx(2e6)

    def test_columns_displace_artificials(self):
        master = make_master()
        master.add_column(0, 0, 30.0, 20.0)
        master.add_column(1, 1, 45.0, 15.0)
        solution = master.solve()
        assert solution.status == "optimal"
        assert solution.artificial_weight < 1e-9
        assert solution.objective == pytest_approx(75.0)

    def test_capacity_duals_are_nonpositive_on_binding_rows(self):
        # One target of capacity 10; two groups of 10 servers each want
        # it (cheap) but group 1 also has an expensive fallback.  The
        # capacity row binds, so its dual must be <= 0 (min problem).
        master = make_master(capacities=(10.0, 100.0), n_groups=2)
        master.add_column(0, 0, 10.0, 10.0)
        master.add_column(1, 0, 10.0, 10.0)
        master.add_column(1, 1, 90.0, 10.0)
        solution = master.solve()
        assert solution.status == "optimal"
        assert solution.artificial_weight < 1e-9
        assert solution.capacity_duals is not None
        assert (solution.capacity_duals <= 1e-9).all()
        # Site 0's scarcity is worth at least the 80-cost spread over
        # 10 servers (the exact value is degenerate: any pi0 <= -8 is
        # dual-optimal here).
        assert solution.capacity_duals[0] <= -8.0 + 1e-7
        # Dual feasibility over the pooled columns (bounds 0 <= w <= 1):
        # reduced cost c_gj - pi_j*load - mu_g is >= 0 at weight 0 and
        # <= 0 at weight 1 (nonbasic at the upper bound).
        pi, mu = solution.capacity_duals, solution.convexity_duals
        for idx in range(master.n_groups, master.n_columns):
            g, j = master.col_group[idx], master.col_target[idx]
            reduced = master.col_cost[idx] - pi[j] * master.col_load[idx] - mu[g]
            w = float(solution.weights[idx])
            if w <= 1e-9:
                assert reduced >= -1e-7
            elif w >= 1.0 - 1e-9:
                assert reduced <= 1e-7

    def test_warm_start_reused_across_column_appends(self):
        master = make_master()
        master.add_column(0, 0, 30.0, 20.0)
        master.add_column(1, 1, 45.0, 15.0)
        first = master.solve()
        assert first.status == "optimal"
        master.add_column(0, 1, 25.0, 20.0)
        second = master.solve()
        assert second.status == "optimal"
        assert second.warm_started
        assert second.objective == pytest_approx(70.0)

    def test_group_support_sorted_and_excludes_artificials(self):
        master = make_master(capacities=(10.0, 100.0), n_groups=2)
        master.add_column(0, 0, 10.0, 10.0)
        master.add_column(1, 0, 10.0, 10.0)
        master.add_column(1, 1, 90.0, 10.0)
        solution = master.solve()
        support = master.group_support(solution.weights)
        assert len(support) == 2
        for entries in support:
            assert entries, "every group keeps at least one placement column"
            weights = [w for _t, w in entries]
            assert weights == sorted(weights, reverse=True)
            assert all(t >= 0 for t, _w in entries)

    def test_infeasible_capacity_keeps_artificial_weight(self):
        # The only placement column overruns the capacity row, so the
        # master leans on the artificial and reports its weight.
        master = make_master(capacities=(5.0,), n_groups=1)
        master.add_column(0, 0, 10.0, 50.0)
        solution = master.solve()
        assert solution.status == "optimal"
        assert solution.artificial_weight > 0.5


def random_pool(seed: int, tight: bool):
    """A seeded master: a seed column per group, then extra columns.

    Every fifth group's seed column is bigger than its site's whole
    capacity, so it can never be crash-basic.  Returns the master and
    those groups.
    """
    rng = np.random.default_rng(seed)
    n_groups, n_targets = int(rng.integers(4, 40)), int(rng.integers(2, 8))
    loads = rng.uniform(1.0, 20.0, size=n_groups)
    sites = rng.integers(0, n_targets, size=n_groups)
    per_site = np.bincount(sites, weights=loads, minlength=n_targets)
    scale = rng.uniform(0.3, 0.8) if tight else rng.uniform(1.5, 3.0)
    capacities = np.maximum(per_site * scale, 25.0)
    master = make_master(capacities=capacities, n_groups=n_groups, big=1e5)
    too_big = set(range(0, n_groups, 5))
    for g in range(n_groups):
        j = int(sites[g])
        load = capacities[j] + 1.0 if g in too_big else loads[g]
        master.add_column(g, j, float(rng.uniform(10.0, 50.0)), float(load))
    for _ in range(int(rng.integers(0, 3 * n_groups))):
        g, j = int(rng.integers(n_groups)), int(rng.integers(n_targets))
        master.add_column(g, j, float(rng.uniform(10.0, 80.0)), float(loads[g]))
    return master, too_big


def clone(master: RestrictedMasterLP, cls=RestrictedMasterLP, upto=None):
    """A fresh master of ``cls`` over ``master``'s pool (its first ``upto`` columns)."""
    out = cls(master.capacities.copy(), master.n_groups, master.col_cost[0])
    for idx in range(master.n_groups, upto or master.n_columns):
        out.add_column(
            master.col_group[idx], master.col_target[idx],
            master.col_cost[idx], master.col_load[idx],
        )
    return out


class TestCrashStart:
    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("seed", range(20))
    def test_crash_basis_is_feasible_and_reaches_the_cold_optimum(self, seed, tight):
        master, too_big = random_pool(seed, tight)
        ncols = master.n_columns
        keys, nonkeys = master._crash_basis()
        # Group g's convexity row is basic on exactly one of its columns,
        # its key; a seed that cannot fit leaves the group on its
        # artificial.  Every capacity slack is a non-key, so W = I.
        assert sorted(master.col_group[k] for k in keys) == list(range(master.n_groups))
        for g in too_big:
            assert keys[g] == g
        assert np.array_equal(nonkeys, -1 - np.arange(master.capacities.shape[0]))
        assert np.unique(keys).size == master.n_groups

        # Primal feasible by construction: phase 1 does no pivot.
        solver = _GubSolver(master, keys, nonkeys, max_iterations=50000)
        assert solver._refactor()
        assert np.array_equal(solver.winv[:, :-1], np.eye(master.capacities.shape[0]))
        assert (solver.xb >= 0.0).all()
        assert solver._run_phase(1) == "feasible"
        assert solver.iterations == 0

        oracle = clone(master, RevisedMasterLP)
        cold = solve_bounded_lp(
            oracle.family(), np.zeros(ncols), np.ones(ncols), warm=None
        )
        assert cold.status == "optimal"

        first = master.solve()
        assert first.status == "optimal"
        assert not first.warm_started
        assert first.objective == pytest.approx(cold.objective, rel=1e-9)


class TestPhaseOne:
    @pytest.mark.parametrize("seed", range(10))
    def test_an_infeasible_start_reaches_the_oracle_optimum(self, seed):
        """Keying the too-big seeds overloads their sites; phase 1 repairs it."""
        master, too_big = random_pool(seed, tight=True)
        keys, nonkeys = master._crash_basis()
        seeds = {}
        for idx in range(master.n_groups, master.n_columns):
            seeds.setdefault(master.col_group[idx], idx)
        for g in too_big:
            keys[g] = seeds[g]
        solver = _GubSolver(master, keys, nonkeys, max_iterations=50000)
        assert solver._refactor() and solver.xb.min() < 0.0
        assert solver.solve() == "optimal"
        assert solver.xb.min() >= -1e-6
        values = np.zeros(solver.N)
        values[solver.basis] = solver.xb
        objective = float(solver.cost[: master.n_columns] @ values[: master.n_columns])
        oracle = clone(master, RevisedMasterLP).solve()
        assert objective == pytest.approx(oracle.objective, rel=1e-9)


def assert_dual_certificate(master: RestrictedMasterLP, solution, tol=1e-6):
    """Dual feasible and complementary over every pool column and slack."""
    pi, mu, w = solution.capacity_duals, solution.convexity_duals, solution.weights
    group = np.asarray(master.col_group)
    target = np.asarray(master.col_target)
    load = np.asarray(master.col_load)
    reduced = (
        np.asarray(master.col_cost)
        - np.where(target >= 0, pi[np.maximum(target, 0)], 0.0) * load
        - mu[group]
    )
    scale = 1.0 + np.abs(np.asarray(master.col_cost))
    assert (reduced >= -tol * scale).all()
    assert (np.abs(reduced[w > 1e-9]) <= tol * scale[w > 1e-9]).all()
    # Capacity slacks: reduced cost -pi_j >= 0, and 0 on a slack row.
    slack = master.capacities - np.bincount(
        target[target >= 0], weights=(load * w)[target >= 0],
        minlength=master.capacities.shape[0],
    )
    assert (pi <= tol).all()
    assert (np.abs(pi[slack > 1e-7]) <= tol).all()


class TestAgainstOracle:
    """The GUB master against the generic revised-simplex master."""

    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_revised_simplex_master(self, seed, tight):
        master, _too_big = random_pool(seed, tight)
        oracle = clone(master, RevisedMasterLP).solve()
        gub = clone(master).solve()
        assert oracle.status == gub.status == "optimal"
        assert gub.objective == pytest.approx(oracle.objective, rel=1e-9)
        assert gub.artificial_weight == pytest.approx(
            oracle.artificial_weight, abs=1e-9
        )
        assert_dual_certificate(master, gub)

    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("seed", range(40))
    def test_iteration_limit(self, seed, tight):
        """Under ``max_iterations=3`` a master that needs more pivots
        stops with ``"iteration_limit"``, as the oracle does."""
        master, _too_big = random_pool(seed, tight)
        needs = clone(master).solve().iterations
        oracle_needs = clone(master, RevisedMasterLP).solve().iterations
        limited = clone(master).solve(max_iterations=3)
        oracle = clone(master, RevisedMasterLP).solve(max_iterations=3)
        assert limited.status == ("iteration_limit" if needs > 3 else "optimal")
        assert oracle.status == ("iteration_limit" if oracle_needs > 3 else "optimal")
        if (needs > 3) == (oracle_needs > 3):
            assert limited.status == oracle.status
        if limited.status == "iteration_limit":
            assert limited.iterations == 3
            assert limited.weights is None and limited.capacity_duals is None

    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("seed", range(40))
    def test_warm_resolve_after_appends_equals_a_cold_solve(self, seed, tight):
        master, _too_big = random_pool(seed, tight)
        half = master.n_groups + (master.n_columns - master.n_groups) // 2
        warm = clone(master, upto=half)
        assert warm.solve().status == "optimal"
        for idx in range(half, master.n_columns):
            warm.add_column(
                master.col_group[idx], master.col_target[idx],
                master.col_cost[idx], master.col_load[idx],
            )
        again = warm.solve()
        cold = clone(master).solve()
        oracle = clone(master, RevisedMasterLP).solve()
        assert again.status == cold.status == "optimal"
        assert again.warm_started and not cold.warm_started
        assert again.objective == pytest.approx(cold.objective, rel=1e-9)
        assert again.objective == pytest.approx(oracle.objective, rel=1e-9)
        assert_dual_certificate(warm, again)

    def test_iteration_limited_solve_keeps_the_last_optimal_basis(self):
        master, _too_big = random_pool(3, tight=True)
        half = master.n_groups + (master.n_columns - master.n_groups) // 2
        warm = clone(master, upto=half)
        assert warm.solve().status == "optimal"
        for idx in range(half, master.n_columns):
            warm.add_column(
                master.col_group[idx], master.col_target[idx],
                master.col_cost[idx], master.col_load[idx],
            )
        assert warm.solve(max_iterations=0).status == "iteration_limit"
        resumed = warm.solve()
        assert resumed.warm_started
        assert resumed.objective == pytest.approx(clone(master).solve().objective, rel=1e-9)


def pytest_approx(value, rel=1e-6):
    import pytest

    return pytest.approx(value, rel=rel)
