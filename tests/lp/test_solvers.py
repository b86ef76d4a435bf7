"""Backend registry and cross-backend agreement tests."""

from __future__ import annotations

import pytest

from repro.lp import (
    Problem,
    Solution,
    SolveOptions,
    SolveStatus,
    available_backends,
    quicksum,
    register_backend,
    solve,
)


def assignment_problem():
    """3 items → 2 bins, with costs; a miniature of the paper's MILP."""
    p = Problem("assign")
    costs = {(0, 0): 4, (0, 1): 2, (1, 0): 3, (1, 1): 5, (2, 0): 1, (2, 1): 6}
    x = {}
    for (i, j), _ in costs.items():
        x[(i, j)] = p.add_binary(f"x{i}{j}")
    for i in range(3):
        p.add_constraint(quicksum(x[(i, j)] for j in range(2)) == 1)
    # bin capacities (weights all 1, cap 2)
    for j in range(2):
        p.add_constraint(quicksum(x[(i, j)] for i in range(3)) <= 2)
    p.set_objective(quicksum(c * x[k] for k, c in costs.items()))
    return p


class TestRegistry:
    def test_available_backends(self):
        names = available_backends()
        for expected in ("auto", "branch_bound", "highs", "rounding"):
            assert expected in names
        assert "simplex" not in names

    def test_removed_simplex_backend_is_unknown(self):
        # Pure LPs go through branch_bound (one root relaxation).
        with pytest.raises(ValueError, match="unknown backend"):
            solve(Problem(), backend="simplex")

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            solve(Problem(), backend="cplex")

    def test_register_custom_backend(self):
        def fake(problem, **options):
            return Solution(SolveStatus.ERROR, solver="fake", message="hi")

        register_backend("fake-test", fake)
        sol = solve(Problem(), backend="fake-test")
        assert sol.solver == "fake"
        with pytest.raises(ValueError):
            register_backend("fake-test", fake)


class TestCrossBackendAgreement:
    def test_exact_backends_agree(self):
        p = assignment_problem()
        highs = solve(p, backend="highs")
        bb = solve(p, backend="branch_bound")
        assert highs.status is SolveStatus.OPTIMAL
        assert bb.status is SolveStatus.OPTIMAL
        assert highs.objective == pytest.approx(bb.objective)
        assert highs.objective == pytest.approx(2 + 3 + 1)  # optimal split

    def test_auto_is_exact(self):
        p = assignment_problem()
        sol = solve(p, backend="auto")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(6.0)

    def test_rounding_feasible_but_maybe_suboptimal(self):
        p = assignment_problem()
        sol = solve(p, backend="rounding")
        if sol.status is SolveStatus.FEASIBLE:
            assert sol.objective >= 6.0 - 1e-9
            values = sol.values
            assert p.is_feasible(values)

    def test_simplex_lp_matches_highs_lp(self):
        p = Problem()
        x = p.add_variable("x", ub=4.0)
        y = p.add_variable("y", ub=4.0)
        p.add_constraint(x + y <= 6)
        p.add_constraint(x - y >= -2)
        p.set_objective(-(3 * x + 2 * y))
        s1 = solve(
            p, backend="branch_bound",
            options=SolveOptions(relaxation_engine="builtin"),
        )
        s2 = solve(p, backend="highs")
        assert s1.objective == pytest.approx(s2.objective)


class TestSolutionType:
    def test_value_lookup_and_default(self):
        p = Problem()
        x = p.add_variable("x", ub=1.0)
        p.set_objective(-x)
        sol = solve(p, backend="highs")
        assert sol.value(x) == pytest.approx(1.0)
        from repro.lp import Variable

        ghost = Variable("ghost")
        assert sol.value(ghost, 0.5) == 0.5
        with pytest.raises(KeyError):
            sol.value(ghost)

    def test_as_name_dict(self):
        p = Problem()
        x = p.add_variable("x", ub=1.0)
        p.set_objective(-x)
        sol = solve(p, backend="highs")
        assert sol.as_name_dict() == {"x": pytest.approx(1.0)}

    def test_status_has_solution_flags(self):
        assert SolveStatus.OPTIMAL.has_solution
        assert SolveStatus.FEASIBLE.has_solution
        assert not SolveStatus.INFEASIBLE.has_solution
        assert not SolveStatus.UNBOUNDED.has_solution
        assert not SolveStatus.ERROR.has_solution


class TestOptionForwarding:
    """solve(...) must pass options through to backends."""

    def test_custom_backend_receives_options(self):
        seen = {}

        def recorder(problem, **options):
            seen.update(options)
            return Solution(SolveStatus.ERROR, solver="recorder")

        register_backend("recorder-test", recorder)
        solve(
            Problem(),
            backend="recorder-test",
            node_limit=7,
            cover_cut_rounds=2,
            time_limit=1.5,
        )
        assert seen == {"node_limit": 7, "cover_cut_rounds": 2, "time_limit": 1.5}
        # Keyword options are for registered backends only.
        with pytest.raises(TypeError, match=r"options=SolveOptions\(\.\.\.\)"):
            solve(Problem(), backend="highs", time_limit=1)

    def test_node_limit_reaches_branch_bound(self):
        # With a node limit of 1 the 8-item knapsack cannot finish; the
        # limit only bites if the option actually reaches the backend.
        p = Problem("knap")
        xs = [p.add_binary(f"x{i}") for i in range(8)]
        p.add_constraint(
            quicksum((i + 1) * x for i, x in enumerate(xs)) <= 12
        )
        p.set_objective(-quicksum((8 - i) * x for i, x in enumerate(xs)))
        sol = solve(p, backend="branch_bound", options=SolveOptions(node_limit=1))
        assert "node limit reached" in sol.message

    def test_cover_cut_rounds_reach_branch_bound(self):
        p = Problem("knap")
        xs = [p.add_binary(f"x{i}") for i in range(4)]
        p.add_constraint(quicksum([5 * xs[0], 4 * xs[1], 3 * xs[2], 2 * xs[3]]) <= 10)
        p.set_objective(-quicksum([10 * xs[0], 40 * xs[1], 30 * xs[2], 50 * xs[3]]))
        sol = solve(
            p, backend="branch_bound", options=SolveOptions(cover_cut_rounds=3)
        )
        assert sol.status is SolveStatus.OPTIMAL
        # Stats must witness that the cut loop actually ran (or found
        # nothing to cut, in which case rounds stay 0 but solving is
        # still exact); the forwarded option shows up in the record.
        assert sol.stats is not None
        assert sol.stats.cut_rounds >= 0

    def test_relaxation_engine_forwarded(self):
        p = assignment_problem()
        sol = solve(
            p,
            backend="branch_bound",
            options=SolveOptions(relaxation_engine="builtin"),
        )
        assert sol.solver == "branch_bound[builtin]"
        assert sol.status is SolveStatus.OPTIMAL


class TestRegisterBackendDuplicates:
    def test_duplicate_name_rejected(self):
        def fake(problem, **options):
            return Solution(SolveStatus.ERROR, solver="dup")

        register_backend("dup-test", fake)
        with pytest.raises(ValueError, match="already registered"):
            register_backend("dup-test", fake)

    def test_builtin_names_cannot_be_shadowed(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("highs", lambda problem, **options: None)


class TestAutoFallback:
    def test_auto_falls_back_to_builtin_branch_bound_without_scipy(
        self, monkeypatch
    ):
        """`auto` must degrade to branch_bound[builtin] when scipy is gone.

        The highs module import is lazy precisely so this path can fire;
        poisoning sys.modules makes any `import scipy` raise ImportError.
        """
        import sys

        monkeypatch.delitem(sys.modules, "repro.lp.highs", raising=False)
        monkeypatch.setitem(sys.modules, "scipy", None)
        p = assignment_problem()
        sol = solve(p, backend="auto")
        assert sol.solver == "branch_bound[builtin]"
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(6.0)
        assert sol.stats is not None
        assert sol.stats.nodes_explored > 0

    def test_auto_uses_highs_when_available(self):
        sol = solve(assignment_problem(), backend="auto")
        assert sol.solver.startswith("highs")


class TestSolveStatsAttached:
    def test_branch_bound_solution_carries_real_stats(self):
        """Regression: stats used to be discarded before Solution was built."""
        p = assignment_problem()
        # The builtin relaxation engine counts its own pivots; HiGHS may
        # solve tiny node LPs entirely in presolve and report 0.
        sol = solve(
            p,
            backend="branch_bound",
            options=SolveOptions(relaxation_engine="builtin"),
        )
        stats = sol.stats
        assert stats is not None
        assert stats.nodes_explored > 0
        assert stats.lp_iterations > 0
        import math

        assert math.isfinite(stats.best_bound)
        assert stats.best_bound == pytest.approx(sol.objective)
        assert stats.mip_gap == pytest.approx(0.0, abs=1e-9)
        assert stats.elapsed_seconds >= 0.0

    def test_simplex_solution_carries_phase_split(self):
        p = Problem()
        x = p.add_variable("x", ub=4.0)
        y = p.add_variable("y", ub=4.0)
        p.add_constraint(x + y <= 6)
        p.set_objective(-(3 * x + 2 * y))
        sol = solve(
            p, backend="branch_bound",
            options=SolveOptions(relaxation_engine="builtin"),
        )
        stats = sol.stats
        assert stats is not None
        assert stats.lp_iterations == stats.phase1_iterations + stats.phase2_iterations
        assert stats.lp_iterations > 0
        # Branch and bound reports nodes as its iteration count; a pure
        # LP is the root node alone.
        assert sol.iterations == stats.nodes_explored == 1
        assert stats.backend == "branch_bound[builtin]"

    def test_highs_solution_carries_timing_and_gap(self):
        sol = solve(assignment_problem(), backend="highs")
        stats = sol.stats
        assert stats is not None
        assert stats.backend == "highs"
        assert stats.elapsed_seconds > 0.0
        assert stats.mip_gap == pytest.approx(0.0, abs=1e-6)

    def test_rounding_solution_carries_stats(self):
        sol = solve(assignment_problem(), backend="rounding")
        assert sol.stats is not None
        assert sol.stats.backend == "rounding"


class TestHighsStatuses:
    def test_infeasible(self):
        p = Problem()
        x = p.add_binary("x")
        p.add_constraint(x >= 2)
        p.set_objective(x)
        assert solve(p, backend="highs").status is SolveStatus.INFEASIBLE

    def test_unbounded_lp(self):
        p = Problem()
        x = p.add_variable("x", lb=None, ub=None)
        p.set_objective(x)
        assert solve(p, backend="highs").status is SolveStatus.UNBOUNDED

    def test_equality_constraints(self):
        p = Problem()
        x = p.add_variable("x")
        y = p.add_variable("y")
        p.add_constraint(x + y == 5)
        p.set_objective(x + 2 * y)
        sol = solve(p, backend="highs")
        assert sol.objective == pytest.approx(5.0)

    def test_maximize(self):
        p = Problem(sense="maximize")
        x = p.add_variable("x", ub=3.0)
        p.set_objective(2 * x + 1)
        sol = solve(p, backend="highs")
        assert sol.objective == pytest.approx(7.0)
