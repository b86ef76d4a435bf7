"""Branch-and-bound MILP solver: unit cases + equivalence with HiGHS."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp import Problem, SolveStatus, quicksum, solve
from repro.lp.branch_bound import solve_branch_and_bound


def knapsack(weights, values, cap):
    p = Problem("knap")
    xs = [p.add_binary(f"x{i}") for i in range(len(weights))]
    p.add_constraint(quicksum(w * x for w, x in zip(weights, xs)) <= cap)
    p.set_objective(-quicksum(v * x for v, x in zip(values, xs)))
    return p, xs


class TestBranchBound:
    @pytest.mark.parametrize("engine", ["highs", "builtin"])
    def test_knapsack_optimum(self, engine):
        p, xs = knapsack([3, 4, 2], [4, 5, 3], 6)
        sol = solve_branch_and_bound(p, relaxation_engine=engine)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-8.0)

    def test_pure_lp_passthrough(self):
        p = Problem()
        x = p.add_variable("x", ub=2.0)
        p.set_objective(-x)
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2.0)

    def test_infeasible_mip(self):
        p = Problem()
        x = p.add_binary("x")
        y = p.add_binary("y")
        p.add_constraint(x + y >= 3)
        p.set_objective(x + y)
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        p = Problem()
        x = p.add_variable("x", lb=0.0)
        z = p.add_binary("z")
        p.set_objective(-x + z)
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.UNBOUNDED

    def test_general_integer_variables(self):
        p = Problem()
        x = p.add_integer("x", lb=0, ub=10)
        y = p.add_integer("y", lb=0, ub=10)
        p.add_constraint(2 * x + 3 * y <= 12)
        p.set_objective(-(3 * x + 4 * y))
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.OPTIMAL
        # optimum: x=6,y=0 → -18 vs x=3,y=2 → -17; x=6 wins
        assert sol.objective == pytest.approx(-18.0)

    def test_values_are_integral(self):
        p, xs = knapsack([5, 4, 3, 2], [10, 40, 30, 50], 10)
        sol = solve_branch_and_bound(p)
        for x in xs:
            v = sol.value(x)
            assert v == pytest.approx(round(v))

    def test_node_limit_degrades_gracefully(self):
        p, xs = knapsack(list(range(1, 9)), list(range(8, 0, -1)), 12)
        sol = solve_branch_and_bound(p, node_limit=1)
        assert sol.status in (SolveStatus.FEASIBLE, SolveStatus.ERROR)

    def test_fractional_costs(self):
        p = Problem()
        x = p.add_binary("x")
        y = p.add_binary("y")
        p.add_constraint(1.5 * x + 2.5 * y <= 3.0)
        p.set_objective(-(1.1 * x + 1.9 * y))
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-1.9)

    def test_mixed_integer_and_continuous(self):
        p = Problem()
        x = p.add_variable("x", lb=0.0, ub=5.0)
        z = p.add_binary("z")
        # x can only be positive when the binary facility is open.
        p.add_constraint(x <= 5 * z)
        p.set_objective(-(2 * x) + 3 * z)
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-7.0)  # open: -10 + 3


class TestSearchStats:
    """The stats record attached to every branch-and-bound solution."""

    def test_stats_survive_into_solution(self):
        p, _ = knapsack([5, 4, 3, 2], [10, 40, 30, 50], 10)
        sol = solve_branch_and_bound(p)
        stats = sol.stats
        assert stats is not None
        assert stats.nodes_explored > 0
        assert stats.nodes_explored == sol.iterations
        assert stats.lp_iterations > 0
        assert np.isfinite(stats.best_bound)

    def test_conversion_time_is_reported(self):
        # Standard-form conversion, presolve and the family build.
        p, _ = knapsack([5, 4, 3, 2], [10, 40, 30, 50], 10)
        sol = solve_branch_and_bound(p, relaxation_engine="builtin")
        assert sol.stats.conversion_seconds > 0.0

    def test_external_context_reports_only_its_per_solve_delta(self):
        from repro.lp.matrix_lp import RelaxationContext
        from repro.lp.standard_form import to_matrix_form

        p, _ = knapsack([5, 4, 3, 2], [10, 40, 30, 50], 10)
        form = to_matrix_form(p)
        context = RelaxationContext(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
            form.lb, form.ub, integrality=form.integrality,
        )
        assert context.conversion_seconds > 0.0
        sol = solve_branch_and_bound(
            p, relaxation_engine="builtin", form=form, context=context
        )
        # A knapsack has no implied-bound rows: nothing is appended, so
        # the context's one-time set-up is not charged to this solve.
        assert sol.stats.cuts_added == 0
        assert sol.stats.conversion_seconds == 0.0

    def test_optimal_solve_closes_the_gap(self):
        p, _ = knapsack([3, 4, 2], [4, 5, 3], 6)
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.stats.best_bound == pytest.approx(sol.objective)
        assert sol.stats.mip_gap == pytest.approx(0.0, abs=1e-9)
        assert sol.stats.incumbent == pytest.approx(sol.objective)

    def test_gap_trajectory_recorded(self):
        p, _ = knapsack([5, 4, 3, 2], [10, 40, 30, 50], 10)
        sol = solve_branch_and_bound(p)
        trajectory = sol.stats.gap_trajectory
        assert len(trajectory) >= 1
        # The last recorded point must reflect the closed bound.
        assert trajectory[-1].best_bound == pytest.approx(sol.objective)

    def test_node_limit_message_reports_gap(self):
        p, _ = knapsack(list(range(1, 9)), list(range(8, 0, -1)), 12)
        sol = solve_branch_and_bound(p, node_limit=1)
        assert "node limit reached" in sol.message
        # Either a gap percentage or an explicit no-incumbent marker.
        assert "gap" in sol.message or "no incumbent" in sol.message

    def test_maximize_best_bound_in_user_space(self):
        p = Problem(sense="maximize")
        x = p.add_binary("x")
        y = p.add_binary("y")
        p.add_constraint(x + y <= 1)
        p.set_objective(2 * x + 3 * y)
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)
        assert sol.stats.best_bound == pytest.approx(3.0)

    def test_cut_stats_counted(self):
        p, _ = knapsack([5, 4, 3, 2], [10, 40, 30, 50], 10)
        sol = solve_branch_and_bound(p, cover_cut_rounds=3)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.stats.cut_rounds <= 3
        assert sol.stats.cuts_added >= sol.stats.cut_rounds


class TestNonRootUnbounded:
    """A non-root unbounded relaxation must not assert MILP unboundedness.

    With exact node LPs a child relaxation can never be unbounded when
    the root was bounded (child feasible sets shrink), so the defensive
    path is exercised by stubbing the relaxation solver.
    """

    @staticmethod
    def _stub_relaxations(monkeypatch, responses):
        from repro.lp import branch_bound as bb

        calls = iter(responses)

        def fake_context_solve(self, lb=None, ub=None, warm=None):
            return next(calls)

        monkeypatch.setattr(bb.RelaxationContext, "solve", fake_context_solve)

    def test_no_incumbent_reports_error_not_unbounded(self, monkeypatch):
        from repro.lp.matrix_lp import ArrayLPResult

        p, _ = knapsack([1, 1], [1, 2], 1)
        fractional = np.array([0.5, 0.5])
        self._stub_relaxations(
            monkeypatch,
            [
                ArrayLPResult("optimal", fractional, -1.5, 3),
                ArrayLPResult("unbounded", None, -np.inf, 1),
            ],
        )
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.ERROR
        assert "no incumbent" in sol.message
        assert "unbounded ray" in sol.message

    def test_incumbent_survives_unbounded_ray(self, monkeypatch):
        from repro.lp.matrix_lp import ArrayLPResult

        p, _ = knapsack([1, 1], [1, 2], 1)
        fractional = np.array([0.5, 0.5])
        integral = np.array([0.0, 1.0])
        self._stub_relaxations(
            monkeypatch,
            [
                ArrayLPResult("optimal", fractional, -2.5, 3),
                ArrayLPResult("optimal", integral, -2.0, 2),
                ArrayLPResult("unbounded", None, -np.inf, 1),
            ],
        )
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.FEASIBLE
        assert "incumbent" in sol.message
        assert sol.objective == pytest.approx(-2.0)

    def test_root_unbounded_milp_still_unbounded(self):
        p = Problem()
        x = p.add_variable("x", lb=0.0)
        z = p.add_binary("z")
        p.set_objective(-x + z)
        sol = solve_branch_and_bound(p)
        assert sol.status is SolveStatus.UNBOUNDED
        assert "root relaxation unbounded" in sol.message


@st.composite
def random_knapsack(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    values = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=n, max_size=n))
    cap = draw(st.integers(min_value=1, max_value=sum(weights)))
    return weights, values, cap


@given(random_knapsack())
@settings(max_examples=40, deadline=None)
def test_branch_bound_matches_highs(data):
    weights, values, cap = data
    p, _ = knapsack(weights, values, cap)
    ours = solve_branch_and_bound(p, relaxation_engine="highs")
    ref = solve(p, backend="highs")
    assert ours.status is SolveStatus.OPTIMAL
    assert ref.status is SolveStatus.OPTIMAL
    assert ours.objective == pytest.approx(ref.objective, abs=1e-6)


@given(random_knapsack())
@settings(max_examples=15, deadline=None)
def test_builtin_relaxation_agrees_with_highs_relaxation(data):
    weights, values, cap = data
    p, _ = knapsack(weights, values, cap)
    a = solve_branch_and_bound(p, relaxation_engine="builtin")
    b = solve_branch_and_bound(p, relaxation_engine="highs")
    assert a.objective == pytest.approx(b.objective, abs=1e-6)
