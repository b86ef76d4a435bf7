"""Consolidation MILP builder: structure, optimality, constraint honoring."""

from __future__ import annotations

import pytest

from repro.core import (
    ApplicationGroup,
    AsIsState,
    ConsolidationModel,
    CostParameters,
    InfeasibleModelError,
    ModelOptions,
    evaluate_plan,
)
from repro.core.latency import NO_PENALTY
from repro.datasets import load_florida
from repro.lp import SolveStatus, solve

from ..conftest import PENALTY, make_datacenter


def small_state(user_locations, **params_kw):
    targets = [
        make_datacenter("d0", capacity=100, space_base=80.0),
        make_datacenter("d1", capacity=100, space_base=120.0),
    ]
    groups = [
        ApplicationGroup("a", 30, 1000.0, {"east": 50.0}, NO_PENALTY),
        ApplicationGroup("b", 40, 2000.0, {"west": 20.0}, NO_PENALTY),
        ApplicationGroup("c", 50, 500.0, {"east": 5.0}, NO_PENALTY),
    ]
    return AsIsState("small", groups, targets, user_locations=user_locations,
                     params=CostParameters(**params_kw))


class TestModelStructure:
    def test_variable_counts(self, user_locations):
        state = small_state(user_locations)
        model = ConsolidationModel(state, ModelOptions(economies_of_scale=False))
        assert len(model.x) == 6  # 3 groups × 2 sites
        assert not model.y and not model.g

    def test_segment_blocks_created(self, user_locations):
        state = small_state(user_locations)
        model = ConsolidationModel(state, ModelOptions(economies_of_scale=True))
        assert set(model.segment_blocks) == {"d0", "d1"}
        block = model.segment_blocks["d0"]
        assert len(block.selectors) == len(block.loads) >= 2

    def test_flat_pricing_skips_segments(self, user_locations):
        targets = [make_datacenter("d0", volume_discount=False, capacity=200)]
        groups = [ApplicationGroup("a", 10, users={"east": 1.0})]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        model = ConsolidationModel(state)
        assert not model.segment_blocks

    def test_eligibility_prunes_variables(self, user_locations):
        state = small_state(user_locations)
        state.app_groups[0].forbidden_datacenters = frozenset({"d1"})
        model = ConsolidationModel(state)
        assert ("a", "d1") not in model.x
        assert ("a", "d0") in model.x

    def test_group_fitting_nowhere_raises(self, user_locations):
        state = small_state(user_locations)
        state.app_groups[0].servers = 101  # exceeds both capacities
        with pytest.raises(InfeasibleModelError, match="fits no"):
            ConsolidationModel(state)

    def test_assign_and_impact_rows_list_x_in_order(self):
        """Each assign row holds its group's X in target order and each
        impact row its site's X in group order, with unit coefficients."""
        state = load_florida(seed=3, scale=0.1)
        names = [dc.name for dc in state.target_datacenters]
        for i, group in enumerate(state.app_groups):
            group.forbidden_datacenters = frozenset(names[i % 3 :: 3])
        state.params.business_impact = 0.5
        model = ConsolidationModel(state)
        assert len(model.x) < len(state.app_groups) * len(names)
        rows = {row.name: row for row in model.problem.constraints}
        for group in state.app_groups:
            want = [model.x[group.name, n] for n in names if (group.name, n) in model.x]
            terms = rows[f"assign[{group.name}]"].expr.terms()
            assert list(terms) == want
            assert set(terms.values()) == {1.0}
        for n in names:
            want = [
                model.x[g.name, n] for g in state.app_groups if (g.name, n) in model.x
            ]
            terms = rows[f"impact[{n}]"].expr.terms()
            assert want and list(terms) == want
            assert set(terms.values()) == {1.0}

    def test_used_binaries_only_with_fixed_cost(self, fixed_cost_state, user_locations):
        model = ConsolidationModel(fixed_cost_state)
        assert set(model.used) == {"fx-a", "fx-b", "fx-c"}
        state = small_state(user_locations)  # no fixed costs
        assert not ConsolidationModel(state).used


class TestOptimality:
    def test_objective_matches_independent_evaluation(self, tiny_state):
        model = ConsolidationModel(tiny_state)
        sol = solve(model.problem, backend="highs")
        assert sol.status is SolveStatus.OPTIMAL
        placement = model.extract_placement(sol)
        plan = evaluate_plan(tiny_state, placement)
        assert plan.total_cost == pytest.approx(sol.objective, rel=1e-6)

    def test_capacity_respected(self, user_locations):
        state = small_state(user_locations)  # 120 servers, 2 × 100 capacity
        model = ConsolidationModel(state)
        sol = solve(model.problem, backend="highs")
        placement = model.extract_placement(sol)
        load = {"d0": 0, "d1": 0}
        for g in state.app_groups:
            load[placement[g.name]] += g.servers
        assert all(v <= 100 for v in load.values())

    def test_latency_penalty_steers_placement(self, tiny_state):
        model = ConsolidationModel(tiny_state)
        sol = solve(model.problem, backend="highs")
        placement = model.extract_placement(sol)
        plan = evaluate_plan(tiny_state, placement)
        assert plan.latency_violations == 0

    def test_risk_groups_not_colocated(self, user_locations):
        state = small_state(user_locations)
        state.app_groups[0].risk_group = "r"
        state.app_groups[1].risk_group = "r"
        model = ConsolidationModel(state)
        sol = solve(model.problem, backend="highs")
        placement = model.extract_placement(sol)
        assert placement["a"] != placement["b"]

    def test_business_impact_spreads_groups(self, user_locations):
        # ω = 0.67 over 3 groups caps any site at 2 of them; without the
        # cap the cheap site d0 would take everything it can fit.
        state = small_state(user_locations, business_impact=0.67)
        model = ConsolidationModel(state)
        sol = solve(model.problem, backend="highs")
        placement = model.extract_placement(sol)
        from collections import Counter

        counts = Counter(placement.values())
        assert max(counts.values()) <= 2
        assert len(counts) == 2

    def test_fixed_costs_pull_into_fewer_sites(self, fixed_cost_state):
        model = ConsolidationModel(fixed_cost_state)
        sol = solve(model.problem, backend="highs")
        placement = model.extract_placement(sol)
        plan = evaluate_plan(fixed_cost_state, placement)
        assert plan.total_cost == pytest.approx(sol.objective, rel=1e-6)
        # All 90 servers fit one site; paying two fixed costs is wasteful.
        assert len(set(placement.values())) == 1

    def test_economies_of_scale_lower_or_equal_cost(self, tiny_state):
        with_scale = ConsolidationModel(tiny_state, ModelOptions(economies_of_scale=True))
        sol_scale = solve(with_scale.problem, backend="highs")
        without = ConsolidationModel(tiny_state, ModelOptions(economies_of_scale=False))
        sol_flat = solve(without.problem, backend="highs")
        # Flat pricing uses the base (most expensive) tier everywhere.
        assert sol_scale.objective <= sol_flat.objective + 1e-6

    def test_vpn_wan_model(self, tiny_state):
        model = ConsolidationModel(tiny_state, ModelOptions(wan_model="vpn"))
        sol = solve(model.problem, backend="highs")
        placement = model.extract_placement(sol)
        plan = evaluate_plan(tiny_state, placement, wan_model="vpn")
        assert plan.total_cost == pytest.approx(sol.objective, rel=1e-6)


class TestExtraction:
    def test_extract_requires_solution(self, tiny_state):
        from repro.lp import Solution

        model = ConsolidationModel(tiny_state)
        with pytest.raises(ValueError, match="no solution"):
            model.extract_placement(Solution(SolveStatus.INFEASIBLE))

    def test_placement_cost_components(self, tiny_state):
        model = ConsolidationModel(tiny_state)
        group = tiny_state.group("batch")  # no users → no WAN penalty/latency
        dc = tiny_state.target("mid")
        cost = model.placement_cost(group, dc)
        params = tiny_state.params
        expected = group.servers * (
            params.server_power_kw * dc.power_cost_per_kw
            + dc.labor_cost_per_admin / params.servers_per_admin
        ) + group.monthly_data_mb * dc.wan_cost_per_mb
        assert cost == pytest.approx(expected)


def test_bad_wan_model_rejected():
    with pytest.raises(ValueError, match="unknown WAN model"):
        ModelOptions(wan_model="smoke-signals")
