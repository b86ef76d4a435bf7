"""Greedy baseline."""

from __future__ import annotations

import pytest

import repro
from repro import PlannerOptions
from repro.baselines import GreedyPlanError
from repro.core import ApplicationGroup, AsIsState

from ..conftest import make_datacenter


class TestGreedy:
    def test_produces_valid_plan(self, tiny_state):
        plan = repro.solve(tiny_state, method="greedy").plan
        from repro.core import validate_plan

        validate_plan(tiny_state, plan)
        assert plan.solver == "greedy"

    def test_capacity_respected(self, user_locations):
        targets = [make_datacenter("d0", capacity=60), make_datacenter("d1", capacity=60)]
        groups = [ApplicationGroup(f"g{i}", 25, users={"east": 1.0}) for i in range(4)]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        plan = repro.solve(state, method="greedy").plan
        load = {}
        for g in state.app_groups:
            load[plan.placement[g.name]] = load.get(plan.placement[g.name], 0) + 25
        assert all(v <= 60 for v in load.values())

    def test_sees_latency(self, tiny_state):
        # Unlike manual, greedy prices the latency penalty per placement.
        plan = repro.solve(tiny_state, method="greedy").plan
        assert plan.latency_violations == 0

    def test_never_better_than_lp(self, tiny_state):
        greedy = repro.solve(tiny_state, method="greedy").plan
        lp = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert lp.total_cost <= greedy.total_cost + 1e-6

    def test_raises_when_stuck(self, user_locations):
        targets = [make_datacenter("d0", capacity=12), make_datacenter("d1", capacity=12)]
        groups = [ApplicationGroup(f"g{i}", 8, users={"east": 1.0}) for i in range(3)]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        with pytest.raises(GreedyPlanError, match="fits nowhere"):
            repro.solve(state, method="greedy").plan

    def test_respects_forbidden_sites(self, tiny_state):
        tiny_state.app_groups[0].forbidden_datacenters = frozenset({"mid", "cheap-far"})
        plan = repro.solve(tiny_state, method="greedy").plan
        assert plan.placement["erp"] == "east-dc"

    def test_vpn_wan_model(self, tiny_state):
        plan = repro.solve(
            tiny_state, method="greedy", options=PlannerOptions(wan_model="vpn")
        ).plan
        assert plan.breakdown.wan > 0


class TestGreedyDR:
    def test_secondary_differs_from_primary(self, tiny_state):
        plan = repro.solve(
            tiny_state, method="greedy", options=PlannerOptions(enable_dr=True)
        ).plan
        assert plan.has_dr
        for g in plan.placement:
            assert plan.placement[g] != plan.secondary[g]

    def test_pools_sized_by_shared_rule(self, tiny_state):
        from repro.core import shared_backup_requirements

        plan = repro.solve(
            tiny_state, method="greedy", options=PlannerOptions(enable_dr=True)
        ).plan
        expected = shared_backup_requirements(
            tiny_state.app_groups, plan.placement, plan.secondary
        )
        assert plan.backup_servers == expected

    def test_capacity_includes_pools(self, tiny_state):
        plan = repro.solve(
            tiny_state, method="greedy", options=PlannerOptions(enable_dr=True)
        ).plan
        load = {}
        for g in tiny_state.app_groups:
            load[plan.placement[g.name]] = (
                load.get(plan.placement[g.name], 0) + g.servers
            )
        for name, pool in plan.backup_servers.items():
            load[name] = load.get(name, 0) + pool
        for name, used in load.items():
            assert used <= tiny_state.target(name).capacity

    def test_dr_never_better_than_lp_dr(self, tiny_state):
        greedy = repro.solve(
            tiny_state, method="greedy", options=PlannerOptions(enable_dr=True)
        ).plan
        lp = repro.solve(
            tiny_state,
            method="milp",
            options=PlannerOptions(enable_dr=True, backend="highs"),
        ).plan
        assert lp.total_cost <= greedy.total_cost + 1e-6

    def test_raises_when_no_dr_site(self, user_locations):
        # Two sites exactly fitting primaries: no room for any pool.
        targets = [make_datacenter("d0", capacity=25), make_datacenter("d1", capacity=25)]
        groups = [ApplicationGroup("a", 25, users={"east": 1.0}),
                  ApplicationGroup("b", 25, users={"east": 1.0})]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        with pytest.raises(GreedyPlanError, match="DR site"):
            repro.solve(
                state, method="greedy", options=PlannerOptions(enable_dr=True)
            ).plan
