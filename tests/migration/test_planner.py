"""Wave construction."""

from __future__ import annotations

import pytest

import repro
from repro import PlannerOptions, SolveOptions
from repro.migration import MigrationConfig, plan_migration


@pytest.fixture
def plan(asis_capable_state):
    return repro.solve(
        asis_capable_state, method="milp", options=PlannerOptions(backend="highs")
    ).plan


class TestConfig:
    def test_defaults_valid(self):
        MigrationConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_servers_per_wave": 0},
            {"move_cost_per_server": -1},
            {"data_gb_per_server": -1},
            {"bandwidth_mbps": 0},
            {"wave_interval_days": 0},
            {"dual_run_days": -1},
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            MigrationConfig(**kw)


class TestPlanMigration:
    def test_every_group_moves_exactly_once(self, asis_capable_state, plan):
        schedule = plan_migration(asis_capable_state, plan)
        moved = [m.group for w in schedule.waves for m in w.moves]
        assert sorted(moved) == sorted(g.name for g in asis_capable_state.app_groups)
        assert len(moved) == len(set(moved))

    def test_destinations_match_plan(self, asis_capable_state, plan):
        schedule = plan_migration(asis_capable_state, plan)
        for wave in schedule.waves:
            for move in wave.moves:
                assert move.to_site == plan.placement[move.group]
                assert move.from_site is not None

    def test_wave_budget_respected(self, asis_capable_state, plan):
        config = MigrationConfig(max_servers_per_wave=50, pilot_wave=False)
        schedule = plan_migration(asis_capable_state, plan, config)
        for wave in schedule.waves:
            # Only an oversized lone group may exceed the budget.
            if wave.servers > 50:
                assert len(wave.moves) == 1

    def test_oversized_group_gets_own_wave(self, asis_capable_state, plan):
        config = MigrationConfig(max_servers_per_wave=30, pilot_wave=False)
        schedule = plan_migration(asis_capable_state, plan, config)
        for wave in schedule.waves:
            for move in wave.moves:
                if move.servers > 30:
                    assert len(wave.moves) == 1

    def test_pilot_wave_is_smallest_user_base(self, asis_capable_state, plan):
        schedule = plan_migration(asis_capable_state, plan)
        pilot_group = schedule.waves[0].moves[0].group
        users = {g.name: g.total_users for g in asis_capable_state.app_groups}
        assert users[pilot_group] == min(users.values())

    def test_risk_groups_never_share_a_wave(self, asis_capable_state):
        asis_capable_state.app_groups[0].risk_group = "pci"
        asis_capable_state.app_groups[1].risk_group = "pci"
        plan = repro.solve(
            asis_capable_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        schedule = plan_migration(asis_capable_state, plan)
        for wave in schedule.waves:
            tagged = [
                m.group
                for m in wave.moves
                if m.group in ("erp", "web")
            ]
            assert len(tagged) <= 1

    def test_transfer_hours_scale_with_bandwidth(self, asis_capable_state, plan):
        slow = plan_migration(
            asis_capable_state, plan, MigrationConfig(bandwidth_mbps=100.0)
        )
        fast = plan_migration(
            asis_capable_state, plan, MigrationConfig(bandwidth_mbps=10_000.0)
        )
        assert slow.waves[0].transfer_hours > fast.waves[0].transfer_hours

    def test_monthly_saving_defaults_from_asis(self, asis_capable_state, plan):
        from repro.baselines import asis_plan

        schedule = plan_migration(asis_capable_state, plan)
        expected = asis_plan(asis_capable_state).total_cost - plan.total_cost
        assert schedule.monthly_saving == pytest.approx(expected)

    def test_monthly_saving_required_without_estate(self, tiny_state):
        plan = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        with pytest.raises(ValueError, match="monthly_saving"):
            plan_migration(tiny_state, plan)
        schedule = plan_migration(tiny_state, plan, monthly_saving=1000.0)
        assert schedule.monthly_saving == 1000.0

    def test_dual_run_cost_positive(self, asis_capable_state, plan):
        schedule = plan_migration(
            asis_capable_state, plan, MigrationConfig(dual_run_days=3.0)
        )
        assert all(w.dual_run_cost > 0 for w in schedule.waves)
        free = plan_migration(
            asis_capable_state, plan, MigrationConfig(dual_run_days=0.0)
        )
        assert all(w.dual_run_cost == 0 for w in free.waves)

    def test_case_study_scale(self):
        from repro.datasets import load_enterprise1

        state = load_enterprise1(scale=0.3)
        plan = repro.solve(
            state,
            method="milp",
            options=PlannerOptions(
                backend="highs",
                solve_options=SolveOptions(mip_rel_gap=0.01),
            ),
        ).plan
        schedule = plan_migration(state, plan)
        assert schedule.total_servers == state.total_servers
        assert schedule.payback_months < 24  # consolidation pays back fast
        assert "payback" in schedule.render()
