"""JSON round-trips for states and plans."""

from __future__ import annotations

import json

import pytest

import repro
from repro import PlannerOptions
from repro.core import (
    ApplicationGroup,
    StepCostFunction,
    evaluate_plan,
)
from repro.core.latency import NO_PENALTY, LatencyPenaltyFunction
from repro.io import load_state, plan_to_dict, save_plan, save_state, state_to_dict
from repro.io.serialization import (
    SCHEMA_VERSION,
    group_from_dict,
    group_to_dict,
    penalty_from_dict,
    penalty_to_dict,
    state_from_dict,
    step_cost_from_dict,
    step_cost_to_dict,
)


class TestFunctionRoundTrips:
    def test_step_cost(self):
        f = StepCostFunction.volume_discount(100.0, step=50, discount=10.0, floor_price=60.0)
        assert step_cost_from_dict(step_cost_to_dict(f)) == f

    def test_flat_step_cost(self):
        f = StepCostFunction.flat(42.0)
        assert step_cost_from_dict(step_cost_to_dict(f)) == f

    def test_penalty(self):
        f = LatencyPenaltyFunction.banded(10.0, 10.0, 25.0, bands=3)
        assert penalty_from_dict(penalty_to_dict(f)) == f

    def test_empty_penalty_is_sentinel(self):
        assert penalty_from_dict([]) is NO_PENALTY


class TestGroupRoundTrip:
    def test_full_featured_group(self):
        g = ApplicationGroup(
            "g",
            12,
            monthly_data_mb=500.0,
            users={"east": 10.0},
            latency_penalty=LatencyPenaltyFunction.single_threshold(10, 100),
            current_datacenter="old",
            allowed_regions=frozenset({"us", "eu"}),
            forbidden_datacenters=frozenset({"dc9"}),
            risk_group="pci",
        )
        back = group_from_dict(group_to_dict(g))
        assert back.name == g.name
        assert back.servers == g.servers
        assert back.users == g.users
        assert back.latency_penalty == g.latency_penalty
        assert back.allowed_regions == g.allowed_regions
        assert back.forbidden_datacenters == g.forbidden_datacenters
        assert back.risk_group == g.risk_group

    def test_none_allowed_regions_distinct_from_empty(self):
        g = ApplicationGroup("g", 1)
        assert group_from_dict(group_to_dict(g)).allowed_regions is None


class TestStateRoundTrip:
    def test_state_files(self, asis_capable_state, tmp_path):
        path = tmp_path / "state.json"
        save_state(asis_capable_state, str(path))
        back = load_state(str(path))
        assert back.name == asis_capable_state.name
        assert back.summary() == asis_capable_state.summary()
        assert [g.servers for g in back.app_groups] == [
            g.servers for g in asis_capable_state.app_groups
        ]

    def test_costs_survive_roundtrip(self, asis_capable_state, tmp_path):
        from repro.baselines import asis_plan

        path = tmp_path / "state.json"
        save_state(asis_capable_state, str(path))
        back = load_state(str(path))
        assert asis_plan(back).total_cost == pytest.approx(
            asis_plan(asis_capable_state).total_cost
        )

    def test_plans_identical_after_roundtrip(self, tiny_state, tmp_path):
        path = tmp_path / "state.json"
        save_state(tiny_state, str(path))
        back = load_state(str(path))
        a = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        b = repro.solve(
            back, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert a.total_cost == pytest.approx(b.total_cost)

    def test_schema_version_checked(self, tiny_state):
        data = state_to_dict(tiny_state)
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            state_from_dict(data)

    def test_json_serializable(self, tiny_state):
        json.dumps(state_to_dict(tiny_state))


class TestPlanSerialization:
    def test_plan_to_dict(self, tiny_state):
        placement = {g.name: "mid" for g in tiny_state.app_groups}
        plan = evaluate_plan(tiny_state, placement, solver="test")
        data = plan_to_dict(plan)
        assert data["placement"] == placement
        assert data["breakdown"]["total"] == pytest.approx(plan.total_cost)
        assert data["solver"] == "test"
        json.dumps(data)

    def test_save_plan(self, tiny_state, tmp_path):
        placement = {g.name: "mid" for g in tiny_state.app_groups}
        plan = evaluate_plan(tiny_state, placement)
        path = tmp_path / "plan.json"
        save_plan(plan, str(path))
        data = json.loads(path.read_text())
        assert data["datacenters_used"] == ["mid"]


class TestCaseStudyPlanRoundTrips:
    """plan → JSON → plan on the three paper case studies."""

    @pytest.fixture(scope="class")
    def case_study_plan(self):
        """Each estate is solved once (HiGHS, ×0.25) for the whole class."""
        from repro.datasets import load_enterprise1, load_federal, load_florida

        loaders = {
            "enterprise1": load_enterprise1,
            "federal": load_federal,
            "florida": load_florida,
        }
        plans = {}

        def plan_for(name):
            if name not in plans:
                plans[name] = repro.solve(
                    loaders[name](scale=0.25),
                    method="milp",
                    options=PlannerOptions(backend="highs"),
                ).plan
            return plans[name]

        return plan_for

    @pytest.mark.parametrize("name", ["enterprise1", "federal", "florida"])
    def test_round_trip_preserves_the_plan(self, name, tmp_path, case_study_plan):
        from repro.io import load_plan, save_plan

        plan = case_study_plan(name)

        path = tmp_path / f"{name}.json"
        save_plan(plan, str(path))
        restored = load_plan(str(path))

        assert restored.placement == plan.placement
        assert restored.secondary == plan.secondary
        assert restored.backup_servers == plan.backup_servers
        assert restored.datacenters_used == plan.datacenters_used
        assert restored.breakdown.total == pytest.approx(plan.breakdown.total)
        assert restored.solver == plan.solver
        # Byte-level fixpoint: serializing the restored plan reproduces
        # the original document exactly (nan-safe, since as_dict maps
        # non-finite floats to None on both sides).
        assert json.dumps(plan_to_dict(restored), sort_keys=True) == json.dumps(
            plan_to_dict(plan), sort_keys=True
        )

    @pytest.mark.parametrize("name", ["enterprise1", "federal", "florida"])
    def test_solve_stats_round_trip(self, name, case_study_plan):
        from repro.telemetry import SolveStats

        plan = case_study_plan(name)
        stats = plan.solver_stats
        assert stats is not None
        restored = SolveStats.from_dict(
            json.loads(json.dumps(stats.as_dict()))
        )
        # nan != nan, so compare the JSON-safe views field by field.
        assert restored.as_dict() == stats.as_dict()
        assert restored.backend == stats.backend
        assert restored.elapsed_seconds == pytest.approx(stats.elapsed_seconds)

    def test_plan_from_dict_rejects_future_schema(self, tiny_state):
        from repro.io import plan_from_dict

        placement = {g.name: "mid" for g in tiny_state.app_groups}
        data = plan_to_dict(evaluate_plan(tiny_state, placement))
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            plan_from_dict(data)


class TestJsonLines:
    def test_append_and_read_round_trip(self, tmp_path):
        from repro.io import append_jsonl, read_jsonl

        path = tmp_path / "log.jsonl"
        records = [{"event": "a", "n": 1}, {"event": "b", "nested": {"x": [1, 2]}}]
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                append_jsonl(handle, record)
        assert read_jsonl(str(path)) == records

    def test_torn_final_line_is_skipped(self, tmp_path):
        from repro.io import append_jsonl, read_jsonl

        path = tmp_path / "log.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            append_jsonl(handle, {"event": "complete"})
            handle.write('{"event": "torn", "n":')  # crashed mid-write
        assert read_jsonl(str(path)) == [{"event": "complete"}]

    def test_missing_journal_reads_empty(self, tmp_path):
        from repro.io import read_jsonl

        assert read_jsonl(str(tmp_path / "nope.jsonl")) == []
