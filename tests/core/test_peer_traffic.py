"""Inter-group traffic: the WAN cost of splitting communicating groups."""

from __future__ import annotations

import pytest

import repro
from repro import PlannerOptions
from repro.core import (
    ApplicationGroup,
    AsIsState,
    ConsolidationModel,
    StateValidationError,
    evaluate_plan,
    validate_state,
)
from repro.core.latency import NO_PENALTY
from repro.core.wan import inter_site_wan_price, undirected_peer_traffic
from repro.lp import SolveStatus, solve

from ..conftest import make_datacenter


@pytest.fixture
def chatty_state(user_locations):
    """front is pulled toward 'near' by latency; db toward 'cheap' by
    space — heavy peer traffic must override and colocate them."""
    from repro.core import LatencyPenaltyFunction

    targets = [
        make_datacenter("cheap", capacity=200, space_base=60.0, wan=0.10,
                        lat_east=40.0, lat_west=40.0),
        make_datacenter("near", capacity=200, space_base=90.0, wan=0.10,
                        lat_east=4.0, lat_west=5.0),
    ]
    penalty = LatencyPenaltyFunction.single_threshold(10.0, 100.0)
    groups = [
        ApplicationGroup("front", 60, 100.0, {"east": 200.0}, penalty,
                         peers={"db": 500_000.0}),
        ApplicationGroup("db", 60, 100.0, {}, NO_PENALTY),
    ]
    return AsIsState("chatty", groups, targets, user_locations=user_locations)


class TestEntitiesAndHelpers:
    def test_negative_peer_traffic_rejected(self):
        with pytest.raises(ValueError, match="negative traffic"):
            ApplicationGroup("g", 1, peers={"other": -1.0})

    def test_self_peer_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            ApplicationGroup("g", 1, peers={"g": 5.0})

    def test_undirected_folding(self):
        groups = [
            ApplicationGroup("a", 1, peers={"b": 100.0}),
            ApplicationGroup("b", 1, peers={"a": 50.0, "c": 10.0}),
            ApplicationGroup("c", 1),
        ]
        totals = undirected_peer_traffic(groups)
        assert totals[frozenset({"a", "b"})] == 150.0
        assert totals[frozenset({"b", "c"})] == 10.0

    def test_inter_site_price(self):
        a = make_datacenter("a", wan=0.10)
        b = make_datacenter("b", wan=0.30)
        assert inter_site_wan_price(a, b) == pytest.approx(0.20)
        assert inter_site_wan_price(a, a) == 0.0

    def test_unknown_peer_fails_validation(self, user_locations):
        targets = [make_datacenter("d", capacity=100)]
        groups = [ApplicationGroup("a", 1, users={"east": 1.0},
                                   peers={"ghost": 5.0})]
        state = AsIsState("s", groups, targets, user_locations=user_locations)
        with pytest.raises(StateValidationError, match="unknown groups"):
            validate_state(state)


class TestEvaluation:
    def test_colocated_pair_pays_nothing(self, chatty_state):
        placement = {"front": "cheap", "db": "cheap"}
        plan = evaluate_plan(chatty_state, placement)
        baseline_wan = sum(
            g.monthly_data_mb * 0.10 for g in chatty_state.app_groups
        )
        assert plan.breakdown.wan == pytest.approx(baseline_wan)

    def test_split_pair_pays_inter_site_wan(self, chatty_state):
        placement = {"front": "cheap", "db": "near"}
        plan = evaluate_plan(chatty_state, placement)
        baseline_wan = sum(
            g.monthly_data_mb * 0.10 for g in chatty_state.app_groups
        )
        extra = 500_000.0 * 0.10  # same per-Mb rate both sides
        assert plan.breakdown.wan == pytest.approx(baseline_wan + extra)

    def test_split_cost_shared_between_sites(self, chatty_state):
        placement = {"front": "cheap", "db": "near"}
        plan = evaluate_plan(chatty_state, placement)
        extra = 500_000.0 * 0.10
        assert plan.usage["cheap"].wan_cost == pytest.approx(
            100.0 * 0.10 + extra / 2
        )


class TestOptimization:
    def test_solver_colocates_chatty_pair(self, chatty_state):
        # Individually, front wants 'near' (else a $20k latency
        # penalty) and db wants 'cheap'; splitting them costs $50k of
        # inter-site WAN, so the MILP colocates both at 'near'.
        plan = repro.solve(
            chatty_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert plan.placement["front"] == plan.placement["db"] == "near"

    def test_solver_splits_when_traffic_cheap(self, chatty_state):
        chatty_state.app_groups[0].peers = {"db": 10.0}  # negligible
        plan = repro.solve(
            chatty_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert plan.placement["front"] == "near"
        assert plan.placement["db"] == "cheap"

    def test_objective_matches_evaluation(self, chatty_state):
        model = ConsolidationModel(chatty_state)
        assert model.peer_split  # pair variables were created
        sol = solve(model.problem, backend="highs")
        assert sol.status is SolveStatus.OPTIMAL
        plan = evaluate_plan(chatty_state, model.extract_placement(sol))
        assert plan.total_cost == pytest.approx(sol.objective, rel=1e-6)

    def test_forced_split_objective_matches(self, chatty_state):
        # Make colocation impossible: the model must price the split
        # exactly as the evaluator does.
        for dc in chatty_state.target_datacenters:
            dc.capacity = 70
        model = ConsolidationModel(chatty_state)
        sol = solve(model.problem, backend="highs")
        plan = evaluate_plan(chatty_state, model.extract_placement(sol))
        assert plan.placement["front"] != plan.placement["db"]
        assert plan.total_cost == pytest.approx(sol.objective, rel=1e-6)

    def test_no_peers_adds_no_variables(self, tiny_state):
        model = ConsolidationModel(tiny_state)
        assert not model.peer_split


class TestInteractions:
    def test_serialization_roundtrip(self, chatty_state, tmp_path):
        from repro.io import load_state, save_state

        path = tmp_path / "s.json"
        save_state(chatty_state, str(path))
        back = load_state(str(path))
        assert back.app_groups[0].peers == {"db": 500_000.0}

    def test_local_search_guards(self, chatty_state):
        from repro.core import improve_plan

        plan = evaluate_plan(chatty_state, {"front": "cheap", "db": "cheap"})
        with pytest.raises(ValueError, match="inter-group traffic"):
            improve_plan(chatty_state, plan)


class TestGreedyPeerAwareness:
    def test_greedy_colocates_chatty_pair(self, chatty_state):
        # Greedy places the 60-server groups in size order (front ties
        # db; sorted is stable so 'front' goes first, toward 'near').
        # When 'db' is priced, the $50k split cost must pull it to
        # 'near' too, despite cheaper space at 'cheap'.
        plan = repro.solve(chatty_state, method="greedy").plan
        assert plan.placement["front"] == plan.placement["db"]

    def test_greedy_splits_when_traffic_negligible(self, chatty_state):
        chatty_state.app_groups[0].peers = {"db": 10.0}
        plan = repro.solve(chatty_state, method="greedy").plan
        assert plan.placement["db"] == "cheap"

    def test_greedy_cost_includes_split_penalty(self, chatty_state):
        greedy = repro.solve(chatty_state, method="greedy").plan
        lp = repro.solve(
            chatty_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        assert lp.total_cost <= greedy.total_cost + 1e-6
