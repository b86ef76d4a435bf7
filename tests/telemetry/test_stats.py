"""The SolveStats record: gaps, merging, JSON safety."""

from __future__ import annotations

import json
import math

import pytest

from repro.telemetry import GapPoint, SolveStats


class TestRelativeGap:
    def test_closed_gap(self):
        s = SolveStats(incumbent=10.0, best_bound=10.0)
        assert s.relative_gap() == 0.0

    def test_open_gap(self):
        s = SolveStats(incumbent=10.0, best_bound=8.0)
        assert s.relative_gap() == pytest.approx(0.2)

    def test_unknown_bound_is_nan(self):
        assert math.isnan(SolveStats(incumbent=10.0).relative_gap())
        assert math.isnan(SolveStats(best_bound=1.0).relative_gap())

    def test_small_incumbent_uses_absolute_floor(self):
        # |incumbent| < 1 would explode a purely relative gap.
        s = SolveStats(incumbent=0.1, best_bound=0.0)
        assert s.relative_gap() == pytest.approx(0.1)


class TestMergePresolve:
    def test_accumulates(self):
        s = SolveStats()
        s.merge_presolve(dropped_constraints=2, tightened_bounds=1, rounds=4)
        s.merge_presolve(dropped_constraints=1)
        assert s.presolve_dropped_constraints == 3
        assert s.presolve_tightened_bounds == 1
        assert s.presolve_rounds == 4

    def test_returns_self(self):
        s = SolveStats()
        assert s.merge_presolve(rounds=1) is s


class TestAsDict:
    def test_round_trips_through_strict_json(self):
        s = SolveStats(backend="branch_bound", nodes_explored=7,
                       best_bound=float("-inf"), incumbent=float("nan"))
        s.gap_trajectory.append(GapPoint(1, float("-inf"), float("nan"), 0.1))
        s.extra["native_nodes"] = float("inf")
        text = json.dumps(s.as_dict(), allow_nan=False)  # must not raise
        data = json.loads(text)
        assert data["backend"] == "branch_bound"
        assert data["nodes_explored"] == 7
        assert data["best_bound"] is None
        assert data["incumbent"] is None
        assert data["gap_trajectory"][0]["best_bound"] is None
        assert data["extra"]["native_nodes"] is None

    def test_hint_repair_seconds_round_trips(self):
        s = SolveStats(hint_repaired=1, hint_repair_seconds=0.125)
        back = SolveStats.from_dict(json.loads(json.dumps(s.as_dict())))
        assert back.hint_repaired == 1
        assert back.hint_repair_seconds == 0.125
        assert SolveStats.from_dict({}).hint_repair_seconds == 0.0

    def test_finite_values_survive(self):
        s = SolveStats(best_bound=5.0, incumbent=6.0, mip_gap=0.2)
        data = s.as_dict()
        assert data["best_bound"] == 5.0
        assert data["incumbent"] == 6.0
        assert data["mip_gap"] == 0.2
