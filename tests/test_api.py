"""The unified ``repro.solve`` front door and its auto rule."""

from __future__ import annotations

import math
import warnings

import pytest

import repro
from repro.api import AUTO_DECOMPOSITION_PAIRS, METHODS, PlanResult, resolve_method
from repro.core.planner import PlannerOptions


class TestMethodDispatch:
    def test_milp_result_carries_stats_and_bound(self, tiny_state):
        result = repro.solve(tiny_state, method="milp")
        assert isinstance(result, PlanResult)
        assert result.method == "milp"
        assert result.objective == result.plan.breakdown.total
        assert result.stats is not None

    def test_decomposition_result_carries_gap(self, tiny_state):
        result = repro.solve(tiny_state, method="decomposition")
        assert result.method == "decomposition"
        assert math.isfinite(result.gap)
        assert result.lower_bound <= result.objective + 1e-6
        assert result.stats.backend == "decomposition"

    def test_greedy_has_no_bound(self, tiny_state):
        result = repro.solve(tiny_state, method="greedy")
        assert result.method == "greedy"
        assert math.isnan(result.gap)
        assert result.lower_bound == -math.inf

    def test_engines_agree_within_decomposition_gap(self, tiny_state):
        milp = repro.solve(tiny_state, method="milp")
        decomp = repro.solve(tiny_state, method="decomposition")
        rel = (decomp.objective - milp.objective) / milp.objective
        assert rel <= max(decomp.gap, 0.0) + 1e-9

    def test_unknown_method_is_rejected(self, tiny_state):
        with pytest.raises(ValueError, match="unknown planning method"):
            repro.solve(tiny_state, method="quantum")

    def test_stray_kwargs_are_rejected(self, tiny_state):
        with pytest.raises(TypeError, match="options=PlannerOptions"):
            repro.solve(tiny_state, backend="highs")

    def test_unified_paths_do_not_warn(self, tiny_state):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.solve(tiny_state, method="milp")
            repro.solve(tiny_state, method="decomposition")
            repro.solve(tiny_state, method="greedy")


class TestAutoRule:
    def test_small_estate_plans_milp(self, tiny_state):
        assert resolve_method(tiny_state, PlannerOptions()) == "milp"
        assert repro.solve(tiny_state, method="auto").method == "milp"

    def test_dr_estates_always_milp(self, tiny_state):
        options = PlannerOptions(enable_dr=True)
        assert resolve_method(tiny_state, options) == "milp"

    def test_pair_count_threshold_flips_to_decomposition(self, tiny_state):
        n_targets = len(tiny_state.target_datacenters)
        needed = -(-AUTO_DECOMPOSITION_PAIRS // n_targets)  # ceil
        base = tiny_state.app_groups[-1]
        while len(tiny_state.app_groups) < needed:
            clone = type(base)(
                f"pad-{len(tiny_state.app_groups)}", 1, 10.0, {}, base.latency_penalty
            )
            tiny_state.app_groups.append(clone)
        assert resolve_method(tiny_state, PlannerOptions()) == "decomposition"

    def test_method_field_in_options_drives_dispatch(self, tiny_state):
        result = repro.solve(tiny_state, options=PlannerOptions(method="greedy"))
        assert result.method == "greedy"


class TestWireRoundTrip:
    def test_method_survives_the_wire(self):
        options = PlannerOptions(method="decomposition")
        wire = options.as_wire()
        assert wire["method"] == "decomposition"
        assert PlannerOptions.from_wire(wire).method == "decomposition"

    def test_unknown_wire_method_is_rejected(self):
        wire = PlannerOptions().as_wire()
        wire["method"] = "quantum"
        with pytest.raises(ValueError, match="unknown planning method"):
            PlannerOptions.from_wire(wire)

    def test_methods_constant_matches_planner_options(self):
        assert PlannerOptions.METHODS == METHODS

    def test_jobs_survives_the_wire(self):
        options = PlannerOptions(method="decomposition", jobs=3)
        wire = options.as_wire()
        assert wire["jobs"] == 3
        assert PlannerOptions.from_wire(wire).jobs == 3

    def test_wire_jobs_rejects_non_integer(self):
        wire = PlannerOptions().as_wire()
        for bad in ("4", 2.5, True, None):
            wire["jobs"] = bad
            with pytest.raises(ValueError, match="jobs must be"):
                PlannerOptions.from_wire(wire)

    def test_wire_jobs_rejects_out_of_range(self):
        wire = PlannerOptions().as_wire()
        for bad in (-1, PlannerOptions.MAX_WIRE_JOBS + 1):
            wire["jobs"] = bad
            with pytest.raises(ValueError, match="jobs must be between"):
                PlannerOptions.from_wire(wire)


class TestParallelMap:
    def test_serial_and_parallel_agree(self):
        from repro.parallel import parallel_map

        items = list(range(20))
        assert parallel_map(_square, items, jobs=1) == [i * i for i in items]
        assert parallel_map(_square, items, jobs=2) == [i * i for i in items]

    def test_effective_jobs_resolves_cpu_count(self):
        from repro.parallel import effective_jobs

        assert effective_jobs(3) == 3
        assert effective_jobs(0) >= 1

    def test_daemonic_process_falls_back_to_serial(self):
        # Service workers are daemonic and may not fork children; a
        # jobs>1 request from the wire must degrade, not crash.
        import multiprocessing

        queue = multiprocessing.Queue()
        proc = multiprocessing.Process(
            target=_daemon_square_probe, args=(queue,), daemon=True
        )
        proc.start()
        proc.join(timeout=30)
        assert queue.get(timeout=5) == [i * i for i in range(8)]


def _square(i: int) -> int:
    return i * i


def _daemon_square_probe(queue) -> None:
    from repro.parallel import parallel_map

    queue.put(parallel_map(_square, list(range(8)), jobs=4))
