"""RelaxationContext: cached standardization, warm tokens, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.matrix_lp import RelaxationContext, solve_lp_arrays

from ..oracles.reference import solve_lp_arrays_reference


def problem():
    """min -x - 2y - z, one coupling row, y free at the root."""
    return dict(
        c=np.array([-1.0, -2.0, -1.0]),
        a_ub=np.array([[1.0, 1.0, 1.0]]),
        b_ub=np.array([6.0]),
        a_eq=np.zeros((0, 3)),
        b_eq=np.zeros(0),
        lb=np.array([0.0, -np.inf, 1.0]),
        ub=np.array([4.0, 3.0, np.inf]),
    )


class TestRootSolve:
    def test_matches_one_shot_and_reference_paths(self):
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        cached = ctx.solve()
        one_shot = solve_lp_arrays(engine="builtin", **kw)
        reference = solve_lp_arrays_reference(**kw)
        assert cached.status == one_shot.status == reference.status == "optimal"
        assert cached.objective == pytest.approx(one_shot.objective)
        assert cached.objective == pytest.approx(reference.objective)
        np.testing.assert_allclose(cached.x, one_shot.x, atol=1e-9)

    def test_crossed_bounds_short_circuit(self):
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        lb = kw["lb"].copy()
        lb[0] = 5.0  # above ub[0] = 4
        res = ctx.solve(lb, kw["ub"])
        assert res.status == "infeasible"

    def test_unknown_engine_raises(self):
        kw = problem()
        ctx = RelaxationContext(engine="cplex", **kw)
        with pytest.raises(ValueError):
            ctx.solve()


class TestChildNodes:
    def test_tightened_bounds_match_fresh_solves(self):
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        for lo, hi in [(0.0, 2.0), (1.0, 4.0), (2.5, 2.5)]:
            lb = kw["lb"].copy()
            ub = kw["ub"].copy()
            lb[0], ub[0] = lo, hi
            cached = ctx.solve(lb, ub)
            fresh = solve_lp_arrays(
                engine="highs", c=kw["c"], a_ub=kw["a_ub"], b_ub=kw["b_ub"],
                a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=lb, ub=ub,
            )
            assert cached.status == fresh.status == "optimal"
            assert cached.objective == pytest.approx(fresh.objective, abs=1e-8)

    def test_finite_lower_bound_on_root_free_variable(self):
        # y is free at the root; a child pinning y >= 2 must go through
        # the extra low-rows path, not a shift.
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        lb = kw["lb"].copy()
        lb[1] = 2.0
        cached = ctx.solve(lb, kw["ub"])
        fresh = solve_lp_arrays(
            engine="highs", c=kw["c"], a_ub=kw["a_ub"], b_ub=kw["b_ub"],
            a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=lb, ub=kw["ub"],
        )
        assert cached.status == fresh.status == "optimal"
        assert cached.objective == pytest.approx(fresh.objective, abs=1e-8)
        assert ctx.structural_rebuilds == 0

    def test_loosening_a_root_finite_lb_is_native_for_revised(self):
        # The revised core keeps bounds implicit, so loosening a
        # root-finite lb is just another bound-array update: no rebuild.
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        lb = kw["lb"].copy()
        lb[2] = -np.inf
        res = ctx.solve(lb, kw["ub"])
        fresh = solve_lp_arrays(
            engine="highs", c=kw["c"], a_ub=kw["a_ub"], b_ub=kw["b_ub"],
            a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=lb, ub=kw["ub"],
        )
        assert ctx.structural_rebuilds == 0
        assert res.status == fresh.status
        if fresh.status == "optimal":
            assert res.objective == pytest.approx(fresh.objective, abs=1e-8)


class TestWarmTokens:
    def test_token_reuse_is_identical_and_flagged(self):
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        root = ctx.solve()
        assert root.warm_token is not None
        again = ctx.solve(warm=root.warm_token)
        assert again.status == "optimal"
        assert again.warm_started
        assert again.objective == pytest.approx(root.objective)
        assert ctx.warm_start_hits >= 1

    def test_cold_root_inverse_seeds_the_first_dual_entry(self):
        # The primal's verified inverse is pooled under the root basis,
        # so the first dual re-entry on that basis skips its entry
        # refactorization (and, with no pivots, refactorizes nothing).
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        root = ctx.solve()
        assert root.refactorizations >= 1
        again = ctx.solve(warm=root.warm_token)
        assert again.status == "optimal"
        assert ctx.dual_entries == 1 and ctx.dual_fallbacks == 0
        assert again.dual_pivots == 0
        assert again.refactorizations == 0
        assert again.objective == pytest.approx(root.objective)

    def test_changed_bound_pattern_still_warm_starts_revised(self):
        # The revised core's column layout is bound-independent, so the
        # parent basis transfers even when the bound pattern changes.
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        root = ctx.solve()
        ub = kw["ub"].copy()
        ub[2] = 9.0
        child = ctx.solve(kw["lb"], ub, warm=root.warm_token)
        assert child.status == "optimal"
        assert child.warm_started
        fresh = solve_lp_arrays(
            engine="highs", c=kw["c"], a_ub=kw["a_ub"], b_ub=kw["b_ub"],
            a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=kw["lb"], ub=ub,
        )
        assert child.objective == pytest.approx(fresh.objective, abs=1e-8)


class TestTelemetry:
    def test_counters_accumulate(self):
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        root = ctx.solve()
        lb = kw["lb"].copy()
        lb[0] = 1.0
        ctx.solve(lb, kw["ub"], warm=root.warm_token)
        assert ctx.node_solves == 2
        assert ctx.cache_hits == 2
        assert ctx.warm_start_hits + ctx.warm_start_misses == 1
        assert ctx.conversion_seconds >= 0.0
        assert ctx.solve_seconds > 0.0

    def test_per_result_timing_split(self):
        kw = problem()
        res = solve_lp_arrays(engine="builtin", **kw)
        assert res.conversion_seconds >= 0.0
        assert res.solve_seconds >= 0.0

    def test_revised_core_counters_populated(self):
        kw = problem()
        ctx = RelaxationContext(engine="builtin", **kw)
        res = ctx.solve()
        assert res.status == "optimal"
        # Any solve with at least one pivot refactorizes once at the
        # final accuracy gate, retiring its eta file.
        assert res.refactorizations >= 1
        assert res.eta_file_length >= 1
        assert res.pricing_passes >= 1
        assert res.bound_flips >= 0
        assert ctx.refactorizations == res.refactorizations
        assert ctx.eta_file_length == res.eta_file_length
        assert ctx.pricing_passes == res.pricing_passes

    def test_tableau_engine_matches_revised(self):
        kw = problem()
        rev = solve_lp_arrays(engine="builtin", **kw)
        tab = solve_lp_arrays_reference(**kw)
        assert rev.status == tab.status == "optimal"
        assert rev.objective == pytest.approx(tab.objective, abs=1e-8)


class TestHighsEngineContext:
    def test_highs_context_delegates(self):
        kw = problem()
        ctx = RelaxationContext(engine="highs", **kw)
        res = ctx.solve()
        ref = solve_lp_arrays(engine="highs", **kw)
        assert res.status == ref.status == "optimal"
        assert res.objective == pytest.approx(ref.objective)
        assert ctx.node_solves == 1
