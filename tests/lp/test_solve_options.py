"""Typed SolveOptions and the SolveCache."""

from __future__ import annotations

import pytest

from repro.lp import (
    Problem,
    SolveCache,
    SolveOptions,
    SolveStatus,
    problem_fingerprint,
    quicksum,
    solve,
    structure_fingerprint,
)
from repro.lp.options import BACKEND_OPTION_FIELDS


class TestSolveOptionsValidation:
    def test_defaults_valid_everywhere(self):
        for backend in BACKEND_OPTION_FIELDS:
            SolveOptions().validate_for(backend)

    def test_rejects_field_backend_ignores(self):
        opts = SolveOptions(mip_rel_gap=0.01)
        with pytest.raises(ValueError, match="mip_rel_gap"):
            opts.validate_for("branch_bound")
        with pytest.raises(ValueError, match="node_limit"):
            SolveOptions(node_limit=5).validate_for("highs")

    def test_error_lists_supported_options(self):
        with pytest.raises(ValueError, match="supported options"):
            SolveOptions(cover_cut_rounds=1).validate_for("highs")

    def test_auto_rejects_builtin_only_options(self):
        # `auto` runs HiGHS, which never reads node_limit.
        assert BACKEND_OPTION_FIELDS["auto"] == BACKEND_OPTION_FIELDS["highs"]
        with pytest.raises(ValueError, match="node_limit"):
            solve(knapsack(), "auto", SolveOptions(node_limit=1))

    def test_unknown_backend_accepts_everything(self):
        SolveOptions(mip_rel_gap=0.5, node_limit=3).validate_for("my_custom")

    def test_field_invariants(self):
        with pytest.raises(ValueError):
            SolveOptions(time_limit=0.0)
        with pytest.raises(ValueError):
            SolveOptions(node_limit=0)
        for engine in ("cplex", "revised", "tableau"):
            with pytest.raises(ValueError, match="unknown relaxation engine"):
                SolveOptions(relaxation_engine=engine)
        with pytest.raises(ValueError):
            SolveOptions(cover_cut_rounds=-1)

    def test_replace_returns_validated_copy(self):
        opts = SolveOptions().replace(time_limit=2.0)
        assert opts.time_limit == 2.0
        assert SolveOptions().time_limit is None  # frozen original untouched

    def test_non_default_fields_only_reports_changes(self):
        assert SolveOptions().non_default_fields() == {}
        assert SolveOptions(node_limit=7).non_default_fields() == {"node_limit": 7}


def knapsack(n: int = 6) -> Problem:
    p = Problem("knap")
    xs = [p.add_binary(f"x{i}") for i in range(n)]
    p.add_constraint(quicksum(x * (i + 1) for i, x in enumerate(xs)) <= n)
    p.set_objective(-quicksum(x * (2 * i + 1) for i, x in enumerate(xs)))
    return p


class TestFingerprints:
    def test_bound_edit_changes_full_but_not_structure(self):
        p = knapsack()
        full, structural = problem_fingerprint(p), structure_fingerprint(p)
        p.variables[0].ub = 0.0
        assert problem_fingerprint(p) != full
        assert structure_fingerprint(p) == structural

    def test_new_row_changes_both(self):
        p = knapsack()
        full, structural = problem_fingerprint(p), structure_fingerprint(p)
        xs = p.variables
        p.add_constraint(xs[0] + xs[1] <= 1)
        assert problem_fingerprint(p) != full
        assert structure_fingerprint(p) != structural

    def test_constraint_display_name_is_ignored(self):
        a, b = knapsack(), knapsack()
        xs = b.variables
        # same row, different display name: same model
        a.add_constraint(a.variables[0] <= 1, "pretty")
        b.add_constraint(xs[0] <= 1, "c_ugly")
        assert problem_fingerprint(a) == problem_fingerprint(b)


class TestSolveCache:
    def test_identical_resolve_is_a_hit(self):
        p = knapsack()
        cache = SolveCache()
        first = solve(p, backend="branch_bound", cache=cache)
        second = solve(p, backend="branch_bound", cache=cache)
        assert second is first
        assert (cache.hits, cache.misses) == (1, 1)

    def test_tightening_kept_optimum_short_circuits(self):
        p = knapsack()
        cache = SolveCache()
        first = solve(p, backend="branch_bound", cache=cache)
        loser = next(v for v in p.variables if first.value(v) < 0.5)
        loser.ub = 0.0  # forbids a variable the optimum never used
        again = solve(p, backend="branch_bound", cache=cache)
        assert again.objective == first.objective
        assert cache.tightening_reuses == 1

    def test_tightening_that_cuts_optimum_resolves(self):
        p = knapsack()
        cache = SolveCache()
        first = solve(p, backend="branch_bound", cache=cache)
        winner = next(v for v in p.variables if first.value(v) > 0.5)
        winner.ub = 0.0
        again = solve(p, backend="branch_bound", cache=cache)
        assert cache.tightening_reuses == 0
        assert again.objective > first.objective  # minimization got worse
        assert again.value(winner) == 0.0

    def test_loosening_never_short_circuits(self):
        p = Problem("loose")
        x = p.add_integer("x", lb=0, ub=3)
        p.add_constraint(x >= 1)
        p.set_objective(x)
        cache = SolveCache()
        solve(p, backend="branch_bound", cache=cache)
        x.ub = 5.0  # loosened: region grew, the shortcut would be unsound
        solve(p, backend="branch_bound", cache=cache)
        assert cache.tightening_reuses == 0
        assert cache.misses == 2

    def test_context_reused_across_bound_changes(self):
        p = knapsack()
        cache = SolveCache()
        opts = SolveOptions(relaxation_engine="builtin")
        first = solve(p, backend="branch_bound", options=opts, cache=cache)
        winner = next(v for v in p.variables if first.value(v) > 0.5)
        winner.ub = 0.0
        solve(p, backend="branch_bound", options=opts, cache=cache)
        assert cache.context_rebuilds == 1
        assert cache.context_reuses == 1

    def test_reused_context_honours_the_current_pivot_budget(self):
        p = knapsack()
        cache = SolveCache()
        opts = SolveOptions(relaxation_engine="builtin")
        p.variables[2].lb = 1.0
        solve(p, backend="branch_bound", options=opts, cache=cache)
        p.variables[2].lb = 0.0  # loosened: a fingerprint miss, same rows
        tight = opts.replace(max_iterations=1)
        again = solve(p, backend="branch_bound", options=tight, cache=cache)
        assert cache.context_reuses == 1
        # The root re-solve needs more than one pivot, so the reused
        # context must stop where a cold context with this budget does.
        cold = solve(p, backend="branch_bound", options=tight)
        assert "iteration_limit" in cold.message
        assert again.status is not SolveStatus.OPTIMAL
        assert "iteration_limit" in again.message

    def test_added_row_extends_context_in_place(self):
        p = knapsack()
        cache = SolveCache()
        opts = SolveOptions(relaxation_engine="builtin")
        first = solve(p, backend="branch_bound", options=opts, cache=cache)
        winner = next(v for v in p.variables if first.value(v) > 0.5)
        p.add_constraint(winner <= 0)
        second = solve(p, backend="branch_bound", options=opts, cache=cache)
        # The appended inequality extends the cached context instead of
        # forcing a rebuild, and the answer matches a cold solve.
        assert cache.context_rebuilds == 1
        assert cache.context_extensions == 1
        cold = solve(p, backend="branch_bound", options=opts, cache=SolveCache())
        assert second.objective == pytest.approx(cold.objective)
        assert second.value(winner) == pytest.approx(0.0, abs=1e-6)

    def test_removed_row_rebuilds_context(self):
        p = knapsack()
        cache = SolveCache()
        opts = SolveOptions(relaxation_engine="builtin")
        keep = len(p.constraints)
        p.add_constraint(p.variables[0] <= 1)
        solve(p, backend="branch_bound", options=opts, cache=cache)
        p.truncate_constraints(keep)
        solve(p, backend="branch_bound", options=opts, cache=cache)
        assert cache.context_rebuilds == 2
        assert cache.context_extensions == 0

    def test_clear_forgets_everything(self):
        p = knapsack()
        cache = SolveCache()
        solve(p, backend="branch_bound", cache=cache)
        cache.clear()
        assert cache.last_solution is None
        solve(p, backend="branch_bound", cache=cache)
        assert cache.misses == 2

    def test_eviction_respects_max_solutions(self):
        p = knapsack()
        cache = SolveCache(max_solutions=1)
        solve(p, backend="branch_bound", cache=cache)
        p.variables[0].ub = 0.0
        solve(p, backend="branch_bound", cache=cache)
        p.variables[0].ub = 1.0  # back to the first state: evicted by entry 2
        solve(p, backend="branch_bound", cache=cache)
        assert cache.hits == 0
        assert len(cache._solutions) == 1

    def test_works_with_highs_backend_too(self):
        p = knapsack()
        cache = SolveCache()
        first = solve(p, backend="highs", cache=cache)
        second = solve(p, backend="highs", cache=cache)
        assert second is first
        assert cache.hits == 1
