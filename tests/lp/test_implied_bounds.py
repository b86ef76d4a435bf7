"""Implied-bound root cuts: detection, validity and the held-pairs memory."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core import ConsolidationModel
from repro.core.formulation import ModelOptions
from repro.core.incremental import Directive, RevisionedModel
from repro.datasets import load_enterprise1, load_florida
from repro.lp import SolveOptions, SolveStatus, solve
from repro.lp.branch_bound import solve_branch_and_bound
from repro.lp.cuts import implied_bound_pairs, implied_bound_rows
from repro.lp.matrix_lp import RelaxationContext
from repro.lp.solvers import SolveCache
from repro.lp.sparse import CSCMatrix
from repro.lp.standard_form import to_matrix_form

INF = np.inf


class TestImpliedBoundPairs:
    def test_big_m_row_yields_one_pair_per_binary(self):
        # 3 x0 + 5 x1 + 2 y - 8 u <= 0: x0, x1, u binary, y continuous.
        a = CSCMatrix.from_dense([[3.0, 5.0, 2.0, -8.0]])
        integral = np.array([True, True, False, True])
        pairs = implied_bound_pairs(
            a, np.zeros(1), integral, np.zeros(4), np.array([1.0, 1.0, INF, 1.0])
        )
        np.testing.assert_array_equal(pairs, [[0, 3], [1, 3]])

    def test_coefficient_within_rhs_yields_nothing(self):
        # x0 + x1 - p <= 1 (a peer-split link): u = 0 still allows one x.
        a = CSCMatrix.from_dense([[1.0, 1.0, -1.0]])
        pairs = implied_bound_pairs(
            a, np.ones(1), np.ones(3, dtype=bool), np.zeros(3), np.ones(3)
        )
        assert pairs.shape == (0, 2)

    @pytest.mark.parametrize(
        "row, lb, ub",
        [
            # two negative coefficients
            ([4.0, -2.0, -2.0], [0, 0, 0], [1, 1, 1]),
            # a positive column unbounded below
            ([4.0, 1.0, -4.0], [0, -1, 0], [1, 1, 1]),
            # u is a general integer, not 0/1
            ([4.0, 1.0, -4.0], [0, 0, 0], [1, 1, 2]),
        ],
    )
    def test_rows_that_do_not_qualify(self, row, lb, ub):
        pairs = implied_bound_pairs(
            CSCMatrix.from_dense([row]), np.zeros(1), np.ones(3, dtype=bool),
            np.array(lb, dtype=float), np.array(ub, dtype=float),
        )
        assert pairs.shape == (0, 2)

    def test_pairs_from_several_rows_are_deduplicated(self):
        a = CSCMatrix.from_dense([[2.0, 3.0, -5.0], [1.0, 0.0, -1.0]])
        pairs = implied_bound_pairs(
            a, np.zeros(2), np.ones(3, dtype=bool), np.zeros(3), np.ones(3)
        )
        np.testing.assert_array_equal(pairs, [[0, 2], [1, 2]])

    def test_every_binary_point_of_the_row_satisfies_its_cuts(self):
        # Brute-force validity: over random rows on five binaries, every
        # 0/1 point satisfying the row satisfies every implied cut.
        rng = np.random.default_rng(7)
        points = np.array(list(itertools.product([0.0, 1.0], repeat=5)))
        checked = 0
        for _ in range(200):
            row = rng.integers(-6, 7, size=5).astype(float)
            b = float(rng.integers(-2, 5))
            pairs = implied_bound_pairs(
                CSCMatrix.from_dense(row[None, :]), np.array([b]),
                np.ones(5, dtype=bool), np.zeros(5), np.ones(5),
            )
            if not pairs.size:
                continue
            a_cut, b_cut = implied_bound_rows(pairs, 5)
            feasible = points[points @ row <= b + 1e-9]
            assert (feasible @ a_cut.to_dense().T <= b_cut + 1e-9).all()
            checked += 1
        assert checked > 20

    def test_rows_materialize_as_x_minus_u(self):
        a, b = implied_bound_rows(np.array([[0, 3], [2, 3]]), 4)
        np.testing.assert_array_equal(
            a.to_dense(), [[1.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, -1.0]]
        )
        np.testing.assert_array_equal(b, [0.0, 0.0])


def _estates(fixed_cost_state):
    yield "enterprise1-0.05", ConsolidationModel(load_enterprise1(seed=11, scale=0.05))
    yield "enterprise1-0.1", ConsolidationModel(load_enterprise1(seed=12, scale=0.1))
    yield "florida-0.05", ConsolidationModel(load_florida(seed=13, scale=0.05))
    yield "florida-0.1", ConsolidationModel(load_florida(seed=14, scale=0.1))
    yield "fixed-cost-dr", ConsolidationModel(
        fixed_cost_state, ModelOptions(enable_dr=True)
    )


def _highs_point(problem, form):
    ref = solve(problem, backend="highs", options=SolveOptions(mip_rel_gap=1e-9))
    assert ref.status is SolveStatus.OPTIMAL
    return ref.objective, np.array([ref.value(v, 0.0) for v in form.variables])


class TestRootCutsNeverChangeTheOptimum:
    @pytest.mark.parametrize("engine", ["builtin", "highs"])
    def test_matches_highs_and_every_cut_holds_at_its_optimum(
        self, engine, fixed_cost_state
    ):
        cuts = {}
        for name, model in _estates(fixed_cost_state):
            if engine == "highs" and name.endswith("0.1"):
                continue  # one HiGHS call per node: keep the arm small
            form = to_matrix_form(model.problem)
            context = RelaxationContext(
                form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
                form.lb, form.ub, engine=engine,
                integrality=form.integrality,
            )
            sol = solve_branch_and_bound(
                model.problem, relaxation_engine=engine, form=form, context=context
            )
            expected, x_ref = _highs_point(model.problem, form)
            assert sol.status is SolveStatus.OPTIMAL, name
            assert sol.objective == pytest.approx(expected, rel=1e-6), name
            held = context.implied_pairs
            assert sol.stats.cuts_added == held.shape[0], name
            assert (x_ref[held[:, 0]] - x_ref[held[:, 1]] <= 1e-6).all(), name
            cuts[name] = sol.stats.cuts_added
        assert any(count > 0 for count in cuts.values()), cuts


class TestPersistentContextHoldsEachCutOnce:
    def test_held_pairs_are_not_appended_again(self):
        model = ConsolidationModel(load_enterprise1(seed=21, scale=0.1))
        form = to_matrix_form(model.problem)
        context = RelaxationContext(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
            form.lb, form.ub, integrality=form.integrality,
        )
        solve_branch_and_bound(
            model.problem, relaxation_engine="builtin", form=form, context=context
        )
        held = context.implied_pairs.copy()
        rows = context.a_ub.shape[0]
        assert held.shape[0] > 0
        assert context.add_implied_bounds(held, form.lb, form.ub).shape == (0, 2)
        assert context.a_ub.shape[0] == rows
        np.testing.assert_array_equal(context.implied_pairs, held)

    def test_replans_append_only_newly_violated_pairs(self):
        model = ConsolidationModel(load_enterprise1(seed=22, scale=0.1))
        engine = RevisionedModel(model)
        cache = SolveCache()
        options = SolveOptions(relaxation_engine="builtin")
        servers = {g.name: g.servers for g in model.state.app_groups}
        n = model.problem.num_variables

        first = cache.solve(model.problem, "branch_bound", options)
        context = cache._context
        assert first.stats.cuts_added == context.implied_pairs.shape[0] > 0

        def placements(solution):
            return [key for key, var in model.x.items() if solution.value(var) > 0.5]

        def forbid_used(solution):
            group, site = placements(solution)[0]
            return Directive("forbid", group=group, datacenter=site)

        def cap_below_load(solution):
            site = placements(solution)[0][1]
            load = sum(servers[g] for g, dc in placements(solution) if dc == site)
            return Directive("cap_servers", datacenter=site, limit=load - 1)

        # Two re-plans on the same context, which already holds the
        # first cuts: forbid a placement the optimum uses (a bound
        # change), then cap a used site's servers below its load (a row
        # append through the cache).
        last = first
        for make in (forbid_used, cap_below_load):
            engine.apply(make(last))
            before = context.implied_pairs.copy()
            last = cache.solve(model.problem, "branch_bound", options)
            assert cache._context is context
            now = context.implied_pairs
            np.testing.assert_array_equal(now[: before.shape[0]], before)
            assert last.stats.cuts_added == now.shape[0] - before.shape[0]
            expected = solve(
                model.problem, backend="highs",
                options=SolveOptions(mip_rel_gap=1e-9),
            ).objective
            assert last.status is SolveStatus.OPTIMAL
            assert last.objective == pytest.approx(expected, rel=1e-6)
        assert cache.context_extensions == 1

        # Each held pair is exactly one row of the context.
        pairs = context.implied_pairs
        keys = pairs[:, 0] * n + pairs[:, 1]
        assert np.unique(keys).shape == keys.shape
        cut_rows, _ = implied_bound_rows(pairs, n)
        copies = (
            context.a_ub.to_dense()[None, :, :] == cut_rows.to_dense()[:, None, :]
        ).all(axis=2)
        np.testing.assert_array_equal(copies.sum(axis=1), 1)
