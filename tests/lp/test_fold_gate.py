"""The dual engine's fold-and-residual gate and its carried reduced costs.

An optimal dual walk folds its pending product-form updates into a new
explicit inverse instead of refactorizing, and the inverse's *age* (the
updates folded in since its last factorization) travels with it through
the context's factor pool.  These tests pin the contract around that:

* a re-entry through a folded pooled inverse answers exactly as a cold
  primal solve of the same node does;
* a drifted pooled inverse fails the residual check, and the solve
  refactors and still answers right;
* ages accumulate across a chain of re-entries and never reach
  :data:`~repro.lp.revised_simplex.REFACTOR_INTERVAL`;
* a row append keeps every pooled inverse's age (the border is exact);
* reduced costs carried along the pivot rows match fresh ones.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import PlannerOptions, SolveOptions
from repro.core import ConsolidationModel, ModelOptions
from repro.datasets import load_enterprise1, load_florida
from repro.lp.cuts import implied_bound_rows
from repro.lp.dual_simplex import _DualSolver, solve_bounded_lp_dual
from repro.lp.matrix_lp import SLACK_TOKEN, RelaxationContext
from repro.lp.revised_simplex import (
    REFACTOR_INTERVAL,
    RESIDUAL_TOL,
    slack_basis,
    solve_bounded_lp,
)
from repro.lp.standard_form import to_matrix_form

LOADERS = {"enterprise1": load_enterprise1, "florida": load_florida}
FAMILIES = [
    (name, scale)
    for name in ("enterprise1", "florida")
    for scale in (0.05, 0.1, 0.3)
]


def _form(name: str, scale: float):
    state = LOADERS[name](scale=scale)
    return to_matrix_form(ConsolidationModel(state, ModelOptions()).problem)


def _context(form) -> RelaxationContext:
    return RelaxationContext(
        form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lb, form.ub,
    )


def _node_stream(form, n_nodes: int, seed: int):
    """Seeded B&B-style bound tightenings: fix random binaries to 0 or 1."""
    rng = np.random.default_rng(seed)
    binaries = np.flatnonzero(
        (form.integrality > 0) & (form.lb <= 0.0) & (form.ub >= 1.0)
    )
    nodes = [(form.lb.copy(), form.ub.copy(), None)]
    for _ in range(n_nodes - 1):
        parent = int(rng.integers(0, len(nodes)))
        lb, ub = nodes[parent][0].copy(), nodes[parent][1].copy()
        j = int(rng.choice(binaries))
        if rng.random() < 0.5:
            ub[j] = 0.0
        else:
            lb[j] = 1.0
        nodes.append((lb, ub, parent))
    return nodes


def _effective(ctx: RelaxationContext, lb, ub):
    """The bounds a context node solve actually hands its engine."""
    return np.maximum(lb, ctx._eff_lb), np.minimum(ub, ctx._eff_ub)


def _pooled(ctx: RelaxationContext, token):
    return ctx._factor_pool.get(np.asarray(token[1], dtype=np.int64).tobytes())


@pytest.mark.parametrize("name,scale", FAMILIES)
def test_folded_reentries_match_cold_primal(name, scale):
    form = _form(name, scale)
    ctx = _context(form)
    nodes = _node_stream(form, 40, seed=7)
    tokens: list = [None] * len(nodes)
    folded = 0
    for i, (lb, ub, parent) in enumerate(nodes):
        warm = SLACK_TOKEN if parent is None else tokens[parent]
        entry = _pooled(ctx, warm) if warm is not None and warm != SLACK_TOKEN else None
        res = ctx.solve(lb, ub, warm=warm)
        tokens[i] = res.warm_token
        if entry is None or entry[1] == 0 or res.engine != "dual":
            continue
        folded += 1
        ref = solve_bounded_lp(ctx._family, *_effective(ctx, lb, ub))
        assert res.status == ref.status
        if ref.status == "optimal":
            assert res.objective == pytest.approx(ref.objective, rel=1e-9)
            assert res.primal_residual <= RESIDUAL_TOL
            assert res.dual_residual <= RESIDUAL_TOL
    assert folded > 0, "no re-entry went through a folded inverse"


def _root_and_token(form):
    ctx = _context(form)
    root = ctx.solve(warm=SLACK_TOKEN)
    assert root.status == "optimal" and root.engine == "dual"
    return ctx, root


def test_drifted_pool_entry_fails_residuals_and_refactors():
    form = _form("enterprise1", 0.1)
    ctx, root = _root_and_token(form)
    binv, _age = _pooled(ctx, root.warm_token)

    # Control: the pristine inverse, as an aged entry, passes the gate.
    key = np.asarray(root.warm_token[1], dtype=np.int64).tobytes()
    ctx._factor_pool[key] = (binv, 1)
    clean = ctx.solve(warm=root.warm_token)
    assert clean.status == "optimal" and clean.refactorizations == 0

    # A folded inverse that drifted by ~1e-6 relative must not pass.
    rng = np.random.default_rng(3)
    ctx._factor_pool[key] = (binv * (1.0 + 1e-6 * rng.standard_normal(binv.shape)), 1)
    res = ctx.solve(warm=root.warm_token)
    assert res.engine == "dual" and res.status == "optimal"
    assert res.refactorizations >= 1
    assert res.objective == pytest.approx(root.objective, rel=1e-9)
    assert res.primal_residual <= RESIDUAL_TOL and res.dual_residual <= RESIDUAL_TOL
    assert _pooled(ctx, res.warm_token)[1] == 0  # the fresh factor replaced it


def test_chain_of_reentries_refactors_at_the_interval():
    """Follow one branch: each child enters on its parent's inverse."""
    form = _form("enterprise1", 0.3)
    ctx, node = _root_and_token(form)
    lb, ub = form.lb.copy(), form.ub.copy()
    binaries = np.flatnonzero(form.integrality > 0)
    rng = np.random.default_rng(11)
    ages, refactored = [], 0
    for _ in range(60):
        entry = _pooled(ctx, node.warm_token)
        assert entry is not None
        age_in = entry[1]
        # Fix a fractional binary, else a random free one, to its floor.
        frac = binaries[np.abs(node.x[binaries] - np.round(node.x[binaries])) > 1e-6]
        free = binaries[lb[binaries] < ub[binaries]]
        if not free.size:
            break
        j = int(frac[0]) if frac.size else int(rng.choice(free))
        ub[j] = np.floor(node.x[j] + 1e-9)
        res = ctx.solve(lb, ub, warm=node.warm_token)
        if res.status != "optimal" or res.engine != "dual":
            break
        age_out = _pooled(ctx, res.warm_token)[1]
        assert age_out < REFACTOR_INTERVAL
        if age_in + res.dual_pivots >= REFACTOR_INTERVAL:
            assert res.refactorizations >= 1
        if res.refactorizations == 0:
            assert age_out == age_in + res.dual_pivots
        else:
            refactored += 1
        ages.append(age_out)
        node = res
    assert max(ages) > 0, "no re-entry folded its updates"
    assert refactored > 0, "the chain never reached REFACTOR_INTERVAL"


def test_age_at_the_interval_forces_a_refactorization():
    form = _form("enterprise1", 0.1)
    ctx, root = _root_and_token(form)
    binv, _age = _pooled(ctx, root.warm_token)
    lb, ub = _effective(ctx, form.lb, form.ub)
    pair = (root.warm_token[1], root.warm_token[2])
    # No pivots: the age stays below the interval, nothing refactors.
    still = solve_bounded_lp_dual(
        ctx._family, lb, ub, warm=pair, binv=binv, binv_age=REFACTOR_INTERVAL - 1
    )
    assert still.status == "optimal" and still.refactorizations == 0
    assert still.binv_age == REFACTOR_INTERVAL - 1
    # One pivot more would reach it: the gate refactors instead of folding.
    j = int(np.flatnonzero((root.x > 1e-6) & (root.x < 1 - 1e-6) & (form.integrality > 0))[0])
    child_ub = ub.copy()
    child_ub[j] = 0.0
    res = solve_bounded_lp_dual(
        ctx._family, lb, child_ub, warm=pair, binv=binv,
        binv_age=REFACTOR_INTERVAL - 1,
    )
    assert res.status == "optimal" and res.dual_pivots >= 1
    assert res.refactorizations >= 1 and res.binv_age < REFACTOR_INTERVAL
    ref = solve_bounded_lp(ctx._family, lb, child_ub)
    assert res.objective == pytest.approx(ref.objective, rel=1e-9)


def test_row_append_keeps_pooled_ages():
    form = _form("enterprise1", 0.1)
    ctx = _context(form)
    nodes = _node_stream(form, 12, seed=5)
    tokens: list = [None] * len(nodes)
    for i, (lb, ub, parent) in enumerate(nodes):
        res = ctx.solve(lb, ub, warm=SLACK_TOKEN if parent is None else tokens[parent])
        tokens[i] = res.warm_token
    m_old = ctx._family.m
    before = {
        key: age for key, (_binv, age) in ctx._factor_pool.items()
    }
    assert any(before.values()), "no pooled inverse carries an age"
    x_cols = np.flatnonzero(form.integrality > 0)[:2]
    ctx.add_cut_rows(*implied_bound_rows(np.array([x_cols]), form.c.shape[0]), form.lb, form.ub)
    assert ctx._family.m == m_old + 1
    after = {key[: 8 * m_old]: age for key, (_binv, age) in ctx._factor_pool.items()}
    assert after == before


def test_carried_reduced_costs_match_fresh_past_the_interval():
    form = _form("enterprise1", 0.3)
    ctx = _context(form)
    family = ctx._family
    lb, ub = _effective(ctx, form.lb, form.ub)
    solver = _DualSolver(family, lb, ub, 20000, slack_basis(family), binv=np.eye(family.m))
    assert solver._warm_start_dual() and solver._dual_normalize()
    assert solver._dual_loop() == "optimal"
    assert solver.dual_pivots > REFACTOR_INTERVAL
    assert solver.refactorizations >= 1  # the walk re-priced once mid-way
    fresh = solver._reduced_costs()
    np.testing.assert_allclose(solver.dj, fresh, rtol=0.0, atol=1e-9)


def test_search_records_residual_maxima_within_the_gate():
    state = load_enterprise1(seed=1, scale=0.3)
    plan = repro.solve(state, method="milp", options=PlannerOptions(
        backend="branch_bound",
        solve_options=SolveOptions(relaxation_engine="builtin"),
    ))
    stats = plan.stats
    assert stats.nodes_explored > 1
    assert 0.0 < stats.max_primal_residual <= RESIDUAL_TOL
    assert 0.0 < stats.max_dual_residual <= RESIDUAL_TOL
