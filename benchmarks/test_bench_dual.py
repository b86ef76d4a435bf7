"""Dual-simplex node throughput: warm dual re-solves vs primal restarts.

Replays the same seeded stream of branch-and-bound-style bound
tightenings as the node-cache benchmark on an enterprise1-scale
consolidation LP, solving every node twice with parent warm tokens —
both on the sparse revised core, differing only in the node re-solve
path:

* baseline: the primal core alone on the raw arrays
  (:func:`~repro.lp.revised_simplex.solve_bounded_lp` on one
  :class:`~repro.lp.revised_simplex.SparseBoundedLP`), a full
  phase-1/phase-2 restart per node with no presolve;
* candidate: a :class:`RelaxationContext` — the dual simplex entered
  from the parent token (+ the array presolve and the factorization
  pool).

The context runs presolve *without* integrality information:
integer-aware bound snapping legitimately strengthens node relaxations
(a snapped binary bound can move the LP value while preserving every
integral point), which would break the node-for-node objective
comparison this benchmark relies on.  Continuous-only reductions keep
the LP feasible region identical, so exact equality is asserted; the
integer-aware strengthening is validated at the MILP level by the
branch-and-bound suite instead.

Outside smoke mode each arm replays the stream (a fresh family or
context per pass) until it has run for :data:`MIN_ARM_SECONDS`, and the
arm's figure is the median per-node time over its passes: one pass of
the dual arm is only ~25 ms, too short a sample to tell a node-LP
change from host noise.

Asserts identical statuses/objectives node for node, that the dual path
actually ran (``dual_entries > 0``), and, outside smoke mode, a >= 1.5x
node-throughput ratio (median per-node times); archives to
``bench_results/dual.txt`` (+ ``BENCH_dual.json`` with a
``throughput_ratio`` field).

Smoke mode (``DUAL_SMOKE=1``, used by CI) runs a reduced node stream
and only asserts correctness plus dual-path engagement — machine load
must not flake CI on an exact multiple.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pytest

from repro.core import ConsolidationModel, ModelOptions
from repro.datasets import load_enterprise1
from repro.lp.matrix_lp import RelaxationContext
from repro.lp.revised_simplex import SparseBoundedLP, solve_bounded_lp
from repro.lp.standard_form import to_matrix_form

SMOKE = os.environ.get("DUAL_SMOKE", "") not in ("", "0")

#: Each full-mode arm repeats the node stream until it has run this long.
MIN_ARM_SECONDS = 0.0 if SMOKE else 1.0


def _node_stream(form, n_nodes: int, seed: int = 42):
    """Seeded B&B-style bound tightenings: fix random binary subsets."""
    rng = np.random.default_rng(seed)
    binaries = np.nonzero(
        (form.integrality > 0) & (form.lb <= 0.0) & (form.ub >= 1.0)
    )[0]
    nodes = [(form.lb.copy(), form.ub.copy(), None)]  # (lb, ub, parent)
    for _ in range(n_nodes - 1):
        parent = int(rng.integers(0, len(nodes)))
        lb, ub, _ = nodes[parent]
        lb, ub = lb.copy(), ub.copy()
        j = int(rng.choice(binaries))
        if rng.random() < 0.5:
            ub[j] = 0.0  # fix to zero
        else:
            lb[j] = 1.0  # fix to one
        nodes.append((lb, ub, parent))
    return nodes


@pytest.fixture(scope="module")
def form():
    state = load_enterprise1(scale=0.05 if SMOKE else 0.08)
    problem = ConsolidationModel(state, ModelOptions()).problem
    return to_matrix_form(problem)


def _run_primal(form, nodes):
    """Baseline: primal restarts on the raw (presolve-free) arrays."""
    family = SparseBoundedLP(form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq)
    tokens: list = [None] * len(nodes)
    results = []
    t0 = time.perf_counter()
    for i, (lb, ub, parent) in enumerate(nodes):
        warm = tokens[parent] if parent is not None else None
        res = solve_bounded_lp(family, lb, ub, warm=warm)
        if res.basis is not None:
            tokens[i] = (res.basis, res.vstat)
        results.append(res)
    return results, time.perf_counter() - t0


def _run_dual(form, nodes):
    """Candidate: one context, warm nodes re-entering the dual simplex."""
    ctx = RelaxationContext(
        form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
        form.lb, form.ub, engine="builtin",
    )
    tokens: list = [None] * len(nodes)
    results = []
    t0 = time.perf_counter()
    for i, (lb, ub, parent) in enumerate(nodes):
        warm = tokens[parent] if parent is not None else None
        res = ctx.solve(lb, ub, warm=warm)
        tokens[i] = res.warm_token
        results.append(res)
    return ctx, results, time.perf_counter() - t0


def _repeat(run, form, nodes):
    """Replay ``run`` for at least :data:`MIN_ARM_SECONDS` (one pass in
    smoke mode): the last pass's output, the median per-node seconds
    over the passes, and the pass count."""
    per_node, total = [], 0.0
    while True:
        out = run(form, nodes)
        per_node.append(out[-1] / len(nodes))
        total += out[-1]
        if total >= MIN_ARM_SECONDS:
            return out, statistics.median(per_node), len(per_node)


def test_bench_dual_node_throughput(form, archive, archive_json):
    n_nodes = 12 if SMOKE else 48
    nodes = _node_stream(form, n_nodes)

    (primal, _), primal_node_s, primal_passes = _repeat(_run_primal, form, nodes)
    (dual_ctx, dual, _), dual_node_s, dual_passes = _repeat(_run_dual, form, nodes)
    primal_s, dual_s = primal_node_s * len(nodes), dual_node_s * len(nodes)

    # Identical answers node for node.
    for ref, res in zip(primal, dual):
        assert res.status == ref.status
        if ref.status == "optimal":
            assert res.objective == pytest.approx(ref.objective, rel=1e-7, abs=1e-7)

    # The candidate must actually take the new path, not silently fall
    # back to primal restarts for every node.
    assert dual_ctx.dual_entries > 0, "dual path never entered"

    ratio = primal_s / dual_s if dual_s > 0 else float("inf")
    lines = [
        "Dual-simplex node re-solve benchmark (enterprise1-scale LP)",
        f"  nodes solved                 {len(nodes)}",
        f"  matrix shape                 {form.a_ub.shape[0]}+{form.a_eq.shape[0]} rows x {form.c.shape[0]} vars",
        f"  primal restarts (raw arrays) {primal_s:.3f} s  "
        f"({len(nodes) / primal_s:.1f} nodes/s, median of {primal_passes} passes)",
        f"  dual re-solves  (context)    {dual_s:.3f} s  "
        f"({len(nodes) / dual_s:.1f} nodes/s, median of {dual_passes} passes)",
        f"  throughput ratio             {ratio:.2f}x",
        f"  dual entries / fallbacks     {dual_ctx.dual_entries} / {dual_ctx.dual_fallbacks}",
        f"  dual pivots                  {dual_ctx.dual_pivots}",
        f"  presolve rows dropped        {dual_ctx.presolve_rows_dropped}",
        f"  presolve bounds tightened    {dual_ctx.presolve_bounds_tightened}",
        f"  smoke mode                   {SMOKE}",
    ]
    archive("dual", "\n".join(lines))
    archive_json("dual", {
        "nodes": len(nodes),
        "primal_seconds": round(primal_s, 6),
        "dual_seconds": round(dual_s, 6),
        "primal_node_seconds": round(primal_node_s, 8),
        "dual_node_seconds": round(dual_node_s, 8),
        "primal_passes": primal_passes,
        "dual_passes": dual_passes,
        "throughput_ratio": round(ratio, 4),
        "dual_entries": dual_ctx.dual_entries,
        "dual_fallbacks": dual_ctx.dual_fallbacks,
        "dual_pivots": dual_ctx.dual_pivots,
        "presolve_rows_dropped": dual_ctx.presolve_rows_dropped,
        "presolve_bounds_tightened": dual_ctx.presolve_bounds_tightened,
        "smoke": SMOKE,
    })

    if SMOKE:
        assert ratio > 0.0
    else:
        assert ratio >= 1.5, f"dual node throughput {ratio:.2f}x < 1.5x"
