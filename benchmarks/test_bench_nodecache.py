"""Node-relaxation cache throughput: cached context vs per-node rebuild.

Replays a seeded stream of branch-and-bound-style bound tightenings on
an enterprise1-scale consolidation LP and solves every node twice: once
through the dense reference path (full Python-loop standardization and
a cold tableau solve per node, ``solve_lp_arrays_reference`` from
:mod:`tests.oracles`) and once through the shared
:class:`RelaxationContext` with parent warm tokens.  Asserts identical
statuses/objectives node for node — the revised/dual core against the
dense oracle — and, outside smoke mode, a >= 3x node-throughput ratio;
archives both timings to ``bench_results/nodecache.txt``.

Smoke mode (``NODECACHE_SMOKE=1``, used by CI) runs a reduced node
stream and skips the timing assertion — machine load must not fail CI.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import ConsolidationModel, ModelOptions
from repro.datasets import load_enterprise1
from repro.lp.matrix_lp import RelaxationContext
from repro.lp.standard_form import to_matrix_form
from tests.oracles.reference import solve_lp_arrays_reference

SMOKE = os.environ.get("NODECACHE_SMOKE", "") not in ("", "0")


def _node_stream(form, n_nodes: int, seed: int = 42):
    """Seeded B&B-style bound tightenings: fix random binary subsets.

    Children chain off their parent (depth grows along the stream), so
    warm tokens follow the same parent→child hand-off branch-and-bound
    uses.
    """
    rng = np.random.default_rng(seed)
    binaries = np.nonzero(
        (form.integrality > 0) & (form.lb <= 0.0) & (form.ub >= 1.0)
    )[0]
    nodes = [(form.lb.copy(), form.ub.copy(), None)]  # (lb, ub, parent)
    for i in range(n_nodes - 1):
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


def test_bench_nodecache_throughput(form, archive):
    n_nodes = 12 if SMOKE else 48
    nodes = _node_stream(form, n_nodes)

    # --- baseline: restandardize from scratch at every node ------------
    t0 = time.perf_counter()
    baseline = [
        solve_lp_arrays_reference(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, lb, ub
        )
        for lb, ub, _ in nodes
    ]
    baseline_s = time.perf_counter() - t0

    # --- cached context + parent warm tokens ----------------------------
    ctx = RelaxationContext(
        form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lb, form.ub
    )
    tokens: list = [None] * len(nodes)
    t0 = time.perf_counter()
    cached = []
    for i, (lb, ub, parent) in enumerate(nodes):
        warm = tokens[parent] if parent is not None else None
        res = ctx.solve(lb, ub, warm=warm)
        tokens[i] = res.warm_token
        cached.append(res)
    cached_s = time.perf_counter() - t0

    # Identical answers node for node.
    for ref, res in zip(baseline, cached):
        assert res.status == ref.status
        if ref.status == "optimal":
            assert res.objective == pytest.approx(ref.objective, rel=1e-7, abs=1e-7)

    ratio = baseline_s / cached_s if cached_s > 0 else float("inf")
    lines = [
        "Node-relaxation cache benchmark (enterprise1-scale LP)",
        f"  nodes solved                 {len(nodes)}",
        f"  matrix shape                 {form.a_ub.shape[0]}+{form.a_eq.shape[0]} rows x {form.c.shape[0]} vars",
        f"  baseline (per-node rebuild)  {baseline_s:.3f} s  "
        f"({len(nodes) / baseline_s:.1f} nodes/s)",
        f"  cached context + warm start  {cached_s:.3f} s  "
        f"({len(nodes) / cached_s:.1f} nodes/s)",
        f"  speedup                      {ratio:.2f}x",
        f"  warm starts (hit / miss)     {ctx.warm_start_hits} / {ctx.warm_start_misses}",
        f"  smoke mode                   {SMOKE}",
    ]
    archive("nodecache", "\n".join(lines))

    if not SMOKE:
        assert ratio >= 3.0, f"node cache speedup {ratio:.2f}x < 3x"
