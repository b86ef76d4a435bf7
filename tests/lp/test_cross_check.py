"""Three-way engine agreement on seeded random bounded LPs.

Fifty deterministic instances (mixed inequality/equality rows, finite
boxes, some infeasible by construction) must agree across three LP
solvers — the library's sparse revised simplex (``builtin``), the dense
tableau oracle of :mod:`tests.oracles` (``tableau``) and HiGHS — on
status, on the objective to 1e-6 when optimal, and on the *feasibility
of the recovered solution* (the objective matching means nothing if the
point violates a row).  This is the contract that lets the
branch-and-bound relaxation engine be swapped freely.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.matrix_lp import ArrayLPResult, RelaxationContext
from repro.lp.revised_simplex import SparseBoundedLP, solve_bounded_lp
from repro.lp.sparse import CSCMatrix

from ..oracles.reference import dense_arrays, solve_lp_arrays_reference

ENGINES = ("builtin", "tableau", "highs")


def _solve_arrays(engine: str, **kw):
    """One cold solve: the tableau arm runs the test-suite oracle."""
    if engine == "tableau":
        return solve_lp_arrays_reference(**dense_arrays(kw))
    return RelaxationContext(engine=engine, **kw).solve()


def _random_instance(seed: int) -> dict:
    rng = np.random.default_rng(1234 + seed)
    n = int(rng.integers(2, 7))
    m_ub = int(rng.integers(1, 5))
    lb = np.round(rng.uniform(-2.0, 0.0, size=n), 3)
    ub = lb + np.round(rng.uniform(0.5, 4.0, size=n), 3)
    c = np.round(rng.uniform(-5.0, 5.0, size=n), 3)
    a_ub = np.round(rng.uniform(-2.0, 2.0, size=(m_ub, n)), 3)
    x0 = rng.uniform(lb, ub)
    # Centering b_ub near A @ x0 keeps most instances feasible; the
    # negative noise tail makes a deterministic minority infeasible.
    b_ub = a_ub @ x0 + np.round(rng.uniform(-1.5, 1.5, size=m_ub), 3)
    if seed % 3 == 0:
        m_eq = int(rng.integers(1, 3))
        a_eq = np.round(rng.uniform(-1.0, 1.0, size=(m_eq, n)), 3)
        b_eq = a_eq @ x0
    else:
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    return dict(
        c=c, a_ub=CSCMatrix.from_dense(a_ub), b_ub=b_ub,
        a_eq=CSCMatrix.from_dense(a_eq), b_eq=b_eq, lb=lb, ub=ub,
    )


def _assert_feasible(x: np.ndarray, kw: dict, lb=None, ub=None, tol: float = 1e-6):
    """The recovered point must satisfy every row and every bound."""
    lb = kw["lb"] if lb is None else lb
    ub = kw["ub"] if ub is None else ub
    assert (x >= lb - tol).all(), "lower bound violated"
    assert (x <= ub + tol).all(), "upper bound violated"
    if kw["a_ub"].shape[0]:
        a_ub = kw["a_ub"].to_dense()
        assert (a_ub @ x <= kw["b_ub"] + tol).all(), "<= row violated"
    if kw["a_eq"].shape[0]:
        a_eq = kw["a_eq"].to_dense()
        assert np.abs(a_eq @ x - kw["b_eq"]).max() <= tol, "= row violated"


@pytest.mark.parametrize("seed", range(50))
def test_three_way_agreement(seed):
    kw = _random_instance(seed)
    results = {eng: _solve_arrays(eng, **kw) for eng in ENGINES}
    statuses = {eng: r.status for eng, r in results.items()}
    assert len(set(statuses.values())) == 1, f"status split: {statuses}"
    if results["highs"].status == "optimal":
        ref = results["highs"].objective
        for eng in ("builtin", "tableau"):
            assert results[eng].objective == pytest.approx(ref, rel=1e-6, abs=1e-6), eng
            _assert_feasible(results[eng].x, kw)


@pytest.mark.parametrize("seed", range(0, 50, 7))
@pytest.mark.parametrize("engine", ["builtin", "tableau"])
def test_warm_started_children_agree_with_highs(seed, engine):
    """Child solves must match fresh HiGHS solves.

    The ``builtin`` arm runs cached, warm-started children on one
    context; the ``tableau`` arm re-solves each child cold through the
    oracle, which has no context or warm start to reuse.
    """
    kw = _random_instance(seed)
    if engine == "builtin":
        ctx = RelaxationContext(engine="builtin", **kw)
        root = ctx.solve()

        def solve_child(lb, ub):
            return ctx.solve(lb, ub, warm=root.warm_token)
    else:
        root = solve_lp_arrays_reference(**dense_arrays(kw))

        def solve_child(lb, ub):
            return solve_lp_arrays_reference(**dense_arrays({**kw, "lb": lb, "ub": ub}))
    if root.status != "optimal":
        pytest.skip("root relaxation infeasible for this seed")
    rng = np.random.default_rng(9000 + seed)
    n = kw["c"].shape[0]
    for _ in range(4):
        lb = kw["lb"].copy()
        ub = kw["ub"].copy()
        j = int(rng.integers(0, n))
        mid = float(rng.uniform(lb[j], ub[j]))
        if rng.random() < 0.5:
            lb[j] = mid
        else:
            ub[j] = mid
        child = solve_child(lb, ub)
        ref = RelaxationContext(
            engine="highs", c=kw["c"], a_ub=kw["a_ub"], b_ub=kw["b_ub"],
            a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=lb, ub=ub,
        ).solve()
        assert child.status == ref.status
        if ref.status == "optimal":
            assert child.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)
            _assert_feasible(child.x, kw, lb=lb, ub=ub)


@pytest.mark.parametrize("seed", range(0, 50, 11))
@pytest.mark.parametrize("node_resolve", ["dual", "primal"])
def test_revised_warm_chains_stay_consistent(seed, node_resolve):
    """Grandchild solves warm-started off children must still match HiGHS.

    The revised core's tokens carry (basis, vstat) rather than a column
    layout, so chains of warm starts across successive bound tightenings
    exercise the phase-1 repair path on bases that drifted two solves
    back.  Run once through a context (presolve, then dual re-solves)
    and once through the primal core alone on the raw arrays, so both
    node paths stay covered.
    """
    kw = _random_instance(seed)
    if node_resolve == "dual":
        ctx = RelaxationContext(engine="builtin", **kw)
        solve_node = ctx.solve
    else:
        family = SparseBoundedLP(kw["c"], kw["a_ub"], kw["b_ub"], kw["a_eq"], kw["b_eq"])

        def solve_node(lb=kw["lb"], ub=kw["ub"], warm=None):
            res = solve_bounded_lp(family, lb, ub, warm=warm)
            return ArrayLPResult(
                res.status, res.x, res.objective, warm_token=(res.basis, res.vstat)
            )
    node = solve_node()
    if node.status != "optimal":
        pytest.skip("root relaxation infeasible for this seed")
    rng = np.random.default_rng(4200 + seed)
    lb, ub = kw["lb"].copy(), kw["ub"].copy()
    n = kw["c"].shape[0]
    for _ in range(5):
        j = int(rng.integers(0, n))
        mid = float(rng.uniform(lb[j], ub[j]))
        if rng.random() < 0.5:
            lb[j] = mid
        else:
            ub[j] = mid
        child = solve_node(lb, ub, warm=node.warm_token)
        ref = RelaxationContext(
            engine="highs", c=kw["c"], a_ub=kw["a_ub"], b_ub=kw["b_ub"],
            a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=lb, ub=ub,
        ).solve()
        assert child.status == ref.status
        if child.status != "optimal":
            break
        assert child.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)
        _assert_feasible(child.x, kw, lb=lb, ub=ub)
        node = child
    if node_resolve == "dual":
        assert ctx.dual_entries > 0, "dual path was never attempted"


@pytest.mark.parametrize("seed", range(0, 50, 9))
def test_dual_children_match_tableau_and_highs(seed):
    """Child and grandchild dual re-solves vs the tableau oracle and HiGHS.

    The tableau oracle runs presolve-free and restarts primal phase 1 at
    every node, so it cross-checks both subsystems at once: the array
    presolve threaded into the builtin context and the dual simplex the
    warm re-solves enter.  Each branch tightens one bound off the parent
    (child) and then one more off the child (grandchild), mimicking a
    depth-2 branch-and-bound dive.
    """
    kw = _random_instance(seed)
    dual_ctx = RelaxationContext(engine="builtin", **kw)
    root = dual_ctx.solve()
    assert root.status == solve_lp_arrays_reference(**dense_arrays(kw)).status
    if root.status != "optimal":
        pytest.skip("root relaxation infeasible for this seed")
    rng = np.random.default_rng(7100 + seed)
    n = kw["c"].shape[0]

    def tighten(lb, ub):
        lb, ub = lb.copy(), ub.copy()
        j = int(rng.integers(0, n))
        mid = float(rng.uniform(lb[j], ub[j]))
        if rng.random() < 0.5:
            lb[j] = mid
        else:
            ub[j] = mid
        return lb, ub

    for _ in range(3):
        lb1, ub1 = tighten(kw["lb"], kw["ub"])
        child = dual_ctx.solve(lb1, ub1, warm=root.warm_token)
        oracle = solve_lp_arrays_reference(**dense_arrays({**kw, "lb": lb1, "ub": ub1}))
        assert child.status == oracle.status
        if child.status == "optimal":
            assert child.objective == pytest.approx(
                oracle.objective, rel=1e-6, abs=1e-6
            )
            _assert_feasible(child.x, kw, lb=lb1, ub=ub1)
            lb2, ub2 = tighten(lb1, ub1)
            grand = dual_ctx.solve(lb2, ub2, warm=child.warm_token)
            ref = RelaxationContext(
                engine="highs", c=kw["c"], a_ub=kw["a_ub"], b_ub=kw["b_ub"],
                a_eq=kw["a_eq"], b_eq=kw["b_eq"], lb=lb2, ub=ub2,
            ).solve()
            assert grand.status == ref.status
            if ref.status == "optimal":
                assert grand.objective == pytest.approx(
                    ref.objective, rel=1e-6, abs=1e-6
                )
                _assert_feasible(grand.x, kw, lb=lb2, ub=ub2)
    assert dual_ctx.dual_entries > 0, "dual path was never attempted"
