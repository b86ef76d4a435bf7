"""Array-level LP interface used by branch-and-bound nodes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lp.matrix_lp import RelaxationContext
from repro.lp.sparse import CSCMatrix


def arrays(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lb=None, ub=None):
    n = len(c)
    return dict(
        c=np.array(c, dtype=float),
        a_ub=CSCMatrix.from_dense(a_ub if a_ub is not None else np.zeros((0, n))),
        b_ub=np.array(b_ub, dtype=float) if b_ub is not None else np.zeros(0),
        a_eq=CSCMatrix.from_dense(a_eq if a_eq is not None else np.zeros((0, n))),
        b_eq=np.array(b_eq, dtype=float) if b_eq is not None else np.zeros(0),
        lb=np.array(lb, dtype=float) if lb is not None else np.zeros(n),
        ub=np.array(ub, dtype=float) if ub is not None else np.full(n, np.inf),
    )


@pytest.mark.parametrize("engine", ["highs", "builtin"])
class TestEngines:
    def test_bounded_lp(self, engine):
        kw = arrays([-1.0, -2.0], a_ub=[[1, 1]], b_ub=[4], ub=[3, 2])
        res = RelaxationContext(engine=engine, **kw).solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(-6.0)

    def test_equality_rows(self, engine):
        kw = arrays([1.0, 1.0], a_eq=[[1, -1]], b_eq=[1], ub=[5, 5])
        res = RelaxationContext(engine=engine, **kw).solve()
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)  # x=1, y=0

    def test_shifted_lower_bounds(self, engine):
        kw = arrays([1.0], lb=[2.0], ub=[9.0])
        res = RelaxationContext(engine=engine, **kw).solve()
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(2.0)

    def test_free_variable(self, engine):
        kw = arrays([1.0], a_ub=[[-1.0]], b_ub=[5.0],
                    lb=[-np.inf], ub=[np.inf])  # x >= -5
        res = RelaxationContext(engine=engine, **kw).solve()
        assert res.status == "optimal"
        assert res.x[0] == pytest.approx(-5.0)

    def test_infeasible(self, engine):
        kw = arrays([1.0], a_ub=[[1.0], [-1.0]], b_ub=[1.0, -2.0])  # x<=1, x>=2
        res = RelaxationContext(engine=engine, **kw).solve()
        assert res.status == "infeasible"

    def test_unbounded(self, engine):
        kw = arrays([-1.0])
        res = RelaxationContext(engine=engine, **kw).solve()
        assert res.status == "unbounded"

    def test_crossed_bounds_short_circuit(self, engine):
        kw = arrays([1.0], lb=[3.0], ub=[2.0])
        res = RelaxationContext(engine=engine, **kw).solve()
        assert res.status == "infeasible"


def test_unknown_engine():
    with pytest.raises(ValueError):
        RelaxationContext(engine="cplex", **arrays([1.0])).solve()


bounded = st.floats(min_value=-4, max_value=4, allow_nan=False)


@given(
    c=st.lists(bounded, min_size=2, max_size=5),
    rows=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_builtin_matches_highs_on_random_bounded_lps(c, rows, seed):
    rng = np.random.default_rng(seed)
    n = len(c)
    a_ub = rng.uniform(-2, 2, size=(rows, n))
    b_ub = rng.uniform(1, 5, size=rows)  # x=0 always feasible
    kw = arrays(c, a_ub=a_ub, b_ub=b_ub, ub=[3.0] * n)
    ours = RelaxationContext(engine="builtin", **kw).solve()
    ref = RelaxationContext(engine="highs", **kw).solve()
    assert ours.status == ref.status == "optimal"
    assert ours.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)


class TestHighsIterationLimit:
    """Regression: HiGHS status 1 must keep its message, not a bare error."""

    def test_status_one_maps_to_iteration_limit_error(self, monkeypatch):
        import scipy.optimize

        class _Res:
            status = 1
            success = False
            nit = 7
            message = "Iteration limit reached"
            x = None
            fun = None

        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **kw: _Res())
        res = RelaxationContext(engine="highs", **arrays([1.0])).solve()
        assert res.status == "error"
        assert "iteration_limit" in res.message
        assert "Iteration limit reached" in res.message
        assert res.iterations == 7

    def test_other_errors_carry_the_solver_message(self, monkeypatch):
        import scipy.optimize

        class _Res:
            status = 4
            success = False
            nit = 3
            message = "numerical difficulties"
            x = None
            fun = None

        monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **kw: _Res())
        res = RelaxationContext(engine="highs", **arrays([1.0])).solve()
        assert res.status == "error"
        assert "numerical difficulties" in res.message
