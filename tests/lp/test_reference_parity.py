"""Pin the historical reference path against the shared sparse assembly.

``solve_lp_arrays_reference`` (:mod:`tests.oracles.reference`, the
per-row Python-loop standardization kept from before the node cache) is
the oracle every cross-check leans on, and ``to_matrix_form`` now
*derives* its dense matrices from
:func:`repro.lp.sparse.constraint_blocks`.  These tests pin the two
together so the baseline cannot silently drift from what the sparse
assembly feeds the engines:

* the dense view derived from the sparse blocks must be entry-for-entry
  identical to the historical direct dense build (row order, GE
  negation, interleave included);
* reference solves must agree with the revised core on the seeded
  cross-check instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lp.expressions import Sense
from repro.lp.matrix_lp import solve_lp_arrays
from repro.lp.problem import ObjectiveSense, Problem
from repro.lp.sparse import (
    CSCMatrix,
    bound_arrays,
    constraint_blocks,
    objective_arrays,
)
from repro.lp.standard_form import to_matrix_form

from ..oracles.reference import solve_lp_arrays_reference
from .test_cross_check import _random_instance


def _seeded_problem(seed: int) -> Problem:
    """A small model with mixed senses, free vars, and a maximize sign."""
    rng = np.random.default_rng(7700 + seed)
    prob = Problem(
        f"parity{seed}",
        sense=ObjectiveSense.MAXIMIZE if seed % 2 else ObjectiveSense.MINIMIZE,
    )
    n = int(rng.integers(3, 8))
    xs = []
    for i in range(n):
        kind = rng.random()
        if kind < 0.25:
            xs.append(prob.add_variable(f"x{i}", lb=None))  # free
        elif kind < 0.5:
            xs.append(prob.add_variable(f"x{i}", lb=0.0, ub=float(rng.uniform(1, 4))))
        else:
            xs.append(prob.add_binary(f"x{i}"))
    for r in range(int(rng.integers(2, 6))):
        terms = sum(
            float(np.round(rng.uniform(-2, 2), 3)) * x
            for x in xs
            if rng.random() < 0.7
        )
        if isinstance(terms, (int, float)):  # no variable drawn
            terms = 1.0 * xs[0]
        rhs = float(np.round(rng.uniform(-3, 3), 3))
        sense = [Sense.LE, Sense.GE, Sense.EQ][r % 3]
        if sense is Sense.LE:
            prob.add_constraint(terms <= rhs)
        elif sense is Sense.GE:
            prob.add_constraint(terms >= rhs)
        else:
            prob.add_constraint(terms == rhs)
    prob.set_objective(
        sum(float(np.round(rng.uniform(-5, 5), 3)) * x for x in xs)
    )
    return prob


def _historical_dense_build(problem: Problem):
    """The pre-unification dense build, kept verbatim as the oracle."""
    variables = problem.variables
    index = {var: i for i, var in enumerate(variables)}
    n = len(variables)
    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []
    for con in problem.constraints:
        row = np.zeros(n)
        for var, coef in con.expr.terms().items():
            row[index[var]] = coef
        if con.sense is Sense.LE:
            ub_rows.append(row)
            ub_rhs.append(con.rhs)
        elif con.sense is Sense.GE:
            ub_rows.append(-row)
            ub_rhs.append(-con.rhs)
        else:
            eq_rows.append(row)
            eq_rhs.append(con.rhs)
    a_ub = np.array(ub_rows).reshape(len(ub_rows), n) if ub_rows else np.zeros((0, n))
    a_eq = np.array(eq_rows).reshape(len(eq_rows), n) if eq_rows else np.zeros((0, n))
    return a_ub, np.array(ub_rhs), a_eq, np.array(eq_rhs)


class TestDenseViewDerivation:
    @pytest.mark.parametrize("seed", range(12))
    def test_matrix_form_matches_historical_dense_build(self, seed):
        prob = _seeded_problem(seed)
        form = to_matrix_form(prob)
        a_ub, b_ub, a_eq, b_eq = _historical_dense_build(prob)
        np.testing.assert_array_equal(form.a_ub, a_ub)
        np.testing.assert_array_equal(form.b_ub, b_ub)
        np.testing.assert_array_equal(form.a_eq, a_eq)
        np.testing.assert_array_equal(form.b_eq, b_eq)

    @pytest.mark.parametrize("seed", range(12))
    def test_sparse_block_views_are_consistent(self, seed):
        prob = _seeded_problem(seed)
        blocks = constraint_blocks(prob)
        dense = blocks.to_dense()
        np.testing.assert_array_equal(CSCMatrix.from_blocks(blocks).to_dense(), dense)
        np.testing.assert_array_equal(CSCMatrix.from_dense(dense).to_dense(), dense)
        # Objective/bounds come off the same traversal order.
        c, _c0, sign = objective_arrays(prob)
        lb, ub, integrality = bound_arrays(prob)
        assert c.shape == (blocks.n_cols,)
        assert lb.shape == ub.shape == integrality.shape == (blocks.n_cols,)
        assert sign in (1.0, -1.0)

    def test_csc_matvec_rmatvec_match_dense(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(7, 5))
        dense[rng.random(dense.shape) < 0.5] = 0.0
        mat = CSCMatrix.from_dense(dense)
        x = rng.normal(size=5)
        y = rng.normal(size=7)
        np.testing.assert_allclose(mat.matvec(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(mat.rmatvec(y), dense.T @ y, atol=1e-12)


class TestReferenceStandardization:
    @pytest.mark.parametrize("seed", range(0, 50, 5))
    def test_reference_solves_agree_with_revised_core(self, seed):
        kw = _random_instance(seed)
        ref = solve_lp_arrays_reference(**kw)
        rev = solve_lp_arrays(engine="builtin", **kw)
        assert ref.status == rev.status
        if ref.status == "optimal":
            assert rev.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)
