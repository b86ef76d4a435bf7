"""Dense matrix view of a :class:`~repro.lp.problem.Problem`.

:func:`to_matrix_form` gives the natural inequality form
(``A_ub x <= b_ub``, ``A_eq x = b_eq`` plus bounds) that the
``branch_bound`` and ``rounding`` backends consume.  The
matrices are a dense view **derived from** the shared sparse assembly
(:func:`repro.lp.sparse.constraint_blocks`) — the same traversal the
HiGHS backend, the revised simplex core, and the fingerprint layer
consume, so the engines cannot disagree about the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Sense, Variable
from .problem import Problem
from .sparse import bound_arrays, constraint_blocks, objective_arrays


@dataclass
class MatrixForm:
    """Inequality/equality matrix view of a problem (minimization).

    ``objective_sign`` is -1 when the original problem was a maximization
    (the cost vector has been negated); callers must flip the objective
    value back.
    """

    variables: list[Variable]
    c: np.ndarray
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    objective_sign: float


def to_matrix_form(problem: Problem) -> MatrixForm:
    """Dense matrices in registration order, derived from the sparse assembly.

    Row order is preserved within each block: ``a_ub`` keeps the LE/GE
    rows in model order (GE rows negated into LE form), ``a_eq`` keeps
    the equality rows in model order — identical to the historical
    per-constraint dense build.
    """
    blocks = constraint_blocks(problem)
    c, c0, sign = objective_arrays(problem)
    lb, ub, integrality = bound_arrays(problem)

    dense = blocks.to_dense()
    is_eq = np.fromiter(
        (s is Sense.EQ for s in blocks.senses), dtype=bool, count=blocks.n_rows
    )
    is_ge = np.fromiter(
        (s is Sense.GE for s in blocks.senses), dtype=bool, count=blocks.n_rows
    )
    a_ub = dense[~is_eq]
    b_ub = blocks.rhs[~is_eq].copy()
    ge = is_ge[~is_eq]
    a_ub[ge] *= -1.0
    b_ub[ge] *= -1.0

    return MatrixForm(
        variables=blocks.variables,
        c=c,
        c0=c0,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=dense[is_eq],
        b_eq=blocks.rhs[is_eq].copy(),
        lb=lb,
        ub=ub,
        integrality=integrality,
        objective_sign=sign,
    )
