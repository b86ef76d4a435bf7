"""Sparse matrix view of a :class:`~repro.lp.problem.Problem`.

:func:`to_matrix_form` gives the natural inequality form
(``A_ub x <= b_ub``, ``A_eq x = b_eq`` plus bounds) that the
``branch_bound`` backend consumes.  The blocks are
:class:`~repro.lp.sparse.CSCMatrix` views built straight from the
shared sparse assembly (:func:`repro.lp.sparse.constraint_blocks`) —
the same traversal the HiGHS backend and the fingerprint layer
consume, so the engines cannot disagree about the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expressions import Variable
from .problem import Problem
from .sparse import CSCMatrix, bound_arrays, constraint_blocks, objective_arrays


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
    a_ub: CSCMatrix
    b_ub: np.ndarray
    a_eq: CSCMatrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    objective_sign: float


def to_matrix_form(problem: Problem) -> MatrixForm:
    """CSC blocks in registration order, built from the sparse assembly.

    Row order is preserved within each block: ``a_ub`` keeps the LE/GE
    rows in model order (GE rows negated into LE form), ``a_eq`` keeps
    the equality rows in model order.
    """
    blocks = constraint_blocks(problem)
    c, c0, sign = objective_arrays(problem)
    lb, ub, integrality = bound_arrays(problem)
    a_ub, b_ub, a_eq, b_eq = blocks.split_by_sense()
    return MatrixForm(
        variables=blocks.variables,
        c=c,
        c0=c0,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        lb=lb,
        ub=ub,
        integrality=integrality,
        objective_sign=sign,
    )
