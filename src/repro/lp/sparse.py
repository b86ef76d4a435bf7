"""Shared sparse constraint assembly for every matrix consumer.

This module is the single path from a model to its constraint matrix;
no consumer walks ``problem.constraints`` on its own:

* :func:`iter_constraint_terms` — the canonical row traversal (one
  ``(constraint, [(col, var, coef), ...])`` pair per row, in model
  order).  The fingerprint layer hashes exactly this stream, so the
  solution-cache identity can no longer drift from what the solvers
  actually see.
* :func:`constraint_blocks` — CSR-style triplets plus senses/rhs, the
  form the HiGHS backend wraps into ``scipy.sparse``;
  :meth:`ConstraintBlocks.split_by_sense` turns them into the CSC
  ``a_ub``/``a_eq`` blocks of :func:`~repro.lp.standard_form.to_matrix_form`
  and of the rows a solve cache appends to a live context.
* :class:`CSCMatrix` — a minimal numpy-only compressed-sparse-column
  matrix, the one matrix type between the model and the LP engines
  (column FTRANs and ``A^T y`` pricing need column-major access and
  must work without scipy).  ``from_dense``/``to_dense`` adapt callers
  that hold dense data; no solve path uses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expressions import Sense, Variable
from .problem import ObjectiveSense, Problem


def iter_constraint_terms(problem: Problem, constraints=None):
    """Yield ``(constraint, [(col, var, coef), ...])`` per row, in order.

    The canonical traversal of the constraint matrix: columns are the
    variables' registration order, entries follow each expression's term
    order.  Every consumer of the matrix (CSC blocks, scipy wrapper,
    revised core, fingerprints) iterates through here, so they cannot
    disagree about what the model says.  ``constraints`` (default: all
    of the problem's) restricts the walk to those rows.
    """
    index = {var: i for i, var in enumerate(problem.variables)}
    for con in problem.constraints if constraints is None else constraints:
        yield con, [
            (index[var], var, coef) for var, coef in con.expr.terms().items()
        ]


@dataclass
class ConstraintBlocks:
    """CSR-style triplet view of a problem's constraint matrix.

    Row ``r`` owns the entries ``row_ptr[r]:row_ptr[r+1]`` of
    ``cols``/``data``; ``senses[r]``/``rhs[r]`` carry the relation.
    """

    variables: list[Variable]
    n_rows: int
    n_cols: int
    row_ptr: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    senses: list[Sense]
    rhs: np.ndarray

    def row_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Ranged form ``lower <= A x <= upper`` (what HiGHS consumes)."""
        lower = np.empty(self.n_rows)
        upper = np.empty(self.n_rows)
        for r, sense in enumerate(self.senses):
            if sense is Sense.LE:
                lower[r], upper[r] = -np.inf, self.rhs[r]
            elif sense is Sense.GE:
                lower[r], upper[r] = self.rhs[r], np.inf
            else:
                lower[r] = upper[r] = self.rhs[r]
        return lower, upper

    def split_by_sense(self) -> tuple[CSCMatrix, np.ndarray, CSCMatrix, np.ndarray]:
        """``(a_ub, b_ub, a_eq, b_eq)``: the rows as CSC blocks, by sense.

        ``a_ub`` keeps the LE/GE rows in model order, GE rows negated
        into LE form; ``a_eq`` keeps the EQ rows in model order.
        """
        is_eq = np.fromiter(
            (s is Sense.EQ for s in self.senses), dtype=bool, count=self.n_rows
        )
        is_ge = np.fromiter(
            (s is Sense.GE for s in self.senses), dtype=bool, count=self.n_rows
        )
        data = np.where(is_ge[self.rows], -self.data, self.data)
        rhs = np.where(is_ge, -self.rhs, self.rhs)
        a = CSCMatrix.from_triplets(
            self.rows, self.cols, data, (self.n_rows, self.n_cols)
        )
        return a.take_rows(~is_eq), rhs[~is_eq], a.take_rows(is_eq), rhs[is_eq]


def constraint_blocks(problem: Problem, constraints=None) -> ConstraintBlocks:
    """Assemble the constraint matrix sparsely, one traversal, no dense step.

    ``constraints`` (default: all of the problem's) assembles just those
    rows, e.g. the ones appended to a model since its last build.
    """
    variables = problem.variables
    cols: list[int] = []
    data: list[float] = []
    row_ptr: list[int] = [0]
    senses: list[Sense] = []
    rhs: list[float] = []
    for con, terms in iter_constraint_terms(problem, constraints):
        for col, _var, coef in terms:
            cols.append(col)
            data.append(coef)
        row_ptr.append(len(cols))
        senses.append(con.sense)
        rhs.append(float(con.rhs))
    n_rows = len(senses)
    row_ptr_arr = np.asarray(row_ptr, dtype=np.int64)
    rows = np.repeat(
        np.arange(n_rows, dtype=np.int64), np.diff(row_ptr_arr)
    )
    return ConstraintBlocks(
        variables=variables,
        n_rows=n_rows,
        n_cols=len(variables),
        row_ptr=row_ptr_arr,
        rows=rows,
        cols=np.asarray(cols, dtype=np.int64),
        data=np.asarray(data, dtype=float),
        senses=senses,
        rhs=np.asarray(rhs, dtype=float),
    )


def objective_arrays(problem: Problem) -> tuple[np.ndarray, float, float]:
    """``(c, c0, sign)`` in minimize space, variables in registration order."""
    variables = problem.variables
    index = {var: i for i, var in enumerate(variables)}
    sign = 1.0 if problem.sense == ObjectiveSense.MINIMIZE else -1.0
    c = np.zeros(len(variables))
    for var, coef in problem.objective.terms().items():
        c[index[var]] = sign * coef
    return c, sign * problem.objective.constant, sign


def bound_arrays(problem: Problem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(lb, ub, integrality)`` arrays in registration order."""
    variables = problem.variables
    lb = np.array([-np.inf if v.lb is None else v.lb for v in variables])
    ub = np.array([np.inf if v.ub is None else v.ub for v in variables])
    integrality = np.array([1 if v.is_integral else 0 for v in variables])
    return lb, ub, integrality


def scatter_add(index: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """``out[index[i]] += weights[i]`` for ``i`` in order, from zeros.

    The same sums, in the same order, as ``np.add.at``, at a fraction of
    its call cost.  (``bincount`` returns integers for empty input.)
    """
    return np.bincount(index, weights=weights, minlength=size).astype(float, copy=False)


@dataclass
class CSCMatrix:
    """Minimal numpy-only compressed-sparse-column matrix.

    Just enough for the LP layer: column slicing (FTRAN of one entering
    column), ``A @ x`` (rhs assembly), ``A^T y`` (pricing), row
    selection and row stacking, all vectorized.  Not a general sparse
    library.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    #: Column id of each stored nonzero (lazily built scatter index).
    _nnz_cols: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        dense = np.asarray(dense, dtype=float)
        rows, cols = np.nonzero(dense)
        return cls.from_triplets(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_triplets(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
    ) -> "CSCMatrix":
        """CSC of ``(row, col, value)`` triplets, one per stored entry.

        Entries are ordered by column, then row, as :meth:`from_dense`
        orders them; triplets must not repeat a ``(row, col)`` pair.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        order = np.lexsort((rows, cols))
        indptr = np.zeros(shape[1] + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=shape[1]), out=indptr[1:])
        return cls(
            shape=(int(shape[0]), int(shape[1])),
            indptr=indptr,
            indices=rows[order],
            data=np.asarray(data, dtype=float)[order],
        )

    @staticmethod
    def vstack(top: "CSCMatrix", bottom: "CSCMatrix") -> "CSCMatrix":
        """Stack two blocks row-wise (bottom rows offset by top height)."""
        ncols = top.shape[1]
        if bottom.shape[1] != ncols:
            raise ValueError("stacked blocks must span the same columns")
        if bottom.shape[0] == 0:
            return top
        if top.shape[0] == 0:
            return bottom
        cols = np.concatenate([top.nnz_cols, bottom.nnz_cols])
        # Stable: within each column the top block's entries stay first.
        order = np.argsort(cols, kind="stable")
        indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
        return CSCMatrix(
            shape=(top.shape[0] + bottom.shape[0], ncols),
            indptr=indptr,
            indices=np.concatenate([top.indices, bottom.indices + top.shape[0]])[order],
            data=np.concatenate([top.data, bottom.data])[order],
        )

    @property
    def nnz_cols(self) -> np.ndarray:
        if self._nnz_cols is None:
            self._nnz_cols = np.repeat(
                np.arange(self.shape[1], dtype=np.int64), np.diff(self.indptr)
            )
        return self._nnz_cols

    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column ``j``."""
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_nnz(self) -> np.ndarray:
        """Stored-entry count per row (array presolve's singleton probe)."""
        return np.bincount(self.indices, minlength=self.shape[0])

    def take_rows(self, keep: np.ndarray) -> "CSCMatrix":
        """Submatrix of the rows where ``keep`` is True, renumbered densely.

        Used to split the model's rows by sense and to retire the rows
        the array presolve drops, without a dense intermediate.
        """
        keep = np.asarray(keep, dtype=bool)
        new_row = np.cumsum(keep) - 1  # old row id -> new row id
        mask = keep[self.indices]
        counts = np.bincount(self.nnz_cols[mask], minlength=self.shape[1])
        indptr = np.zeros(self.shape[1] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSCMatrix(
            shape=(int(keep.sum()), self.shape[1]),
            indptr=indptr,
            indices=new_row[self.indices[mask]].astype(np.int64),
            data=self.data[mask],
        )

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` in O(nnz), accumulated in stored-entry order."""
        return scatter_add(self.indices, self.data * x[self.nnz_cols], self.shape[0])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``A.T @ y`` in O(nnz), accumulated in stored-entry order."""
        return scatter_add(self.nnz_cols, self.data * y[self.indices], self.shape[1])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        if self.data.size:
            dense[self.indices, self.nnz_cols] = self.data
        return dense
