"""Root cuts for the 0-1 rows of the consolidation MILP.

Two families, both valid for every integer point and therefore free to
append without changing the optimum — only the search tree shrinks.
:func:`~repro.lp.branch_bound.solve_branch_and_bound` separates both in
the same root rounds and appends them to the tree's
:class:`~repro.lp.matrix_lp.RelaxationContext` (``add_cut_rows``),
which records the bound facts each derivation below relies on: 0/1
columns, and ``lb ≥ 0`` on a source row's positive columns.

*Knapsack covers* (opt-in, ``cover_cut_rounds``).  The model is packed
with knapsack rows (``Σ a_i x_i ≤ b`` over binaries — the capacity
constraints).  A *cover* is a subset C with ``Σ_{i∈C} a_i > b``: all of
C cannot be chosen, so

.. math::  Σ_{i∈C} x_i ≤ |C| − 1

is valid yet can cut off fractional LP optima.  Separation uses the
classical heuristic: to find a cover whose cut is violated at ``x*``,
greedily take items in decreasing ``x*`` order until the weights exceed
the capacity, then minimize the cover (drop items while it stays a
cover, heaviest-``x*`` kept first).

*Implied bounds* (always on, see :func:`implied_bound_pairs`).  A site
with a fixed facility cost is linked to its used-binary by one
aggregated big-M row ``Σ_g S_g X[g,j] − O_j U[j] ≤ 0``, whose
relaxation lets ``U[j]`` sit at ``load / O_j``.  Disaggregating it into
``X[g,j] − U[j] ≤ 0`` per placement closes most of that gap.  In
general: a ``≤`` row with exactly one negative coefficient, on a 0/1
column ``u``, and every positive-coefficient column bounded below by 0
forces ``a_x x ≤ b`` whenever ``u = 0``; so each 0/1 column ``x`` with
``a_x > b`` must be 0 then, which is the cut ``x ≤ u``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import CSCMatrix

#: Only cut on rows where every coefficient and variable is knapsack-like.
_EPS = 1e-9


@dataclass(frozen=True)
class CoverCut:
    """A cover cut ``Σ_{i in members} x_i <= len(members) - 1``."""

    row: int
    members: tuple[int, ...]

    @property
    def rhs(self) -> int:
        return len(self.members) - 1

    def violation(self, x: np.ndarray) -> float:
        return float(sum(x[i] for i in self.members) - self.rhs)


def binary_mask(
    integral: np.ndarray,
    lb: np.ndarray | None,
    ub: np.ndarray | None,
) -> np.ndarray:
    """Columns provably binary: integral with bounds inside ``[0, 1]``.

    Without bound arrays nothing is provably binary — a cover cut
    ``Σ x_i ≤ |C| − 1`` is *invalid* for a general integer with
    ``ub > 1`` (it can cut off integer-feasible points), so callers must
    supply bounds to get any usable rows.
    """
    integral = np.asarray(integral, dtype=bool)
    if lb is None or ub is None:
        return np.zeros_like(integral)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    return integral & (lb >= -_EPS) & (ub <= 1.0 + _EPS)


def nonnegative_mask(lb: np.ndarray) -> np.ndarray:
    """Columns bounded below by 0 (to the same tolerance as :func:`binary_mask`)."""
    return np.asarray(lb, dtype=float) >= -_EPS


def knapsack_rows(
    a_ub: CSCMatrix,
    b_ub: np.ndarray,
    integral: np.ndarray,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> list[int]:
    """Indices of rows usable for cover separation.

    A usable row has non-negative coefficients, a positive rhs, and all
    its support on binary (integral *and* 0/1-bounded) variables.  The
    bound arrays are what prove the 0/1 part; without them no row
    qualifies.
    """
    binary = binary_mask(integral, lb, ub)
    rows, cols = a_ub.indices, a_ub.nnz_cols
    m = a_ub.shape[0]
    support = np.bincount(rows, minlength=m)
    spoiled = np.bincount(
        rows[(a_ub.data < 0) | ~binary[cols]], minlength=m
    )
    usable = (support >= 2) & (np.asarray(b_ub) > _EPS) & (spoiled == 0)
    return np.flatnonzero(usable).tolist()


def separate_cover_cut(
    support: np.ndarray,
    weights: np.ndarray,
    rhs: float,
    x: np.ndarray,
    row_index: int,
    min_violation: float = 1e-4,
) -> CoverCut | None:
    """Find one violated, minimal cover cut for a knapsack row, if any.

    The row is its entry arrays: ``support`` holds its column ids in
    ascending order and ``weights`` their coefficients.
    """
    weight_of = {int(i): float(w) for i, w in zip(support, weights)}
    # Greedy: order by fractional value (desc), then weight (desc).
    order = sorted(weight_of, key=lambda i: (-x[i], -weight_of[i]))
    cover: list[int] = []
    weight = 0.0
    for i in order:
        cover.append(i)
        weight += weight_of[i]
        if weight > rhs + _EPS:
            break
    else:
        return None  # the whole support fits: no cover exists

    # Minimize: drop members (lowest x* first) while still a cover.
    cover.sort(key=lambda i: x[i])
    trimmed = list(cover)
    for i in list(cover):
        if weight - weight_of[i] > rhs + _EPS:
            trimmed.remove(i)
            weight -= weight_of[i]
    cut = CoverCut(row=row_index, members=tuple(sorted(trimmed)))
    if cut.violation(x) < min_violation:
        return None
    return cut


def separate_cuts(
    a_ub: CSCMatrix,
    b_ub: np.ndarray,
    x: np.ndarray,
    integral: np.ndarray,
    max_cuts: int = 50,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> list[CoverCut]:
    """Separate violated cover cuts at a fractional point, best first."""
    # Entries grouped by row; the stable sort keeps columns ascending.
    by_row = np.argsort(a_ub.indices, kind="stable")
    row_ptr = np.zeros(a_ub.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(a_ub.indices, minlength=a_ub.shape[0]), out=row_ptr[1:])
    cuts: list[CoverCut] = []
    for r in knapsack_rows(a_ub, b_ub, integral, lb, ub):
        ent = by_row[row_ptr[r]:row_ptr[r + 1]]
        cut = separate_cover_cut(
            a_ub.nnz_cols[ent], a_ub.data[ent], float(b_ub[r]), x, r
        )
        if cut is not None:
            cuts.append(cut)
    cuts.sort(key=lambda c: -c.violation(x))
    return cuts[:max_cuts]


def cuts_to_rows(
    cuts: list[CoverCut], num_columns: int
) -> tuple[CSCMatrix, np.ndarray]:
    """Materialize cuts as (A, b) rows for appending to A_ub/b_ub."""
    rows = [k for k, cut in enumerate(cuts) for _ in cut.members]
    cols = [i for cut in cuts for i in cut.members]
    a = CSCMatrix.from_triplets(
        rows, cols, np.ones(len(cols)), (len(cuts), num_columns)
    )
    return a, np.array([float(cut.rhs) for cut in cuts])


def implied_bound_pairs(
    a_ub: CSCMatrix,
    b_ub: np.ndarray,
    integral: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> np.ndarray:
    """All ``(x, u)`` column pairs whose cut ``x − u ≤ 0`` the rows imply.

    A source row has exactly one negative coefficient, on a binary
    column ``u``, and every positive-coefficient column has ``lb ≥ 0``;
    it yields one pair per binary positive-coefficient column ``x`` with
    ``a_x > b``.  With ``u = 0`` the row reads ``Σ a_i x_i ≤ b`` over
    non-negative terms, so ``a_x x ≤ b < a_x`` and the binary ``x`` is
    0; with ``u = 1`` the cut is the bound ``x ≤ 1``.  Returns a sorted,
    duplicate-free ``(k, 2)`` int64 array (the stored entries are
    scanned as triplets, without a per-row loop).
    """
    binary = binary_mask(integral, lb, ub)
    nonneg = nonnegative_mask(lb)
    m = a_ub.shape[0]
    rows, cols, vals = a_ub.indices, a_ub.nnz_cols, a_ub.data
    neg = vals < 0.0
    neg_count = np.bincount(rows[neg], minlength=m)
    unbounded_pos = np.bincount(rows[~neg & ~nonneg[cols]], minlength=m)
    u_of_row = np.zeros(m, dtype=np.int64)
    u_of_row[rows[neg]] = cols[neg]
    source = (neg_count == 1) & (unbounded_pos == 0) & binary[u_of_row]
    take = ~neg & source[rows] & binary[cols] & (vals > b_ub[rows] + _EPS)
    pairs = np.column_stack([cols[take], u_of_row[rows[take]]]).astype(np.int64)
    return np.unique(pairs, axis=0)


def implied_bound_rows(
    pairs: np.ndarray, num_columns: int
) -> tuple[CSCMatrix, np.ndarray]:
    """Materialize ``(x, u)`` pairs as ``x − u ≤ 0`` rows (A, b)."""
    k = pairs.shape[0]
    a = CSCMatrix.from_triplets(
        np.tile(np.arange(k), 2),
        np.concatenate([pairs[:, 0], pairs[:, 1]]),
        np.repeat([1.0, -1.0], k),
        (k, num_columns),
    )
    return a, np.zeros(k)
