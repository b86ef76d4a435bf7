"""Root cuts for the 0-1 rows of the consolidation MILP.

Two families, both valid for every integer point and therefore free to
append without changing the optimum — only the search tree shrinks.

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


def knapsack_rows(
    a_ub: np.ndarray,
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
    rows = []
    for r in range(a_ub.shape[0]):
        row = a_ub[r]
        support = np.nonzero(row)[0]
        if support.size < 2:
            continue
        if b_ub[r] <= _EPS:
            continue
        if (row[support] < 0).any():
            continue
        if not binary[support].all():
            continue
        rows.append(r)
    return rows


def separate_cover_cut(
    row: np.ndarray,
    rhs: float,
    x: np.ndarray,
    row_index: int,
    min_violation: float = 1e-4,
) -> CoverCut | None:
    """Find one violated, minimal cover cut for a knapsack row, if any."""
    support = np.nonzero(row)[0]
    # Greedy: order by fractional value (desc), then weight (desc).
    order = sorted(support, key=lambda i: (-x[i], -row[i]))
    cover: list[int] = []
    weight = 0.0
    for i in order:
        cover.append(int(i))
        weight += float(row[i])
        if weight > rhs + _EPS:
            break
    else:
        return None  # the whole support fits: no cover exists

    # Minimize: drop members (lowest x* first) while still a cover.
    cover.sort(key=lambda i: x[i])
    trimmed = list(cover)
    for i in list(cover):
        if weight - row[i] > rhs + _EPS:
            trimmed.remove(i)
            weight -= float(row[i])
    cut = CoverCut(row=row_index, members=tuple(sorted(trimmed)))
    if cut.violation(x) < min_violation:
        return None
    return cut


def separate_cuts(
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    x: np.ndarray,
    integral: np.ndarray,
    max_cuts: int = 50,
    lb: np.ndarray | None = None,
    ub: np.ndarray | None = None,
) -> list[CoverCut]:
    """Separate violated cover cuts at a fractional point, best first."""
    cuts: list[CoverCut] = []
    for r in knapsack_rows(a_ub, b_ub, integral, lb, ub):
        cut = separate_cover_cut(a_ub[r], float(b_ub[r]), x, r)
        if cut is not None:
            cuts.append(cut)
    cuts.sort(key=lambda c: -c.violation(x))
    return cuts[:max_cuts]


def cuts_to_rows(
    cuts: list[CoverCut], num_columns: int
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize cuts as (A, b) rows for appending to A_ub/b_ub."""
    a = np.zeros((len(cuts), num_columns))
    b = np.zeros(len(cuts))
    for k, cut in enumerate(cuts):
        for i in cut.members:
            a[k, i] = 1.0
        b[k] = cut.rhs
    return a, b


def implied_bound_pairs(
    a_ub: np.ndarray,
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
    duplicate-free ``(k, 2)`` int64 array (rows are scanned as triplets,
    without a per-row loop).
    """
    binary = binary_mask(integral, lb, ub)
    lb = np.asarray(lb, dtype=float)
    m = a_ub.shape[0]
    rows, cols = np.nonzero(a_ub)
    vals = a_ub[rows, cols]
    neg = vals < 0.0
    neg_count = np.bincount(rows[neg], minlength=m)
    unbounded_pos = np.bincount(rows[~neg & (lb[cols] < -_EPS)], minlength=m)
    u_of_row = np.zeros(m, dtype=np.int64)
    u_of_row[rows[neg]] = cols[neg]
    source = (neg_count == 1) & (unbounded_pos == 0) & binary[u_of_row]
    take = ~neg & source[rows] & binary[cols] & (vals > b_ub[rows] + _EPS)
    pairs = np.column_stack([cols[take], u_of_row[rows[take]]]).astype(np.int64)
    return np.unique(pairs, axis=0)


def implied_bound_rows(
    pairs: np.ndarray, num_columns: int
) -> tuple[np.ndarray, np.ndarray]:
    """Materialize ``(x, u)`` pairs as ``x − u ≤ 0`` rows (A, b)."""
    k = pairs.shape[0]
    a = np.zeros((k, num_columns))
    a[np.arange(k), pairs[:, 0]] = 1.0
    a[np.arange(k), pairs[:, 1]] = -1.0
    return a, np.zeros(k)
