"""Array-level presolve over the CSC constraint blocks.

The repository's one presolver.  It runs inside every
:class:`~repro.lp.matrix_lp.RelaxationContext`, which the
``branch_bound`` backend builds.  HiGHS presolves inside its own call.
It works directly on the ``(a_ub, b_ub, a_eq, b_eq, lb, ub)`` data
that the context already carries — ``a_ub``
and ``a_eq`` are :class:`~repro.lp.sparse.CSCMatrix` blocks, and each
round is a handful of vectorized scatters over their entry arrays:
O(nnz), no Python per-row loops.

Reductions (classic and exact):

* **empty rows** are feasibility-checked and dropped;
* **singleton rows** become bound updates and are dropped;
* **redundant inequality rows** (max activity ≤ rhs from the bounds
  alone) are dropped;
* **activity-based bound tightening** propagates each row's residual
  min/max activity onto every support column;
* **integer bound snapping** pulls fractional bounds of integral
  columns onto the integer hull;
* optional **empty-column fixing** moves cost-only columns to their
  attractive bound (one-shot solves only — never under branch and
  bound, where a later branch could tighten the column again).

Branch-and-bound validity: every reduction above is derived from the
*root* bounds, so it stays valid for any node whose box is contained in
the root box.  Callers re-solving with per-node bounds must intersect
them with the tightened root bounds (``result.lb``/``result.ub``) —
dropped singleton rows survive only through those bounds — and must
rebuild the presolve if bounds are ever *loosened* past the root box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .sparse import CSCMatrix

#: Infeasibility declarations need this much slack (conservative, above
#: the simplex/HiGHS feasibility tolerances, so presolve never calls
#: "infeasible" on a point a backend would accept).
_FEAS_TOL = 1e-7
#: Minimum improvement before a tightened bound is recorded.
_IMPROVE_TOL = 1e-9
#: Integrality recognition tolerance (matches the branch-and-bound one).
_INT_TOL = 1e-6


@dataclass
class ArrayPresolveResult:
    """Reductions found by :func:`presolve_arrays`.

    ``keep_ub``/``keep_eq`` are row masks over the original blocks;
    ``lb``/``ub`` are the tightened root bounds.  The counters feed the
    ``presolve_*`` fields of :class:`~repro.telemetry.SolveStats`.
    """

    keep_ub: np.ndarray
    keep_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    rows_dropped: int = 0
    singleton_rows: int = 0
    bounds_tightened: int = 0
    cols_fixed: int = 0
    rounds: int = 0
    infeasible: bool = False
    message: str = ""

    @property
    def reduced(self) -> bool:
        return bool(self.rows_dropped or self.bounds_tightened or self.cols_fixed)


@dataclass
class _Block:
    """Live-row bookkeeping for one constraint block."""

    rows: np.ndarray  # entry -> row id
    cols: np.ndarray  # entry -> column id
    data: np.ndarray  # entry -> coefficient (never zero)
    rhs: np.ndarray
    keep: np.ndarray  # live-row mask
    is_eq: bool
    m: int = field(init=False)

    def __post_init__(self) -> None:
        self.m = self.rhs.shape[0]


def _activity(block: _Block, lb: np.ndarray, ub: np.ndarray):
    """Min/max row activities split into finite sums and ±inf counts."""
    ent = block.keep[block.rows]
    r = block.rows[ent]
    j = block.cols[ent]
    a = block.data[ent]
    lo_c = np.where(a > 0, a * lb[j], a * ub[j])
    hi_c = np.where(a > 0, a * ub[j], a * lb[j])
    lo_inf = ~np.isfinite(lo_c)
    hi_inf = ~np.isfinite(hi_c)
    lo_fin = np.where(lo_inf, 0.0, lo_c)
    hi_fin = np.where(hi_inf, 0.0, hi_c)
    m = block.m
    lo_sum = np.zeros(m)
    hi_sum = np.zeros(m)
    lo_cnt = np.zeros(m, dtype=np.int64)
    hi_cnt = np.zeros(m, dtype=np.int64)
    nnz = np.zeros(m, dtype=np.int64)
    if r.size:
        np.add.at(lo_sum, r, lo_fin)
        np.add.at(hi_sum, r, hi_fin)
        np.add.at(lo_cnt, r, lo_inf)
        np.add.at(hi_cnt, r, hi_inf)
        np.add.at(nnz, r, 1)
    return (r, j, a, lo_fin, hi_fin, lo_inf, hi_inf), (
        lo_sum,
        hi_sum,
        lo_cnt,
        hi_cnt,
        nnz,
    )


class _Infeasible(Exception):
    pass


def _apply_candidates(
    cand_lb: np.ndarray,
    cand_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> int:
    """Fold candidate bounds into (lb, ub); returns tightenings applied."""
    tightened = 0
    up = cand_lb > lb + _IMPROVE_TOL
    if up.any():
        lb[up] = cand_lb[up]
        tightened += int(up.sum())
    down = cand_ub < ub - _IMPROVE_TOL
    if down.any():
        ub[down] = cand_ub[down]
        tightened += int(down.sum())
    return tightened


def _process_block(
    block: _Block,
    lb: np.ndarray,
    ub: np.ndarray,
    result: ArrayPresolveResult,
) -> bool:
    """One reduction pass over a block; returns True if anything changed."""
    changed = False
    n = lb.shape[0]
    (r, j, a, lo_fin, hi_fin, lo_inf, hi_inf), (
        lo_sum,
        hi_sum,
        lo_cnt,
        hi_cnt,
        nnz,
    ) = _activity(block, lb, ub)
    b = block.rhs
    live = block.keep

    # Infeasibility from activities alone.
    bad = live & (lo_cnt == 0) & (lo_sum > b + _FEAS_TOL)
    if block.is_eq:
        bad |= live & (hi_cnt == 0) & (hi_sum < b - _FEAS_TOL)
    if bad.any():
        raise _Infeasible(
            f"row {int(np.flatnonzero(bad)[0])} unsatisfiable from bounds"
        )

    # Empty rows: feasibility already established above for <=; for ==
    # both directions were checked, so surviving empties just drop.
    empty = live & (nnz == 0)
    if empty.any():
        block.keep[empty] = False
        result.rows_dropped += int(empty.sum())
        changed = True

    # Singleton rows -> bound updates, then drop.
    single = live & (nnz == 1)
    if single.any():
        sel = single[r]
        rs, js, av = r[sel], j[sel], a[sel]
        rhs = b[rs]
        val = rhs / av
        if block.is_eq:
            if ((val < lb[js] - _FEAS_TOL) | (val > ub[js] + _FEAS_TOL)).any():
                raise _Infeasible("singleton equality outside column bounds")
            cand_lb = np.full(n, -np.inf)
            cand_ub = np.full(n, np.inf)
            np.maximum.at(cand_lb, js, val)
            np.minimum.at(cand_ub, js, val)
            # Two equalities fixing one column differently cross here and
            # are caught by the caller's lb > ub check.
        else:
            cand_lb = np.full(n, -np.inf)
            cand_ub = np.full(n, np.inf)
            pos = av > 0
            if pos.any():
                np.minimum.at(cand_ub, js[pos], val[pos])
            if (~pos).any():
                np.maximum.at(cand_lb, js[~pos], val[~pos])
        result.bounds_tightened += _apply_candidates(cand_lb, cand_ub, lb, ub)
        block.keep[single] = False
        dropped = int(single.sum())
        result.rows_dropped += dropped
        result.singleton_rows += dropped
        changed = True

    # Redundant inequality rows: max activity can never exceed the rhs.
    if not block.is_eq:
        redundant = block.keep & (nnz >= 2) & (hi_cnt == 0) & (hi_sum <= b + _IMPROVE_TOL)
        if redundant.any():
            block.keep[redundant] = False
            result.rows_dropped += int(redundant.sum())
            changed = True

    # Activity-based tightening on the remaining multi-column rows.
    ent_live = block.keep[r] & (nnz[r] >= 2)
    if ent_live.any():
        rs, js, av = r[ent_live], j[ent_live], a[ent_live]
        cand_lb = np.full(n, -np.inf)
        cand_ub = np.full(n, np.inf)
        # Residual minimum activity of the row, excluding this entry.
        rest_cnt = lo_cnt[rs] - lo_inf[ent_live]
        rest_sum = lo_sum[rs] - lo_fin[ent_live]
        usable = rest_cnt == 0
        if usable.any():
            quot = (b[rs[usable]] - rest_sum[usable]) / av[usable]
            pos = av[usable] > 0
            if pos.any():
                np.minimum.at(cand_ub, js[usable][pos], quot[pos])
            if (~pos).any():
                np.maximum.at(cand_lb, js[usable][~pos], quot[~pos])
        if block.is_eq:
            # Equalities also bound from the residual *maximum* activity.
            rest_cnt = hi_cnt[rs] - hi_inf[ent_live]
            rest_sum = hi_sum[rs] - hi_fin[ent_live]
            usable = rest_cnt == 0
            if usable.any():
                quot = (b[rs[usable]] - rest_sum[usable]) / av[usable]
                pos = av[usable] > 0
                if pos.any():
                    np.maximum.at(cand_lb, js[usable][pos], quot[pos])
                if (~pos).any():
                    np.minimum.at(cand_ub, js[usable][~pos], quot[~pos])
        applied = _apply_candidates(cand_lb, cand_ub, lb, ub)
        if applied:
            result.bounds_tightened += applied
            changed = True
    return changed


def _snap_integer_bounds(
    lb: np.ndarray,
    ub: np.ndarray,
    integral: np.ndarray,
    result: ArrayPresolveResult,
) -> bool:
    """Pull integral columns' fractional bounds onto the integer hull."""
    changed = False
    finite_lo = integral & np.isfinite(lb)
    if finite_lo.any():
        snapped = np.ceil(lb[finite_lo] - _INT_TOL)
        moved = snapped > lb[finite_lo] + _IMPROVE_TOL
        if moved.any():
            idx = np.flatnonzero(finite_lo)[moved]
            lb[idx] = snapped[moved]
            result.bounds_tightened += int(moved.sum())
            changed = True
    finite_hi = integral & np.isfinite(ub)
    if finite_hi.any():
        snapped = np.floor(ub[finite_hi] + _INT_TOL)
        moved = snapped < ub[finite_hi] - _IMPROVE_TOL
        if moved.any():
            idx = np.flatnonzero(finite_hi)[moved]
            ub[idx] = snapped[moved]
            result.bounds_tightened += int(moved.sum())
            changed = True
    return changed


def _fix_empty_columns(
    c: np.ndarray,
    blocks: list[_Block],
    lb: np.ndarray,
    ub: np.ndarray,
    integral: np.ndarray | None,
    result: ArrayPresolveResult,
) -> None:
    """Fix columns that appear in no live row at their attractive bound.

    Only called on one-shot solves: under branch and bound a later node
    could tighten the column past the value chosen here.
    """
    n = lb.shape[0]
    col_cnt = np.zeros(n, dtype=np.int64)
    for block in blocks:
        ent = block.keep[block.rows]
        if ent.any():
            np.add.at(col_cnt, block.cols[ent], 1)
    for jj in np.flatnonzero((col_cnt == 0) & (ub - lb > _IMPROVE_TOL)):
        cost = c[jj]
        if cost > _IMPROVE_TOL:
            target = lb[jj]
        elif cost < -_IMPROVE_TOL:
            target = ub[jj]
        else:
            target = lb[jj] if np.isfinite(lb[jj]) else ub[jj]
            if not np.isfinite(target):
                target = 0.0
        if not np.isfinite(target):
            continue  # cost pulls to an open end: let the solver prove unbounded
        if integral is not None and integral[jj]:
            if abs(target - round(target)) > _INT_TOL:
                continue
            target = float(round(target))
        lb[jj] = ub[jj] = target
        result.cols_fixed += 1


def presolve_arrays(
    c: np.ndarray,
    a_ub: CSCMatrix,
    b_ub: np.ndarray,
    a_eq: CSCMatrix,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    integrality: np.ndarray | None = None,
    fix_empty_columns: bool = False,
    max_rounds: int = 4,
) -> ArrayPresolveResult:
    """Reduce an array-form LP/MILP; exact, bound-box monotone.

    Returns row keep-masks plus tightened bounds; the caller slices its
    blocks with :meth:`CSCMatrix.take_rows`.
    """
    c = np.asarray(c, dtype=float)
    lb = np.array(lb, dtype=float, copy=True)
    ub = np.array(ub, dtype=float, copy=True)
    n = lb.shape[0]
    integral = None
    if integrality is not None:
        integral = np.asarray(integrality).astype(bool)

    blocks: list[_Block] = []
    for a, b, is_eq in ((a_ub, b_ub, False), (a_eq, b_eq, True)):
        rhs = np.asarray(b, dtype=float)
        blocks.append(
            _Block(
                rows=a.indices,
                cols=a.nnz_cols,
                data=a.data,
                rhs=rhs,
                keep=np.ones(rhs.shape[0], dtype=bool),
                is_eq=is_eq,
            )
        )

    result = ArrayPresolveResult(
        keep_ub=blocks[0].keep, keep_eq=blocks[1].keep, lb=lb, ub=ub
    )

    def _crossing_check() -> None:
        crossed = lb > ub + _FEAS_TOL
        if crossed.any():
            raise _Infeasible(
                f"column {int(np.flatnonzero(crossed)[0])} has crossing "
                "presolved bounds"
            )
        # Sub-tolerance crossings are collapsed so downstream activity
        # math never sees lb > ub.
        tiny = lb > ub
        if tiny.any():
            mid = 0.5 * (lb[tiny] + ub[tiny])
            lb[tiny] = mid
            ub[tiny] = mid

    try:
        _crossing_check()
        if integral is not None:
            _snap_integer_bounds(lb, ub, integral, result)
            _crossing_check()
        for round_index in range(max_rounds):
            result.rounds = round_index + 1
            changed = False
            for block in blocks:
                changed |= _process_block(block, lb, ub, result)
            if integral is not None:
                changed |= _snap_integer_bounds(lb, ub, integral, result)
            _crossing_check()
            if not changed:
                break
        if fix_empty_columns:
            _fix_empty_columns(c, blocks, lb, ub, integral, result)
    except _Infeasible as exc:
        result.infeasible = True
        result.message = str(exc)
    return result
