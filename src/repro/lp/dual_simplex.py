"""Bounded-variable dual simplex for near-free branch-and-bound re-solves.

A branch-and-bound child differs from its parent by exactly one bound.
The parent's optimal basis therefore stays **dual feasible** for the
child (reduced costs depend on the basis and costs only, not on
bounds), while at most the branched variable's basic value slips
outside its new bound.  The dual simplex starts from precisely that
state: it walks dual-feasible bases, driving out primal infeasibility
one leaving row at a time — typically a handful of pivots where the
primal engine would re-prove feasibility with a 40–100-pivot phase 1.
Infeasible nodes are cheapest of all: the first unrepairable row is a
Farkas certificate and the solve stops immediately.

Shared machinery: this solver subclasses the primal
:class:`~repro.lp.revised_simplex._Solver`, reusing the CSC column
FTRAN/BTRAN kernel, the dense explicit basis inverse
(``numpy.linalg.inv``) with compact product-form updates (one shared
pivot update), and the warm-start validation.  What it adds:

* **Devex row pricing.**  The leaving row maximizes
  ``violation^2 / w`` over reference weights updated Forrest–Goldfarb
  style from each pivot column; a stall watchdog falls back to
  Bland-like lowest-index selection exactly as the primal engine does.
* **Bound-flipping ratio test.**  Breakpoints are walked in dual-step
  order; boxed nonbasics whose breakpoint is passed flip to their
  opposite bound (one aggregated FTRAN repairs ``x_B``), shrinking the
  leaving row's violation before the blocking column finally pivots in.
  Exhausting every breakpoint with violation left over proves the LP
  infeasible.
* **Carried reduced costs.**  The walk prices once at entry and then
  updates the reduced costs by the pivot row it already holds
  (``d -= t_q * row``, basic entries zeroed); it prices afresh only
  after a refactorization.
* **Fold-and-residual gate.**  An optimal walk with ``k`` updates
  pending folds them into a new explicit inverse (``binv + U V^T``,
  O(k m^2)) instead of refactorizing (O(m^3)) and recomputes ``x_B``
  through it.  The inverse's *age* (updates folded in since its last
  factorization) travels with it through the caller's factor pool; a
  true refactorization happens when the age would reach
  :data:`~repro.lp.revised_simplex.REFACTOR_INTERVAL` and on every
  retry.  Besides the bound and fresh dual-feasibility checks, an
  optimum reached through an aged inverse is accepted only when its
  primal and dual residuals, computed from the sparse columns rather
  than through the inverse, are within
  :data:`~repro.lp.revised_simplex.RESIDUAL_TOL`; otherwise the solver
  refactors and walks again.  The duals and the inverse an optimum
  hands on are therefore checked, not assumed.
* **Warm-only entry.**  Without a valid ``(basis, vstat)`` token the
  solver refuses (``dual_lost``) and the caller uses the primal engine;
  reduced-cost sign violations at entry are repaired by bound flips
  when the opposite bound is finite, else the solve reports
  ``dual_infeasible`` and again falls back.  An optional cached basis
  inverse (keyed by the basis, see the caller's factor pool) and its
  age skip the O(m^3) entry refactorization entirely.
* **Slack-basis roots.**  The all-slack pair
  (:func:`~repro.lp.revised_simplex.slack_basis`) is a valid token like
  any other, and with the identity as its inverse the entry costs no
  factorization.  A one-shot branch-and-bound root enters here that way
  (the caller passes the pair explicitly; an absent token still
  refuses).  The bound flips above make the slack start dual feasible
  whenever every column's cost points to a finite bound; a column whose
  cost points to an infinite one reports ``dual_infeasible``.

Fixed columns (``lb == ub`` — equality slacks and branch-fixed
binaries) carry unconstrained reduced costs; they are excluded from the
dual feasibility test and from the ratio test, which would otherwise
stall on their meaningless sign.  The rule is the primal engine's
(:data:`~repro.lp.revised_simplex.FIXED_TOL`, the shared ``_fixed``
mask), which never prices them either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .revised_simplex import (
    AT_LOWER,
    AT_UPPER,
    BASIC,
    FEAS_TOL,
    FREE,
    PIV_TOL,
    REFACTOR_INTERVAL,
    RESIDUAL_TOL,
    RevisedResult,
    SparseBoundedLP,
    _Solver,
)

#: Reduced-cost sign slack tolerated at warm entry (looser than DJ_TOL:
#: the parent stopped pricing at DJ_TOL, so its token can carry up to
#: that much noise per column plus factorization drift).
ENTRY_DUAL_TOL = 1e-7

#: Minimum |row element| for a column to join the dual ratio test.
ZERO_TOL = 1e-9


@dataclass
class DualResult(RevisedResult):
    """Revised-simplex result plus the dual walk's own counters."""

    dual_pivots: int = 0


class _DualSolver(_Solver):
    """One dual-simplex solve over a :class:`SparseBoundedLP` member."""

    def __init__(
        self,
        lp: SparseBoundedLP,
        lb: np.ndarray,
        ub: np.ndarray,
        max_iterations: int,
        warm: tuple[np.ndarray, np.ndarray] | None,
        binv: np.ndarray | None = None,
        binv_age: int = 0,
    ) -> None:
        super().__init__(lp, lb, ub, max_iterations, warm)
        self._binv_hint = binv
        self._binv_hint_age = binv_age
        self.dual_pivots = 0
        #: Reduced costs the walk carries from pivot to pivot, and the
        #: refactorization count they were last priced afresh at.
        self.dj = np.zeros(0)
        self._priced_at = -1

    # -- entry -------------------------------------------------------------

    def _warm_start_dual(self) -> bool:
        """Adopt the warm token; use the cached inverse when offered."""
        basis, vstat = self.warm
        basis = np.asarray(basis, dtype=np.int64)
        vstat = np.asarray(vstat, dtype=np.int8)
        if basis.shape != (self.m,) or vstat.shape != (self.N,):
            return False
        if (basis < 0).any() or (basis >= self.N).any():
            return False
        if np.unique(basis).size != self.m:
            return False
        self.basis = basis.copy()
        self.vstat = vstat.copy()
        self.vstat[self.basis] = BASIC
        self._k = 0
        hint = self._binv_hint
        if hint is not None and hint.shape == (self.m, self.m):
            # The basis fully determines B, so a pool hit is B's inverse
            # up to the drift of its folded updates (its age); it is only
            # ever *replaced* (never mutated) by a fold or a refactorization.
            self.binv = hint
            self._age = self._binv_hint_age
        elif not self._refactor():
            return False
        self._normalize_nonbasic()
        self._compute_xb()
        return True

    def _reduced_costs(self) -> np.ndarray:
        """Fresh reduced costs (one BTRAN, one ``rmatvec``), basics zeroed."""
        y = self._btran(self._cvec[self.basis])
        d = self._reduced_block(y, self._cvec, 0, self.N)
        d[self.basis] = 0.0
        return d

    def _set_dj(self, d: np.ndarray) -> None:
        """Adopt freshly priced reduced costs as the walk's carried ones."""
        self.dj = d
        self._priced_at = self.refactorizations

    def _dual_normalize(self) -> bool:
        """Repair entry reduced-cost signs by bound flips; False if stuck."""
        d = self._reduced_costs()
        self._set_dj(d)  # bound flips leave reduced costs unchanged
        live = (self.vstat != BASIC) & ~self._fixed
        low_bad = live & (self.vstat == AT_LOWER) & (d < -ENTRY_DUAL_TOL)
        up_bad = live & (self.vstat == AT_UPPER) & (d > ENTRY_DUAL_TOL)
        flip_up = low_bad & np.isfinite(self.upper)
        flip_dn = up_bad & np.isfinite(self.lower)
        if (low_bad & ~flip_up).any() or (up_bad & ~flip_dn).any():
            return False
        if (live & (self.vstat == FREE) & (np.abs(d) > ENTRY_DUAL_TOL)).any():
            return False
        if flip_up.any() or flip_dn.any():
            self.vstat[flip_up] = AT_UPPER
            self.vstat[flip_dn] = AT_LOWER
            self.bound_flips += int(flip_up.sum() + flip_dn.sum())
            self._normalize_nonbasic()
            self._compute_xb()
        return True

    def _dual_violation(self, d: np.ndarray) -> float:
        """Worst reduced-cost sign violation among the live nonbasics."""
        live = (self.vstat != BASIC) & ~self._fixed
        worst = 0.0
        low = live & (self.vstat == AT_LOWER)
        if low.any():
            worst = max(worst, float(np.maximum(-d[low], 0.0).max()))
        up = live & (self.vstat == AT_UPPER)
        if up.any():
            worst = max(worst, float(np.maximum(d[up], 0.0).max()))
        fr = live & (self.vstat == FREE)
        if fr.any():
            worst = max(worst, float(np.abs(d[fr]).max()))
        return worst

    # -- the dual walk -----------------------------------------------------

    def _pivot_row(self, alpha_row: np.ndarray) -> np.ndarray:
        """Row ``rho @ A`` over all columns (structural then slack)."""
        abar = np.empty(self.N)
        abar[: self.n] = self.lp.a.rmatvec(alpha_row)
        abar[self.n :] = alpha_row
        return abar

    def _apply_flips(self, flips: list[int]) -> None:
        """Flip boxed nonbasics to their opposite bound; repair x_B once."""
        dx = np.zeros(self.N)
        for j in flips:
            rng = self.upper[j] - self.lower[j]
            if self.vstat[j] == AT_LOWER:
                dx[j] = rng
                self.vstat[j] = AT_UPPER
                self.xval[j] = self.upper[j]
            else:
                dx[j] = -rng
                self.vstat[j] = AT_LOWER
                self.xval[j] = self.lower[j]
        rhs = self.lp.a.matvec(dx[: self.n]) + dx[self.n :]
        self.xB -= self._ftran(rhs)
        self.bound_flips += len(flips)

    def _dual_loop(self) -> str:
        m = self.m
        w = np.ones(m)  # devex reference weights, one per row
        stall = 0
        bland = False
        while True:
            lB = self.lower[self.basis]
            uB = self.upper[self.basis]
            below = lB - self.xB
            above = self.xB - uB
            viol = np.maximum(below, above)
            if float(viol.max(initial=0.0)) <= FEAS_TOL:
                return "optimal"
            if self.iterations >= self.max_iterations:
                return "iteration_limit"
            cand = viol > FEAS_TOL
            if bland:
                r = int(np.flatnonzero(cand)[0])
            else:
                score = np.where(cand, viol * viol / w, -1.0)
                r = int(np.argmax(score))
            is_above = above[r] >= below[r]
            sigma = 1.0 if is_above else -1.0
            p = int(self.basis[r])
            bound_p = self.upper[p] if is_above else self.lower[p]

            e = np.zeros(m)
            e[r] = 1.0
            rho = self._btran(e)
            atil = sigma * self._pivot_row(rho)
            if self._priced_at != self.refactorizations:
                self._set_dj(self._reduced_costs())
            d = self.dj
            self.pricing_passes += 1

            elig = (
                (self.vstat != BASIC)
                & ~self._fixed
                & (
                    ((self.vstat == AT_LOWER) & (atil > ZERO_TOL))
                    | ((self.vstat == AT_UPPER) & (atil < -ZERO_TOL))
                    | ((self.vstat == FREE) & (np.abs(atil) > ZERO_TOL))
                )
            )
            idx = np.flatnonzero(elig)
            if idx.size == 0:
                # No column can repair this row: Farkas certificate.
                return "infeasible"
            theta = d[idx] / atil[idx]
            np.maximum(theta, 0.0, out=theta)
            order = np.argsort(theta, kind="stable")

            flips: list[int] = []
            if bland:
                tmin = float(theta[order[0]])
                q = int(idx[theta <= tmin + 1e-12].min())
                tq = tmin
            else:
                # Bound-flipping walk: pass breakpoints while the leaving
                # row's violation (the dual slope) survives the flip.
                slope = float(viol[r])
                kq = -1
                for k in order:
                    j = int(idx[k])
                    drop = abs(atil[j]) * (self.upper[j] - self.lower[j])
                    if not np.isfinite(drop) or slope - drop <= 1e-12:
                        kq = int(k)
                        break
                    flips.append(j)
                    slope -= drop
                if kq < 0:
                    # Every breakpoint flipped, violation remains: the
                    # dual is unbounded along this row, so no primal
                    # feasible point exists.
                    return "infeasible"
                tq = float(theta[kq])
                # Among blocking candidates tied at t_q, take the largest
                # pivot element (Harris-style stability tie-break).
                q = int(idx[kq])
                best = abs(atil[q])
                started = False
                for k in order:
                    if int(k) == kq:
                        started = True
                        continue
                    if not started:
                        continue
                    if float(theta[k]) > tq + 1e-9:
                        break
                    j = int(idx[k])
                    if abs(atil[j]) > best:
                        best = abs(atil[j])
                        q = j

            if flips:
                self._apply_flips(flips)

            alpha = self._ftran_col(q)
            ar = float(alpha[r])
            if abs(ar) < PIV_TOL:
                if not self._refactor():
                    return "error"
                self._compute_xb()
                alpha = self._ftran_col(q)
                ar = float(alpha[r])
                if abs(ar) < PIV_TOL:
                    return "dual_lost"

            delta_q = (float(self.xB[r]) - bound_p) / ar
            xq = 0.0 if self.vstat[q] == FREE else float(self.xval[q])
            self.xB -= delta_q * alpha
            self.xB[r] = xq + delta_q
            self.vstat[p] = AT_UPPER if is_above else AT_LOWER
            self.xval[p] = bound_p
            self.vstat[q] = BASIC
            if not self._update_basis(r, q, alpha):
                return "error"

            # Carry the reduced costs across the pivot along its row; the
            # leaving column takes ``-t_q * sigma`` and the entering one 0.
            d -= tq * atil
            d[self.basis] = 0.0

            # Forrest–Goldfarb devex update over the pivot column.
            ref = w[r] / (ar * ar)
            np.maximum(w, alpha * alpha * ref, out=w)
            w[r] = max(1.0, ref)

            self.dual_pivots += 1
            self.iterations += 1
            if tq <= 1e-12:
                self.degenerate_pivots += 1
                stall += 1
                if stall > 2 * m and not bland:
                    bland = True
                    self.bland_switches += 1
            else:
                stall = 0
                bland = False

    # -- driver ------------------------------------------------------------

    def solve(self) -> DualResult:
        if (self.lower > self.upper + FEAS_TOL).any():
            return self._result("infeasible")
        if self.m == 0 or self.warm is None:
            # Nothing for a dual walk to stand on; the caller's primal
            # path handles both cases.
            return self._result("dual_lost")
        if not self._warm_start_dual():
            return self._result("dual_lost")
        self.warm_started = True
        if not self._dual_normalize():
            return self._result("dual_infeasible")
        for attempt in range(4):
            status = self._dual_loop()
            if status != "optimal":
                return self._result(status)
            # Accuracy gate.  Pending updates fold into a new explicit
            # inverse while its age stays under REFACTOR_INTERVAL; a
            # retry, or an inverse that old, refactorizes instead.
            if self._k or self._age:
                if attempt or self._age + self._k >= REFACTOR_INTERVAL:
                    if not self._refactor():
                        return self._result("error")
                    self._compute_xb()
                elif self._k:
                    self._fold()
                    self._compute_xb()
            d = self._measure()
            self._set_dj(d)
            viol = np.maximum(
                self.lower[self.basis] - self.xB, self.xB - self.upper[self.basis]
            )
            accurate = self._age == 0 or (
                self.primal_residual <= RESIDUAL_TOL
                and self.dual_residual <= RESIDUAL_TOL
            )
            if (
                float(viol.max(initial=0.0)) <= 1e-6
                and self._dual_violation(d) <= 1e-6
                and accurate
            ):
                return self._result("optimal")
            if self._age:
                # The aged inverse failed its check: walk again on a
                # fresh factorization.
                if not self._refactor():
                    return self._result("error")
                self._compute_xb()
        return self._result("dual_lost")

    def _result(self, status: str, x: np.ndarray | None = None) -> DualResult:
        res = super()._result(status, x)
        return DualResult(
            **{**vars(res), "phase2_iterations": self.dual_pivots},
            dual_pivots=self.dual_pivots,
        )


def solve_bounded_lp_dual(
    lp: SparseBoundedLP,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iterations: int = 20000,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
    binv: np.ndarray | None = None,
    binv_age: int = 0,
) -> DualResult:
    """Dual-simplex solve of one LP-family member from a warm token.

    Statuses beyond the primal set: ``dual_lost`` (no usable warm token
    or numerical breakdown mid-walk) and ``dual_infeasible`` (the token
    is not reduced-cost feasible and bound flips cannot repair it).
    Both mean "use the primal engine"; neither is a verdict on the LP.
    ``binv`` is a cached inverse of the token's basis and ``binv_age``
    the updates folded into it since its last factorization.
    """
    return _DualSolver(
        lp, lb, ub, max_iterations, warm, binv=binv, binv_age=binv_age
    ).solve()
