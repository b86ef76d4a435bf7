"""Sparse bounded-variable revised simplex — the default builtin LP core.

This is the engine behind ``engine="builtin"``.  The structural moves
are the ones every production LP code makes:

* **Implicit bounds.**  Variable bounds are never materialized as
  constraint rows.  Each variable carries a status — basic, nonbasic at
  lower bound, nonbasic at upper bound, or nonbasic free (at zero) —
  and the simplex works directly on ``lb <= x <= ub``.  A
  branch-and-bound node solve is therefore a pure bound-array update:
  no row rebuilding, ever.
* **Sparse data.**  The constraint matrix is stored once in CSC form
  (:class:`~repro.lp.sparse.CSCMatrix`); each row gets one slack to
  become an equality (``A x + s = b`` with the row sense encoded in the
  slack's bounds), so the basis is ``m_structural`` wide instead of a
  dense standard form's ``m + ~2n`` bound-row-inflated system.
* **Factorized basis + product-form updates.**  The basis inverse is
  computed by LAPACK's LU (``numpy.linalg.inv`` = getrf/getri) over the
  structural rows only and then extended pivot-by-pivot with
  product-form eta vectors; the eta file is folded back into a fresh
  factorization every :data:`REFACTOR_INTERVAL` pivots (and whenever a
  pivot looks numerically suspect).
* **Pricing.**  Dantzig pricing over cyclic partial-pricing blocks,
  with a degeneracy watchdog: when the step length stalls long
  enough, Bland's rule takes over until progress resumes.
* **Two-pass ratio test.**  Pass one computes the maximum step under a
  small bound-relaxation tolerance; pass two picks the largest pivot
  element among the blocking candidates, trading a bounded feasibility
  slip for numerical stability (Harris-style).

Warm starts carry ``(basis, nonbasic-status)`` across solves: a parent
branch-and-bound node's basis is refactorized against the child's
bounds, and the (usually tiny) set of basic variables pushed outside
their new bounds is repaired by the phase-1 infeasibility minimization
instead of a cold start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import CSCMatrix

#: Reduced-cost tolerance (dual feasibility).
DJ_TOL = 1e-9

#: Primal feasibility tolerance on variable bounds.
FEAS_TOL = 1e-9

#: Minimum pivot magnitude accepted without an early refactorization.
PIV_TOL = 1e-11

#: Eta-file length that triggers a refactorization.
REFACTOR_INTERVAL = 64

#: Phase-1 residual infeasibility below which the basis counts feasible
#: (the dense reference simplex in the test suite uses the same threshold).
PHASE1_TOL = 1e-7

#: Nonbasic/basic variable statuses.
AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, 3


@dataclass
class RevisedResult:
    """Raw revised-simplex outcome over structural variables."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit" | "error"
    x: np.ndarray | None
    objective: float
    iterations: int
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    bland_switches: int = 0
    degenerate_pivots: int = 0
    refactorizations: int = 0
    eta_file_length: int = 0
    pricing_passes: int = 0
    bound_flips: int = 0
    #: Basic variable index per row (structural cols first, then slacks).
    basis: np.ndarray | None = None
    #: Per-column status vector (AT_LOWER/AT_UPPER/FREE/BASIC).
    vstat: np.ndarray | None = None
    #: Row duals ``y = c_B B^{-1}`` at optimality (``a_ub`` rows first,
    #: then ``a_eq`` rows).  Sign convention of the min problem: a
    #: binding ``<=`` row carries ``y_i <= 0``, so the reduced cost of a
    #: structural column is ``c_j - y . a_j``.  ``None`` on non-optimal
    #: exits.
    duals: np.ndarray | None = None
    warm_started: bool = False
    message: str = ""


class SparseBoundedLP:
    """One LP *family*: fixed ``c``/rows, bounds supplied per solve.

    ``min c'x  s.t.  a_ub x <= b_ub, a_eq x = b_eq, lb <= x <= ub`` —
    rows become equalities through one slack each (``<=`` slack in
    ``[0, inf)``, ``=`` slack fixed at ``[0, 0]``), so only the bound
    arrays vary between branch-and-bound nodes.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub: np.ndarray | CSCMatrix,
        b_ub: np.ndarray,
        a_eq: np.ndarray | CSCMatrix,
        b_eq: np.ndarray,
    ) -> None:
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.shape[0]
        if not isinstance(a_ub, CSCMatrix):
            a_ub = CSCMatrix.from_dense(np.asarray(a_ub, dtype=float).reshape(-1, self.n))
        if not isinstance(a_eq, CSCMatrix):
            a_eq = CSCMatrix.from_dense(np.asarray(a_eq, dtype=float).reshape(-1, self.n))
        m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
        self.m = m_ub + m_eq
        self.b = np.concatenate([np.asarray(b_ub, float), np.asarray(b_eq, float)])
        self.slack_lb = np.zeros(self.m)
        self.slack_ub = np.concatenate([np.full(m_ub, np.inf), np.zeros(m_eq)])
        self.a = _vstack_csc(a_ub, a_eq, self.n)

    def append_le_rows(self, a_new: np.ndarray | CSCMatrix, b_new: np.ndarray) -> None:
        """Append ``<=`` rows in place, below every existing row.

        Appending at the *bottom* of the stack keeps every existing
        slack id (``n + row``) stable, so ``(basis, vstat)`` tokens from
        earlier solves of this family stay addressable — they merely
        need extending with the new rows' slacks (see
        :func:`extend_warm_pair`).  Only ``<=`` rows are supported:
        ``>=`` rows are negated into ``<=`` form by the standardizer
        upstream, and an ``=`` append would splice into the middle of
        the slack-bound stack, invalidating old tokens.
        """
        if not isinstance(a_new, CSCMatrix):
            a_new = CSCMatrix.from_dense(
                np.asarray(a_new, dtype=float).reshape(-1, self.n)
            )
        if a_new.shape[1] != self.n:
            raise ValueError("appended rows must span the family's columns")
        k = a_new.shape[0]
        b_new = np.asarray(b_new, dtype=float).reshape(k)
        self.b = np.concatenate([self.b, b_new])
        self.slack_lb = np.concatenate([self.slack_lb, np.zeros(k)])
        self.slack_ub = np.concatenate([self.slack_ub, np.full(k, np.inf)])
        self.a = _vstack_csc(self.a, a_new, self.n)
        self.m += k


def _vstack_csc(top: CSCMatrix, bottom: CSCMatrix, ncols: int) -> CSCMatrix:
    """Stack two CSC blocks row-wise (bottom rows offset by top height)."""
    if bottom.shape[0] == 0:
        return top
    if top.shape[0] == 0:
        return bottom
    m = top.shape[0] + bottom.shape[0]
    indptr = np.zeros(ncols + 1, dtype=np.int64)
    counts = np.diff(top.indptr) + np.diff(bottom.indptr)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1], dtype=float)
    for j in range(ncols):
        t0, t1 = top.indptr[j], top.indptr[j + 1]
        b0, b1 = bottom.indptr[j], bottom.indptr[j + 1]
        o = indptr[j]
        k = t1 - t0
        indices[o : o + k] = top.indices[t0:t1]
        data[o : o + k] = top.data[t0:t1]
        indices[o + k : o + k + (b1 - b0)] = bottom.indices[b0:b1] + top.shape[0]
        data[o + k : o + k + (b1 - b0)] = bottom.data[b0:b1]
    return CSCMatrix(shape=(m, ncols), indptr=indptr, indices=indices, data=data)


def extend_warm_pair(
    lp: SparseBoundedLP,
    basis: np.ndarray,
    vstat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Extend a pre-append ``(basis, vstat)`` pair to ``lp``'s current rows.

    After :meth:`SparseBoundedLP.append_le_rows` an old token is one
    entry short per appended row.  The canonical extension makes each
    new row's slack basic in that row: the extended basis matrix is
    block lower-triangular ``[[B, 0], [C, I]]``, so it is nonsingular
    whenever the old basis was, and the old solution's duals extend
    with zeros — the extended point stays *dual* feasible and is primal
    infeasible only in rows the append actually violated (the dual
    simplex re-entry case).  Returns ``None`` when the pair cannot
    belong to an ancestor of this family.
    """
    basis = np.asarray(basis, dtype=np.int64)
    vstat = np.asarray(vstat, dtype=np.int8)
    m_old = basis.shape[0]
    k = lp.m - m_old
    if k < 0 or vstat.shape[0] != lp.n + m_old:
        return None
    if k == 0:
        return basis, vstat
    # Rows append at the bottom, so every old column id — structural and
    # slack alike — is unchanged; the new slacks simply take the next ids.
    new_slacks = np.arange(lp.n + m_old, lp.n + lp.m, dtype=np.int64)
    basis_ext = np.concatenate([basis, new_slacks])
    vstat_ext = np.concatenate([vstat, np.full(k, BASIC, dtype=np.int8)])
    return basis_ext, vstat_ext


def bordered_binv(
    lp: SparseBoundedLP,
    basis: np.ndarray,
    binv_old: np.ndarray,
    m_old: int,
) -> np.ndarray | None:
    """Bordered update of a basis inverse across a row append.

    ``basis`` is the *extended* basis (old basics followed by the new
    rows' slacks), ``binv_old`` the ``m_old × m_old`` inverse of the old
    basis.  With the extension block lower-triangular —
    ``B' = [[B, 0], [C, I]]`` where ``C`` holds the appended rows'
    coefficients at the old basic columns — the inverse is exactly
    ``[[B^-1, 0], [-C B^-1, I]]``: one ``k × m_old`` matmul instead of
    an O(m^3) refactorization.
    """
    m_new = basis.shape[0]
    k = m_new - m_old
    if k <= 0 or binv_old.shape != (m_old, m_old):
        return None
    C = np.zeros((k, m_old))
    for pos in range(m_old):
        j = int(basis[pos])
        if j >= lp.n:
            continue  # slack columns have no entries in appended rows
        idx, dat = lp.a.col(j)
        sel = idx >= m_old
        if sel.any():
            C[idx[sel] - m_old, pos] = dat[sel]
    binv = np.zeros((m_new, m_new))
    binv[:m_old, :m_old] = binv_old
    binv[m_old:, :m_old] = -C @ binv_old
    binv[m_old:, m_old:] = np.eye(k)
    return binv


class _Solver:
    """One bounded-variable revised-simplex solve."""

    def __init__(
        self,
        lp: SparseBoundedLP,
        lb: np.ndarray,
        ub: np.ndarray,
        max_iterations: int,
        warm: tuple[np.ndarray, np.ndarray] | None,
    ) -> None:
        self.lp = lp
        self.n, self.m = lp.n, lp.m
        self.N = self.n + self.m
        self.lower = np.concatenate([np.asarray(lb, float), lp.slack_lb])
        self.upper = np.concatenate([np.asarray(ub, float), lp.slack_ub])
        self.max_iterations = max_iterations
        self.warm = warm

        self.iterations = 0
        self.phase1_iterations = 0
        self.phase2_iterations = 0
        self.bland_switches = 0
        self.degenerate_pivots = 0
        self.refactorizations = 0
        self.eta_file_length = 0
        self.pricing_passes = 0
        self.bound_flips = 0
        self.warm_started = False

        self.bland = False
        self._price_ptr = 0
        self._block = max(64, -(-self.N // 8))  # ceil(N/8), at least 64

        self.basis = np.empty(self.m, dtype=np.int64)
        self.vstat = np.empty(self.N, dtype=np.int8)
        self.xval = np.zeros(self.N)
        self.xB = np.zeros(self.m)
        self.binv = np.eye(self.m)
        self.etas: list[tuple[int, np.ndarray]] = []
        self._cvec = np.concatenate([lp.c, np.zeros(self.m)])

    # -- basis factorization & FTRAN/BTRAN ---------------------------------

    def _refactor(self) -> bool:
        """Rebuild the basis inverse from scratch; retire the eta file."""
        n, m = self.n, self.m
        B = np.zeros((m, m))
        slack = self.basis >= n
        B[self.basis[slack] - n, np.nonzero(slack)[0]] = 1.0
        for k in np.nonzero(~slack)[0]:
            idx, dat = self.lp.a.col(int(self.basis[k]))
            B[idx, k] = dat
        try:
            binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(binv).all():
            return False
        self.binv = binv
        self.refactorizations += 1
        self.eta_file_length += len(self.etas)
        self.etas = []
        return True

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        v = self.binv @ v
        for r, g in self.etas:
            piv = v[r]
            if piv != 0.0:
                v = v + g * piv
        return v

    def _ftran_col(self, j: int) -> np.ndarray:
        if j < self.n:
            idx, dat = self.lp.a.col(j)
            v = self.binv[:, idx] @ dat
        else:
            v = self.binv[:, j - self.n].copy()
        for r, g in self.etas:
            piv = v[r]
            if piv != 0.0:
                v = v + g * piv
        return v

    def _btran(self, u: np.ndarray) -> np.ndarray:
        u = u.copy()
        for r, g in reversed(self.etas):
            u[r] += float(u @ g)
        return u @ self.binv

    # -- starting bases ----------------------------------------------------

    def _normalize_nonbasic(self) -> None:
        """Clamp statuses to representable bounds, assign nonbasic values."""
        vst = self.vstat
        lowf = np.isfinite(self.lower)
        upf = np.isfinite(self.upper)
        nb = vst != BASIC
        bad_low = nb & (vst == AT_LOWER) & ~lowf
        vst[bad_low & upf] = AT_UPPER
        vst[bad_low & ~upf] = FREE
        bad_up = nb & (vst == AT_UPPER) & ~upf
        vst[bad_up & lowf] = AT_LOWER
        vst[bad_up & ~lowf] = FREE
        # FREE is reserved for genuinely free columns; pin bounded ones.
        stray = nb & (vst == FREE) & lowf
        vst[stray] = AT_LOWER
        stray = nb & (vst == FREE) & ~lowf & upf
        vst[stray] = AT_UPPER
        self.xval = np.where(
            vst == AT_LOWER, self.lower,
            np.where(vst == AT_UPPER, self.upper, 0.0),
        )

    def _compute_xb(self) -> None:
        xs = np.where(self.vstat[: self.n] != BASIC, self.xval[: self.n], 0.0)
        rhs = self.lp.b - self.lp.a.matvec(xs)
        sl = np.where(self.vstat[self.n :] != BASIC, self.xval[self.n :], 0.0)
        rhs -= sl
        self.xB = self._ftran(rhs)

    def _cold_start(self) -> None:
        self.basis = np.arange(self.n, self.N, dtype=np.int64)
        self.vstat[:] = AT_LOWER
        self.vstat[self.basis] = BASIC
        self.etas = []
        self.binv = np.eye(self.m)
        self._normalize_nonbasic()
        self._compute_xb()

    def _try_warm_start(self) -> bool:
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
        self.etas = []
        if not self._refactor():
            return False
        self._normalize_nonbasic()
        self._compute_xb()
        return True

    # -- pricing -----------------------------------------------------------

    def _eligible(self, d: np.ndarray, lo: int, hi: int) -> np.ndarray:
        vst = self.vstat[lo:hi]
        return (
            ((vst == AT_LOWER) & (d < -DJ_TOL))
            | ((vst == AT_UPPER) & (d > DJ_TOL))
            | ((vst == FREE) & (np.abs(d) > DJ_TOL))
        )

    def _reduced_block(self, y: np.ndarray, cvec: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Reduced costs of columns ``lo:hi`` (structural and/or slack)."""
        d = np.empty(hi - lo)
        a = self.lp.a
        sn = min(hi, self.n)
        if lo < self.n:
            p0, p1 = a.indptr[lo], a.indptr[sn]
            seg = np.zeros(sn - lo)
            if p1 > p0:
                np.add.at(
                    seg,
                    a.nnz_cols[p0:p1] - lo,
                    a.data[p0:p1] * y[a.indices[p0:p1]],
                )
            d[: sn - lo] = cvec[lo:sn] - seg
        if hi > self.n:
            s0 = max(lo, self.n)
            d[s0 - lo :] = cvec[s0:hi] - y[s0 - self.n : hi - self.n]
        return d

    def _price(self, y: np.ndarray, cvec: np.ndarray) -> tuple[int, float] | None:
        """Entering column and its reduced cost, or None when priced out."""
        if self.bland:
            self.pricing_passes += 1
            d = self._reduced_block(y, cvec, 0, self.N)
            elig = np.nonzero(self._eligible(d, 0, self.N))[0]
            if elig.size == 0:
                return None
            q = int(elig[0])
            return q, float(d[q])
        nblocks = -(-self.N // self._block)
        for k in range(nblocks):
            blk = (self._price_ptr + k) % nblocks
            lo = blk * self._block
            hi = min(self.N, lo + self._block)
            self.pricing_passes += 1
            d = self._reduced_block(y, cvec, lo, hi)
            elig = np.nonzero(self._eligible(d, lo, hi))[0]
            if elig.size:
                self._price_ptr = blk
                best = elig[np.argmax(np.abs(d[elig]))]
                return int(lo + best), float(d[best])
        return None

    # -- ratio test --------------------------------------------------------

    def _ratio_test(self, alpha: np.ndarray, s: float, q: int, phase1: bool):
        """('flip', t) | ('pivot', t, row, hit_lower) | ('unbounded',)."""
        dvec = -s * alpha
        lB = self.lower[self.basis]
        uB = self.upper[self.basis]
        xB = self.xB
        m = self.m
        delta = 1e-9  # pass-1 bound relaxation

        t_str = np.full(m, np.inf)
        t_rel = np.full(m, np.inf)
        hit_lower = np.zeros(m, dtype=bool)
        dec = dvec < -PIV_TOL
        inc = dvec > PIV_TOL
        if phase1:
            below = xB < lB - FEAS_TOL
            above = xB > uB + FEAS_TOL
            feas = ~(below | above)
        else:
            feas = np.ones(m, dtype=bool)

        sel = feas & dec & np.isfinite(lB)
        t_str[sel] = (xB[sel] - lB[sel]) / -dvec[sel]
        t_rel[sel] = (xB[sel] - lB[sel] + delta) / -dvec[sel]
        hit_lower[sel] = True
        sel = feas & inc & np.isfinite(uB)
        t_str[sel] = (uB[sel] - xB[sel]) / dvec[sel]
        t_rel[sel] = (uB[sel] - xB[sel] + delta) / dvec[sel]
        if phase1:
            # Infeasible basics block at the bound they violate, which
            # they reach (and become feasible at) along this direction.
            sel = below & inc
            t_str[sel] = (lB[sel] - xB[sel]) / dvec[sel]
            t_rel[sel] = (lB[sel] - xB[sel] + delta) / dvec[sel]
            hit_lower[sel] = True
            sel = above & dec
            t_str[sel] = (uB[sel] - xB[sel]) / dvec[sel]
            t_rel[sel] = (uB[sel] - xB[sel] - delta) / dvec[sel]
        np.maximum(t_str, 0.0, out=t_str)
        np.maximum(t_rel, 0.0, out=t_rel)

        t_bound = self.upper[q] - self.lower[q]  # inf for half-open/free
        if not np.isfinite(t_str).any():
            if np.isfinite(t_bound):
                return ("flip", float(t_bound))
            return ("unbounded",)

        tmax = float(t_rel.min())
        cand = np.nonzero(t_str <= tmax)[0]
        if cand.size == 0:
            cand = np.array([int(np.argmin(t_str))])
        if self.bland:
            # Bland's anti-cycling guarantee is about variable indices:
            # among the minimum-ratio rows, the lowest basic index leaves.
            tmin = float(t_str[cand].min())
            tied = cand[t_str[cand] <= tmin + 1e-12]
            r = int(tied[np.argmin(self.basis[tied])])
        else:
            r = int(cand[np.argmax(np.abs(alpha[cand]))])
        theta = float(t_str[r])
        if np.isfinite(t_bound) and t_bound <= theta:
            return ("flip", float(t_bound))
        return ("pivot", theta, r, bool(hit_lower[r]))

    # -- pivots ------------------------------------------------------------

    def _apply_flip(self, q: int, s: float, alpha: np.ndarray, t: float) -> None:
        self.xB += t * (-s * alpha)
        if self.vstat[q] == AT_LOWER:
            self.vstat[q] = AT_UPPER
            self.xval[q] = self.upper[q]
        else:
            self.vstat[q] = AT_LOWER
            self.xval[q] = self.lower[q]
        self.bound_flips += 1

    def _apply_pivot(
        self, q: int, s: float, alpha: np.ndarray, theta: float, r: int, hit_lower: bool
    ) -> bool:
        """Replace ``basis[r]`` with ``q``; False on a numerically bad pivot."""
        ar = float(alpha[r])
        if abs(ar) < PIV_TOL:
            return False
        p = int(self.basis[r])
        self.xB += theta * (-s * alpha)
        entering_val = (0.0 if self.vstat[q] == FREE else self.xval[q]) + s * theta
        self.xB[r] = entering_val
        self.vstat[p] = AT_LOWER if hit_lower else AT_UPPER
        self.xval[p] = self.lower[p] if hit_lower else self.upper[p]
        self.vstat[q] = BASIC
        self.basis[r] = q
        g = -alpha / ar
        g[r] = 1.0 / ar - 1.0
        self.etas.append((r, g))
        if len(self.etas) >= REFACTOR_INTERVAL:
            if not self._refactor():
                return False
            self._compute_xb()
        return True

    # -- phases ------------------------------------------------------------

    def _infeasibility(self) -> tuple[np.ndarray, float]:
        """Phase-1 gradient on basic variables and the total violation."""
        lB = self.lower[self.basis]
        uB = self.upper[self.basis]
        below = np.maximum(lB - self.xB, 0.0)
        above = np.maximum(self.xB - uB, 0.0)
        grad = np.where(self.xB > uB + FEAS_TOL, 1.0, 0.0)
        grad -= np.where(self.xB < lB - FEAS_TOL, 1.0, 0.0)
        return grad, float(below.sum() + above.sum())

    def _run_phase(self, phase: int) -> str:
        stall = 0
        self.bland = False
        zero_c = np.zeros(self.N)
        while True:
            if phase == 1:
                grad, total = self._infeasibility()
                if total <= PHASE1_TOL:
                    return "feasible"
                y = self._btran(grad)
                cvec = zero_c
            else:
                y = self._btran(self._cvec[self.basis])
                cvec = self._cvec
            picked = self._price(y, cvec)
            if picked is None:
                return "infeasible" if phase == 1 else "optimal"
            if self.iterations >= self.max_iterations:
                return "iteration_limit"
            q, dq = picked
            if self.vstat[q] == AT_LOWER:
                s = 1.0
            elif self.vstat[q] == AT_UPPER:
                s = -1.0
            else:
                s = 1.0 if dq < 0 else -1.0
            alpha = self._ftran_col(q)
            outcome = self._ratio_test(alpha, s, q, phase == 1)
            if outcome[0] == "unbounded":
                if phase == 1:
                    # A finite-infeasibility objective cannot be unbounded;
                    # reaching here means numerical breakdown.
                    return "error"
                return "unbounded"
            if outcome[0] == "flip":
                theta = outcome[1]
                self._apply_flip(q, s, alpha, theta)
            else:
                _, theta, r, hit_lower = outcome
                if not self._apply_pivot(q, s, alpha, theta, r, hit_lower):
                    # Bad pivot: refresh the factorization and retry once
                    # from clean data; a second failure is terminal.
                    if not self._refactor():
                        return "error"
                    self._compute_xb()
                    alpha = self._ftran_col(q)
                    outcome = self._ratio_test(alpha, s, q, phase == 1)
                    if outcome[0] == "unbounded":
                        return "error" if phase == 1 else "unbounded"
                    if outcome[0] == "flip":
                        self._apply_flip(q, s, alpha, outcome[1])
                        theta = outcome[1]
                    else:
                        _, theta, r, hit_lower = outcome
                        if not self._apply_pivot(q, s, alpha, theta, r, hit_lower):
                            return "error"
            self.iterations += 1
            if phase == 1:
                self.phase1_iterations += 1
            else:
                self.phase2_iterations += 1
            # Degeneracy watchdog: a long run of zero-length steps flips pricing to Bland's
            # rule, which cannot cycle; any real step flips it back.
            if theta <= 1e-12:
                self.degenerate_pivots += 1
                stall += 1
                if stall > 2 * self.m and not self.bland:
                    self.bland = True
                    self.bland_switches += 1
            else:
                stall = 0
                self.bland = False

    # -- driver ------------------------------------------------------------

    def solve(self) -> RevisedResult:
        if (self.lower > self.upper + FEAS_TOL).any():
            return self._result("infeasible")
        if self.m == 0:
            return self._solve_no_rows()
        if self.warm is not None and self._try_warm_start():
            self.warm_started = True
        else:
            self._cold_start()

        for attempt in range(4):
            status = self._run_phase(1)
            if status == "feasible":
                status = self._run_phase(2)
            if status != "optimal":
                return self._result(status)
            # Accuracy gate: recompute x_B from a fresh factorization and
            # only accept the optimum if it is genuinely primal feasible.
            if self.etas:
                if not self._refactor():
                    return self._result("error")
                self._compute_xb()
            viol = np.maximum(
                self.lower[self.basis] - self.xB, self.xB - self.upper[self.basis]
            )
            if float(viol.max(initial=0.0)) <= 1e-6:
                return self._result("optimal")
        return self._result("error")

    def _solve_no_rows(self) -> RevisedResult:
        """Degenerate case: no constraints, each variable optimizes alone."""
        c = self.lp.c
        x = np.zeros(self.n)
        for j in range(self.n):
            if c[j] > DJ_TOL:
                if not np.isfinite(self.lower[j]):
                    return self._result("unbounded")
                x[j] = self.lower[j]
            elif c[j] < -DJ_TOL:
                if not np.isfinite(self.upper[j]):
                    return self._result("unbounded")
                x[j] = self.upper[j]
            else:
                x[j] = self.lower[j] if np.isfinite(self.lower[j]) else (
                    self.upper[j] if np.isfinite(self.upper[j]) else 0.0
                )
        self.vstat[:] = AT_LOWER
        self._normalize_nonbasic()
        self.xval[: self.n] = x
        return self._result("optimal", x=x)

    def _result(self, status: str, x: np.ndarray | None = None) -> RevisedResult:
        basis = vstat = duals = None
        objective = np.nan
        if status == "optimal":
            if x is None:
                self.xval[self.basis] = self.xB
                x = self.xval[: self.n].copy()
                np.clip(x, self.lower[: self.n], self.upper[: self.n], out=x)
            objective = float(self.lp.c @ x)
            basis = self.basis.copy()
            vstat = self.vstat.copy()
            # The drivers refactor before accepting an optimum, so the
            # eta file is empty here and the BTRAN is exact.
            duals = self._btran(self._cvec[self.basis]) if self.m else np.zeros(0)
        elif status == "unbounded":
            objective = -np.inf
        return RevisedResult(
            status=status,
            x=x,
            objective=objective,
            iterations=self.iterations,
            phase1_iterations=self.phase1_iterations,
            phase2_iterations=self.phase2_iterations,
            bland_switches=self.bland_switches,
            degenerate_pivots=self.degenerate_pivots,
            refactorizations=self.refactorizations,
            eta_file_length=self.eta_file_length,
            pricing_passes=self.pricing_passes,
            bound_flips=self.bound_flips,
            basis=basis,
            vstat=vstat,
            duals=duals,
            warm_started=self.warm_started,
        )


def solve_bounded_lp(
    lp: SparseBoundedLP,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iterations: int = 20000,
    warm: tuple[np.ndarray, np.ndarray] | None = None,
) -> RevisedResult:
    """Solve one member of the LP family for the given bound arrays.

    ``warm`` is a ``(basis, vstat)`` pair from a previous solve of the
    same family (typically the parent branch-and-bound node); a stale or
    singular pair silently falls back to a cold start.
    """
    return _Solver(lp, lb, ub, max_iterations, warm).solve()
