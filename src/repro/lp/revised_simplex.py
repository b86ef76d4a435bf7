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
* **Explicit basis inverse + compact product-form updates.**  The
  basis inverse is a dense explicit one, ``numpy.linalg.inv`` (LAPACK
  getrf/getri), over the structural rows only.  Each pivot's eta matrix
  is then kept in the compact low-rank form ``B^-1 = B0^-1 + U V^T``
  (one column of ``U`` and one row of ``V^T`` per pivot), so FTRAN and
  BTRAN are two small matrix products each, with no Python loop over
  the updates.  They are retired into a fresh factorization every
  :data:`REFACTOR_INTERVAL` pivots (and whenever a pivot looks
  numerically suspect).  The dual engine may instead *fold* them into a
  new explicit inverse (``binv + U V^T``, O(k m^2)); each inverse counts
  its **age**, the updates folded into it since the last factorization.
* **Pricing.**  Dantzig pricing over cyclic partial-pricing blocks,
  with a degeneracy watchdog: when the step length stalls long
  enough, Bland's rule takes over until progress resumes.  Fixed
  columns (``upper - lower <= FIXED_TOL``: equality-row slacks and
  branch-fixed binaries) are never priced in either phase: they can
  only "enter" with a zero-length bound flip.  The dual engine uses
  the same :data:`FIXED_TOL` rule, defined here once.
* **Two-pass ratio test.**  Pass one computes the maximum step under a
  small bound-relaxation tolerance; pass two picks the largest pivot
  element among the blocking candidates, trading a bounded feasibility
  slip for numerical stability (Harris-style).

Warm starts carry ``(basis, nonbasic-status)`` across solves: a parent
branch-and-bound node's basis is refactorized against the child's
bounds, and the (usually tiny) set of basic variables pushed outside
their new bounds is repaired by the phase-1 infeasibility minimization
instead of a cold start.

Within branch and bound this engine is the fallback: warm node
re-solves and the roots of one-shot trees run the dual simplex
(:mod:`repro.lp.dual_simplex`, which subclasses :class:`_Solver`), the
latter from the same all-slack basis as :meth:`_Solver._cold_start`
(:func:`slack_basis`).  The primal engine solves what the dual walk
cannot enter or gives up on, solves without a token, and the cold roots
of contexts the solve cache builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sparse import CSCMatrix, scatter_add

#: Reduced-cost tolerance (dual feasibility).
DJ_TOL = 1e-9

#: Primal feasibility tolerance on variable bounds.
FEAS_TOL = 1e-9

#: Largest relative primal and dual residual (``‖B x_B − (b − N x_N)‖∞ /
#: (1 + ‖b − N x_N‖∞)`` and ``‖Bᵀy − c_B‖∞ / (1 + ‖c_B‖∞)``) with which
#: the dual engine accepts an optimum reached through a folded inverse.
RESIDUAL_TOL = 1e-9

#: Minimum pivot magnitude accepted without an early refactorization.
PIV_TOL = 1e-11

#: Eta-file length that triggers a refactorization.
REFACTOR_INTERVAL = 64

#: Columns with a tighter gap than this count as fixed (unconstrained
#: reduced-cost sign; never priced, never flipped).
FIXED_TOL = 1e-12

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
    #: Row duals ``y = c_B B^{-1}`` at optimality, in the family's row
    #: order: ``a_ub``, ``a_eq``, then rows added by ``append_le_rows``.
    #: Sign convention of the min problem: a binding ``<=`` row carries
    #: ``y_i <= 0``, so the reduced cost of a structural column is
    #: ``c_j - y . a_j``.  ``None`` on non-optimal exits.
    duals: np.ndarray | None = None
    #: Explicit basis inverse matching ``basis`` (optimal exits only;
    #: no product-form updates are pending).  The primal driver
    #: refactors before accepting an optimum; the dual driver may fold
    #: its updates in instead and then accepts only on small residuals.
    #: Callers may seed the next warm dual solve with it.
    binv: np.ndarray | None = None
    #: Updates folded into ``binv`` since its last true factorization.
    binv_age: int = 0
    #: Relative residuals of the optimal basis, from the sparse columns
    #: (see :data:`RESIDUAL_TOL`); 0.0 on non-optimal exits.
    primal_residual: float = 0.0
    dual_residual: float = 0.0
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
        a_ub: CSCMatrix,
        b_ub: np.ndarray,
        a_eq: CSCMatrix,
        b_eq: np.ndarray,
    ) -> None:
        self.c = np.asarray(c, dtype=float)
        self.n = self.c.shape[0]
        m_ub, m_eq = a_ub.shape[0], a_eq.shape[0]
        self.m = m_ub + m_eq
        self.b = np.concatenate([np.asarray(b_ub, float), np.asarray(b_eq, float)])
        self.slack_lb = np.zeros(self.m)
        self.slack_ub = np.concatenate([np.full(m_ub, np.inf), np.zeros(m_eq)])
        self.a = CSCMatrix.vstack(a_ub, a_eq)

    def append_le_rows(self, a_new: CSCMatrix, b_new: np.ndarray) -> None:
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
        if a_new.shape[1] != self.n:
            raise ValueError("appended rows must span the family's columns")
        k = a_new.shape[0]
        b_new = np.asarray(b_new, dtype=float).reshape(k)
        self.b = np.concatenate([self.b, b_new])
        self.slack_lb = np.concatenate([self.slack_lb, np.zeros(k)])
        self.slack_ub = np.concatenate([self.slack_ub, np.full(k, np.inf)])
        self.a = CSCMatrix.vstack(self.a, a_new)
        self.m += k


def slack_basis(lp: SparseBoundedLP) -> tuple[np.ndarray, np.ndarray]:
    """The all-slack starting pair ``(basis, vstat)`` of ``lp``.

    Row ``i``'s slack is basic in row ``i``, so ``B = I`` and its inverse
    needs no factorization; every structural column starts nonbasic at
    its lower bound (the solvers' ``_normalize_nonbasic`` moves it to a
    finite bound, or to free, where that bound is infinite).  The primal
    cold start and the dual simplex's slack-basis root both start here.
    """
    basis = np.arange(lp.n, lp.n + lp.m, dtype=np.int64)
    vstat = np.full(lp.n + lp.m, AT_LOWER, dtype=np.int8)
    vstat[basis] = BASIC
    return basis, vstat


def _column_entries(a: CSCMatrix, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stored-entry offsets of columns ``cols`` and, per entry, its owner's
    position in ``cols`` — one gather instead of a loop over ``a.col``."""
    starts = a.indptr[cols]
    counts = a.indptr[cols + 1] - starts
    owner = np.repeat(np.arange(cols.size), counts)
    offs = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    return offs, owner


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
    # Slack columns have no entries in appended rows.
    pos = np.flatnonzero(basis[:m_old] < lp.n)
    offs, owner = _column_entries(lp.a, basis[pos])
    rows = lp.a.indices[offs]
    sel = rows >= m_old
    C[rows[sel] - m_old, pos[owner[sel]]] = lp.a.data[offs[sel]]
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
        #: Columns that cannot move (bounds are fixed for the solve).
        self._fixed = (self.upper - self.lower) <= FIXED_TOL
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
        # Compact product form: B^-1 = binv + Ut[:k].T @ Vt[:k], where
        # binv is an explicit inverse (never written to), each pivot
        # appends one row to Ut and one to Vt, and k counts the updates
        # since binv was made.  ``_age`` counts the updates folded into
        # binv itself since its last true factorization.
        self.binv = np.eye(self.m)
        self._ut = np.empty((REFACTOR_INTERVAL, self.m))
        self._vt = np.empty((REFACTOR_INTERVAL, self.m))
        self._k = 0
        self._age = 0
        self._cvec = np.concatenate([lp.c, np.zeros(self.m)])
        self.primal_residual = 0.0
        self.dual_residual = 0.0
        #: Duals of the last :meth:`_measure` (the accepted optimum's).
        self._y: np.ndarray | None = None

    # -- basis factorization & FTRAN/BTRAN ---------------------------------

    def _refactor(self) -> bool:
        """Rebuild the basis inverse from scratch; retire the updates."""
        n, m, a = self.n, self.m, self.lp.a
        slack = np.flatnonzero(self.basis >= n)
        struct = np.flatnonzero(self.basis < n)
        offs, owner = _column_entries(a, self.basis[struct])
        B = np.zeros((m, m))
        B[
            np.concatenate([self.basis[slack] - n, a.indices[offs]]),
            np.concatenate([slack, struct[owner]]),
        ] = np.concatenate([np.ones(slack.size), a.data[offs]])
        try:
            binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(binv).all():
            return False
        self.binv = binv
        self.refactorizations += 1
        self.eta_file_length += self._k
        self._k = 0
        self._age = 0
        return True

    def _fold(self) -> None:
        """Fold the pending updates into a new explicit inverse, O(k m^2).

        The result is a new array, so an inverse shared with a factor
        pool is never mutated; it ages by the updates folded in.
        """
        k = self._k
        self.binv = self.binv + self._ut[:k].T @ self._vt[:k]
        self._age += k
        self._k = 0

    def _ftran(self, v: np.ndarray) -> np.ndarray:
        """``B^-1 v`` = ``binv v + U (V^T v)``."""
        out = self.binv @ v
        k = self._k
        if k:
            out += (self._vt[:k] @ v) @ self._ut[:k]
        return out

    def _ftran_col(self, j: int) -> np.ndarray:
        """FTRAN of column ``j`` (structural or slack) from its nonzeros."""
        if j < self.n:
            idx, dat = self.lp.a.col(j)
        else:
            idx, dat = np.array([j - self.n]), np.ones(1)
        out = self.binv[:, idx] @ dat
        k = self._k
        if k:
            out += (self._vt[:k, idx] @ dat) @ self._ut[:k]
        return out

    def _btran(self, u: np.ndarray) -> np.ndarray:
        """``u B^-1`` = ``u binv + (u U) V^T``."""
        out = u @ self.binv
        k = self._k
        if k:
            out += (self._ut[:k] @ u) @ self._vt[:k]
        return out

    def _update_basis(self, r: int, q: int, alpha: np.ndarray) -> bool:
        """Make ``q`` basic in row ``r`` given its FTRAN column ``alpha``.

        The new inverse is ``E B^-1`` with the eta matrix
        ``E = I + g e_r^T``, i.e. ``B^-1 + g (e_r^T B^-1)``: ``g`` joins
        ``U`` and the current inverse's row ``r`` joins ``V^T``.  After
        :data:`REFACTOR_INTERVAL` updates the basis is refactorized and
        ``x_B`` recomputed; False when that refactorization fails.
        """
        k = self._k
        ar = alpha[r]
        g = self._ut[k]
        np.divide(alpha, -ar, out=g)
        g[r] = 1.0 / ar - 1.0
        row = self._vt[k]
        row[:] = self.binv[r]
        if k:
            row += self._ut[:k, r] @ self._vt[:k]
        self._k = k + 1
        self.basis[r] = q
        if self._k >= REFACTOR_INTERVAL:
            if not self._refactor():
                return False
            self._compute_xb()
        return True

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

    def _nonbasic_rhs(self) -> np.ndarray:
        """``b − N x_N``: the right-hand side the basic values must meet."""
        xs = np.where(self.vstat[: self.n] != BASIC, self.xval[: self.n], 0.0)
        rhs = self.lp.b - self.lp.a.matvec(xs)
        sl = np.where(self.vstat[self.n :] != BASIC, self.xval[self.n :], 0.0)
        rhs -= sl
        return rhs

    def _compute_xb(self) -> None:
        self.xB = self._ftran(self._nonbasic_rhs())

    def _measure(self) -> np.ndarray:
        """Duals and reduced costs of the current basis, and both residuals.

        ``y = c_B B^-1`` goes through the inverse; the residuals do not:
        ``B x_B`` and ``Bᵀy`` are formed from the family's sparse columns,
        so they check the inverse instead of trusting it.  Records the
        relative residuals (see :data:`RESIDUAL_TOL`) and the duals, and
        returns the reduced costs with the basic entries zeroed.
        """
        n = self.n
        c_b = self._cvec[self.basis]
        y = self._btran(c_b)
        d = self._reduced_block(y, self._cvec, 0, self.N)
        self.dual_residual = float(np.abs(d[self.basis]).max(initial=0.0)) / (
            1.0 + float(np.abs(c_b).max(initial=0.0))
        )
        rhs = self._nonbasic_rhs()
        xb = np.zeros(self.N)
        xb[self.basis] = self.xB
        bx = self.lp.a.matvec(xb[:n]) + xb[n:]
        self.primal_residual = float(np.abs(bx - rhs).max(initial=0.0)) / (
            1.0 + float(np.abs(rhs).max(initial=0.0))
        )
        self._y = y
        d[self.basis] = 0.0
        return d

    def _cold_start(self) -> None:
        self.basis, self.vstat = slack_basis(self.lp)
        self._k = 0
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
        self._k = 0
        if not self._refactor():
            return False
        self._normalize_nonbasic()
        self._compute_xb()
        return True

    # -- pricing -----------------------------------------------------------

    def _eligible(self, d: np.ndarray, lo: int, hi: int) -> np.ndarray:
        vst = self.vstat[lo:hi]
        return ~self._fixed[lo:hi] & (
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
            seg = scatter_add(
                a.nnz_cols[p0:p1] - lo, a.data[p0:p1] * y[a.indices[p0:p1]], sn - lo
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
        delta = 1e-9  # pass-1 bound relaxation

        # Each row's distance ``gap`` to the bound it blocks at, over
        # ``|dvec|``: decreasing basics fall to lB, increasing ones rise
        # to uB (an infinite bound gives an infinite gap).  In phase 1 an
        # infeasible basic instead blocks at the bound it violates, which
        # it reaches (and becomes feasible at) along this direction, and
        # never blocks when moving away from it.  The sign flips relative
        # to per-case formulas are exact in IEEE arithmetic.
        dec = dvec < -PIV_TOL
        inc = dvec > PIV_TOL
        if phase1:
            below = xB < lB - FEAS_TOL
            above = xB > uB + FEAS_TOL
            gap = np.where(
                dec,
                np.where(above, xB - uB, xB - lB),
                np.where(below, lB - xB, uB - xB),
            )
            block = (dec & ~below) | (inc & ~above)
            hit_lower = np.where(dec, ~above, below)
        else:
            gap = np.where(dec, xB - lB, uB - xB)
            block = dec | inc
            hit_lower = dec
        gap = np.where(block, gap, np.inf)
        adv = np.where(block, np.abs(dvec), 1.0)
        t_str = np.maximum(gap / adv, 0.0)
        t_rel = np.maximum((gap + delta) / adv, 0.0)

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
        return self._update_basis(r, q, alpha)

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
            if self._k:
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
        basis = vstat = duals = binv = None
        objective = np.nan
        if status == "optimal":
            if x is None:
                self.xval[self.basis] = self.xB
                x = self.xval[: self.n].copy()
                np.clip(x, self.lower[: self.n], self.upper[: self.n], out=x)
            objective = float(self.lp.c @ x)
            basis = self.basis.copy()
            vstat = self.vstat.copy()
            # The primal driver refactors before accepting an optimum and
            # the dual driver folds, so no updates are pending here.  The
            # dual driver has already measured the basis it accepted.
            if self._y is None:
                self._measure()
            duals = self._y
            if not self._k:
                binv = self.binv
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
            binv=binv,
            binv_age=self._age if binv is not None else 0,
            primal_residual=self.primal_residual if status == "optimal" else 0.0,
            dual_residual=self.dual_residual if status == "optimal" else 0.0,
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
