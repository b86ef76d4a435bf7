"""From-scratch dense two-phase primal simplex.

The test suite's dense reference LP core.  It works on the equality
standard form that :mod:`tests.oracles.reference` builds:

    min c'x   s.t.  A x = b,  x >= 0,  b >= 0

Phase 1 introduces artificial variables and drives their sum to zero;
phase 2 optimizes the true objective from the resulting basis.  Dantzig
pricing is used until degeneracy is suspected, after which the solver
switches to Bland's rule to guarantee termination.

Branch-and-bound callers can skip phase 1 entirely: the optimal basis of
a solve is returned on the result, and passing it back as ``warm_basis``
re-factorizes it against the (re-bounded) child problem.  When the basis
is still primal feasible the solve starts directly in phase 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Numerical tolerance for reduced costs / ratio tests.
TOL = 1e-9

#: Feasibility slack allowed when validating a warm-start basis.
_WARM_TOL = 1e-9


@dataclass
class SimplexResult:
    """Raw simplex outcome over standard-form columns."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: np.ndarray | None
    objective: float
    iterations: int
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    bland_switches: int = 0
    degenerate_pivots: int = 0
    #: Final basis (column index per row) on optimal exit; reusable as a
    #: warm start for a re-bounded problem with the same column layout.
    basis: list[int] | None = None
    #: True when phase 1 was skipped via a feasible ``warm_basis``.
    warm_started: bool = False


class SimplexError(RuntimeError):
    """Internal simplex failure (numerical breakdown)."""


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """Gauss-Jordan pivot of the full tableau on (row, col)."""
    pivot_val = tableau[row, col]
    if abs(pivot_val) < TOL:
        raise SimplexError("pivot on (near-)zero element")
    tableau[row] /= pivot_val
    # Eliminate the pivot column from every other row in one vectorized step.
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row])
    # Clean tiny residuals in the pivot column for numerical hygiene.
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _choose_entering(
    reduced: np.ndarray, eligible: np.ndarray, bland: bool
) -> int | None:
    """Pick the entering column, or None when optimal."""
    candidates = np.where(eligible & (reduced < -TOL))[0]
    if candidates.size == 0:
        return None
    if bland:
        return int(candidates[0])
    # Dantzig: most negative reduced cost.
    return int(candidates[np.argmin(reduced[candidates])])


def _choose_leaving(
    tableau: np.ndarray,
    col: int,
    nrows: int,
    basis: list[int],
    bland: bool,
) -> int | None:
    """Minimum-ratio test; None signals unboundedness.

    Ties are broken on the lowest *basic-variable* index when Bland mode
    is active — Bland's anti-cycling guarantee is about variable indices,
    not row positions.  Outside Bland mode the lowest row index is kept
    as a cheap deterministic tie-break.
    """
    column = tableau[:nrows, col]
    rhs = tableau[:nrows, -1]
    positive = column > TOL
    if not positive.any():
        return None
    ratios = np.full(nrows, np.inf)
    ratios[positive] = rhs[positive] / column[positive]
    best = ratios.min()
    tied = np.where(np.isclose(ratios, best, rtol=0.0, atol=1e-12))[0]
    if bland and tied.size > 1:
        basis_ids = np.asarray(basis)[tied]
        return int(tied[np.argmin(basis_ids)])
    return int(tied[0])


@dataclass
class _PhaseOutcome:
    """Status plus the pivot-level counters of one simplex phase."""

    status: str
    iterations: int
    bland_switches: int = 0
    degenerate_pivots: int = 0


def _run_phase(
    tableau: np.ndarray,
    basis: list[int],
    eligible: np.ndarray,
    max_iterations: int,
) -> _PhaseOutcome:
    """Iterate pivots until optimality/unboundedness/limit.

    The objective row is the last row of ``tableau`` and holds reduced
    costs; the rhs column is the last column.
    """
    nrows = tableau.shape[0] - 1
    iterations = 0
    bland = False
    bland_switches = 0
    degenerate_pivots = 0
    stall = 0
    last_obj = tableau[-1, -1]
    while iterations < max_iterations:
        reduced = tableau[-1, :-1]
        col = _choose_entering(reduced, eligible, bland)
        if col is None:
            return _PhaseOutcome("optimal", iterations, bland_switches, degenerate_pivots)
        row = _choose_leaving(tableau, col, nrows, basis, bland)
        if row is None:
            return _PhaseOutcome("unbounded", iterations, bland_switches, degenerate_pivots)
        _pivot(tableau, row, col)
        basis[row] = col
        iterations += 1
        # Degeneracy watchdog: if the objective stops moving, fall back
        # to Bland's rule which cannot cycle.
        obj = tableau[-1, -1]
        if abs(obj - last_obj) < TOL:
            degenerate_pivots += 1
            stall += 1
            if stall > 2 * nrows:
                if not bland:
                    bland_switches += 1
                bland = True
        else:
            stall = 0
            bland = False
        last_obj = obj
    return _PhaseOutcome("iteration_limit", iterations, bland_switches, degenerate_pivots)


def _try_warm_start(
    a: np.ndarray,
    b: np.ndarray,
    warm_basis: list[int],
) -> tuple[np.ndarray, np.ndarray, list[int]] | None:
    """Re-factorize a previous basis against (possibly re-bounded) data.

    Returns ``(rows, rhs, art_rows)`` — the basis-reduced constraint
    block plus the rows whose basic value went negative under the new
    bounds.  Those rows are sign-flipped (so their rhs is positive) and
    need an artificial variable each; a branch-and-bound child typically
    has one or two of them, so phase 1 shrinks from ``m`` artificials to
    a handful.  ``None`` means the caller must run a full cold start.
    """
    m, n = a.shape
    if len(warm_basis) != m:
        return None
    cols = np.asarray(warm_basis, dtype=int)
    if (cols < 0).any() or (cols >= n).any() or np.unique(cols).size != m:
        return None
    basis_matrix = a[:, cols]
    try:
        solved = np.linalg.solve(basis_matrix, np.column_stack([a, b[:, None]]))
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(solved).all():
        return None
    rows = solved[:, :n]
    rhs = solved[:, -1]
    # Guard against an ill-conditioned (numerically near-singular) basis.
    if np.abs(basis_matrix @ rhs - b).max() > 1e-7 * max(1.0, np.abs(b).max()):
        return None
    neg = rhs < -_WARM_TOL
    if int(neg.sum()) > max(4, m // 2):
        # The basis is infeasible almost everywhere: a cold start's dense
        # phase 1 is no worse, and the flip bookkeeping buys nothing.
        return None
    rows[neg] *= -1.0
    rhs = np.where(neg, -rhs, rhs)
    return rows, np.maximum(rhs, 0.0), np.nonzero(neg)[0].tolist()


def solve_standard_form(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    max_iterations: int = 20000,
    warm_basis: list[int] | None = None,
) -> SimplexResult:
    """Solve ``min c'x s.t. Ax = b, x >= 0`` (requires ``b >= 0``).

    Returns the optimal vertex, or a status describing why none exists.
    ``warm_basis`` (the ``basis`` of a previous result on a same-shaped
    problem) skips phase 1 when it is still primal feasible.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("b has wrong shape")
    if c.shape != (n,):
        raise ValueError("c has wrong shape")
    if (b < -TOL).any():
        raise ValueError("standard form requires b >= 0")

    if m == 0:
        # No constraints: optimum is x = 0 (c >= 0 required for boundedness).
        if (c < -TOL).any():
            return SimplexResult("unbounded", None, -np.inf, 0)
        return SimplexResult("optimal", np.zeros(n), 0.0, 0, basis=[])

    # A warm basis (from a parent B&B node) replaces the cold start's
    # all-artificial basis: only the rows whose basic value turned
    # negative under the new bounds get an artificial variable.
    warm_started = False
    rows, rhs = a, b
    art_rows = list(range(m))
    basis = [-1] * m
    if warm_basis is not None:
        prepared = _try_warm_start(a, b, warm_basis)
        if prepared is not None:
            rows, rhs, art_rows = prepared
            warm_started = True
            basis = list(warm_basis)

    phase1 = _PhaseOutcome("optimal", 0)
    if art_rows:
        # ---- Phase 1: minimize the sum of the artificials --------------
        # Tableau layout: [rows | I_art (on art_rows) | rhs], final row =
        # phase objective.  Reduced costs subtract each artificial-basic
        # row from the (zero) phase-1 cost of the real columns.
        k = len(art_rows)
        art_idx = np.asarray(art_rows, dtype=int)
        tableau = np.zeros((m + 1, n + k + 1))
        tableau[:m, :n] = rows
        tableau[art_idx, n + np.arange(k)] = 1.0
        tableau[:m, -1] = rhs
        tableau[-1, :n] = -rows[art_idx].sum(axis=0)
        tableau[-1, -1] = -rhs[art_idx].sum()

        for j, row in enumerate(art_rows):
            basis[row] = n + j
        eligible = np.zeros(n + k, dtype=bool)
        eligible[:n] = True  # artificials may leave but never re-enter

        phase1 = _run_phase(tableau, basis, eligible, max_iterations)
        it1 = phase1.iterations
        if phase1.status == "iteration_limit":
            return SimplexResult(
                "iteration_limit", None, np.nan, it1,
                phase1_iterations=it1,
                bland_switches=phase1.bland_switches,
                degenerate_pivots=phase1.degenerate_pivots,
                warm_started=warm_started,
            )
        phase1_obj = -tableau[-1, -1]
        if phase1_obj > 1e-7:
            return SimplexResult(
                "infeasible", None, np.nan, it1,
                phase1_iterations=it1,
                bland_switches=phase1.bland_switches,
                degenerate_pivots=phase1.degenerate_pivots,
                warm_started=warm_started,
            )

        # Drive any artificial variables still in the basis out
        # (degenerate rows).
        for row in range(m):
            if basis[row] >= n:
                pivot_cols = np.where(np.abs(tableau[row, :n]) > TOL)[0]
                if pivot_cols.size:
                    _pivot(tableau, row, int(pivot_cols[0]))
                    basis[row] = int(pivot_cols[0])
                # else: redundant row; the artificial stays basic at zero.

        # ---- Phase 2: real objective -----------------------------------
        tableau2 = np.zeros((m + 1, n + 1))
        tableau2[:m, :n] = tableau[:m, :n]
        tableau2[:m, -1] = tableau[:m, -1]
        tableau2[-1, :n] = c
    else:
        # Warm basis still primal feasible: phase 1 is skipped outright.
        tableau2 = np.zeros((m + 1, n + 1))
        tableau2[:m, :n] = rows
        tableau2[:m, -1] = rhs
        tableau2[-1, :n] = c

    it1 = phase1.iterations
    # Subtract c_B * row for each basic variable to express reduced costs.
    for row, var in enumerate(basis):
        if var < n and abs(c[var]) > 0.0:
            tableau2[-1] -= c[var] * tableau2[row]

    # Rows whose basic variable is still an artificial (var >= n) need no
    # special freeze: the drive-out step above only leaves an artificial
    # basic when its row is identically zero over the real columns (the
    # constraint was redundant).  Such a row can never win the ratio test
    # (no positive entry) and every pivot subtracts a multiple of the
    # all-zero row's entry — i.e. nothing — so the row stays zero and the
    # artificial stays basic at level zero for the whole of phase 2.
    eligible2 = np.ones(n, dtype=bool)
    phase2 = _run_phase(tableau2, basis, eligible2, max_iterations)
    iterations = it1 + phase2.iterations
    bland_switches = phase1.bland_switches + phase2.bland_switches
    degenerate_pivots = phase1.degenerate_pivots + phase2.degenerate_pivots
    if phase2.status == "unbounded":
        return SimplexResult(
            "unbounded", None, -np.inf, iterations,
            phase1_iterations=it1, phase2_iterations=phase2.iterations,
            bland_switches=bland_switches, degenerate_pivots=degenerate_pivots,
            warm_started=warm_started,
        )
    if phase2.status == "iteration_limit":
        return SimplexResult(
            "iteration_limit", None, np.nan, iterations,
            phase1_iterations=it1, phase2_iterations=phase2.iterations,
            bland_switches=bland_switches, degenerate_pivots=degenerate_pivots,
            warm_started=warm_started,
        )

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tableau2[row, -1]
    # Numerical hygiene: clamp tiny negatives introduced by pivoting.
    x[np.abs(x) < 1e-11] = 0.0
    objective = float(c @ x)
    return SimplexResult(
        "optimal", x, objective, iterations,
        phase1_iterations=it1, phase2_iterations=phase2.iterations,
        bland_switches=bland_switches, degenerate_pivots=degenerate_pivots,
        basis=list(basis),
        warm_started=warm_started,
    )
