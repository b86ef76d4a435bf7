"""Per-row reference standardization + dense tableau solve of an array LP.

Solves ``min c'x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub``
the historical way: every variable bound becomes an explicit row, free
variables split into plus/minus columns, and the dense two-phase simplex
of :mod:`tests.oracles.simplex` runs cold from phase 1.  Nothing is
cached and nothing is presolved, which is what makes it a useful oracle
for :class:`repro.lp.matrix_lp.RelaxationContext`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.lp.matrix_lp import ArrayLPResult

from .simplex import solve_standard_form


def _standardize_arrays_reference(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Historical per-row-loop standardization (reference implementation).

    Kept verbatim (minus the never-used objective constant) as the
    cross-check oracle for :class:`repro.lp.matrix_lp.RelaxationContext`
    and as the "uncached" baseline of the node-cache micro-benchmark.  Returns
    ``(a, b, cost, plus_cols, minus_cols)`` with original ``x[i] =
    y[plus_cols[i]] - y[minus_cols[i]] + shift[i]`` (``minus_cols[i]`` is
    -1 for non-free variables).
    """
    n = c.shape[0]
    plus = np.zeros(n, dtype=int)
    minus = np.full(n, -1, dtype=int)
    shift = np.zeros(n)
    ncols = 0
    for i in range(n):
        plus[i] = ncols
        ncols += 1
        if np.isneginf(lb[i]):
            minus[i] = ncols
            ncols += 1
        else:
            shift[i] = lb[i]

    rows: list[tuple[np.ndarray, str, float]] = []

    def expand(row: np.ndarray, rhs: float) -> tuple[np.ndarray, float]:
        out = np.zeros(ncols)
        adj = rhs
        for i in range(n):
            coef = row[i]
            if coef == 0.0:
                continue
            out[plus[i]] += coef
            if minus[i] >= 0:
                out[minus[i]] -= coef
            adj -= coef * shift[i]
        return out, adj

    for r in range(a_ub.shape[0]):
        row, adj = expand(a_ub[r], float(b_ub[r]))
        rows.append((row, "le", adj))
    for r in range(a_eq.shape[0]):
        row, adj = expand(a_eq[r], float(b_eq[r]))
        rows.append((row, "eq", adj))
    for i in range(n):
        if not np.isposinf(ub[i]):
            row = np.zeros(ncols)
            row[plus[i]] = 1.0
            if minus[i] >= 0:
                row[minus[i]] = -1.0
            rows.append((row, "le", float(ub[i]) - shift[i]))

    nslack = sum(1 for _, sense, _ in rows if sense == "le")
    total = ncols + nslack
    a = np.zeros((len(rows), total))
    b = np.zeros(len(rows))
    slack = ncols
    for r, (row, sense, rhs) in enumerate(rows):
        a[r, :ncols] = row
        b[r] = rhs
        if sense == "le":
            a[r, slack] = 1.0
            slack += 1
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0

    cost = np.zeros(total)
    for i in range(n):
        cost[plus[i]] += c[i]
        if minus[i] >= 0:
            cost[minus[i]] -= c[i]
    return a, b, cost, plus, minus


def dense_arrays(kw: dict) -> dict:
    """``kw`` with its CSC ``a_ub``/``a_eq`` blocks expanded for this oracle."""
    return {**kw, "a_ub": kw["a_ub"].to_dense(), "a_eq": kw["a_eq"].to_dense()}


def solve_lp_arrays_reference(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    max_iterations: int = 20000,
) -> ArrayLPResult:
    """The pre-cache builtin node solve: full loop standardization + cold start.

    Oracle and benchmark baseline only — the library solves through
    :class:`repro.lp.matrix_lp.RelaxationContext`.
    """
    if (lb > ub + 1e-12).any():
        return ArrayLPResult("infeasible", None, np.nan)
    a, b, cost, plus, minus = _standardize_arrays_reference(
        c, a_ub, b_ub, a_eq, b_eq, lb, ub
    )
    start = time.perf_counter()
    result = solve_standard_form(a, b, cost, max_iterations=max_iterations)
    solve_elapsed = time.perf_counter() - start
    if result.status != "optimal":
        status = "error" if result.status == "iteration_limit" else result.status
        return ArrayLPResult(
            status, None, -np.inf if status == "unbounded" else np.nan,
            result.iterations,
            message="iteration_limit" if result.status == "iteration_limit" else "",
            solve_seconds=solve_elapsed,
        )
    y = result.x
    n = c.shape[0]
    x = np.empty(n)
    for i in range(n):
        val = y[plus[i]]
        if minus[i] >= 0:
            val -= y[minus[i]]
        x[i] = val + (lb[i] if not np.isneginf(lb[i]) else 0.0)
    return ArrayLPResult(
        "optimal", x, float(c @ x), result.iterations,
        phase1_iterations=result.phase1_iterations,
        phase2_iterations=result.phase2_iterations,
        bland_switches=result.bland_switches,
        degenerate_pivots=result.degenerate_pivots,
        solve_seconds=solve_elapsed,
    )
