"""Array-level LP solving used by the branch-and-bound search.

Solves ``min c'x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub``
with one of three engines:

* ``"builtin"`` (default) — the sparse bounded-variable revised simplex
  (:mod:`repro.lp.revised_simplex`).  Bounds stay implicit, so a
  branch-and-bound node solve is a pure bound-array update against the
  family built once per context: zero per-node row construction.
* ``"tableau"`` — the historical dense full-tableau simplex on a
  standard form with explicit bound rows.  Kept for cross-checking and
  as the revised core's benchmark baseline.
* ``"highs"`` — SciPy's HiGHS wrapper.

The hot path is :class:`RelaxationContext`: one context per B&B tree
assembles its engine's base data **once**, each node solve only varies
the bound arrays, and a parent node's optimal basis (plus, for the
revised core, its nonbasic-status vector) warm-starts the child.

:func:`solve_lp_arrays` remains the one-shot convenience wrapper (it
builds a throwaway context), and :func:`solve_lp_arrays_reference`
preserves the historical per-row Python-loop standardization as the
benchmark/cross-check baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..telemetry import metrics
from .array_presolve import presolve_arrays
from .dual_simplex import solve_bounded_lp_dual
from .revised_simplex import (
    SparseBoundedLP,
    bordered_binv,
    extend_warm_pair,
    solve_bounded_lp,
)
from .simplex import solve_standard_form

#: Basis inverses remembered per context (keyed by the basis itself, so
#: a hit is exact); bounds the pool's memory at ~48 m x m arrays.
_FACTOR_POOL_SIZE = 48


@dataclass
class ArrayLPResult:
    """LP relaxation outcome at the array level.

    The pivot-level counters are only populated by the builtin simplex
    engine; HiGHS reports a flat iteration count.  ``conversion_seconds``
    and ``solve_seconds`` split the wall clock between standard-form
    conversion and actual pivoting.  ``warm_token`` is an opaque value
    that can be passed back to :meth:`RelaxationContext.solve` as
    ``warm`` to warm-start a child node from this solve's basis.
    """

    status: str  # "optimal" | "infeasible" | "unbounded" | "error"
    x: np.ndarray | None
    objective: float
    iterations: int = 0
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    bland_switches: int = 0
    degenerate_pivots: int = 0
    refactorizations: int = 0
    eta_file_length: int = 0
    pricing_passes: int = 0
    bound_flips: int = 0
    dual_pivots: int = 0
    message: str = ""
    conversion_seconds: float = 0.0
    solve_seconds: float = 0.0
    warm_started: bool = False
    warm_token: tuple | None = None
    #: Row duals at optimality (``a_ub`` rows first, then ``a_eq``; the
    #: min-problem convention, ``y_i <= 0`` on binding ``<=`` rows).
    #: Populated by both the builtin revised/dual engines and HiGHS.
    duals: np.ndarray | None = None


def _solve_highs_arrays(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> ArrayLPResult:
    """One linprog/HiGHS call with the library's status mapping."""
    from scipy.optimize import linprog

    start = time.perf_counter()
    res = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    elapsed = time.perf_counter() - start
    nit = int(res.nit)
    if res.status == 0:
        duals = None
        ineq = getattr(res, "ineqlin", None)
        eq = getattr(res, "eqlin", None)
        if ineq is not None and eq is not None:
            duals = np.concatenate([
                np.atleast_1d(np.asarray(ineq.marginals, dtype=float))
                if a_ub.size else np.zeros(0),
                np.atleast_1d(np.asarray(eq.marginals, dtype=float))
                if a_eq.size else np.zeros(0),
            ])
        return ArrayLPResult(
            "optimal", res.x, float(res.fun), nit, solve_seconds=elapsed,
            duals=duals,
        )
    if res.status == 2:
        return ArrayLPResult("infeasible", None, np.nan, nit, solve_seconds=elapsed)
    if res.status == 3:
        return ArrayLPResult("unbounded", None, -np.inf, nit, solve_seconds=elapsed)
    if res.status == 1:
        # Same semantics as the builtin engine's pivot budget: an "error"
        # status whose message names the iteration limit.
        return ArrayLPResult(
            "error", None, np.nan, nit,
            message=f"iteration_limit: {res.message}", solve_seconds=elapsed,
        )
    return ArrayLPResult(
        "error", None, np.nan, nit, message=str(res.message), solve_seconds=elapsed
    )


class RelaxationContext:
    """Cached standardization of one bounded-variable LP family.

    A branch-and-bound tree solves many relaxations that share ``c``,
    ``A_ub``/``b_ub`` and ``A_eq``/``b_eq`` and differ only in ``(lb,
    ub)``.

    With the default revised engine (``"builtin"``) the context builds
    one :class:`~repro.lp.revised_simplex.SparseBoundedLP` family up
    front; a node solve passes the node's bound arrays straight into the
    core — bounds are implicit in the simplex, so there is no per-node
    row or matrix construction of any kind, and any parent basis is
    structurally transferable to any child.

    With ``engine="tableau"`` the context keeps the PR-2 dense path: the
    constraint blocks are expanded to plus/minus standard-form columns
    once (vectorized), and each node's matrix — including
    two-entries-per-row variable-bound rows — is assembled from the
    cached blocks.  The plus/minus split follows the **root** bounds, so
    a node that *loosens* a root-finite lower bound back to ``-inf``
    triggers a full restandardization (counted in
    ``structural_rebuilds``); B&B never does this, and the revised
    engine handles it natively.

    Telemetry attributes (``conversion_seconds``, ``solve_seconds``,
    ``node_solves``, ``cache_hits``, ``warm_start_hits``,
    ``warm_start_misses``, ``structural_rebuilds``, plus the revised
    core's ``refactorizations``, ``eta_file_length``,
    ``pricing_passes``, ``bound_flips``) accumulate over the context's
    lifetime; :mod:`repro.telemetry` counters mirror them process-wide.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        engine: str = "builtin",
        max_iterations: int = 20000,
        node_resolve: str = "dual",
        presolve: bool = True,
        integrality: np.ndarray | None = None,
    ) -> None:
        self.engine = engine
        # "builtin" runs the revised core; the dense tableau stays
        # reachable as "tableau".  Unknown engines are only rejected at
        # solve() time (constructing a context is cheap and side-effect
        # free for them).
        self._mode = "revised" if engine == "builtin" else engine
        self.max_iterations = max_iterations
        self.c = np.asarray(c, dtype=float)
        self.a_ub = np.asarray(a_ub, dtype=float)
        self.b_ub = np.asarray(b_ub, dtype=float)
        self.a_eq = np.asarray(a_eq, dtype=float)
        self.b_eq = np.asarray(b_eq, dtype=float)
        self.root_lb = np.array(lb, dtype=float, copy=True)
        self.root_ub = np.array(ub, dtype=float, copy=True)
        # Only the revised core has a dual path; the tableau stays
        # presolve-free so it remains an untouched cross-check oracle.
        self.node_resolve = node_resolve if self._mode == "revised" else "primal"
        self.presolve_enabled = bool(presolve) and self._mode in ("revised", "highs")
        self._integrality = (
            None if integrality is None else np.asarray(integrality).astype(bool)
        )

        self.conversion_seconds = 0.0
        self.solve_seconds = 0.0
        self.node_solves = 0
        self.cache_hits = 0
        self.warm_start_hits = 0
        self.warm_start_misses = 0
        self.structural_rebuilds = 0
        self.refactorizations = 0
        self.eta_file_length = 0
        self.pricing_passes = 0
        self.bound_flips = 0
        self.dual_entries = 0
        self.dual_pivots = 0
        self.dual_fallbacks = 0
        self.presolve_rows_dropped = 0
        self.presolve_bounds_tightened = 0
        self.presolve_rounds = 0
        self.presolve_reroots = 0
        self.row_extensions = 0
        self.extension_dual_entries = 0
        self._dual_entry_after_extension = False

        self._factor_pool: dict[bytes, np.ndarray] = {}
        self._presolve_infeasible = False
        self._presolve_message = ""
        # Row keep-masks actually applied to the effective arrays; a
        # re-root only has to rebuild the family when these change.
        self._keep_ub: np.ndarray | None = None
        self._keep_eq: np.ndarray | None = None
        # Effective (post-presolve) problem the engines actually solve;
        # aliases of the originals until presolve tightens something.
        self._eff_a_ub, self._eff_b_ub = self.a_ub, self.b_ub
        self._eff_a_eq, self._eff_b_eq = self.a_eq, self.b_eq
        self._eff_lb, self._eff_ub = self.root_lb, self.root_ub
        if self.presolve_enabled:
            self._run_presolve()

        if self._mode == "revised":
            start = time.perf_counter()
            self._family = SparseBoundedLP(
                self.c, self._eff_a_ub, self._eff_b_ub,
                self._eff_a_eq, self._eff_b_eq,
            )
            self.conversion_seconds += time.perf_counter() - start
        elif self._mode == "tableau":
            self._build_base()

    # -- array presolve ----------------------------------------------------

    def _run_presolve(self) -> None:
        """Reduce the root problem; node solves inherit the reductions.

        Dropped rows survive only through the tightened root bounds, so
        :meth:`solve` must intersect every node's bounds with
        ``_eff_lb``/``_eff_ub`` — and :meth:`_reroot` must redo all of
        this if a caller ever loosens bounds past the root box.
        """
        start = time.perf_counter()
        pre = presolve_arrays(
            self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq,
            self.root_lb, self.root_ub, integrality=self._integrality,
        )
        self.conversion_seconds += time.perf_counter() - start
        self.presolve_rows_dropped += pre.rows_dropped
        self.presolve_bounds_tightened += pre.bounds_tightened
        self.presolve_rounds += pre.rounds
        metrics.increment("relaxation.presolve_rows_dropped", pre.rows_dropped)
        metrics.increment("relaxation.presolve_bounds_tightened", pre.bounds_tightened)
        if pre.infeasible:
            # No reductions are applied: the effective arrays stay the
            # full aliases, so the masks record everything as kept.
            self._presolve_infeasible = True
            self._presolve_message = f"array presolve: {pre.message}"
            self._keep_ub = np.ones(self.b_ub.shape[0], dtype=bool)
            self._keep_eq = np.ones(self.b_eq.shape[0], dtype=bool)
            return
        self._keep_ub = pre.keep_ub
        self._keep_eq = pre.keep_eq
        if not pre.keep_ub.all():
            self._eff_a_ub = self.a_ub[pre.keep_ub]
            self._eff_b_ub = self.b_ub[pre.keep_ub]
        if not pre.keep_eq.all():
            self._eff_a_eq = self.a_eq[pre.keep_eq]
            self._eff_b_eq = self.b_eq[pre.keep_eq]
        self._eff_lb, self._eff_ub = pre.lb, pre.ub

    def _reroot(self, lb: np.ndarray, ub: np.ndarray) -> None:
        """A node loosened bounds past the root box: widen it and redo.

        Branch and bound never loosens, so this is the escape hatch for
        incremental re-solves that relax a directive between runs.  The
        family embeds only the kept rows (bounds stay implicit), so
        outstanding warm tokens and pooled factors survive the re-root
        whenever the fresh presolve keeps the same row set; only a
        changed keep-mask forces a rebuild and invalidates them.
        """
        self.presolve_reroots += 1
        metrics.increment("relaxation.presolve_reroots")
        old_keep_ub, old_keep_eq = self._keep_ub, self._keep_eq
        self.root_lb = np.minimum(self.root_lb, lb)
        self.root_ub = np.maximum(self.root_ub, ub)
        self._presolve_infeasible = False
        self._presolve_message = ""
        self._eff_a_ub, self._eff_b_ub = self.a_ub, self.b_ub
        self._eff_a_eq, self._eff_b_eq = self.a_eq, self.b_eq
        self._eff_lb, self._eff_ub = self.root_lb, self.root_ub
        self._run_presolve()
        same_rows = (
            old_keep_ub is not None
            and np.array_equal(old_keep_ub, self._keep_ub)
            and np.array_equal(old_keep_eq, self._keep_eq)
        )
        if same_rows or self._mode != "revised":
            return
        self.structural_rebuilds += 1
        metrics.increment("relaxation.structural_rebuilds")
        self._factor_pool.clear()
        start = time.perf_counter()
        self._family = SparseBoundedLP(
            self.c, self._eff_a_ub, self._eff_b_ub,
            self._eff_a_eq, self._eff_b_eq,
        )
        self.conversion_seconds += time.perf_counter() - start

    def _remember_factor(self, basis: np.ndarray, binv: np.ndarray) -> None:
        key = np.asarray(basis, dtype=np.int64).tobytes()
        pool = self._factor_pool
        if key not in pool and len(pool) >= _FACTOR_POOL_SIZE:
            pool.pop(next(iter(pool)))
        pool[key] = binv

    # -- in-place structural extension (appended rows, objective swap) -----

    def extend_rows(self, a_new: np.ndarray, b_new: np.ndarray) -> bool:
        """Append ``<=`` rows to the cached family in place.

        The warm-path escape from full context rebuilds: every
        pin/forbid/cap directive reaches the arrays as appended
        inequality rows, and everything already standardized stays
        valid.  Appended rows bypass presolve — a new constraint only
        shrinks the feasible set, so each root reduction derived without
        it still holds — and pooled basis inverses are re-keyed under
        their extended bases via the bordered identity (one ``k × m``
        matmul each) instead of being discarded.  Returns ``False`` when
        this context cannot extend (tableau mode), telling the caller to
        rebuild from scratch.
        """
        if self._mode not in ("revised", "highs"):
            return False
        n = self.c.shape[0]
        a_new = np.asarray(a_new, dtype=float).reshape(-1, n)
        b_new = np.asarray(b_new, dtype=float).reshape(a_new.shape[0])
        k = a_new.shape[0]
        if k == 0:
            return True
        start = time.perf_counter()
        was_alias = self._eff_a_ub is self.a_ub
        self.a_ub = np.vstack([self.a_ub, a_new])
        self.b_ub = np.concatenate([self.b_ub, b_new])
        if self._keep_ub is not None:
            self._keep_ub = np.concatenate([self._keep_ub, np.ones(k, dtype=bool)])
        if was_alias:
            self._eff_a_ub, self._eff_b_ub = self.a_ub, self.b_ub
        else:
            self._eff_a_ub = np.vstack([self._eff_a_ub, a_new])
            self._eff_b_ub = np.concatenate([self._eff_b_ub, b_new])
        self.row_extensions += 1
        metrics.increment("relaxation.row_extensions")
        if self._mode == "revised":
            # The family appends below a_eq so every existing slack id
            # (and with it every outstanding warm token) stays stable.
            m_old = self._family.m
            self._family.append_le_rows(a_new, b_new)
            new_slacks = np.arange(
                self._family.n + m_old,
                self._family.n + self._family.m,
                dtype=np.int64,
            )
            repooled: dict[bytes, np.ndarray] = {}
            for key, binv in self._factor_pool.items():
                basis_old = np.frombuffer(key, dtype=np.int64)
                if basis_old.shape[0] != m_old:
                    continue  # predates an even older structure change
                basis_ext = np.concatenate([basis_old, new_slacks])
                binv_ext = bordered_binv(self._family, basis_ext, binv, m_old)
                if binv_ext is not None:
                    repooled[basis_ext.tobytes()] = binv_ext
            self._factor_pool = repooled
            self._dual_entry_after_extension = True
        if self.presolve_enabled:
            self._presolve_extension()
        self.conversion_seconds += time.perf_counter() - start
        return True

    def _presolve_extension(self) -> None:
        """Re-derive bound tightenings now that rows were appended.

        Appended rows are sound without presolve (they only shrink the
        feasible set), but not *cheap*: a cap row whose implied fixings
        never reach the bound box can leave an extended context
        exploring a tree orders of magnitude larger than the cold
        rebuild it replaced.  Re-running the activity propagation over
        the extended arrays recovers exactly the box a rebuild's
        presolve would start from.  Only the bounds are adopted — rows
        stay embedded even when the fresh pass would drop them, so the
        family, every pooled factor and every bordered warm token stay
        valid (bounds never enter reduced costs).
        """
        pre = presolve_arrays(
            self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq,
            self.root_lb, self.root_ub, integrality=self._integrality,
        )
        self.presolve_rounds += pre.rounds
        if pre.infeasible:
            self._presolve_infeasible = True
            self._presolve_message = f"array presolve: {pre.message}"
            return
        tightened = int(
            (pre.lb > self._eff_lb + 1e-12).sum()
            + (pre.ub < self._eff_ub - 1e-12).sum()
        )
        if tightened:
            self.presolve_bounds_tightened += tightened
            metrics.increment("relaxation.presolve_bounds_tightened", tightened)
            self._eff_lb = np.maximum(self._eff_lb, pre.lb)
            self._eff_ub = np.minimum(self._eff_ub, pre.ub)

    def reduced_costs(self, duals: np.ndarray | None) -> np.ndarray | None:
        """Structural reduced costs ``c - Aᵀy`` for one solve's row duals.

        ``duals`` follows :attr:`ArrayLPResult.duals`: the *effective*
        (post-presolve) ``a_ub`` rows first, then ``a_eq``.  Returns
        ``None`` when no duals were reported or their length does not
        match the current effective row set (e.g. a token from before a
        re-root).
        """
        if duals is None:
            return None
        duals = np.asarray(duals, dtype=float)
        m_ub = self._eff_b_ub.shape[0]
        m_eq = self._eff_b_eq.shape[0]
        if duals.shape[0] != m_ub + m_eq:
            return None
        d = self.c.copy()
        if m_ub:
            d -= self._eff_a_ub.T @ duals[:m_ub]
        if m_eq:
            d -= self._eff_a_eq.T @ duals[m_ub:]
        return d

    def set_objective_vector(self, c_new: np.ndarray) -> bool:
        """Swap the objective in place; rows, presolve and tokens survive.

        Sound because nothing this context caches depends on ``c``: the
        revised family reads the shared ``c`` array at solve time, HiGHS
        receives it per call, and the array presolve applies no
        objective-driven reductions (``fix_empty_columns`` stays off).
        The tableau's expanded cost columns *are* c-derived, so tableau
        contexts refuse and the caller rebuilds.
        """
        if self._mode not in ("revised", "highs"):
            return False
        c_new = np.asarray(c_new, dtype=float)
        if c_new.shape != self.c.shape:
            return False
        self.c[:] = c_new
        return True

    def extend_warm_token(self, token: tuple | None) -> tuple | None:
        """Extend a pre-append warm token with the new rows' slack basics.

        The extended token is exactly dual feasible when the old one was
        optimal (the duals extend with zeros), which is what routes the
        next node solve through the dual simplex instead of a cold
        primal start.  ``None`` when the token cannot be mapped onto the
        current family.
        """
        if (
            self._mode != "revised"
            or token is None
            or len(token) != 3
            or token[0] != "revised"
        ):
            return None
        pair = extend_warm_pair(self._family, token[1], token[2])
        if pair is None:
            return None
        return ("revised", pair[0], pair[1])

    # -- one-time, fully vectorized base standardization -------------------

    def _build_base(self) -> None:
        start = time.perf_counter()
        n = self.c.shape[0]
        free = np.isneginf(self.root_lb)
        width = np.where(free, 2, 1)
        ends = np.cumsum(width)
        plus = ends - width
        minus = np.full(n, -1, dtype=int)
        minus[free] = plus[free] + 1
        self._free = free
        self._plus = plus
        self._minus = minus
        self._ncols = int(ends[-1]) if n else 0

        self._e_ub = self._expand_block(self.a_ub)
        self._e_eq = self._expand_block(self.a_eq)

        cost = np.zeros(self._ncols)
        cost[plus] = self.c
        cost[minus[free]] = -self.c[free]
        self._cost_struct = cost

        self._root_shift = np.where(free, 0.0, self.root_lb)
        self._b_ub_root = self.b_ub - self.a_ub @ self._root_shift
        self._b_eq_root = self.b_eq - self.a_eq @ self._root_shift
        self.conversion_seconds += time.perf_counter() - start

    def _expand_block(self, block: np.ndarray) -> np.ndarray:
        """Map an (m, n) block onto the plus/minus standard-form columns."""
        out = np.zeros((block.shape[0], self._ncols))
        if block.shape[0]:
            out[:, self._plus] = block
            free = self._free
            if free.any():
                out[:, self._minus[free]] = -block[:, free]
        return out

    # -- per-node assembly: O(changed bounds) rhs + sparse bound rows ------

    def _assemble(
        self, lb: np.ndarray, ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        free = self._free
        shift = np.where(free, 0.0, lb)
        dshift = shift - self._root_shift
        changed = np.nonzero(dshift)[0]
        b_ub_adj = self._b_ub_root.copy()
        b_eq_adj = self._b_eq_root.copy()
        if changed.size:
            b_ub_adj -= self.a_ub[:, changed] @ dshift[changed]
            b_eq_adj -= self.a_eq[:, changed] @ dshift[changed]

        ub_idx = np.nonzero(~np.isposinf(ub))[0]
        low_idx = np.nonzero(free & ~np.isneginf(lb))[0]
        m_ub, m_eq = self.a_ub.shape[0], self.a_eq.shape[0]
        m_bnd, m_low = ub_idx.size, low_idx.size
        n_le = m_ub + m_bnd + m_low
        m_total = m_ub + m_eq + m_bnd + m_low
        ncols = self._ncols
        # Nodes share the column layout iff they bound the same variables;
        # a matching key is what makes a parent basis transferable.
        key = (ub_idx.tobytes(), low_idx.tobytes())

        a = np.zeros((m_total, ncols + n_le))
        a[:m_ub, :ncols] = self._e_ub
        a[m_ub : m_ub + m_eq, :ncols] = self._e_eq
        r0 = m_ub + m_eq
        rows_u = r0 + np.arange(m_bnd)
        a[rows_u, self._plus[ub_idx]] = 1.0
        split = self._minus[ub_idx] >= 0
        a[rows_u[split], self._minus[ub_idx[split]]] = -1.0
        rows_l = r0 + m_bnd + np.arange(m_low)
        # Lower bound on a root-free variable: x+ - x- >= lb, as a <= row.
        a[rows_l, self._plus[low_idx]] = -1.0
        a[rows_l, self._minus[low_idx]] = 1.0
        le_rows = np.concatenate([np.arange(m_ub), np.arange(r0, m_total)])
        a[le_rows, ncols + np.arange(n_le)] = 1.0

        b = np.concatenate(
            [b_ub_adj, b_eq_adj, ub[ub_idx] - shift[ub_idx], -lb[low_idx]]
        )
        neg = b < 0
        a[neg] *= -1.0
        b[neg] *= -1.0

        cost = np.zeros(ncols + n_le)
        cost[:ncols] = self._cost_struct
        return a, b, cost, key

    # -- revised-core node solve: pure bound-array update ------------------

    def _solve_revised(
        self, lb: np.ndarray, ub: np.ndarray, warm: tuple | None
    ) -> ArrayLPResult:
        """Node solve on the shared sparse family — no row construction.

        The revised core's column layout never varies with the bounds,
        so every parent basis is structurally transferable; the token is
        simply ``("revised", basis, vstat)``.

        With ``node_resolve="dual"`` (the default) a warm-started node
        re-solve goes through the dual simplex: the parent's basis is
        dual feasible for the child by construction, so the walk is a
        handful of pivots (often zero) and infeasible children stop at
        the first Farkas row.  ``dual_lost``/``dual_infeasible`` exits
        fall back to the primal engine on the same warm token.
        """
        self.cache_hits += 1
        metrics.increment("relaxation.cache_hits")
        warm_pair = None
        if warm is not None and len(warm) == 3 and warm[0] == "revised":
            warm_pair = (warm[1], warm[2])
        start = time.perf_counter()
        result = None
        dual_pivots = 0
        if self.node_resolve == "dual" and warm_pair is not None:
            self.dual_entries += 1
            metrics.increment("relaxation.dual_entries")
            if self._dual_entry_after_extension:
                # First dual re-entry after a row append — the bordered
                # warm start actually carried across the extension.
                self._dual_entry_after_extension = False
                self.extension_dual_entries += 1
                metrics.increment("relaxation.extension_dual_entries")
            binv = self._factor_pool.get(
                np.asarray(warm_pair[0], dtype=np.int64).tobytes()
            )
            dres = solve_bounded_lp_dual(
                self._family, lb, ub,
                max_iterations=self.max_iterations, warm=warm_pair, binv=binv,
            )
            if dres.status in ("dual_lost", "dual_infeasible"):
                self.dual_fallbacks += 1
                metrics.increment("relaxation.dual_fallbacks")
            else:
                result = dres
                dual_pivots = dres.dual_pivots
                self.dual_pivots += dual_pivots
                metrics.increment("relaxation.dual_pivots", dual_pivots)
                if dres.binv is not None and dres.basis is not None:
                    self._remember_factor(dres.basis, dres.binv)
        if result is None:
            result = solve_bounded_lp(
                self._family, lb, ub,
                max_iterations=self.max_iterations, warm=warm_pair,
            )
        solve_elapsed = time.perf_counter() - start
        self.solve_seconds += solve_elapsed
        if warm_pair is not None:
            if result.warm_started:
                self.warm_start_hits += 1
                metrics.increment("relaxation.warm_start_hits")
            else:
                self.warm_start_misses += 1
                metrics.increment("relaxation.warm_start_misses")
        self.refactorizations += result.refactorizations
        self.eta_file_length += result.eta_file_length
        self.pricing_passes += result.pricing_passes
        self.bound_flips += result.bound_flips

        status = result.status
        message = result.message
        x = result.x
        objective = result.objective
        if status == "iteration_limit":
            status, message = "error", "iteration_limit"
            x, objective = None, np.nan
        elif status == "error":
            message = message or "numerical breakdown in revised simplex"
        elif status == "optimal":
            objective = float(self.c @ x)
        token = None
        if result.basis is not None:
            token = ("revised", result.basis, result.vstat)
        return ArrayLPResult(
            status, x, objective, result.iterations,
            phase1_iterations=result.phase1_iterations,
            phase2_iterations=result.phase2_iterations,
            bland_switches=result.bland_switches,
            degenerate_pivots=result.degenerate_pivots,
            refactorizations=result.refactorizations,
            eta_file_length=result.eta_file_length,
            pricing_passes=result.pricing_passes,
            bound_flips=result.bound_flips,
            dual_pivots=dual_pivots,
            message=message,
            solve_seconds=solve_elapsed,
            warm_started=result.warm_started,
            warm_token=token,
            duals=result.duals,
        )

    # -- node solves -------------------------------------------------------

    def solve(
        self,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
        warm: tuple | None = None,
    ) -> ArrayLPResult:
        """Solve one node relaxation for the given bound arrays.

        ``warm`` is the ``warm_token`` of a previous (typically parent)
        solve on this context; it is ignored when the node's bound
        pattern no longer matches the token's column layout.
        """
        lb = self.root_lb if lb is None else np.asarray(lb, dtype=float)
        ub = self.root_ub if ub is None else np.asarray(ub, dtype=float)
        if (lb > ub + 1e-12).any():
            return ArrayLPResult("infeasible", None, np.nan)

        self.node_solves += 1
        metrics.increment("relaxation.node_solves")
        if self.presolve_enabled:
            if (lb < self.root_lb - 1e-9).any() or (ub > self.root_ub + 1e-9).any():
                self._reroot(lb, ub)
            if self._presolve_infeasible:
                return ArrayLPResult(
                    "infeasible", None, np.nan, message=self._presolve_message
                )
            # Reductions hold for any node inside the root box, but the
            # dropped singleton rows live on only as root-bound
            # tightenings — intersecting is mandatory, not an
            # optimization.
            lb = np.maximum(lb, self._eff_lb)
            ub = np.minimum(ub, self._eff_ub)
            crossed = lb > ub
            if crossed.any():
                if (lb[crossed] - ub[crossed]).max() > 1e-7:
                    return ArrayLPResult(
                        "infeasible", None, np.nan,
                        message="node bounds cross presolved root bounds",
                    )
                # Sub-tolerance crossings from implied-bound rounding:
                # collapse instead of declaring infeasible.
                lb = np.minimum(lb, ub)
        if self._mode == "highs":
            result = _solve_highs_arrays(
                self.c, self._eff_a_ub, self._eff_b_ub,
                self._eff_a_eq, self._eff_b_eq, lb, ub,
            )
            self.solve_seconds += result.solve_seconds
            return result
        if self._mode == "revised":
            return self._solve_revised(lb, ub, warm)
        if self._mode != "tableau":
            raise ValueError(f"unknown LP engine: {self.engine!r}")

        if (np.isneginf(lb) & ~self._free).any():
            # A root-finite lower bound was loosened to -inf: the cached
            # plus/minus split cannot represent this node.  Rebuild from
            # scratch (never hit by branch-and-bound, which only tightens).
            self.structural_rebuilds += 1
            metrics.increment("relaxation.structural_rebuilds")
            fresh = RelaxationContext(
                self.c, self.a_ub, self.b_ub, self.a_eq, self.b_eq,
                lb, ub, engine="tableau", max_iterations=self.max_iterations,
            )
            result = fresh.solve()
            self.conversion_seconds += fresh.conversion_seconds
            self.solve_seconds += fresh.solve_seconds
            return result

        self.cache_hits += 1
        metrics.increment("relaxation.cache_hits")
        start = time.perf_counter()
        a, b, cost, key = self._assemble(lb, ub)
        conversion = time.perf_counter() - start
        self.conversion_seconds += conversion

        warm_basis = None
        if warm is not None and warm[0] == key:
            warm_basis = warm[1]
        start = time.perf_counter()
        result = solve_standard_form(
            a, b, cost, max_iterations=self.max_iterations, warm_basis=warm_basis
        )
        solve_elapsed = time.perf_counter() - start
        self.solve_seconds += solve_elapsed
        if warm is not None:
            if result.warm_started:
                self.warm_start_hits += 1
                metrics.increment("relaxation.warm_start_hits")
            else:
                self.warm_start_misses += 1
                metrics.increment("relaxation.warm_start_misses")

        def _with_detail(status: str, x, objective: float, message: str = "") -> ArrayLPResult:
            return ArrayLPResult(
                status, x, objective, result.iterations,
                phase1_iterations=result.phase1_iterations,
                phase2_iterations=result.phase2_iterations,
                bland_switches=result.bland_switches,
                degenerate_pivots=result.degenerate_pivots,
                message=message,
                conversion_seconds=conversion,
                solve_seconds=solve_elapsed,
                warm_started=result.warm_started,
                warm_token=(key, result.basis) if result.basis is not None else None,
            )

        if result.status == "iteration_limit":
            return _with_detail("error", None, np.nan, message="iteration_limit")
        if result.status != "optimal":
            return _with_detail(result.status, None,
                                -np.inf if result.status == "unbounded" else np.nan)
        y = result.x
        x = y[self._plus].copy()
        free = self._free
        if free.any():
            x[free] -= y[self._minus[free]]
        x += np.where(free, 0.0, lb)
        return _with_detail("optimal", x, float(self.c @ x))


def solve_lp_arrays(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    engine: str = "highs",
    max_iterations: int = 20000,
    presolve: bool = True,
) -> ArrayLPResult:
    """Solve the bounded-variable LP with the requested engine.

    One-shot convenience wrapper over :class:`RelaxationContext`; callers
    with many same-structure solves should hold a context instead.
    Infeasible bound pairs (``lb > ub``) short-circuit to infeasible —
    branch-and-bound produces those routinely when fixing binaries.
    """
    if (lb > ub + 1e-12).any():
        return ArrayLPResult("infeasible", None, np.nan)
    context = RelaxationContext(
        c, a_ub, b_ub, a_eq, b_eq, lb, ub,
        engine=engine, max_iterations=max_iterations, presolve=presolve,
    )
    return context.solve()


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
    cross-check oracle for :class:`RelaxationContext` and as the
    "uncached" baseline of the node-cache micro-benchmark.  Returns
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

    Benchmark baseline only — production callers use
    :class:`RelaxationContext` / :func:`solve_lp_arrays`.
    """
    if (lb > ub + 1e-12).any():
        return ArrayLPResult("infeasible", None, np.nan)
    start = time.perf_counter()
    a, b, cost, plus, minus = _standardize_arrays_reference(
        c, a_ub, b_ub, a_eq, b_eq, lb, ub
    )
    conversion = time.perf_counter() - start
    start = time.perf_counter()
    result = solve_standard_form(a, b, cost, max_iterations=max_iterations)
    solve_elapsed = time.perf_counter() - start
    if result.status != "optimal":
        status = "error" if result.status == "iteration_limit" else result.status
        return ArrayLPResult(
            status, None, -np.inf if status == "unbounded" else np.nan,
            result.iterations,
            message="iteration_limit" if result.status == "iteration_limit" else "",
            conversion_seconds=conversion, solve_seconds=solve_elapsed,
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
        conversion_seconds=conversion, solve_seconds=solve_elapsed,
    )
