"""Array-level LP solving used by the branch-and-bound search.

Solves ``min c'x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, lb <= x <= ub``
with one of two engines:

* ``"builtin"`` (default) — the sparse bounded-variable revised simplex
  (:mod:`repro.lp.revised_simplex`), with warm node re-solves entering
  the dual simplex (:mod:`repro.lp.dual_simplex`).  Bounds stay
  implicit, so a branch-and-bound node solve is a pure bound-array
  update against the family built once per context: zero per-node row
  construction.
* ``"highs"`` — SciPy's HiGHS wrapper.

The hot path is :class:`RelaxationContext`: one context per B&B tree
presolves and assembles its engine's base data **once**, each node solve
only varies the bound arrays, and a parent node's optimal basis and
nonbasic-status vector warm-start the child.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..telemetry import metrics
from .array_presolve import presolve_arrays
from .cuts import binary_mask, implied_bound_rows, nonnegative_mask
from .dual_simplex import solve_bounded_lp_dual
from .revised_simplex import (
    SparseBoundedLP,
    bordered_binv,
    extend_warm_pair,
    slack_basis,
    solve_bounded_lp,
)
from .sparse import CSCMatrix

#: Basis inverses remembered per context (keyed by the basis itself, so
#: a hit is exact); bounds the pool's memory at ~48 m x m arrays.
_FACTOR_POOL_SIZE = 48

#: Warm token that asks a builtin context to enter the dual simplex from
#: its family's all-slack basis (:func:`~repro.lp.revised_simplex.slack_basis`)
#: instead of solving cold with the primal engine.  It is not a reuse of
#: an earlier basis, so it counts in neither the warm-start hit/miss
#: counters nor ``dual_entries``; a fallback still counts in
#: ``dual_fallbacks``.  The HiGHS engine ignores it like any token.
SLACK_TOKEN = ("slack",)


@dataclass
class ArrayLPResult:
    """LP relaxation outcome at the array level.

    The pivot-level counters are only populated by the builtin simplex
    engine; HiGHS reports a flat iteration count.  ``solve_seconds`` is
    the pivoting time (presolve and family build accumulate on the
    :class:`RelaxationContext`).  ``warm_token`` is an opaque value that
    can be passed back to :meth:`RelaxationContext.solve` as ``warm`` to
    warm-start a child node from this solve's basis.
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
    #: The engine that produced the result: ``"dual"`` or ``"primal"``
    #: (builtin) or ``"highs"``; empty when presolve decided the node.
    engine: str = ""
    message: str = ""
    solve_seconds: float = 0.0
    warm_started: bool = False
    warm_token: tuple | None = None
    #: Row duals at optimality, in the min-problem convention
    #: (``y_i <= 0`` on binding ``<=`` rows).  Populated by both engines,
    #: in each engine's own row order: HiGHS reports every ``a_ub`` row
    #: (rows appended by :meth:`RelaxationContext.extend_rows`
    #: included) and then ``a_eq``; the builtin family reports the
    #: original ``a_ub`` rows, then ``a_eq``, then the appended rows.
    #: The two orders differ only after an append.
    duals: np.ndarray | None = None


def _solve_highs_arrays(
    c: np.ndarray,
    a_ub: CSCMatrix,
    b_ub: np.ndarray,
    a_eq: CSCMatrix,
    b_eq: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
) -> ArrayLPResult:
    """One linprog/HiGHS call with the library's status mapping."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_matrix

    def scipy_block(a: CSCMatrix):
        if not a.shape[0]:
            return None
        return csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)

    start = time.perf_counter()
    res = linprog(
        c,
        A_ub=scipy_block(a_ub),
        b_ub=b_ub if b_ub.size else None,
        A_eq=scipy_block(a_eq),
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
                if a_ub.shape[0] else np.zeros(0),
                np.atleast_1d(np.asarray(eq.marginals, dtype=float))
                if a_eq.shape[0] else np.zeros(0),
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
    ub)``.  The context runs the array presolve once on the root arrays
    (every node then solves the reduced problem), and with the default
    engine (``"builtin"``) builds one
    :class:`~repro.lp.revised_simplex.SparseBoundedLP` family up front;
    a node solve passes the node's bound arrays straight into the core —
    bounds are implicit in the simplex, so there is no per-node row or
    matrix construction of any kind, and any parent basis is
    structurally transferable to any child.  ``engine="highs"`` hands
    each node's presolved arrays to HiGHS instead.

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
        a_ub: CSCMatrix,
        b_ub: np.ndarray,
        a_eq: CSCMatrix,
        b_eq: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        engine: str = "builtin",
        max_iterations: int = 20000,
        integrality: np.ndarray | None = None,
    ) -> None:
        self.engine = engine  # "builtin" or "highs"; checked by solve()
        self.max_iterations = max_iterations
        self.c = np.asarray(c, dtype=float)
        self.a_ub = a_ub
        self.b_ub = np.asarray(b_ub, dtype=float)
        self.a_eq = a_eq
        self.b_eq = np.asarray(b_eq, dtype=float)
        self.root_lb = np.array(lb, dtype=float, copy=True)
        self.root_ub = np.array(ub, dtype=float, copy=True)
        self._integrality = (
            np.zeros(self.c.shape[0], dtype=bool) if integrality is None
            else np.asarray(integrality).astype(bool)
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
        #: ``(x, u)`` pairs whose ``x − u ≤ 0`` cut rows this context
        #: holds; a context that outlives one tree (the solve cache's)
        #: must never receive the same cut row twice.
        self.implied_pairs = np.zeros((0, 2), dtype=np.int64)
        # Columns whose 0/1 box and whose ``lb ≥ 0`` some held cut row
        # was derived under (see add_cut_rows / cuts_hold).
        self._cut_binary = np.zeros(self.c.shape[0], dtype=bool)
        self._cut_nonneg = np.zeros(self.c.shape[0], dtype=bool)

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
        self._run_presolve()

        if self.engine == "builtin":
            start = time.perf_counter()
            self._family = SparseBoundedLP(
                self.c, self._eff_a_ub, self._eff_b_ub,
                self._eff_a_eq, self._eff_b_eq,
            )
            self.conversion_seconds += time.perf_counter() - start

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
            self._eff_a_ub = self.a_ub.take_rows(pre.keep_ub)
            self._eff_b_ub = self.b_ub[pre.keep_ub]
        if not pre.keep_eq.all():
            self._eff_a_eq = self.a_eq.take_rows(pre.keep_eq)
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
        if same_rows or self.engine != "builtin":
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

    def extend_rows(self, a_new: CSCMatrix, b_new: np.ndarray) -> None:
        """Append ``<=`` rows to the cached family in place.

        The warm-path escape from full context rebuilds: every
        pin/forbid/cap directive reaches the arrays as appended
        inequality rows, and everything already standardized stays
        valid.  Appended rows bypass presolve — a new constraint only
        shrinks the feasible set, so each root reduction derived without
        it still holds — and pooled basis inverses are re-keyed under
        their extended bases via the bordered identity (one ``k × m``
        matmul each) instead of being discarded.  The bound box is then
        re-propagated over the extended rows (:meth:`_presolve_extension`).
        """
        if self._append_rows(a_new, b_new):
            start = time.perf_counter()
            self._presolve_extension()
            self.conversion_seconds += time.perf_counter() - start

    def _append_rows(self, a_new: CSCMatrix, b_new: np.ndarray) -> bool:
        """Append ``<=`` rows in place (see :meth:`extend_rows`), without
        re-propagating bounds; ``False`` when there was nothing to append."""
        k = a_new.shape[0]
        b_new = np.asarray(b_new, dtype=float).reshape(k)
        if k == 0:
            return False
        start = time.perf_counter()
        was_alias = self._eff_a_ub is self.a_ub
        self.a_ub = CSCMatrix.vstack(self.a_ub, a_new)
        self.b_ub = np.concatenate([self.b_ub, b_new])
        if self._keep_ub is not None:
            self._keep_ub = np.concatenate([self._keep_ub, np.ones(k, dtype=bool)])
        if was_alias:
            self._eff_a_ub, self._eff_b_ub = self.a_ub, self.b_ub
        else:
            self._eff_a_ub = CSCMatrix.vstack(self._eff_a_ub, a_new)
            self._eff_b_ub = np.concatenate([self._eff_b_ub, b_new])
        self.row_extensions += 1
        metrics.increment("relaxation.row_extensions")
        if self.engine == "builtin":
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
        self.conversion_seconds += time.perf_counter() - start
        return True

    def add_cut_rows(
        self, a: CSCMatrix, b: np.ndarray, lb: np.ndarray, ub: np.ndarray
    ) -> None:
        """Append cut rows derived under the bound box ``(lb, ub)``.

        A cut is valid for every integer point of the model it was
        derived from, and appended model rows only shrink that set; but
        the derivations read two facts from the box: which columns are
        0/1 and which have ``lb ≥ 0``.  Both are recorded here, so a
        context that outlives its tree can tell (:meth:`cuts_hold`)
        when a later box no longer supports the rows it holds.

        Unlike :meth:`extend_rows`, no bound re-propagation follows.
        Skipping a presolve is always sound, and after root cut rounds
        it costs a full activity pass per round while tightening
        nothing on the consolidation models.
        """
        self._append_rows(a, b)
        self._cut_binary |= binary_mask(self._integrality, lb, ub)
        self._cut_nonneg |= nonnegative_mask(lb)

    def cuts_hold(self, lb: np.ndarray, ub: np.ndarray) -> bool:
        """Whether every held cut row stays valid under the box ``(lb, ub)``."""
        binary = binary_mask(self._integrality, lb, ub)
        return bool(
            binary[self._cut_binary].all()
            and nonnegative_mask(lb)[self._cut_nonneg].all()
        )

    def add_implied_bounds(
        self, pairs: np.ndarray, lb: np.ndarray, ub: np.ndarray
    ) -> np.ndarray:
        """Append ``x − u ≤ 0`` rows for the pairs not already held.

        ``(lb, ub)`` is the box the pairs were derived under (see
        :meth:`add_cut_rows`).  Returns the pairs actually appended
        (possibly none); they join :attr:`implied_pairs` in the same
        step as their rows, so the memory and the row set cannot drift
        apart.
        """
        n = self.c.shape[0]
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        held = self.implied_pairs
        if held.size and pairs.size:
            pairs = pairs[
                ~np.isin(pairs[:, 0] * n + pairs[:, 1], held[:, 0] * n + held[:, 1])
            ]
        if pairs.size:
            self.add_cut_rows(*implied_bound_rows(pairs, n), lb, ub)
            self.implied_pairs = np.concatenate([held, pairs])
        return pairs

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

        ``duals`` is split as the *effective* (post-presolve) ``a_ub``
        rows first, appended rows included, then ``a_eq``.  That is the
        HiGHS engine's order (:attr:`ArrayLPResult.duals`).  The builtin
        family reports appended rows *after* ``a_eq``, so after an
        append its reduced costs come out misaligned here whenever the
        context has equality rows — a known defect.  Returns ``None``
        when no duals were reported or their length does not match the
        current effective row set (e.g. a token from before a re-root).
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
            d -= self._eff_a_ub.rmatvec(duals[:m_ub])
        if m_eq:
            d -= self._eff_a_eq.rmatvec(duals[m_ub:])
        return d

    def set_objective_vector(self, c_new: np.ndarray) -> bool:
        """Swap the objective in place; rows, presolve and tokens survive.

        Sound because nothing this context caches depends on ``c``: the
        revised family reads the shared ``c`` array at solve time, HiGHS
        receives it per call, and the array presolve applies no
        objective-driven reductions (``fix_empty_columns`` stays off).
        Returns ``False`` (the caller rebuilds) on a shape mismatch.
        """
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
            self.engine != "builtin"
            or token is None
            or len(token) != 3
            or token[0] != "revised"
        ):
            return None
        pair = extend_warm_pair(self._family, token[1], token[2])
        if pair is None:
            return None
        return ("revised", pair[0], pair[1])

    # -- revised-core node solve: pure bound-array update ------------------

    def _solve_revised(
        self, lb: np.ndarray, ub: np.ndarray, warm: tuple | None
    ) -> ArrayLPResult:
        """Node solve on the shared sparse family — no row construction.

        The revised core's column layout never varies with the bounds,
        so every parent basis is structurally transferable; the token is
        simply ``("revised", basis, vstat)``.

        A warm-started node re-solve goes through the dual simplex: the
        parent's basis is dual feasible for the child by construction,
        so the walk is a handful of pivots (often zero) and infeasible
        children stop at the first Farkas row.  :data:`SLACK_TOKEN`
        enters the same walk from the all-slack basis, whose inverse is
        the identity (with no rows there is nothing to walk, and the
        primal engine solves each column alone).  ``dual_lost``/
        ``dual_infeasible`` exits fall back to the primal engine on the
        same warm token (cold for the slack token), as does a solve
        without a token.
        """
        self.cache_hits += 1
        metrics.increment("relaxation.cache_hits")
        warm_pair = None
        if warm is not None and len(warm) == 3 and warm[0] == "revised":
            warm_pair = (warm[1], warm[2])
        start = time.perf_counter()
        result = None
        if warm == SLACK_TOKEN and self._family.m:
            result = self._solve_dual(
                lb, ub, slack_basis(self._family), np.eye(self._family.m)
            )
        elif warm_pair is not None:
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
            result = self._solve_dual(lb, ub, warm_pair, binv)
        engine = "dual"
        if result is None:
            engine = "primal"
            result = solve_bounded_lp(
                self._family, lb, ub,
                max_iterations=self.max_iterations, warm=warm_pair,
            )
        dual_pivots = result.dual_pivots if engine == "dual" else 0
        if result.binv is not None:
            # Either engine's verified inverse saves the next dual
            # re-entry on this basis its entry refactorization.
            self._remember_factor(result.basis, result.binv)
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
            engine=engine,
            message=message,
            solve_seconds=solve_elapsed,
            warm_started=warm_pair is not None and result.warm_started,
            warm_token=token,
            duals=result.duals,
        )

    def _solve_dual(
        self,
        lb: np.ndarray,
        ub: np.ndarray,
        pair: tuple[np.ndarray, np.ndarray],
        binv: np.ndarray | None,
    ):
        """Dual-simplex attempt from ``pair``; ``None`` after a fallback exit."""
        dres = solve_bounded_lp_dual(
            self._family, lb, ub,
            max_iterations=self.max_iterations, warm=pair, binv=binv,
        )
        if dres.status in ("dual_lost", "dual_infeasible"):
            self.dual_fallbacks += 1
            metrics.increment("relaxation.dual_fallbacks")
            return None
        self.dual_pivots += dres.dual_pivots
        metrics.increment("relaxation.dual_pivots", dres.dual_pivots)
        return dres

    # -- node solves -------------------------------------------------------

    def solve(
        self,
        lb: np.ndarray | None = None,
        ub: np.ndarray | None = None,
        warm: tuple | None = None,
    ) -> ArrayLPResult:
        """Solve one node relaxation for the given bound arrays.

        ``warm`` is the ``warm_token`` of a previous (typically parent)
        solve on this context; the HiGHS engine ignores it.
        """
        if self.engine not in ("builtin", "highs"):
            raise ValueError(f"unknown LP engine: {self.engine!r}")
        lb = self.root_lb if lb is None else np.asarray(lb, dtype=float)
        ub = self.root_ub if ub is None else np.asarray(ub, dtype=float)
        if (lb > ub + 1e-12).any():
            return ArrayLPResult("infeasible", None, np.nan)

        self.node_solves += 1
        metrics.increment("relaxation.node_solves")
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
        if self.engine == "highs":
            result = _solve_highs_arrays(
                self.c, self._eff_a_ub, self._eff_b_ub,
                self._eff_a_eq, self._eff_b_eq, lb, ub,
            )
            result.engine = "highs"
            self.solve_seconds += result.solve_seconds
            return result
        return self._solve_revised(lb, ub, warm)

