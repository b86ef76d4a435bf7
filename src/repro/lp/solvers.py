"""Solver backend registry and the public :func:`solve` entry point.

Backends:

``highs``
    SciPy's bundled HiGHS (exact, fast; the default — the reproduction's
    stand-in for the paper's CPLEX).
``branch_bound``
    Our from-scratch best-first B&B over LP relaxations (exact); a pure
    LP is one root relaxation, so with ``relaxation_engine="builtin"``
    this is also the from-scratch LP solver.
``auto``
    ``highs`` (SciPy is a hard dependency, so there is nothing to fall
    back from).

Options are carried by a typed :class:`~repro.lp.options.SolveOptions`
record validated against the chosen backend; built-in backends reject
keyword options.  Externally registered backends
(:func:`register_backend`) keep the ``fn(problem, **options)`` calling
convention.

Every solve that passes through :func:`solve` is recorded by the
telemetry layer: the ``solves.*`` counters are bumped and — when a trace
writer is active (CLI ``--trace FILE``) — one JSONL record is emitted
per solve, carrying the backend's :class:`~repro.telemetry.SolveStats`.

Incremental re-solves go through :class:`SolveCache`: a fingerprint-keyed
solution cache plus warm-start plumbing (previous-incumbent MIP starts
and persistent :class:`~repro.lp.matrix_lp.RelaxationContext` reuse for
``branch_bound``) that makes solving a *sequence* of closely related
models much cheaper than solving each cold.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping

import numpy as np

from ..telemetry import metrics, record_solve
from .branch_bound import solve_branch_and_bound
from .fingerprint import (
    constraint_digest,
    extend_structure_fingerprint,
    objective_digest,
    problem_fingerprint,
    structure_fingerprint,
)
from .matrix_lp import RelaxationContext
from .options import SolveOptions
from .problem import Problem
from .solution import Solution
from .sparse import CSCMatrix, constraint_blocks, objective_arrays
from .standard_form import to_matrix_form


def _solve_branch_bound(
    problem: Problem,
    options: SolveOptions,
    form=None,
    context: RelaxationContext | None = None,
    basis_io: dict | None = None,
) -> Solution:
    return solve_branch_and_bound(
        problem,
        relaxation_engine=options.relaxation_engine,
        node_limit=options.node_limit,
        time_limit=options.time_limit,
        gap_tolerance=options.gap_tolerance,
        cover_cut_rounds=options.cover_cut_rounds,
        max_iterations=options.max_iterations,
        warm_start=options.warm_start,
        form=form,
        context=context,
        basis_io=basis_io,
    )


def _solve_highs(problem: Problem, options: SolveOptions) -> Solution:
    from .highs import solve_with_highs

    # SciPy's milp/linprog expose no solution-hint API, so a warm_start
    # is accepted (the incremental layer passes one to every backend)
    # but cannot be forwarded; the drop is counted, never silent.
    if options.warm_start is not None:
        metrics.increment("incremental.warm_start_unsupported")
    return solve_with_highs(
        problem,
        time_limit=options.time_limit,
        mip_rel_gap=options.mip_rel_gap,
    )


_BACKENDS: dict[str, Callable[..., Solution]] = {
    "highs": _solve_highs,
    "branch_bound": _solve_branch_bound,
    "auto": _solve_highs,
}

#: Built-in backends take a typed ``SolveOptions``; externally registered
#: ones keep receiving ``**kwargs`` (their functions predate the record).
_TYPED_BACKENDS = frozenset(_BACKENDS)


def available_backends() -> list[str]:
    """Names accepted by :func:`solve`."""
    return sorted(_BACKENDS)


def register_backend(name: str, fn: Callable[..., Solution]) -> None:
    """Register a custom backend (used by tests and extensions)."""
    if name in _BACKENDS:
        raise ValueError(f"backend {name!r} already registered")
    _BACKENDS[name] = fn


def solve(
    problem: Problem,
    backend: str = "auto",
    options: SolveOptions | None = None,
    cache: "SolveCache | None" = None,
    **backend_options,
) -> Solution:
    """Solve ``problem`` with the named backend.

    ``options`` configures the solve; it is validated against the chosen
    backend so engine-specific flags can never be silently ignored.
    Keyword options are forwarded only to externally registered
    backends; a built-in backend raises ``TypeError`` for them.

    ``cache`` routes the call through a :class:`SolveCache`:
    fingerprint-identical re-solves return the cached solution, and
    misses are warm-started from the cache's previous incumbent.
    """
    try:
        fn = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {', '.join(available_backends())}"
        ) from None

    if backend in _TYPED_BACKENDS:
        if backend_options:
            raise TypeError(
                f"backend {backend!r} takes no keyword options "
                f"({', '.join(sorted(backend_options))}); pass "
                "options=SolveOptions(...) instead"
            )
        options = (options or SolveOptions()).validate_for(backend)
        if cache is not None:
            return cache.solve(problem, backend, options)
        call = lambda: fn(problem, options)
    else:
        if options is not None:
            backend_options = dict(options.as_kwargs(), **backend_options)
        call = lambda: fn(problem, **backend_options)

    start = time.monotonic()
    solution = call()
    record_solve(
        problem=problem.name,
        backend=backend,
        solver=solution.solver,
        status=solution.status.value,
        objective=solution.objective,
        stats=solution.stats,
        elapsed_seconds=time.monotonic() - start,
    )
    return solution


def _bound_arrays(variables) -> tuple[np.ndarray, np.ndarray]:
    """``(lb, ub)`` arrays of ``variables``, infinite where unbounded."""
    lb = np.array([-np.inf if v.lb is None else v.lb for v in variables])
    ub = np.array([np.inf if v.ub is None else v.ub for v in variables])
    return lb, ub


class SolveCache:
    """Fingerprint-keyed solve cache with warm-start seeding.

    One cache serves one *refinement session*: a sequence of solves of
    closely related models (the paper's iterative-modification loop).
    Four mechanisms stack, strongest first:

    * **solution reuse** — a model whose canonical fingerprint was
      already solved returns the stored :class:`Solution` without any
      solver work (an ``undo`` directive makes this exact case);
    * **tightening shortcut** — when the model changed only by
      *shrinking* the feasible region (bounds narrowed, constraints
      appended — which is every pin/forbid/retire/cap directive) and the
      previous optimum still satisfies the new bounds and rows, that
      point is provably still optimal (the minimum over a subset cannot
      be lower, and the old argmin is in the subset), so the re-solve is
      a feasibility check instead of a search;
    * **structure reuse** (``branch_bound`` only) — models sharing the
      cached context's matrices (same constraint rows, different bounds)
      reuse one :class:`~repro.lp.matrix_lp.RelaxationContext`, so the
      re-solve skips matrix conversion and standardization, and the
      previous root simplex basis warm-starts the new root relaxation.
      When the model differs only by *appended* inequality rows or a
      swapped objective — which is every cap/pin/forbid/retire/move-
      penalty directive — the context is **extended in place** instead
      of rebuilt: rows append to the standardized family, the structure
      key chains (``parent ⊕ appended-row digests``, see
      :func:`~repro.lp.fingerprint.extend_structure_fingerprint`), and
      the previous root basis token is extended with the new rows'
      slacks so the next root solve re-enters through the dual simplex
      instead of a cold start;
    * **incumbent seeding** — the previous solve's point (or a repaired
      hint supplied via ``options.warm_start``) becomes the new solve's
      MIP start when feasible, so pruning bites from node one.  An
      installed :attr:`hint_repairer` gets a chance to *project* a
      stale incumbent back into the feasible region (shift load off a
      newly-capped site) before the hint is offered, so a directive that
      invalidates the incumbent no longer forfeits the MIP start.

    Lifetime telemetry lives in the ``incremental.*`` counters and in
    :attr:`hits` / :attr:`misses` / :attr:`context_reuses` /
    :attr:`context_extensions` / :attr:`hints_repaired`.
    """

    def __init__(self, max_solutions: int = 64) -> None:
        if max_solutions < 1:
            raise ValueError("max_solutions must be at least 1")
        self.max_solutions = max_solutions
        self._solutions: dict[str, Solution] = {}
        self._last: Solution | None = None
        self._structure_key: str | None = None
        self._context: RelaxationContext | None = None
        self._form = None
        self._basis_io: dict = {}
        #: Optional ``(problem, hint) -> dict | None`` callback: return a
        #: repaired name→value hint when the given one is infeasible for
        #: ``problem`` and fixable, ``None`` to leave the hint alone.
        self.hint_repairer = None
        # Snapshot of the model state the last solution was solved
        # against, for the tightening shortcut: variable identities,
        # bound arrays, the constraint list prefix and the objective.
        self._snap_vars: list | None = None
        self._snap_lb: np.ndarray | None = None
        self._snap_ub: np.ndarray | None = None
        self._snap_constraints: list | None = None
        self._snap_objective = None
        # Snapshot of the model state the cached context standardized,
        # for extension matching: solver options, variable identities,
        # per-row identities + content digests, objective identity +
        # digest.  Row matching is identity-first with a content-digest
        # fallback, because directive journals pop and re-apply rows
        # wholesale — same content, fresh Python objects.
        self._ctx_opt_key: str | None = None
        self._ctx_vars: list | None = None
        self._ctx_var_index: dict | None = None
        self._ctx_constraints: list | None = None
        self._ctx_row_digests: list | None = None
        self._ctx_objective = None
        self._ctx_obj_digest: bytes | None = None
        self._ctx_sense: str | None = None
        self.hits = 0
        self.misses = 0
        self.context_reuses = 0
        self.context_rebuilds = 0
        self.context_extensions = 0
        self.objective_swaps = 0
        self.hints_repaired = 0
        self.tightening_reuses = 0

    @property
    def last_solution(self) -> Solution | None:
        """The most recent solution produced through this cache."""
        return self._last

    def stats(self) -> dict[str, int]:
        """JSON-safe lifetime statistics (what the service's /metrics shows)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "tightening_reuses": self.tightening_reuses,
            "context_reuses": self.context_reuses,
            "context_rebuilds": self.context_rebuilds,
            "context_extensions": self.context_extensions,
            "objective_swaps": self.objective_swaps,
            "hints_repaired": self.hints_repaired,
            "solutions_cached": len(self._solutions),
        }

    def clear(self) -> None:
        """Drop every cached solution, context and basis."""
        self._solutions.clear()
        self._last = None
        self._structure_key = None
        self._context = None
        self._form = None
        self._basis_io = {}
        self._snap_vars = None
        self._snap_lb = None
        self._snap_ub = None
        self._snap_constraints = None
        self._snap_objective = None
        self._ctx_opt_key = None
        self._ctx_vars = None
        self._ctx_var_index = None
        self._ctx_constraints = None
        self._ctx_row_digests = None
        self._ctx_objective = None
        self._ctx_obj_digest = None
        self._ctx_sense = None

    # -- internals ---------------------------------------------------------

    def _remember(self, fingerprint: str, solution: Solution, problem: Problem) -> None:
        if fingerprint in self._solutions:
            self._solutions.pop(fingerprint)
        elif len(self._solutions) >= self.max_solutions:
            # FIFO eviction: refinement sessions revisit *recent* states
            # (undo), so dropping the oldest entry is the cheap win.
            oldest = next(iter(self._solutions))
            self._solutions.pop(oldest)
        self._solutions[fingerprint] = solution
        self._last = solution
        self._snap_vars = list(problem.variables)
        self._snap_lb, self._snap_ub = _bound_arrays(self._snap_vars)
        self._snap_constraints = list(problem.constraints)
        self._snap_objective = problem.objective

    def _tightened_reuse(self, problem: Problem) -> Solution | None:
        """The previous optimum, when it provably survives the model edit.

        Sound only when the new feasible region is a *subset* of the old
        one: every variable bound at least as tight (same Variable
        objects), the old constraint list an identical prefix of the new
        one, the objective untouched.  Then if the stored optimum still
        satisfies the new bounds and the appended rows, it is optimal
        for the new model too — min over a subset cannot beat it, and it
        is in the subset.  Any doubt returns ``None`` (full solve).
        """
        last = self._last
        if last is None or not last.status.has_solution or self._snap_vars is None:
            return None
        variables = problem.variables
        if len(variables) != len(self._snap_vars):
            return None
        for var, snap in zip(variables, self._snap_vars):
            if var is not snap:
                return None
        if problem.objective is not self._snap_objective:
            return None
        constraints = problem.constraints
        n_old = len(self._snap_constraints)
        if len(constraints) < n_old:
            return None
        for con, snap in zip(constraints, self._snap_constraints):
            if con is not snap:
                return None
        lb, ub = _bound_arrays(variables)
        if (lb < self._snap_lb - 1e-12).any() or (ub > self._snap_ub + 1e-12).any():
            return None  # some bound loosened: region grew, optimum may move
        x = np.array([last.value(v, 0.0) for v in variables])
        tol = 1e-6
        if (x < lb - tol).any() or (x > ub + tol).any():
            return None  # a directive cut the old optimum off
        for con in constraints[n_old:]:
            lhs = sum(
                coef * last.value(var, 0.0) for var, coef in con.expr.terms().items()
            )
            slack_tol = tol * max(1.0, abs(con.rhs))
            if con.sense.value == "<=" and lhs > con.rhs + slack_tol:
                return None
            if con.sense.value == ">=" and lhs < con.rhs - slack_tol:
                return None
            if con.sense.value == "=" and abs(lhs - con.rhs) > slack_tol:
                return None
        return last

    def _hint_from_last(self) -> Mapping[str, float] | None:
        if self._last is None or not self._last.status.has_solution:
            return None
        return self._last.as_name_dict()

    def _reuse_or_extend(self, problem: Problem):
        """Reuse the cached context, extending it in place when possible.

        Matching is identity-first with a content-digest fallback per
        row: a directive ``sync`` pops the journal to the common prefix
        and re-applies the rest, so an unchanged model state routinely
        arrives with the tail of its constraint list re-created as fresh
        (but byte-identical) objects.  Rows *past* the cached prefix are
        appended to the context (inequalities only — an equality append
        would splice into the middle of the standardized slack stack);
        an objective that changed content is swapped in place when the
        sign survives.  Bound moves never break the cached
        standardization, but the context's cut rows were derived under
        the box of earlier solves: a live box that no longer supports
        them (:meth:`~repro.lp.matrix_lp.RelaxationContext.cuts_hold`)
        forces a rebuild.  Returns ``(form, context, basis_io)`` or
        ``None`` when only a full rebuild is sound.
        """
        variables = problem.variables
        if self._ctx_vars is None or len(variables) != len(self._ctx_vars):
            return None
        for var, old in zip(variables, self._ctx_vars):
            if var is not old:
                return None
        if problem.sense != self._ctx_sense:
            return None
        lb, ub = _bound_arrays(variables)
        if not self._context.cuts_hold(lb, ub):
            return None
        constraints = problem.constraints
        ctx_rows = self._ctx_constraints
        digests = self._ctx_row_digests
        if len(constraints) < len(ctx_rows):
            return None  # rows were removed: a family cannot shrink in place
        for i, old in enumerate(ctx_rows):
            con = constraints[i]
            if con is old:
                continue
            if constraint_digest(con) != digests[i]:
                return None  # genuinely different row inside the prefix
            ctx_rows[i] = con  # same content, fresh object: adopt it
        appended = constraints[len(ctx_rows):]
        var_index = self._ctx_var_index
        for con in appended:
            if con.sense.value == "=":
                return None
            if any(var not in var_index for var in con.expr.terms()):
                return None  # references a variable the context never saw

        # Objective: unchanged by identity or content, else swappable.
        swap = None
        if problem.objective is not self._ctx_objective:
            obj_digest = objective_digest(problem)
            if obj_digest != self._ctx_obj_digest:
                c_new, c0_new, sign_new = objective_arrays(problem)
                if sign_new != self._form.objective_sign:
                    return None
                swap = (c_new, c0_new, obj_digest)

        context, form = self._context, self._form
        if appended:
            a_app, b_app, _, _ = constraint_blocks(problem, appended).split_by_sense()
            app_digests = [constraint_digest(con) for con in appended]
            context.extend_rows(a_app, b_app)
            # The form mirrors the cold convention (appended non-EQ rows
            # land at the end of a_ub), so incumbent-hint validation and
            # objective evaluation see exactly what a rebuild would.
            form.a_ub = CSCMatrix.vstack(form.a_ub, a_app)
            form.b_ub = np.concatenate([form.b_ub, b_app])
            ctx_rows.extend(appended)
            digests.extend(app_digests)
            # Outstanding warm tokens predate the new rows; extend each
            # with the appended slacks (dual-feasible by construction).
            for key in list(self._basis_io):
                if key == "pseudo":
                    # Learned pseudo-costs are per-column and the column
                    # set is untouched by a row append: carry unchanged.
                    continue
                token = context.extend_warm_token(self._basis_io[key])
                if token is not None:
                    self._basis_io[key] = token
                else:
                    self._basis_io.pop(key)
            self._structure_key = extend_structure_fingerprint(
                self._structure_key or "", problem, app_digests
            )
            self.context_extensions += 1
            metrics.increment("incremental.context_extended")
        if swap is not None:
            c_new, c0_new, obj_digest = swap
            if not context.set_objective_vector(c_new):
                return None
            # context.c *is* form.c (shared array), so only c0 remains.
            form.c0 = c0_new
            self._ctx_obj_digest = obj_digest
            if not appended:
                self._structure_key = extend_structure_fingerprint(
                    self._structure_key or "", problem, []
                )
            self.objective_swaps += 1
            metrics.increment("incremental.objective_swapped")
        self._ctx_objective = problem.objective

        # The form takes the live problem's variables (``Solution.values``
        # must be keyed by *its* Variable objects) and bounds.
        form.variables = variables
        form.lb, form.ub = lb, ub
        if appended or swap is not None:
            return form, context, self._basis_io
        self.context_reuses += 1
        metrics.increment("incremental.context_reuses")
        return form, context, self._basis_io

    def _context_for(self, problem: Problem, options: SolveOptions):
        """(form, context, basis_io) for a branch_bound solve, reusing when safe."""
        opt_key = options.relaxation_engine
        if self._context is not None and self._ctx_opt_key == opt_key:
            reused = self._reuse_or_extend(problem)
            if reused is not None:
                # The pivot budget is a per-solve option, not part of
                # the cached structure: honour the caller's current one.
                self._context.max_iterations = options.max_iterations
                return reused
        form = to_matrix_form(problem)
        self.context_rebuilds += 1
        metrics.increment("incremental.context_rebuilds")
        self._context = RelaxationContext(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
            form.lb, form.ub, engine=options.relaxation_engine,
            max_iterations=options.max_iterations,
            integrality=form.integrality,
        )
        self._form = form
        self._structure_key = f"{structure_fingerprint(problem)}|{opt_key}"
        self._ctx_opt_key = opt_key
        self._ctx_vars = list(problem.variables)
        self._ctx_var_index = {v: i for i, v in enumerate(self._ctx_vars)}
        self._ctx_constraints = list(problem.constraints)
        self._ctx_row_digests = [
            constraint_digest(con) for con in self._ctx_constraints
        ]
        self._ctx_objective = problem.objective
        self._ctx_obj_digest = objective_digest(problem)
        self._ctx_sense = problem.sense
        # Everything in the channel goes, pseudo-costs included: a
        # structural break changes the cost landscape enough that stale
        # branching estimates mislead the next tree (measured: carrying
        # them across a rebuild triples the post-outage tree).
        self._basis_io = {}
        return form, self._context, self._basis_io

    # -- the cache-aware solve --------------------------------------------

    def solve(self, problem: Problem, backend: str, options: SolveOptions) -> Solution:
        """Solve through the cache (called by :func:`solve` with ``cache=``)."""
        fingerprint = problem_fingerprint(problem)
        cached = self._solutions.get(fingerprint)
        if cached is not None:
            self.hits += 1
            metrics.increment("incremental.fingerprint_hits")
            # Re-snapshot against the *current* problem (its bounds match
            # the fingerprint) so a later tightening check compares
            # against this state, not whatever was solved before it.
            self._remember(fingerprint, cached, problem)
            record_solve(
                problem=problem.name,
                backend=backend,
                solver=f"{cached.solver}[cached]",
                status=cached.status.value,
                objective=cached.objective,
                stats=cached.stats,
                elapsed_seconds=0.0,
            )
            return cached
        self.misses += 1
        metrics.increment("incremental.fingerprint_misses")

        survivor = self._tightened_reuse(problem)
        if survivor is not None:
            self.tightening_reuses += 1
            metrics.increment("incremental.tightening_reuses")
            self._remember(fingerprint, survivor, problem)
            record_solve(
                problem=problem.name,
                backend=backend,
                solver=f"{survivor.solver}[tightened]",
                status=survivor.status.value,
                objective=survivor.objective,
                stats=survivor.stats,
                elapsed_seconds=0.0,
            )
            return survivor

        hint_repaired = False
        repair_seconds = 0.0
        if options.warm_start is None:
            hint = self._hint_from_last()
            if hint is not None:
                if self.hint_repairer is not None:
                    repair_start = time.monotonic()
                    repaired = self.hint_repairer(problem, hint)
                    repair_seconds = time.monotonic() - repair_start
                    if repaired is not None:
                        hint = repaired
                        hint_repaired = True
                        self.hints_repaired += 1
                        metrics.increment("incremental.hint_repaired")
                options = options.replace(warm_start=hint)

        extensions_before = self.context_extensions
        start = time.monotonic()
        if backend == "branch_bound":
            form, context, basis_io = self._context_for(problem, options)
            solution = _solve_branch_bound(
                problem, options, form=form, context=context, basis_io=basis_io
            )
        else:
            solution = _BACKENDS[backend](problem, options)
        elapsed = time.monotonic() - start
        if solution.stats is not None:
            solution.stats.extra["fingerprint_cache"] = 0.0
            if self.context_extensions > extensions_before:
                solution.stats.context_extended = 1
            if hint_repaired:
                solution.stats.hint_repaired = 1
            solution.stats.hint_repair_seconds = repair_seconds
        record_solve(
            problem=problem.name,
            backend=backend,
            solver=solution.solver,
            status=solution.status.value,
            objective=solution.objective,
            stats=solution.stats,
            elapsed_seconds=elapsed,
        )
        self._remember(fingerprint, solution, problem)
        return solution
