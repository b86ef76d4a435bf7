"""From-scratch best-first branch-and-bound MILP solver.

Nodes carry only bound arrays; the shared constraint matrices live in the
root :class:`~repro.lp.standard_form.MatrixForm`.  The search:

* strengthens the root relaxation with implied-bound cuts
  (:func:`~repro.lp.cuts.implied_bound_pairs`), plus knapsack covers
  when ``cover_cut_rounds`` asks for them, appended to the node-LP
  context and re-solved warm through the dual simplex,
* solves each node's LP relaxation (builtin simplex or HiGHS),
* prunes by bound against the incumbent,
* branches on the most fractional integral variable,
* explores best-bound-first so the gap shrinks monotonically.

Every solve returns a :class:`~repro.telemetry.SolveStats` on the
solution — nodes explored/pruned, LP iterations, cuts, the proven best
bound and the incumbent/bound gap trajectory — so experiments can
report search effort the way the MILP-consolidation literature does.

This solver is exact; it is intended for the small-to-medium instances
used in tests and parameter studies, with the HiGHS backend taking over
at case-study scale.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..telemetry import GapPoint, SolveStats, emit_progress, metrics
from .cuts import cuts_to_rows, implied_bound_pairs, separate_cuts
from .matrix_lp import ArrayLPResult, RelaxationContext
from .problem import Problem
from .solution import Solution, SolveStatus
from .standard_form import MatrixForm, to_matrix_form

#: Integrality tolerance: values this close to an integer are integral.
INT_TOL = 1e-6

#: Cap on recorded gap-trajectory points (bounds memory on big searches).
_MAX_TRAJECTORY_POINTS = 1000

#: Rounds of implied-bound separation at the root; each appends the
#: pairs violated at the last root optimum and re-solves warm.
_IMPLIED_BOUND_ROUNDS = 8

#: Violation ``x − u`` above which an implied-bound pair is appended.
_CUT_VIOLATION = 1e-6


@dataclass(order=True)
class _Node:
    """Search node ordered by its relaxation bound (best-first).

    ``warm`` carries the parent relaxation's basis token so the child's
    simplex solve can skip phase 1 (builtin engine only).
    """

    bound: float
    tie: int = field(compare=True)
    lb: np.ndarray = field(compare=False, default=None)
    ub: np.ndarray = field(compare=False, default=None)
    depth: int = field(compare=False, default=0)
    warm: tuple | None = field(compare=False, default=None)
    # Pseudo-cost bookkeeping: which branching created this node, so its
    # relaxation can report the observed objective degradation per unit
    # of fractionality back to the variable that was branched on.
    pvar: int | None = field(compare=False, default=None)
    pdir: int = field(compare=False, default=0)
    pfrac: float = field(compare=False, default=0.0)
    pbase: float = field(compare=False, default=0.0)


def _absorb_lp_detail(stats: SolveStats, relax) -> None:
    """Fold one relaxation's iteration counters into the search stats."""
    stats.lp_iterations += relax.iterations
    stats.phase1_iterations += relax.phase1_iterations
    stats.phase2_iterations += relax.phase2_iterations
    stats.bland_switches += relax.bland_switches
    stats.degenerate_pivots += relax.degenerate_pivots
    stats.refactorizations += getattr(relax, "refactorizations", 0)
    stats.eta_file_length += getattr(relax, "eta_file_length", 0)
    stats.pricing_passes += getattr(relax, "pricing_passes", 0)
    stats.bound_flips += getattr(relax, "bound_flips", 0)
    stats.dual_pivots += getattr(relax, "dual_pivots", 0)
    stats.relaxation_solve_seconds += relax.solve_seconds


def _root_cut_rounds(
    context: RelaxationContext,
    form: MatrixForm,
    node: _Node,
    relax: ArrayLPResult,
    integral: np.ndarray,
    cover_cut_rounds: int,
    stats: SolveStats,
) -> ArrayLPResult:
    """Cut the optimal root relaxation; return the last one.

    Each round appends, through the context, the implied-bound pairs
    violated at the current root optimum (in the first
    ``_IMPLIED_BOUND_ROUNDS`` rounds;
    :meth:`RelaxationContext.add_implied_bounds` skips the ones the
    context already holds) and the violated knapsack covers of the model
    rows (in the first ``cover_cut_rounds`` rounds), then re-enters the
    dual simplex from the root's basis bordered with the new slacks.
    The loop stops on a round that appends nothing.  A re-solve that
    neither proves optimality nor infeasibility leaves the previous
    relaxation in place — a valid, weaker bound — with its token
    extended over the appended rows so the children still start warm.
    """
    pairs = implied_bound_pairs(form.a_ub, form.b_ub, integral, form.lb, form.ub)
    for round_index in range(max(_IMPLIED_BOUND_ROUNDS, cover_cut_rounds)):
        x = relax.x
        added = 0
        if round_index < _IMPLIED_BOUND_ROUNDS:
            violated = pairs[x[pairs[:, 0]] - x[pairs[:, 1]] > _CUT_VIOLATION]
            added += context.add_implied_bounds(violated, form.lb, form.ub).shape[0]
        if round_index < cover_cut_rounds:
            covers = separate_cuts(
                form.a_ub, form.b_ub, x, integral, lb=form.lb, ub=form.ub
            )
            if covers:
                context.add_cut_rows(
                    *cuts_to_rows(covers, x.shape[0]), form.lb, form.ub
                )
                added += len(covers)
        if not added:
            break
        stats.cut_rounds += 1
        stats.cuts_added += added
        warm = context.extend_warm_token(relax.warm_token)
        resolved = context.solve(node.lb, node.ub, warm=warm)
        _absorb_lp_detail(stats, resolved)
        if resolved.status not in ("optimal", "infeasible"):
            relax.warm_token = warm
            relax.duals = None
            break
        relax = resolved
        if relax.status != "optimal":
            break
    return relax


def _most_fractional(x: np.ndarray, integral: np.ndarray) -> int | None:
    """Index of the integral variable farthest from an integer, or None."""
    frac = np.abs(x - np.round(x))
    frac[~integral] = 0.0
    idx = int(np.argmax(frac))
    if frac[idx] <= INT_TOL:
        return None
    return idx


def _choose_branch(
    x: np.ndarray,
    integral: np.ndarray,
    pseudo: dict[str, list[float]],
    names: list[str],
) -> int | None:
    """Pick the branching variable, or None when ``x`` is integral.

    With pseudo-cost history available the choice maximizes the product
    of the estimated down/up objective degradations (the classic product
    rule); variables with no history borrow the per-direction global
    mean.  Without any history this degrades to most-fractional.  The
    history dict rides :func:`solve_branch_and_bound`'s ``basis_io``
    channel, so successive incremental re-solves of the same model
    family inherit branching estimates from all previous trees — a
    warm-start for the *search strategy*, alongside the basis warm-start
    for the node LPs.
    """
    frac = np.abs(x - np.round(x))
    frac[~integral] = 0.0
    cand = np.flatnonzero(frac > INT_TOL)
    if cand.size == 0:
        return None
    if not pseudo:
        return int(cand[np.argmax(frac[cand])])
    dsum = dcnt = usum = ucnt = 0.0
    for entry in pseudo.values():
        dsum += entry[0]
        dcnt += entry[1]
        usum += entry[2]
        ucnt += entry[3]
    gdown = dsum / dcnt if dcnt else 1.0
    gup = usum / ucnt if ucnt else 1.0
    best = int(cand[0])
    best_score = -1.0
    for j in cand:
        f = float(x[j] - math.floor(x[j]))
        entry = pseudo.get(names[j])
        down = entry[0] / entry[1] if entry and entry[1] else gdown
        up = entry[2] / entry[3] if entry and entry[3] else gup
        score = max(down * f, 1e-9) * max(up * (1.0 - f), 1e-9)
        if score > best_score:
            best_score = score
            best = int(j)
    return best


def _reduced_cost_fixing(
    context, relax, node: _Node, integral: np.ndarray, cutoff: float
) -> int:
    """Fix root-nonbasic integer variables by reduced cost, in place.

    With an incumbent of value ``z*`` available *before* the search and
    the root relaxation solved to ``L`` with reduced costs ``d``, an
    integer variable nonbasic at a bound with ``L + |d_j| >= z* - gap``
    cannot take any other value in an improving solution — moving it one
    unit (the smallest integral step) already drives the bound past the
    pruning cutoff.  This is the per-column form of the bound-pruning
    rule, so it excludes exactly the points pruning would discard.  Only
    the incremental warm path has an incumbent this early (the seeded,
    possibly repaired, hint), which makes root fixing a warm-start-only
    tree reduction: a cold solve finds its first incumbent mid-search,
    after the root's children are already cast.
    """
    d = context.reduced_costs(relax.duals)
    if d is None:
        return 0
    slack = cutoff - relax.objective
    if not math.isfinite(slack) or slack < 0.0:
        return 0
    x = relax.x
    lb = np.maximum(node.lb, context._eff_lb)
    ub = np.minimum(node.ub, context._eff_ub)
    open_var = integral & (ub > lb + INT_TOL)
    threshold = max(slack, 1e-7)
    at_lb = open_var & (x <= lb + INT_TOL) & (d >= threshold)
    at_ub = open_var & (x >= ub - INT_TOL) & (-d >= threshold)
    if at_lb.any():
        fixed = np.round(lb[at_lb])
        node.lb[at_lb] = fixed
        node.ub[at_lb] = fixed
    if at_ub.any():
        fixed = np.round(ub[at_ub])
        node.lb[at_ub] = fixed
        node.ub[at_ub] = fixed
    return int(at_lb.sum() + at_ub.sum())


def _relative_gap(incumbent: float, bound: float) -> float:
    """Relative incumbent/bound gap in the internal minimize space."""
    if not math.isfinite(incumbent) or not math.isfinite(bound):
        return math.inf
    return max(0.0, incumbent - bound) / max(1.0, abs(incumbent))


def _warm_start_point(
    form: MatrixForm, warm_start, integral: np.ndarray, tol: float = 1e-6
) -> np.ndarray | None:
    """Validate a name→value hint as a feasible integral point, or None.

    The hint typically comes from the previous solve of a closely
    related model (an iterative-refinement step); it is only usable as
    an incumbent when it satisfies *this* model's bounds, integrality
    and constraints, so everything is checked vectorized before the
    search trusts it.
    """
    values = dict(warm_start)
    x = np.empty(len(form.variables))
    for i, var in enumerate(form.variables):
        value = values.get(var.name)
        if value is None:
            return None
        x[i] = float(value)
    x[integral.astype(bool)] = np.round(x[integral.astype(bool)])
    if (x < form.lb - tol).any() or (x > form.ub + tol).any():
        return None
    if form.a_ub.shape[0] and (form.a_ub.matvec(x) > form.b_ub + tol).any():
        return None
    if form.a_eq.shape[0] and (np.abs(form.a_eq.matvec(x) - form.b_eq) > tol).any():
        return None
    return np.clip(x, form.lb, form.ub)


def solve_branch_and_bound(
    problem: Problem,
    relaxation_engine: str = "highs",
    node_limit: int = 200000,
    time_limit: float | None = None,
    gap_tolerance: float = 1e-6,
    cover_cut_rounds: int = 0,
    max_iterations: int = 20000,
    warm_start=None,
    form: MatrixForm | None = None,
    context: RelaxationContext | None = None,
    basis_io: dict | None = None,
) -> Solution:
    """Solve a MILP exactly by branch and bound.

    Parameters
    ----------
    problem:
        The model to solve (pure LPs are solved in one relaxation).
    relaxation_engine:
        ``"highs"`` (scipy) or ``"builtin"`` (our simplex) for node LPs.
        Either way the root arrays are presolved once per tree
        (singleton/redundant row removal, activity bound tightening,
        integer snapping) and every node solves the reduced problem; the
        builtin engine re-solves warm-started nodes with the dual
        simplex — a parent basis is dual feasible for its children, so
        most nodes cost a handful of pivots and infeasible ones stop at
        the first Farkas row.
    node_limit, time_limit:
        Safety limits; when hit the best incumbent is returned with
        status ``FEASIBLE`` (or ``ERROR`` when none was found) and the
        message reports the remaining incumbent/best-bound gap.
    gap_tolerance:
        Terminate when ``incumbent - best_bound`` falls below this.
    cover_cut_rounds:
        Cut-and-branch: knapsack cover cuts are separated in the first
        this-many root cut rounds (0 disables).  Implied-bound cuts
        (``x ≤ u`` from big-M rows) are separated at the root whatever
        this is.  Both families are appended to the node-LP context and
        are valid for every integer point, so optimality is unaffected —
        only the search tree shrinks.
    max_iterations:
        Simplex pivot budget per node relaxation (builtin engine).
    warm_start:
        Optional variable-name → value hint (a MIP start).  When it is
        feasible for *this* model it becomes the initial incumbent, so
        pruning bites from the first node; infeasible hints are rejected
        and counted, never trusted.
    form, context:
        A prebuilt :class:`MatrixForm` (carrying the *current* variable
        bounds) and a :class:`RelaxationContext` standardized for the
        same constraint matrices.  The incremental solve layer passes
        both so successive refinement re-solves skip conversion and
        standardization entirely.  The root's cut rows are appended to
        ``context`` and stay there: a later solve on it appends only
        implied-bound pairs it does not hold, and
        :meth:`~repro.lp.matrix_lp.RelaxationContext.cuts_hold` tells
        whether a later bound box still supports the held rows.
    basis_io:
        Optional dict used as a warm-state channel between successive
        solves: ``basis_io.get("root")`` seeds the root relaxation's
        simplex basis, and on return ``basis_io["root"]`` holds this
        solve's root basis token (builtin engine only).
        ``basis_io["pseudo"]`` accumulates the pseudo-cost branching
        table across solves, so re-plans of the same model family keep
        their trained branching estimates.
    """
    start = time.monotonic()
    stats = SolveStats(backend=f"branch_bound[{relaxation_engine}]")
    if form is None:
        form = to_matrix_form(problem)
        stats.conversion_seconds += time.monotonic() - start
    integral = form.integrality.astype(bool)

    # One standardization per tree: every node below reuses the cached
    # constraint blocks and passes only its (lb, ub) deltas.  An external
    # context (incremental re-solve) skips even that one-time cost, and
    # reports only what this solve adds to it (root cut appends).
    conversion_start = 0.0 if context is None else context.conversion_seconds
    if context is None:
        context = RelaxationContext(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
            form.lb, form.ub, engine=relaxation_engine,
            max_iterations=max_iterations,
            integrality=integral,
        )
    context_counters_start = (
        context.warm_start_hits, context.warm_start_misses,
        context.cache_hits, context.node_solves,
        context.dual_entries, context.dual_fallbacks,
        context.extension_dual_entries,
    )
    stats.merge_presolve(
        dropped_constraints=context.presolve_rows_dropped,
        tightened_bounds=context.presolve_bounds_tightened,
        rounds=context.presolve_rounds,
    )

    root_warm = basis_io.get("root") if basis_io else None
    # Pseudo-cost table {var_name: [down_sum, down_count, up_sum, up_count]}
    # of observed per-unit-fraction degradations.  Learned within this
    # tree; when a basis_io channel is present the table persists across
    # incremental re-solves, so warm re-plans start with trained
    # branching estimates instead of most-fractional guesses.
    pseudo: dict[str, list[float]] = (
        basis_io.setdefault("pseudo", {}) if basis_io is not None else {}
    )
    var_names = [var.name for var in form.variables]
    counter = itertools.count()
    root = _Node(bound=-math.inf, tie=next(counter), lb=form.lb.copy(),
                 ub=form.ub.copy(), warm=root_warm)
    heap: list[_Node] = [root]
    incumbent_x: np.ndarray | None = None
    incumbent_obj = math.inf
    if warm_start is not None:
        hint = _warm_start_point(form, warm_start, integral)
        if hint is not None:
            incumbent_x = hint
            incumbent_obj = float(form.c @ hint)
            stats.extra["warm_start_incumbent"] = 1.0
            stats.extra["warm_start_objective"] = form.objective_sign * (
                incumbent_obj + form.c0
            )
            metrics.increment("incremental.warm_start_seeded")
        else:
            stats.extra["warm_start_incumbent"] = 0.0
            metrics.increment("incremental.warm_start_rejected")
    # Proven lower bound on the (internal, minimized) optimum.  Best-first
    # search makes it monotone non-decreasing.
    best_bound = -math.inf

    def to_user_objective(internal: float) -> float:
        """Map an internal minimize-space value to the user's objective."""
        if not math.isfinite(internal):
            if math.isnan(internal):
                return internal
            return internal * form.objective_sign
        return form.objective_sign * (internal + form.c0)

    def record_gap_point() -> None:
        incumbent = (
            to_user_objective(incumbent_obj)
            if incumbent_x is not None
            else float("nan")
        )
        emit_progress(
            {
                "phase": "branch_bound",
                "nodes_explored": stats.nodes_explored,
                "best_bound": to_user_objective(best_bound),
                "incumbent": incumbent,
                "elapsed_seconds": time.monotonic() - start,
            }
        )
        if len(stats.gap_trajectory) >= _MAX_TRAJECTORY_POINTS:
            return
        stats.gap_trajectory.append(
            GapPoint(
                nodes_explored=stats.nodes_explored,
                best_bound=to_user_objective(best_bound),
                incumbent=incumbent,
                elapsed_seconds=time.monotonic() - start,
            )
        )

    def raise_bound(candidate: float) -> None:
        nonlocal best_bound
        # The proven bound can never exceed the incumbent (an upper bound
        # on the optimum); clamping keeps limit-exit gaps non-negative.
        candidate = min(candidate, incumbent_obj)
        if candidate > best_bound + 1e-12:
            best_bound = candidate
            record_gap_point()

    def limit_message(reason: str) -> str:
        if incumbent_x is None:
            return f"{reason} (no incumbent)"
        gap = _relative_gap(incumbent_obj, best_bound)
        if math.isinf(gap):
            return f"{reason} (gap unknown)"
        return f"{reason} (gap {gap * 100.0:.2f}%)"

    def make_solution(status: SolveStatus, x: np.ndarray | None, message: str) -> Solution:
        stats.elapsed_seconds = time.monotonic() - start
        stats.best_bound = to_user_objective(best_bound)
        stats.conversion_seconds += context.conversion_seconds - conversion_start
        # Deltas, not lifetime totals: an external context persists
        # across incremental re-solves and keeps accumulating.
        (hits0, misses0, cache0, solves0, dual0, dfall0,
         extdual0) = context_counters_start
        stats.warm_start_hits = context.warm_start_hits - hits0
        stats.warm_start_misses = context.warm_start_misses - misses0
        stats.dual_entries = context.dual_entries - dual0
        stats.dual_fallbacks = context.dual_fallbacks - dfall0
        stats.extension_dual_entries = context.extension_dual_entries - extdual0
        stats.extra["relaxation_cache_hits"] = float(context.cache_hits - cache0)
        stats.extra["relaxation_node_solves"] = float(context.node_solves - solves0)
        values: dict = {}
        objective = float("nan")
        if x is not None:
            cleaned = x.copy()
            cleaned[integral] = np.round(cleaned[integral])
            values = {var: float(cleaned[i]) for i, var in enumerate(form.variables)}
            objective = form.objective_sign * (float(form.c @ cleaned) + form.c0)
            stats.incumbent = objective
        if incumbent_x is not None:
            stats.mip_gap = _relative_gap(incumbent_obj, best_bound)
        return Solution(
            status=status,
            objective=objective,
            values=values,
            solver=f"branch_bound[{relaxation_engine}]",
            iterations=stats.nodes_explored,
            message=message,
            stats=stats,
        )

    while heap:
        if stats.nodes_explored >= node_limit:
            status = SolveStatus.FEASIBLE if incumbent_x is not None else SolveStatus.ERROR
            return make_solution(status, incumbent_x, limit_message("node limit reached"))
        if time_limit is not None and time.monotonic() - start > time_limit:
            status = SolveStatus.FEASIBLE if incumbent_x is not None else SolveStatus.ERROR
            return make_solution(status, incumbent_x, limit_message("time limit reached"))

        node = heapq.heappop(heap)
        # Best-first: this node's bound is the weakest over all open nodes,
        # so it is the current proven lower bound on the optimum.
        raise_bound(node.bound)
        # Bound-based pruning against the current incumbent.
        if node.bound >= incumbent_obj - gap_tolerance:
            stats.nodes_pruned += 1
            continue

        relax = context.solve(node.lb, node.ub, warm=node.warm)
        stats.nodes_explored += 1
        _absorb_lp_detail(stats, relax)
        if node.depth == 0 and relax.status == "optimal" and integral.any():
            relax = _root_cut_rounds(
                context, form, node, relax, integral, cover_cut_rounds, stats
            )
        if node.depth == 0 and basis_io is not None:
            # Hand the root basis to the next incremental re-solve.
            basis_io["root"] = relax.warm_token

        if relax.status == "infeasible":
            continue
        if relax.status == "unbounded":
            if node.depth == 0:
                if not integral.any():
                    return make_solution(
                        SolveStatus.UNBOUNDED, None, "LP relaxation unbounded"
                    )
                # Root relaxation unbounded with integer variables: the
                # MILP is unbounded along a continuous ray (or empty, in
                # which case UNBOUNDED is still the conventional report).
                return make_solution(
                    SolveStatus.UNBOUNDED, None, "root relaxation unbounded"
                )
            # A non-root unbounded relaxation proves nothing about the
            # MILP: the node's integer region may be empty.  Report what
            # we actually know instead of asserting MILP unboundedness.
            if incumbent_x is not None:
                return make_solution(
                    SolveStatus.FEASIBLE,
                    incumbent_x,
                    f"unbounded ray at depth {node.depth}; "
                    "returning incumbent (optimality unproven)",
                )
            return make_solution(
                SolveStatus.ERROR,
                None,
                f"unbounded ray at depth {node.depth}, no incumbent "
                "(MILP unboundedness unproven)",
            )
        if relax.status != "optimal":
            status = SolveStatus.FEASIBLE if incumbent_x is not None else SolveStatus.ERROR
            detail = f" ({relax.message})" if relax.message else ""
            return make_solution(
                status, incumbent_x, f"relaxation failed: {relax.status}{detail}"
            )

        if node.pvar is not None:
            # Report the observed degradation to the variable branched on.
            entry = pseudo.setdefault(var_names[node.pvar], [0.0, 0.0, 0.0, 0.0])
            gain = max(0.0, relax.objective - node.pbase)
            per_unit = gain / max(node.pfrac, 1e-6)
            slot = 0 if node.pdir == 0 else 2
            entry[slot] += per_unit
            entry[slot + 1] += 1.0
            stats.extra["pseudo_cost_updates"] = (
                stats.extra.get("pseudo_cost_updates", 0.0) + 1.0
            )

        # The popped node's subtree bound tightens to its relaxation value;
        # combined with the best open node this may raise the global bound.
        open_bound = heap[0].bound if heap else math.inf
        raise_bound(min(relax.objective, open_bound))

        if relax.objective >= incumbent_obj - gap_tolerance:
            stats.nodes_pruned += 1
            continue

        if node.depth == 0 and incumbent_x is not None:
            # Root only, deliberately: fixing at every node is valid too,
            # but mutating deeper boxes reshuffles the most-fractional
            # branching order and measurably *grows* the hard trees.
            # Iterated at the root: each round of fixing shrinks the box,
            # so re-solving the tightened root raises its bound, widens
            # the reduced-cost slack, and exposes further fixable
            # columns.  The re-solve rides the dual simplex off the
            # previous root basis, so each extra round is near-free.
            cutoff = incumbent_obj - gap_tolerance
            total_fixed = 0
            proven = False
            for _ in range(8):
                fixed = _reduced_cost_fixing(
                    context, relax, node, integral, cutoff
                )
                total_fixed += fixed
                if not fixed:
                    break
                resolved = context.solve(node.lb, node.ub, warm=relax.warm_token)
                _absorb_lp_detail(stats, resolved)
                stats.extra["root_fixing_resolves"] = (
                    stats.extra.get("root_fixing_resolves", 0.0) + 1.0
                )
                if resolved.status == "infeasible" or (
                    resolved.status == "optimal"
                    and resolved.objective >= cutoff
                ):
                    # Fixing only ever excludes non-improving points, so
                    # an emptied (or cutoff-crossing) root proves the
                    # seeded incumbent optimal.
                    proven = True
                    break
                if resolved.status != "optimal":
                    break  # keep branching from the last good relaxation
                relax = resolved
            if total_fixed:
                stats.extra["reduced_cost_fixed"] = float(total_fixed)
                metrics.increment("incremental.reduced_cost_fixed", total_fixed)
            if proven:
                stats.nodes_pruned += 1
                continue

        branch_var = _choose_branch(relax.x, integral, pseudo, var_names)
        if branch_var is None:
            # Integral solution: new incumbent.
            if relax.objective < incumbent_obj - 1e-12:
                incumbent_obj = relax.objective
                incumbent_x = relax.x.copy()
                record_gap_point()
            continue

        value = relax.x[branch_var]
        floor_val = math.floor(value + INT_TOL)
        frac = float(value - math.floor(value))
        # Down branch: x <= floor(value)
        down_lb, down_ub = node.lb.copy(), node.ub.copy()
        down_ub[branch_var] = min(down_ub[branch_var], floor_val)
        heapq.heappush(
            heap,
            _Node(relax.objective, next(counter), down_lb, down_ub,
                  node.depth + 1, warm=relax.warm_token,
                  pvar=branch_var, pdir=0, pfrac=frac,
                  pbase=relax.objective),
        )
        # Up branch: x >= floor(value) + 1
        up_lb, up_ub = node.lb.copy(), node.ub.copy()
        up_lb[branch_var] = max(up_lb[branch_var], floor_val + 1)
        heapq.heappush(
            heap,
            _Node(relax.objective, next(counter), up_lb, up_ub,
                  node.depth + 1, warm=relax.warm_token,
                  pvar=branch_var, pdir=1, pfrac=1.0 - frac,
                  pbase=relax.objective),
        )

    if incumbent_x is None:
        return make_solution(SolveStatus.INFEASIBLE, None, "search exhausted, no incumbent")
    # Exhausted search proves optimality: the bound closes onto the incumbent.
    raise_bound(incumbent_obj)
    return make_solution(SolveStatus.OPTIMAL, incumbent_x, "search exhausted")
