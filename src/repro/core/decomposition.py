"""Dantzig-Wolfe / Lagrangian decomposition engine (ROADMAP item 2).

The consolidation MILP is nearly block-separable: each application
group independently picks one eligible target site, and blocks couple
only through the per-target capacity rows.  This module exploits that:

* **Group-block extraction** — :func:`extract_group_blocks` prices
  every (group, target) pair in one array pass with
  :func:`repro.core.formulation.placement_costs`, plus a per-site space
  rate, *without* building the monolithic MILP (which is exactly what
  becomes infeasible at 100k+ servers).
* **Restricted master** — :class:`repro.lp.master.RestrictedMasterLP`
  over the generated placement columns, solved by the builtin revised
  simplex with warm-started re-solves, yielding capacity duals
  :math:`\\pi_j \\le 0` and convexity duals :math:`\\mu_g`.
* **Parallel pricing** — per-group subproblems ("best site under the
  current duals") are chunked across worker processes via
  :func:`repro.parallel.parallel_map`; each round adds every column
  with negative reduced cost.
* **Dual stabilization** — Wentges smoothing: separation runs at
  :math:`\\tilde\\pi = \\alpha\\,\\pi_{master} + (1-\\alpha)\\,\\pi_{best}`,
  with a mis-pricing re-check at the exact master duals before
  declaring convergence.
* **Subgradient fallback** — beyond ``master_group_limit`` groups the
  master basis (one convexity row per group) stops being cheap, so the
  engine coordinates the same pricing oracle with a projected
  subgradient ascent on the capacity duals instead; the Lagrangian
  function value is the same lower bound the master would certify.
* **Primal rounding** — the greedy baseline, guided by the master's
  fractional support and the final duals, rounds to an integral plan
  (capacity-, risk- and ω-feasible), followed by one exact-cost local
  reassignment sweep that prices each group's moves a row at a time
  over all sites (:class:`SiteSpace` holds every site's step-priced
  space schedule as arrays) and is checked move for move against the
  scalar oracle in ``tests/oracles/decomposition.py``; the exact
  duality gap against the Lagrangian bound is reported on every plan.

The lower bound is valid for the true MILP objective.  The reported
bound is the *exact* Lagrangian dual of the load-linking constraints
``sum_g s_g x_gj = q_j`` with ``q_j in [0, O_j]`` kept site-side: the
group term is the same vectorized pricing argmin, and the site term
``min_q (S_j(q) - sigma_j q)`` is minimized exactly over the segment
endpoints of the all-units space schedule (piecewise-linear, so the
minimum sits on an endpoint), fixed facility cost included.  The only
remaining slack is genuine duality gap plus the dropped non-negative
peer-split costs and the relaxed risk/ω rows.  (The master LP itself
prices space at the cheapest-tier linear rate, which also
under-estimates — both bound sources are valid and the engine reports
the larger.)
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..lp.master import RestrictedMasterLP
from ..parallel import parallel_map
from ..telemetry import SolveStats, emit_progress
from .entities import AsIsState, DataCenter
from .formulation import ModelOptions, placement_costs
from .plan import TransformationPlan, evaluate_plan
from .validation import validate_plan
from .wan import inter_site_wan_price, undirected_peer_traffic


class DecompositionError(RuntimeError):
    """The decomposition engine could not produce a usable plan."""


@dataclass
class DecompositionConfig:
    """Engine knobs, all with scale-tested defaults.

    ``jobs`` is the process fan-out of the per-round pricing only (the
    cost matrix is one in-process array pass); ``<= 1`` keeps pricing
    in-process too (the pricing oracle is vectorized, so serial is
    already fast for small estates).  ``smoothing`` is the Wentges
    weight toward the current master duals (1.0 disables
    stabilization).  ``coordination`` picks the dual coordinator:
    ``"master"`` (restricted master LP), ``"subgradient"``, or
    ``"auto"`` (master up to ``master_group_limit`` groups).
    """

    max_rounds: int = 80
    jobs: int = 1
    smoothing: float = 0.7
    tolerance: float = 1e-6
    gap_target: float = 0.01
    time_limit: float | None = None
    coordination: str = "auto"
    master_group_limit: int = 1500
    master_iterations: int = 200000
    subgradient_rounds: int = 200

    def __post_init__(self) -> None:
        if self.coordination not in ("auto", "master", "subgradient"):
            raise ValueError(
                f"unknown coordination {self.coordination!r} "
                "(expected auto|master|subgradient)"
            )
        if not (0.0 < self.smoothing <= 1.0):
            raise ValueError("smoothing must be in (0, 1]")


@dataclass(frozen=True)
class SiteSpace:
    """Every target site's exact space(+fixed) schedule, as padded arrays.

    Row ``j`` holds the tiers of ``dc.space_cost.truncated(dc.capacity)``
    — only the first, stretched to the capacity, when economies of scale
    are off, since the model then charges the base price at every load.
    Columns past a site's last tier are ``inf``.
    """

    lower: np.ndarray            # (J, K) tier lower bounds
    upper: np.ndarray            # (J, K) tier upper bounds (<= capacity)
    price: np.ndarray            # (J, K) all-units unit prices
    fixed: np.ndarray            # (J,) fixed monthly facility cost

    @classmethod
    def build(
        cls, targets: list[DataCenter], options: ModelOptions
    ) -> "SiteSpace":
        tiers = []
        for dc in targets:
            segments = dc.space_cost.truncated(dc.capacity).segments
            if options.economies_of_scale:
                tiers.append([(s.lower, s.upper, s.unit_price) for s in segments])
            else:
                tiers.append([(segments[0].lower, dc.capacity, segments[0].unit_price)])
        shape = (len(targets), max((len(t) for t in tiers), default=1))
        lower, upper, price = (np.full(shape, np.inf) for _ in range(3))
        for j, rows in enumerate(tiers):
            k = len(rows)
            lower[j, :k], upper[j, :k], price[j, :k] = zip(*rows)
        fixed = np.array([float(dc.fixed_monthly_cost) for dc in targets])
        return cls(lower=lower, upper=upper, price=price, fixed=fixed)

    def cost(self, load: np.ndarray) -> np.ndarray:
        """Exact space+fixed cost of ``load[j]`` servers at every site ``j``.

        ``price * load + fixed`` in the tier holding the load, ``0`` at
        ``load <= 0`` — the same IEEE operations, in the same order, as
        ``schedule.total_cost(load) + dc.fixed_monthly_cost``.  A load
        past the capacity prices in the last tier (callers mask those
        sites out).
        """
        tier = np.maximum((self.lower <= load[:, None]).sum(axis=1) - 1, 0)
        price = self.price[np.arange(len(load)), tier]
        return np.where(load > 0, price * load + self.fixed, 0.0)

    def site_cost(self, j: int, load: float) -> float:
        """:meth:`cost` at the one site ``j``."""
        if load <= 0:
            return 0.0
        tier = max(int(np.count_nonzero(self.lower[j] <= load)) - 1, 0)
        return self.price[j, tier] * load + self.fixed[j]


@dataclass
class GroupBlocks:
    """The block-decomposed view of an as-is state."""

    group_names: list[str]
    servers: np.ndarray          # (G,) int
    target_names: list[str]
    capacities: np.ndarray       # (J,) float
    #: Raw :func:`placement_costs` per (group, target) — everything but
    #: space; ``inf`` marks ineligible pairs.
    placement: np.ndarray        # (G, J) float
    #: ``placement`` plus the linear space rate times the group's servers.
    cost: np.ndarray             # (G, J) float
    #: Underestimating per-server space(+amortized fixed) rate per site.
    space_rate: np.ndarray       # (J,) float
    #: Exact step-priced space(+fixed) schedule of every site.
    space: SiteSpace
    #: Row ``j``: site ``j``'s candidate loads and their exact
    #: space+fixed costs — the unused point ``(0, 0)``, then the segment
    #: endpoints of the all-units schedule, padded with load 0 at cost
    #: ``inf``.  Because the exact cost is linear on every segment,
    #: minimizing over these points solves the site-side Lagrangian
    #: subproblem exactly.
    point_loads: np.ndarray      # (J, P) float
    point_costs: np.ndarray      # (J, P) float

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    @property
    def n_targets(self) -> int:
        return len(self.target_names)


@dataclass
class DecompositionOutcome:
    """A rounded plan plus the bound bookkeeping behind its gap report."""

    plan: TransformationPlan
    lower_bound: float
    upper_bound: float
    gap: float
    rounds: int
    columns: int
    coordination: str
    stats: SolveStats = field(default_factory=SolveStats)


# -- group-block extraction (one array pass) --------------------------------


def _space_rate(space: SiteSpace, capacities: np.ndarray) -> np.ndarray:
    """Valid per-server underestimate of space + fixed cost at every site.

    All-units tier prices are non-increasing, so the cheapest tier
    under-estimates the exact schedule; without economies of scale the
    table holds only the (exact) base price.  The fixed facility cost
    amortizes as ``fixed/capacity`` per server — the exact LP relaxation
    of ``load <= capacity * used``.
    """
    rate = space.price.min(axis=1)
    return np.where(space.fixed > 0, rate + space.fixed / capacities, rate)


def _site_points(space: SiteSpace) -> tuple[np.ndarray, np.ndarray]:
    """Candidate ``(load, exact space+fixed cost)`` points of every site.

    All-units pricing makes the exact cost linear in the load on every
    tier segment (``unit_price * q``, plus the fixed facility charge
    whenever the site is used), so ``min_q (S(q) - sigma q)`` over the
    whole ``[0, capacity]`` range is attained at one of site ``j``'s
    points in row ``j``: the unused point ``(0, 0)``, then each tier's
    two ends.  Columns past a site's last tier hold load 0 at cost
    ``inf``, which no minimum picks.  Returns ``(loads, costs)``, (J, P).
    """
    n_targets = space.lower.shape[0]
    ends = np.stack(
        (np.maximum(space.lower, 1.0), space.upper), axis=2
    ).reshape(n_targets, -1)
    costs = np.repeat(space.price, 2, axis=1) * ends + space.fixed[:, None]
    tiers = np.repeat(np.isfinite(space.lower), 2, axis=1)
    unused = np.zeros((n_targets, 1))
    return (
        np.hstack((unused, np.where(tiers, ends, 0.0))),
        np.hstack((unused, np.where(tiers, costs, np.inf))),
    )


def extract_group_blocks(
    state: AsIsState, options: ModelOptions | None = None
) -> GroupBlocks:
    """Price every (group, target) block in one array pass."""
    options = options or ModelOptions()
    targets = state.target_datacenters
    capacities = np.array([float(dc.capacity) for dc in targets])
    space = SiteSpace.build(targets, options)
    space_rate = _space_rate(space, capacities)
    servers = np.array([g.servers for g in state.app_groups], dtype=np.int64)
    placement = placement_costs(state, options.wan_model)
    cost = placement + space_rate[None, :] * servers[:, None]

    infeasible = np.isinf(cost).all(axis=1)
    if infeasible.any():
        bad = state.app_groups[int(np.argmax(infeasible))]
        raise DecompositionError(
            f"application group {bad.name!r} ({bad.servers} servers) fits no "
            "target data center; split it first or relax its placement "
            "constraints"
        )
    point_loads, point_costs = _site_points(space)
    return GroupBlocks(
        group_names=[g.name for g in state.app_groups],
        servers=servers,
        target_names=[dc.name for dc in targets],
        capacities=capacities,
        placement=placement,
        cost=cost,
        space_rate=space_rate,
        space=space,
        point_loads=point_loads,
        point_costs=point_costs,
    )


# -- pricing oracle (parallel per-group subproblems) -----------------------


def _price_chunk(payload) -> tuple[np.ndarray, np.ndarray]:
    """Worker: best site + value per group under the duals (picklable).

    The per-group subproblem is ``min_j c_gj - pi_j * s_g`` — the
    vectorized argmin over the chunk's cost rows; ``inf`` entries keep
    ineligible pairs out.
    """
    cost, servers, pi = payload
    adjusted = cost - np.outer(servers, pi)
    best_j = np.argmin(adjusted, axis=1)
    best_val = adjusted[np.arange(adjusted.shape[0]), best_j]
    return best_j, best_val


def _site_terms(
    blocks: GroupBlocks, pi: np.ndarray
) -> tuple[float, np.ndarray]:
    """Exact site-side Lagrangian terms and their argmin loads.

    With the load links ``sum_g s_g x_gj = q_j`` dualized at
    ``sigma_j = space_rate_j - pi_j`` (the linear space rate folded
    into ``cost`` moves back site-side), each site contributes
    ``min_q (S_j(q) - sigma_j q)`` over ``q in [0, capacity_j]`` —
    computed exactly over the precomputed segment-endpoint candidates,
    one row-wise argmin for all sites.  The minima are summed in site
    order as Python floats, which a NumPy reduction would not reproduce
    bit for bit.
    """
    sigma = blocks.space_rate - pi
    values = blocks.point_costs - sigma[:, None] * blocks.point_loads
    sites = np.arange(blocks.n_targets)
    best = np.argmin(values, axis=1)
    total = 0.0
    for value in values[sites, best].tolist():
        total += value
    return total, blocks.point_loads[sites, best]


def _price_all(
    blocks: GroupBlocks, pi: np.ndarray, jobs: int
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Solve every group's pricing subproblem; also return L(pi).

    ``L(pi) = sum_g min_j (c_gj - pi_j s_g) + sum_j min_q (S_j(q) -
    sigma_j q)`` is the Lagrangian dual of the load-linking rows with
    the capacity interval kept site-side — a valid lower bound at *any*
    ``pi <= 0``, and pointwise at least as tight as the classic
    ``+ pi . capacities`` capacity-row dual (``S_j(q) >= space_rate_j
    * q`` on ``[0, capacity_j]``).  Also returns the site argmin loads
    ``qstar`` (the site-side piece of the subgradient).
    """
    n_groups = blocks.n_groups
    if jobs <= 1:
        best_j, best_val = _price_chunk((blocks.cost, blocks.servers, pi))
    else:
        n_chunks = min(jobs * 4, n_groups)
        splits = np.array_split(np.arange(n_groups), n_chunks)
        payloads = [
            (blocks.cost[idx], blocks.servers[idx], pi)
            for idx in splits
            if len(idx)
        ]
        results = parallel_map(_price_chunk, payloads, jobs=jobs)
        best_j = np.concatenate([r[0] for r in results])
        best_val = np.concatenate([r[1] for r in results])
    site_total, qstar = _site_terms(blocks, pi)
    bound = float(best_val.sum() + site_total)
    return best_j, best_val, bound, qstar


# -- exact model objective (the gap's upper-bound side) --------------------


def model_objective(
    state: AsIsState,
    blocks: GroupBlocks,
    placement: dict[str, str],
    options: ModelOptions | None = None,
) -> float:
    """Exact MILP objective of an integral placement (no DR terms).

    Matches what the monolithic model charges the same placement:
    per-placement costs (read from ``blocks.placement``, so a group on
    an ineligible site costs ``inf``), exact (step-priced) space, fixed
    facility costs of used sites, and peer-split WAN.
    """
    options = options or ModelOptions()
    targets = {dc.name: dc for dc in state.target_datacenters}
    tindex = {name: j for j, name in enumerate(blocks.target_names)}
    sites = np.array(
        [tindex[placement[name]] for name in blocks.group_names], dtype=np.int64
    )
    placed = blocks.placement[np.arange(len(sites)), sites].tolist()
    loads: dict[str, int] = {}
    total = 0.0
    for group, cost in zip(state.app_groups, placed):
        total += cost
        name = placement[group.name]
        loads[name] = loads.get(name, 0) + group.servers
    for name, load in loads.items():
        if load <= 0:
            continue
        dc = targets[name]
        schedule = dc.space_cost.truncated(dc.capacity)
        if options.economies_of_scale:
            total += schedule.total_cost(load)
        else:
            total += schedule.segments[0].unit_price * load
        total += dc.fixed_monthly_cost
    for pair, traffic in undirected_peer_traffic(state.app_groups).items():
        name_a, name_b = sorted(pair)
        site_a, site_b = placement[name_a], placement[name_b]
        if site_a != site_b:
            total += traffic * inter_site_wan_price(targets[site_a], targets[site_b])
    return total


# -- primal rounding (greedy heuristic over the master support) ------------


class _Rounder:
    """Greedy integral rounding that honors capacity, risk and ω."""

    def __init__(self, state: AsIsState, blocks: GroupBlocks) -> None:
        self.blocks = blocks
        self.eligible = np.isfinite(blocks.cost)
        self.remaining = blocks.capacities.copy()
        self.site_groups = np.zeros(blocks.n_targets, dtype=np.int64)
        omega = state.params.business_impact
        self.group_cap = (
            omega * len(state.app_groups) if omega < 1.0 else math.inf
        )
        tags: dict[str, int] = {}
        self.risk_tag = np.array(
            [
                tags.setdefault(g.risk_group, len(tags)) if g.risk_group else -1
                for g in state.app_groups
            ],
            dtype=np.int64,
        )
        #: ``risk_used[t, j]``: a group of risk tag ``t`` sits at site ``j``.
        self.risk_used = np.zeros((len(tags), blocks.n_targets), dtype=bool)

    def feasible_mask(self, gi: int) -> np.ndarray:
        """Sites that can take group ``gi`` now: (J,) bool."""
        mask = self.eligible[gi] & (
            self.blocks.servers[gi] <= self.remaining + 1e-9
        )
        if self.group_cap < math.inf:
            mask &= self.site_groups + 1 <= self.group_cap + 1e-9
        tag = self.risk_tag[gi]
        if tag >= 0:
            mask &= ~self.risk_used[tag]
        return mask

    def place(self, gi: int, j: int) -> None:
        self.remaining[j] -= self.blocks.servers[gi]
        self.site_groups[j] += 1
        if self.risk_tag[gi] >= 0:
            self.risk_used[self.risk_tag[gi], j] = True

    def unplace(self, gi: int, j: int) -> None:
        self.remaining[j] += self.blocks.servers[gi]
        self.site_groups[j] -= 1
        if self.risk_tag[gi] >= 0:
            self.risk_used[self.risk_tag[gi], j] = False


def _round_placement(
    state: AsIsState,
    blocks: GroupBlocks,
    support: list[list[tuple[int, float]]] | None,
    pi: np.ndarray,
) -> dict[str, str] | None:
    """Round the fractional master support to an integral placement.

    Groups go largest-first; each tries its master columns by weight,
    then every site by dual-adjusted cost.  Returns ``None`` when the
    greedy walk wedges (a repair pass at coarser scale is the caller's
    job — in practice the capacity headroom of real estates admits
    this ordering).
    """
    rounder = _Rounder(state, blocks)
    adjusted = blocks.cost - np.outer(blocks.servers, pi)
    order = np.argsort(-blocks.servers, kind="stable")
    placement: dict[str, str] = {}
    for gi in order:
        gi = int(gi)
        feasible = rounder.feasible_mask(gi)
        chosen = None
        if support is not None:
            chosen = next((j for j, _weight in support[gi] if feasible[j]), None)
        if chosen is None:
            ranked = np.argsort(adjusted[gi], kind="stable")
            ranked = ranked[feasible[ranked]]
            if ranked.size == 0:
                return None
            chosen = int(ranked[0])
        rounder.place(gi, chosen)
        placement[blocks.group_names[gi]] = blocks.target_names[chosen]
    return placement


def _improve_placement(
    state: AsIsState,
    blocks: GroupBlocks,
    placement: dict[str, str],
) -> dict[str, str]:
    """One local pass: move any group whose exact marginal cost drops.

    Uses exact step-priced space deltas (the rounding itself priced
    space at the linear underestimate), so it cleans up exactly the
    placements the relaxation was blind to.  Groups go in order, since
    every move changes two site loads; each group's deltas are priced
    as one row over all sites, with the operations of the scalar
    per-site scan in its order.  That scan is kept in
    ``tests/oracles/decomposition.py``, and the suite checks that the
    two make the same moves.
    """
    space = blocks.space
    tindex = {name: j for j, name in enumerate(blocks.target_names)}
    site = np.array([tindex[placement[name]] for name in blocks.group_names])
    servers = blocks.servers.astype(float)
    loads = np.bincount(site, weights=servers, minlength=blocks.n_targets)
    site_cost = space.cost(loads)

    rounder = _Rounder(state, blocks)
    for gi, j in enumerate(site):
        rounder.place(gi, j)

    for gi, name in enumerate(blocks.group_names):
        here, size = int(site[gi]), servers[gi]
        rounder.unplace(gi, here)
        feasible = rounder.feasible_mask(gi)
        feasible[here] = False
        cost_there = space.cost(loads + size)
        cost_here = space.site_cost(here, loads[here] - size)
        row = blocks.placement[gi]
        delta = (
            row - row[here] + cost_there - site_cost - site_cost[here] + cost_here
        )
        # The scalar rule, replayed: the first site in ascending order
        # that beats the running best by more than 1e-9.  ``argmin``
        # differs when two deltas lie within 1e-9 of each other.
        best_delta, best_j = 0.0, None
        for j in np.flatnonzero(feasible & (delta < -1e-9)):
            if delta[j] < best_delta - 1e-9:
                best_delta, best_j = delta[j], int(j)
        if best_j is None:
            rounder.place(gi, here)
            continue
        rounder.place(gi, best_j)
        loads[here] -= size
        loads[best_j] += size
        site_cost[here], site_cost[best_j] = cost_here, cost_there[best_j]
        placement[name] = blocks.target_names[best_j]
    return placement


# -- dual coordination loops ----------------------------------------------


def _run_master_loop(
    blocks: GroupBlocks, config: DecompositionConfig, deadline: float | None
) -> tuple[float, np.ndarray, list[list[tuple[int, float]]] | None, int, int, int]:
    """Column generation against the restricted master LP.

    Returns ``(lower_bound, best_pi, support, rounds, columns, lp_iters)``.
    """
    n_groups, n_targets = blocks.n_groups, blocks.n_targets
    finite = blocks.cost[np.isfinite(blocks.cost)]
    big = float(finite.max() if finite.size else 1.0) * 10.0 + 1e6
    master = RestrictedMasterLP(blocks.capacities, n_groups, artificial_cost=big)

    # Seed: each group's cheapest placement.
    cheapest = np.argmin(blocks.cost, axis=1)
    for g in range(n_groups):
        j = int(cheapest[g])
        master.add_column(g, j, blocks.cost[g, j], float(blocks.servers[g]))

    best_lb = -math.inf
    best_pi = np.zeros(n_targets)
    support: list[list[tuple[int, float]]] | None = None
    lp_iterations = 0
    rounds = 0
    for rounds in range(1, config.max_rounds + 1):
        solution = master.solve(max_iterations=config.master_iterations)
        lp_iterations += solution.iterations
        if solution.status != "optimal":
            break
        pi = np.minimum(solution.capacity_duals, 0.0)
        mu = solution.convexity_duals
        support = master.group_support(solution.weights)

        pi_sep = config.smoothing * pi + (1.0 - config.smoothing) * best_pi
        best_j, best_val, bound, _ = _price_all(blocks, pi_sep, config.jobs)
        if bound > best_lb:
            best_lb, best_pi = bound, pi_sep
        emit_progress(
            {
                "phase": "decomposition",
                "round": rounds,
                "master_objective": solution.objective,
                "lower_bound": best_lb,
                "columns": master.n_columns - n_groups,
            }
        )
        reduced = best_val - mu
        entering = np.nonzero(reduced < -config.tolerance)[0]
        added = 0
        for g in entering:
            g = int(g)
            j = int(best_j[g])
            if master.add_column(g, j, blocks.cost[g, j], float(blocks.servers[g])):
                added += 1
        if added == 0 and config.smoothing < 1.0:
            # Mis-pricing check at the exact master duals.
            best_j, best_val, bound, _ = _price_all(blocks, pi, config.jobs)
            if bound > best_lb:
                best_lb, best_pi = bound, pi
            reduced = best_val - mu
            for g in np.nonzero(reduced < -config.tolerance)[0]:
                g = int(g)
                j = int(best_j[g])
                if master.add_column(
                    g, j, blocks.cost[g, j], float(blocks.servers[g])
                ):
                    added += 1
        if added == 0:
            # Converged: the restricted master *is* the full LP master
            # (no column prices out), so its objective is the exact
            # Dantzig-Wolfe bound — provided no artificial remains.
            if solution.artificial_weight < 1e-7:
                best_lb = max(best_lb, solution.objective)
                best_pi = pi
            break
        if deadline is not None and time.monotonic() > deadline:
            break
    return best_lb, best_pi, support, rounds, master.n_columns - n_groups, lp_iterations


def _run_subgradient_loop(
    blocks: GroupBlocks,
    config: DecompositionConfig,
    deadline: float | None,
    upper_estimate: float,
    pi0: np.ndarray | None = None,
    lb0: float = -math.inf,
) -> tuple[float, np.ndarray, int]:
    """Projected subgradient ascent on the capacity duals (pi <= 0).

    The Polyak step uses the primal estimate from the greedy rounding;
    the step scale halves after stretches without bound improvement.
    ``pi0``/``lb0`` warm-start the ascent (the master path uses this to
    polish its bound past the linearized-space LP optimum).
    Returns ``(lower_bound, best_pi, rounds)``.
    """
    pi = np.zeros(blocks.n_targets) if pi0 is None else pi0.copy()
    best_lb = lb0
    best_pi = pi.copy()
    theta = 1.0
    stall = 0
    rounds = 0
    for rounds in range(1, config.subgradient_rounds + 1):
        best_j, _best_val, bound, qstar = _price_all(blocks, pi, config.jobs)
        if bound > best_lb + 1e-9:
            best_lb, best_pi = bound, pi.copy()
            stall = 0
        else:
            stall += 1
            if stall >= 5:
                theta = max(theta * 0.5, 1e-4)
                stall = 0
        # Subgradient of L at pi: the site argmin loads minus the load
        # the pricing solutions put on each site.
        load = np.bincount(
            best_j, weights=blocks.servers.astype(float), minlength=blocks.n_targets
        )
        grad = qstar - load
        norm = float(grad @ grad)
        if norm < 1e-12:
            break
        gap_estimate = max(upper_estimate - bound, 1e-6)
        pi = np.minimum(pi + theta * gap_estimate / norm * grad, 0.0)
        if deadline is not None and time.monotonic() > deadline:
            break
        if (
            math.isfinite(upper_estimate)
            and upper_estimate > 0
            and (upper_estimate - best_lb) / upper_estimate < config.gap_target / 4
        ):
            break
    return best_lb, best_pi, rounds


# -- entry point -----------------------------------------------------------


def solve_decomposition(
    state: AsIsState,
    options: ModelOptions | None = None,
    config: DecompositionConfig | None = None,
) -> DecompositionOutcome:
    """Plan ``state`` by decomposition; returns plan + certified gap.

    Raises :class:`DecompositionError` when the state needs features
    the engine does not cover (joint DR planning) or no integral
    rounding exists.
    """
    options = options or ModelOptions()
    config = config or DecompositionConfig()
    if options.enable_dr:
        raise DecompositionError(
            "method='decomposition' does not plan joint disaster recovery "
            "yet; use method='milp' for enable_dr states"
        )
    start = time.monotonic()
    deadline = start + config.time_limit if config.time_limit else None

    blocks = extract_group_blocks(state, options)

    coordination = config.coordination
    if coordination == "auto":
        coordination = (
            "master" if blocks.n_groups <= config.master_group_limit
            else "subgradient"
        )

    # A first greedy rounding (zero duals) gives the subgradient its
    # Polyak target and every path a feasible incumbent early.
    placement0 = _round_placement(state, blocks, None, np.zeros(blocks.n_targets))
    upper0 = (
        model_objective(state, blocks, placement0, options)
        if placement0 is not None
        else math.inf
    )

    columns = 0
    lp_iterations = 0
    support: list[list[tuple[int, float]]] | None = None
    if coordination == "master":
        lower, pi, support, rounds, columns, lp_iterations = _run_master_loop(
            blocks, config, deadline
        )
        # The master certifies the linearized-space LP bound; a short
        # subgradient polish on the exact Lagrangian (step-priced site
        # terms) from the master duals can only raise it.
        if math.isfinite(lower) and (
            deadline is None or time.monotonic() < deadline
        ):
            lower, pi, polish_rounds = _run_subgradient_loop(
                blocks, config, deadline, upper0, pi0=pi, lb0=lower
            )
            rounds += polish_rounds
    else:
        lower, pi, rounds = _run_subgradient_loop(blocks, config, deadline, upper0)

    rounded = _round_placement(state, blocks, support, pi)
    candidates: list[tuple[float, dict[str, str]]] = []
    if rounded is not None:
        candidates.append(
            (model_objective(state, blocks, rounded, options), rounded)
        )
        # The local pass is blind to peer-split costs, so keep the
        # pre-improvement rounding as a candidate too.
        improved = _improve_placement(state, blocks, dict(rounded))
        candidates.append(
            (model_objective(state, blocks, improved, options), improved)
        )
    if placement0 is not None:
        candidates.append((upper0, placement0))
    if not candidates:
        raise DecompositionError(
            "rounding found no capacity-feasible integral placement; "
            "the estate is too tight for the decomposition heuristic"
        )
    upper, placement = min(candidates, key=lambda pair: pair[0])

    gap = (upper - lower) / upper if upper > 0 and math.isfinite(lower) else math.nan
    elapsed = time.monotonic() - start

    plan = evaluate_plan(
        state,
        placement,
        secondary={},
        wan_model=options.wan_model,
        solver="decomposition",
        objective=upper,
    )
    stats = SolveStats(
        backend="decomposition",
        elapsed_seconds=elapsed,
        lp_iterations=lp_iterations,
        best_bound=lower,
        incumbent=upper,
        mip_gap=gap,
        extra={
            "decomp_rounds": float(rounds),
            "decomp_columns": float(columns),
            "decomp_groups": float(blocks.n_groups),
            "decomp_targets": float(blocks.n_targets),
            "decomp_jobs": float(config.jobs),
            "decomp_master": 1.0 if coordination == "master" else 0.0,
        },
    )
    plan.solver_stats = stats
    validate_plan(state, plan)
    return DecompositionOutcome(
        plan=plan,
        lower_bound=lower,
        upper_bound=upper,
        gap=gap,
        rounds=rounds,
        columns=columns,
        coordination=coordination,
        stats=stats,
    )
