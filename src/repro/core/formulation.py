"""Consolidation MILP builder (paper Section III-B).

Builds the linear program

.. math::

    \\min \\sum_j \\sum_i X_{ij}\\Big(S_i (Q_j + αE_j + T_j/β) + D_i W_j
    + L_{ij}\\Big)

subject to assignment, capacity, shared-risk and placement-eligibility
constraints, with economies of scale incorporated via the Schoomer step-
function technique (per-segment binaries).  The DR extension in
:mod:`repro.core.dr` adds secondary-site variables on top of the same
builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lp import Problem, Variable, VarType, quicksum
from ..lp.expressions import LinExpr
from ..lp.solution import Solution
from .entities import ApplicationGroup, AsIsState, DataCenter, groups_by_risk
from .wan import inter_site_wan_price, undirected_peer_traffic


class InfeasibleModelError(ValueError):
    """Raised when the as-is state admits no feasible plan at all."""


def placement_costs(state: AsIsState, wan_model: str = "metered") -> np.ndarray:
    """Per-placement objective coefficients of every (group, target) pair.

    Row ``g``, column ``j`` is the coefficient of :math:`X_{gj}`: power,
    labor, WAN and the latency penalty :math:`L_{gj}`, everything but
    space, which enters separately (through the shared step-cost block in
    the monolithic MILP, or the per-site space rate in the decomposition
    engine) so volume discounts apply across groups.  Pairs that
    :meth:`AsIsState.placeable` rejects are ``inf``.

    Each entry repeats the float operations of the historical per-pair
    scalar (kept as ``tests/oracles/placement.py``) in the same order,
    vectorized across groups and sites and looped over each group's
    user-location slots, so it is bit-identical to it.  The errors are
    the scalar's too, raised for the first placeable pair in row-major
    order that hits one: a missing VPN link price, then a missing latency
    figure, then a negative mean latency.
    """
    params = state.params
    groups, targets = state.app_groups, state.target_datacenters
    shape = (len(groups), len(targets))
    placeable = state.placeable_mask()
    if wan_model not in ("metered", "vpn") and placeable.any():
        raise ValueError(f"unknown WAN cost model {wan_model!r}")

    servers = np.array([g.servers for g in groups], dtype=float)
    site_rate = np.array([
        params.server_power_kw * dc.power_cost_per_kw
        + dc.labor_cost_per_admin / params.servers_per_admin
        for dc in targets
    ])
    power_labor = servers[:, None] * site_rate

    # One slot per (group, user location with a non-zero count), in the
    # group's ``users`` order; padded slots have ``valid`` False.
    total_users = np.array([g.total_users for g in groups], dtype=float)
    slots = [[(loc, n) for loc, n in g.users.items() if n != 0] for g in groups]
    locations: dict[str, int] = {}
    n_slots = max((len(row) for row in slots), default=0)
    count = np.zeros((len(groups), n_slots))
    loc_index = np.zeros((len(groups), n_slots), dtype=np.int64)
    valid = np.zeros((len(groups), n_slots), dtype=bool)
    for gi, row in enumerate(slots):
        for k, (loc, n) in enumerate(row):
            count[gi, k] = n
            loc_index[gi, k] = locations.setdefault(loc, len(locations))
            valid[gi, k] = True

    def slot_sum(weight: np.ndarray, live: np.ndarray, table: str):
        """``Σ_k weight[g, k] * dc.<table>[location k]`` over live slots,
        accumulated slot by slot, and which pairs miss a live figure."""
        figures = np.full((len(locations), len(targets)), np.nan)
        known = np.zeros(figures.shape, dtype=bool)
        for j, dc in enumerate(targets):
            row = getattr(dc, table)
            for loc, li in locations.items():
                if loc in row:
                    figures[li, j] = row[loc]
                    known[li, j] = True
        total = np.zeros(shape)
        missing = np.zeros(shape, dtype=bool)
        for k in range(n_slots):
            on = live[:, k, None]
            term = weight[:, k, None] * figures[loc_index[:, k]]
            total = np.where(on, total + term, total)
            missing |= on & ~known[loc_index[:, k]]
        return total, missing

    latency_sum, latency_missing = slot_sum(count, valid, "latency_to_users")
    data_mb = np.array([g.monthly_data_mb for g in groups], dtype=float)
    if wan_model == "vpn":
        with np.errstate(divide="ignore", invalid="ignore"):
            links = count / total_users[:, None] * data_mb[:, None]
        links = links / params.vpn_link_capacity_mb
        linked = valid & (links != 0.0)
        wan, price_missing = slot_sum(links, linked, "vpn_link_cost")
    else:
        wan_rate = np.array([dc.wan_cost_per_mb for dc in targets], dtype=float)
        wan = data_mb[:, None] * wan_rate
        price_missing = np.zeros(shape, dtype=bool)

    # Groups without users pay no latency penalty and never look one up.
    has_users = total_users > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = latency_sum / total_users[:, None]
    negative = has_users[:, None] & (mean < 0)
    latency_missing &= has_users[:, None]
    faults = placeable & (price_missing | latency_missing | negative)
    if faults.any():
        gi, j = np.unravel_index(int(np.argmax(faults)), shape)
        group, dc = groups[gi], targets[j]
        if price_missing[gi, j]:
            loc = next(
                loc for (loc, _), on in zip(slots[gi], linked[gi])
                if on and loc not in dc.vpn_link_cost
            )
            raise KeyError(
                f"data center {dc.name!r} has no VPN link price for "
                f"user location {loc!r}"
            )
        if latency_missing[gi, j]:
            loc = next(
                loc for loc, _ in slots[gi] if loc not in dc.latency_to_users
            )
            raise KeyError(
                f"group {group.name!r} has users at {loc!r} but no latency "
                "figure for that location was provided"
            )
        raise ValueError("latency cannot be negative")

    # The penalty of the highest threshold the mean latency exceeds,
    # times the users; one pass per distinct penalty function.
    latency = np.zeros(shape)
    rows_of: dict[object, list[int]] = {}
    for gi, group in enumerate(groups):
        if has_users[gi]:
            rows_of.setdefault(group.latency_penalty, []).append(gi)
    for penalty, rows in rows_of.items():
        rows = np.array(rows)
        per_user = np.zeros((len(rows), len(targets)))
        for step in penalty.steps:
            per_user = np.where(
                mean[rows] > step.threshold_ms, step.penalty_per_user, per_user
            )
        latency[rows] = per_user * total_users[rows, None]

    return np.where(placeable, (power_labor + wan) + latency, np.inf)


@dataclass
class ModelOptions:
    """Knobs controlling how the MILP is constructed.

    Attributes
    ----------
    wan_model:
        ``"metered"`` (per-megabit :math:`D_i W_j`) or ``"vpn"``
        (dedicated distance-priced links).
    economies_of_scale:
        Model volume-discount space pricing exactly with segment
        binaries; when False the base (first-tier) price applies.
    enable_dr:
        Jointly plan a single-failure disaster-recovery assignment.
    dedicated_backups:
        Size backups per group instead of shared pools (multi-failure).
    """

    wan_model: str = "metered"
    economies_of_scale: bool = True
    enable_dr: bool = False
    dedicated_backups: bool = False

    def __post_init__(self) -> None:
        if self.wan_model not in ("metered", "vpn"):
            raise ValueError(f"unknown WAN model {self.wan_model!r}")


@dataclass
class SegmentBlock:
    """LP artifacts of one data center's step-priced space cost."""

    selectors: list[Variable] = field(default_factory=list)  # z_jk
    loads: list[Variable] = field(default_factory=list)      # n_jk


class ConsolidationModel:
    """Owner of the MILP: variables, constraints, objective, extraction.

    Typical use::

        model = ConsolidationModel(state, ModelOptions(enable_dr=True))
        solution = solve(model.problem, backend="highs")
        placement = model.extract_placement(solution)
    """

    def __init__(self, state: AsIsState, options: ModelOptions | None = None) -> None:
        self.state = state
        self.options = options or ModelOptions()
        self.problem = Problem(name=f"etransform-{state.name}")
        #: X[group.name, dc.name] — primary assignment binaries.
        self.x: dict[tuple[str, str], Variable] = {}
        #: Y[group.name, dc.name] — secondary assignment binaries (DR).
        self.y: dict[tuple[str, str], Variable] = {}
        #: G[dc.name] — backup pool size (DR).
        self.g: dict[str, Variable] = {}
        #: U[dc.name] — site-used binaries carrying fixed facility costs.
        self.used: dict[str, Variable] = {}
        #: P[(group_a, group_b, site_a, site_b)] — peer-split linking vars.
        self.peer_split: dict[tuple[str, str, str, str], Variable] = {}
        #: J[(primary, secondary, group)] — linking relaxation (DR, shared pools).
        self.j: dict[tuple[str, str, str], Variable] = {}
        self.segment_blocks: dict[str, SegmentBlock] = {}
        self._placement_cost: dict[tuple[str, str], float] = {}
        self._build()

    # -- construction ----------------------------------------------------
    def placement_cost(self, group: ApplicationGroup, dc: DataCenter) -> float:
        """Objective coefficient of ``X[group, dc]`` (eligible pairs only),
        as :func:`placement_costs` priced it."""
        return self._placement_cost[(group.name, dc.name)]

    def _build(self) -> None:
        state = self.state
        prob = self.problem

        # Primary assignment binaries, skipping statically impossible pairs.
        targets = state.target_datacenters
        costs = placement_costs(state, self.options.wan_model).tolist()
        for group, row, placeable in zip(
            state.app_groups, costs, state.placeable_mask().tolist()
        ):
            eligible = [j for j, ok in enumerate(placeable) if ok]
            if not eligible:
                raise InfeasibleModelError(
                    f"application group {group.name!r} ({group.servers} servers) "
                    "fits no target data center; split it first (cf. paper's "
                    "reference [3]) or relax its placement constraints"
                )
            for j in eligible:
                dc = targets[j]
                var = prob.add_binary(f"X[{group.name},{dc.name}]")
                self.x[(group.name, dc.name)] = var
                self._placement_cost[(group.name, dc.name)] = row[j]

        # Constraint 1: every group gets exactly one primary site.
        for group in state.app_groups:
            vars_i = [v for (g, _), v in self.x.items() if g == group.name]
            prob.add_constraint(quicksum(vars_i) == 1, f"assign[{group.name}]")

        if self.options.enable_dr:
            from .dr import add_disaster_recovery

            add_disaster_recovery(self)

        # Constraint 2: capacity per target data center (incl. backups).
        # Sites with a fixed facility cost get a used-binary U_j and the
        # tighter form load <= O_j * U_j, which both enforces capacity
        # and charges the fixed cost whenever anything lands there.
        for dc in state.target_datacenters:
            load = self._primary_load(dc)
            if self.options.enable_dr and state.params.include_backup_in_capacity:
                load = load + self.g[dc.name]
            if dc.fixed_monthly_cost > 0:
                used = prob.add_binary(f"U[{dc.name}]")
                self.used[dc.name] = used
                prob.add_constraint(load <= dc.capacity * used, f"capacity[{dc.name}]")
                if self.options.enable_dr and not state.params.include_backup_in_capacity:
                    # Backups bypass the capacity row then, but still
                    # occupy the facility and must trigger its fixed cost.
                    prob.add_constraint(
                        self.g[dc.name] <= dc.capacity * used,
                        f"used_backup[{dc.name}]",
                    )
            else:
                prob.add_constraint(load <= dc.capacity, f"capacity[{dc.name}]")

        # Shared-risk anti-colocation: one group per risk tag per site.
        for tag, members in groups_by_risk(state.app_groups).items():
            for dc in state.target_datacenters:
                vars_j = [
                    self.x[(m.name, dc.name)]
                    for m in members
                    if (m.name, dc.name) in self.x
                ]
                if len(vars_j) > 1:
                    prob.add_constraint(quicksum(vars_j) <= 1, f"risk[{tag},{dc.name}]")

        # Business impact ω: cap the fraction of groups in any one site.
        omega = state.params.business_impact
        if omega < 1.0:
            cap = omega * len(state.app_groups)
            for dc in state.target_datacenters:
                vars_j = [v for (_, d), v in self.x.items() if d == dc.name]
                if vars_j:
                    prob.add_constraint(quicksum(vars_j) <= cap, f"impact[{dc.name}]")

        objective = self._assignment_objective() + self._space_objective()
        peer_terms = self._peer_traffic_objective()
        if peer_terms is not None:
            objective = objective + peer_terms
        if self.used:
            objective = objective + quicksum(
                var * self.state.target(name).fixed_monthly_cost
                for name, var in self.used.items()
            )
        if self.options.enable_dr:
            objective = objective + self._dr_objective()
        prob.set_objective(objective)

    def _primary_load(self, dc: DataCenter) -> LinExpr:
        """Σ_i X_ij S_i as a linear expression."""
        return quicksum(
            self.x[(g.name, dc.name)] * g.servers
            for g in self.state.app_groups
            if (g.name, dc.name) in self.x
        )

    def _total_load(self, dc: DataCenter) -> LinExpr:
        """Primary load plus backup pool (when DR is on)."""
        load = self._primary_load(dc)
        if self.options.enable_dr:
            load = load + self.g[dc.name]
        return load

    def _assignment_objective(self) -> LinExpr:
        return quicksum(
            var * self._placement_cost[key] for key, var in self.x.items()
        )

    def _space_objective(self) -> LinExpr:
        """Space cost: flat, or exact step pricing with segment binaries.

        Schoomer technique, all-units form: for data center *j* with
        tiers :math:`(lo_k, hi_k, p_k)` introduce binaries :math:`z_{jk}`
        and loads :math:`n_{jk}` with
        :math:`Σ_k n_{jk} = load_j`, :math:`lo_k z_{jk} ≤ n_{jk} ≤ hi_k z_{jk}`,
        :math:`Σ_k z_{jk} ≤ 1`; the space bill is :math:`Σ_k p_k n_{jk}`.
        """
        prob = self.problem
        terms: list[LinExpr] = []
        for dc in self.state.target_datacenters:
            schedule = dc.space_cost.truncated(dc.capacity)
            if not self.options.economies_of_scale or schedule.is_flat:
                base_price = schedule.segments[0].unit_price
                terms.append(self._total_load(dc) * base_price)
                continue
            block = SegmentBlock()
            for k, seg in enumerate(schedule.segments):
                z = prob.add_binary(f"z[{dc.name},{k}]")
                n = prob.add_variable(f"n[{dc.name},{k}]", lb=0.0, ub=float(seg.upper))
                prob.add_constraint(n <= seg.upper * z, f"seg_ub[{dc.name},{k}]")
                prob.add_constraint(n >= seg.lower * z, f"seg_lb[{dc.name},{k}]")
                block.selectors.append(z)
                block.loads.append(n)
                terms.append(n * seg.unit_price)
            prob.add_constraint(quicksum(block.selectors) <= 1, f"seg_one[{dc.name}]")
            prob.add_constraint(
                quicksum(block.loads) == self._total_load(dc), f"seg_link[{dc.name}]"
            )
            self.segment_blocks[dc.name] = block
        return quicksum(terms) if terms else LinExpr()

    def _peer_traffic_objective(self) -> LinExpr | None:
        """Inter-group WAN: pay when a communicating pair is split.

        For each peer pair (i, k) and each ordered site pair (a, b),
        a continuous ``P ≥ X_ia + X_kb − 1`` carries the cross-site
        traffic cost; like the DR linking variables, P is tight at any
        optimum because it only ever adds cost.
        """
        pair_traffic = undirected_peer_traffic(self.state.app_groups)
        if not pair_traffic:
            return None
        prob = self.problem
        terms: list[LinExpr] = []
        sites = self.state.target_datacenters
        known = {g.name for g in self.state.app_groups}
        for pair, traffic in pair_traffic.items():
            name_a, name_b = sorted(pair)
            if name_a not in known or name_b not in known:
                raise InfeasibleModelError(
                    f"peer traffic references unknown group in {pair}"
                )
            for dc_a in sites:
                if (name_a, dc_a.name) not in self.x:
                    continue
                for dc_b in sites:
                    if dc_b.name == dc_a.name:
                        continue
                    if (name_b, dc_b.name) not in self.x:
                        continue
                    price = inter_site_wan_price(dc_a, dc_b)
                    if price <= 0:
                        continue
                    key = (name_a, name_b, dc_a.name, dc_b.name)
                    split = prob.add_variable(
                        f"P[{name_a},{name_b},{dc_a.name},{dc_b.name}]",
                        lb=0.0, ub=1.0,
                    )
                    self.peer_split[key] = split
                    prob.add_constraint(
                        split
                        >= self.x[(name_a, dc_a.name)]
                        + self.x[(name_b, dc_b.name)]
                        - 1,
                        f"peer[{name_a},{name_b},{dc_a.name},{dc_b.name}]",
                    )
                    terms.append(split * (traffic * price))
        return quicksum(terms) if terms else None

    def _dr_objective(self) -> LinExpr:
        """Backup pools: purchase ζ plus standby power & labor shares.

        Backup *space* is already covered because :meth:`_total_load`
        feeds the step-priced space blocks; power and labor scale with
        the standby fractions (cold standby pays neither).
        """
        params = self.state.params
        terms = []
        for dc in self.state.target_datacenters:
            per_server = (
                params.dr_server_cost
                + params.backup_power_fraction
                * params.server_power_kw
                * dc.power_cost_per_kw
                + params.backup_labor_fraction
                * dc.labor_cost_per_admin
                / params.servers_per_admin
            )
            terms.append(self.g[dc.name] * per_server)
        return quicksum(terms)

    # -- extraction ---------------------------------------------------------
    def extract_placement(self, solution: Solution) -> dict[str, str]:
        """Read the primary assignment out of a solution."""
        if not solution.status.has_solution:
            raise ValueError(f"no solution to extract (status={solution.status})")
        placement: dict[str, str] = {}
        for (group, dc), var in self.x.items():
            if solution.value(var, 0.0) > 0.5:
                if group in placement:
                    raise ValueError(f"group {group!r} assigned to two sites")
                placement[group] = dc
        missing = [g.name for g in self.state.app_groups if g.name not in placement]
        if missing:
            raise ValueError(f"solution leaves groups unassigned: {missing[:5]}")
        return placement

    def extract_secondary(self, solution: Solution) -> dict[str, str]:
        """Read the DR (secondary) assignment out of a solution."""
        secondary: dict[str, str] = {}
        for (group, dc), var in self.y.items():
            if solution.value(var, 0.0) > 0.5:
                secondary[group] = dc
        return secondary

    def extract_backup_pools(self, solution: Solution) -> dict[str, int]:
        """Read backup pool sizes G_j (rounded up defensively)."""
        pools: dict[str, int] = {}
        for name, var in self.g.items():
            value = solution.value(var, 0.0)
            if value > 1e-6:
                pools[name] = int(round(value))
        return pools
