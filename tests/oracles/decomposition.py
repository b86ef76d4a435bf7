"""Scalar reference for the decomposition engine's primal rounding and local pass.

The historical per-(group, site) Python scans, kept verbatim as the
cross-check oracle for :func:`repro.core.decomposition._round_placement`
and :func:`repro.core.decomposition._improve_placement`, which price a
whole row of sites at a time with the same arithmetic.  Every plan the
engine returns must be bit-identical to what these loops produce.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.decomposition import GroupBlocks
from repro.core.entities import AsIsState, DataCenter
from repro.core.formulation import ModelOptions

from tests.oracles.placement import placement_cost


class ScalarRounder:
    """Greedy integral rounding that honors capacity, risk and ω."""

    def __init__(self, state: AsIsState, blocks: GroupBlocks) -> None:
        self.state = state
        self.blocks = blocks
        self.remaining = blocks.capacities.copy()
        self.risk_used: dict[tuple[str, int], bool] = {}
        self.site_groups = np.zeros(blocks.n_targets, dtype=np.int64)
        omega = state.params.business_impact
        self.group_cap = (
            omega * len(state.app_groups) if omega < 1.0 else math.inf
        )
        self.risk_tag = {g.name: g.risk_group for g in state.app_groups}

    def feasible(self, gi: int, j: int) -> bool:
        blocks = self.blocks
        if not np.isfinite(blocks.cost[gi, j]):
            return False
        if blocks.servers[gi] > self.remaining[j] + 1e-9:
            return False
        if self.site_groups[j] + 1 > self.group_cap + 1e-9:
            return False
        tag = self.risk_tag.get(blocks.group_names[gi])
        if tag and self.risk_used.get((tag, j)):
            return False
        return True

    def place(self, gi: int, j: int) -> None:
        self.remaining[j] -= self.blocks.servers[gi]
        self.site_groups[j] += 1
        tag = self.risk_tag.get(self.blocks.group_names[gi])
        if tag:
            self.risk_used[(tag, j)] = True

    def unplace(self, gi: int, j: int) -> None:
        self.remaining[j] += self.blocks.servers[gi]
        self.site_groups[j] -= 1
        tag = self.risk_tag.get(self.blocks.group_names[gi])
        if tag:
            self.risk_used[(tag, j)] = False


def round_placement(
    state: AsIsState,
    blocks: GroupBlocks,
    support: list[list[tuple[int, float]]] | None,
    pi: np.ndarray,
) -> dict[str, str] | None:
    """Round the fractional master support to an integral placement.

    Groups go largest-first; each tries its master columns by weight,
    then every site by dual-adjusted cost.  Returns ``None`` when the
    greedy walk wedges.
    """
    rounder = ScalarRounder(state, blocks)
    adjusted = blocks.cost - np.outer(blocks.servers, pi)
    order = np.argsort(-blocks.servers, kind="stable")
    placement: dict[str, str] = {}
    for gi in order:
        gi = int(gi)
        chosen = None
        if support is not None:
            for j, _weight in support[gi]:
                if rounder.feasible(gi, j):
                    chosen = j
                    break
        if chosen is None:
            for j in np.argsort(adjusted[gi], kind="stable"):
                j = int(j)
                if rounder.feasible(gi, j):
                    chosen = j
                    break
        if chosen is None:
            return None
        rounder.place(gi, chosen)
        placement[blocks.group_names[gi]] = blocks.target_names[chosen]
    return placement


def improve_placement(
    state: AsIsState,
    blocks: GroupBlocks,
    placement: dict[str, str],
    options: ModelOptions,
) -> dict[str, str]:
    """One local pass: move any group whose exact marginal cost drops.

    Uses exact step-priced space deltas (the rounding itself priced
    space at the linear underestimate), so it cleans up exactly the
    placements the relaxation was blind to.
    """
    targets = {dc.name: dc for dc in state.target_datacenters}
    tindex = {name: j for j, name in enumerate(blocks.target_names)}
    loads: dict[str, int] = {name: 0 for name in blocks.target_names}
    for group in state.app_groups:
        loads[placement[group.name]] += group.servers

    def space_cost(dc: DataCenter, load: int) -> float:
        if load <= 0:
            return 0.0
        schedule = dc.space_cost.truncated(dc.capacity)
        if options.economies_of_scale:
            base = schedule.total_cost(load)
        else:
            base = schedule.segments[0].unit_price * load
        return base + dc.fixed_monthly_cost

    rounder = ScalarRounder(state, blocks)
    for gi, group in enumerate(state.app_groups):
        rounder.place(gi, tindex[placement[group.name]])

    for gi, group in enumerate(state.app_groups):
        here = placement[group.name]
        dc_here = targets[here]
        j_here = tindex[here]
        base_here = placement_cost(state, group, dc_here, wan_model=options.wan_model)
        rounder.unplace(gi, j_here)
        best_delta, best_j = 0.0, None
        for j, name in enumerate(blocks.target_names):
            if name == here or not rounder.feasible(gi, j):
                continue
            dc_there = targets[name]
            delta = (
                placement_cost(state, group, dc_there, wan_model=options.wan_model)
                - base_here
                + space_cost(dc_there, loads[name] + group.servers)
                - space_cost(dc_there, loads[name])
                - space_cost(dc_here, loads[here])
                + space_cost(dc_here, loads[here] - group.servers)
            )
            if delta < best_delta - 1e-9:
                best_delta, best_j = delta, j
        if best_j is None:
            rounder.place(gi, j_here)
        else:
            rounder.place(gi, best_j)
            name = blocks.target_names[best_j]
            loads[here] -= group.servers
            loads[name] += group.servers
            placement[group.name] = name
    return placement
