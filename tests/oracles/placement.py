"""Scalar reference for the per-placement objective coefficient.

The historical one-pair-at-a-time pricer, kept verbatim as the
cross-check oracle for :func:`repro.core.formulation.placement_costs`,
which prices every (group, site) pair in one array pass with the same
float operations in the same order.  Every entry of the kernel must be
bit-identical to what this function returns.
"""

from __future__ import annotations

import numpy as np

from repro.core.entities import ApplicationGroup, AsIsState, DataCenter
from repro.core.wan import wan_cost


def placement_cost(
    state: AsIsState,
    group: ApplicationGroup,
    dc: DataCenter,
    *,
    wan_model: str = "metered",
) -> float:
    """Per-placement objective coefficient (everything but space scale).

    Covers power, labor, WAN and the latency penalty :math:`L_{ij}`;
    space enters separately (through the shared step-cost block in the
    monolithic MILP, or the per-site space rate in the decomposition
    engine) so volume discounts apply across groups.
    """
    params = state.params
    power_labor = group.servers * (
        params.server_power_kw * dc.power_cost_per_kw
        + dc.labor_cost_per_admin / params.servers_per_admin
    )
    wan = wan_cost(group, dc, params, model=wan_model)
    latency = 0.0
    if group.total_users > 0:
        mean_latency = group.mean_latency(dc.latency_to_users)
        latency = group.latency_penalty.total_penalty(mean_latency, group.total_users)
    return power_labor + wan + latency


def placement_cost_matrix(state: AsIsState, wan_model: str = "metered") -> np.ndarray:
    """The scalar over every (group, target) pair in row-major order,
    ``inf`` where :meth:`AsIsState.placeable` rejects the pair."""
    rows = [
        [
            placement_cost(state, group, dc, wan_model=wan_model)
            if state.placeable(group, dc)
            else np.inf
            for dc in state.target_datacenters
        ]
        for group in state.app_groups
    ]
    return np.array(rows, dtype=float).reshape(
        len(state.app_groups), len(state.target_datacenters)
    )
