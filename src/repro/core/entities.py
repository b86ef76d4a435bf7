"""Domain entities: the "as-is" state specification of Table I.

The paper's input is an enterprise described by application groups
(servers, traffic, users, constraints), candidate target data centers
(capacity and the four cost components), and the user-location geometry
that induces latencies.  These classes are plain data with validation;
all optimization logic lives in :mod:`repro.core.formulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

from .costs import StepCostFunction
from .latency import LatencyPenaltyFunction, NO_PENALTY


@dataclass(frozen=True)
class UserLocation:
    """A geographic concentration of application users.

    Coordinates are planar kilometres; the geography module converts
    distance to latency.
    """

    name: str
    x: float = 0.0
    y: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("user location needs a name")


@dataclass
class ApplicationGroup:
    """An associativity-constrained group of applications (Section II).

    All ``servers`` of the group must land in one data center.  ``users``
    is the traffic matrix row :math:`C_{ir}`; ``monthly_data_mb`` is
    :math:`D_i` in megabits/month exchanged with users.
    """

    name: str
    servers: int
    monthly_data_mb: float = 0.0
    users: dict[str, float] = field(default_factory=dict)
    latency_penalty: LatencyPenaltyFunction = NO_PENALTY
    current_datacenter: str | None = None
    allowed_regions: frozenset[str] | None = None
    forbidden_datacenters: frozenset[str] = frozenset()
    risk_group: str | None = None
    #: Inter-group traffic (Mb/month) to *other* groups, by name.  Free
    #: on the LAN; placed across sites it becomes WAN traffic — the very
    #: reason the paper groups tightly-coupled applications at all.
    peers: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("application group needs a name")
        if self.servers <= 0:
            raise ValueError(f"group {self.name!r}: servers must be positive")
        if self.monthly_data_mb < 0:
            raise ValueError(f"group {self.name!r}: negative data volume")
        for loc, count in self.users.items():
            if count < 0:
                raise ValueError(f"group {self.name!r}: negative users at {loc!r}")
        for peer, traffic in self.peers.items():
            if traffic < 0:
                raise ValueError(f"group {self.name!r}: negative traffic to {peer!r}")
            if peer == self.name:
                raise ValueError(f"group {self.name!r} lists itself as a peer")

    @property
    def total_users(self) -> float:
        """Total user count across all locations."""
        return sum(self.users.values())

    @property
    def is_latency_sensitive(self) -> bool:
        """Whether the group carries any latency penalty at all."""
        return self.latency_penalty is not NO_PENALTY and not self.latency_penalty.is_zero

    def mean_latency(self, latency_to_users: Mapping[str, float]) -> float:
        """User-weighted mean latency given per-location latencies (ms).

        Locations with zero users do not contribute; a group with no
        users has zero mean latency by convention.
        """
        total = self.total_users
        if total == 0:
            return 0.0
        acc = 0.0
        for loc, count in self.users.items():
            if count == 0:
                continue
            try:
                acc += count * latency_to_users[loc]
            except KeyError:
                raise KeyError(
                    f"group {self.name!r} has users at {loc!r} but no latency "
                    "figure for that location was provided"
                ) from None
        return acc / total

    def with_users(self, users: dict[str, float]) -> "ApplicationGroup":
        """Copy of this group with a different user distribution."""
        return replace(self, users=dict(users))


@dataclass
class DataCenter:
    """A (current or candidate target) data center location.

    Cost fields follow Table I: ``space_cost`` is :math:`Q_j` as a
    volume-discount schedule in $/server/month, ``power_cost_per_kw``
    is :math:`E_j` in $/kW/month, ``labor_cost_per_admin`` is
    :math:`T_j` in $/admin/month, ``wan_cost_per_mb`` is :math:`W_j`
    in $/megabit.  ``latency_to_users`` holds milliseconds per user
    location; ``vpn_link_cost`` holds the monthly price :math:`F_{jr}`
    of one dedicated VPN link per user location.
    """

    name: str
    capacity: int
    space_cost: StepCostFunction
    power_cost_per_kw: float
    labor_cost_per_admin: float
    wan_cost_per_mb: float
    latency_to_users: dict[str, float] = field(default_factory=dict)
    vpn_link_cost: dict[str, float] = field(default_factory=dict)
    region: str = "global"
    x: float = 0.0
    y: float = 0.0
    #: Monthly facility overhead paid whenever the site hosts anything
    #: (security, cooling baseline, network uplinks, management).  This
    #: is what scattering an estate over tens of small sites really
    #: costs, and what consolidation eliminates.
    fixed_monthly_cost: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("data center needs a name")
        if self.capacity <= 0:
            raise ValueError(f"data center {self.name!r}: capacity must be positive")
        for label, value in (
            ("power", self.power_cost_per_kw),
            ("labor", self.labor_cost_per_admin),
            ("wan", self.wan_cost_per_mb),
            ("fixed", self.fixed_monthly_cost),
        ):
            if value < 0:
                raise ValueError(f"data center {self.name!r}: negative {label} cost")

    def per_server_monthly_cost(self, params: "CostParameters", occupancy: int = 1) -> float:
        """Space + power + labor for one server at the given occupancy.

        Space uses the volume-discount unit price that applies when the
        data center hosts ``occupancy`` servers in total.
        """
        space = self.space_cost.unit_price(occupancy)
        power = params.server_power_kw * self.power_cost_per_kw
        labor = self.labor_cost_per_admin / params.servers_per_admin
        return space + power + labor


@dataclass
class CostParameters:
    """Global sizing constants of the formulation (Section III-B).

    Attributes
    ----------
    server_power_kw:
        α — mean power draw of one server in kW (paper: 0.3–0.4).
    servers_per_admin:
        β — servers one administrator handles (paper: 130).
    vpn_link_capacity_mb:
        γ — megabits/month one dedicated VPN link carries.
    dr_server_cost:
        ζ — purchase price of one backup server.
    business_impact:
        ω — max fraction of all application groups in a single DC.
    include_backup_in_capacity:
        Whether backup servers consume target-DC capacity.
    """

    server_power_kw: float = 0.35
    servers_per_admin: float = 130.0
    vpn_link_capacity_mb: float = 100_000.0
    dr_server_cost: float = 1000.0
    business_impact: float = 1.0
    include_backup_in_capacity: bool = True
    #: Fraction of a live server's power / labor bill a backup server
    #: incurs.  0.0 is cold standby (racked but powered off, unmanaged);
    #: 1.0 is hot standby.  Backup *space* is always paid in full.
    backup_power_fraction: float = 0.0
    backup_labor_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.server_power_kw <= 0:
            raise ValueError("server power draw must be positive")
        if self.servers_per_admin <= 0:
            raise ValueError("servers per admin must be positive")
        if self.vpn_link_capacity_mb <= 0:
            raise ValueError("VPN link capacity must be positive")
        if self.dr_server_cost < 0:
            raise ValueError("DR server cost cannot be negative")
        if not 0 < self.business_impact <= 1:
            raise ValueError("business impact ω must be in (0, 1]")
        for label, value in (
            ("backup power fraction", self.backup_power_fraction),
            ("backup labor fraction", self.backup_labor_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1]")


@dataclass
class AsIsState:
    """The full "as-is" specification handed to eTransform.

    ``current_datacenters`` carry the pricing of the existing estate (to
    evaluate the as-is cost); ``target_datacenters`` are the candidate
    consolidation sites the plan chooses among.
    """

    name: str
    app_groups: list[ApplicationGroup]
    target_datacenters: list[DataCenter]
    user_locations: list[UserLocation] = field(default_factory=list)
    current_datacenters: list[DataCenter] = field(default_factory=list)
    params: CostParameters = field(default_factory=CostParameters)

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for group in self.app_groups:
            if group.name in seen:
                raise ValueError(f"duplicate application group name {group.name!r}")
            seen.add(group.name)
        names: set[str] = set()
        for dc in list(self.target_datacenters) + list(self.current_datacenters):
            if dc.name in names:
                raise ValueError(f"duplicate data center name {dc.name!r}")
            names.add(dc.name)

    # -- lookups ----------------------------------------------------------
    def group(self, name: str) -> ApplicationGroup:
        """Application group by name."""
        for g in self.app_groups:
            if g.name == name:
                return g
        raise KeyError(f"no application group named {name!r}")

    def target(self, name: str) -> DataCenter:
        """Target data center by name."""
        for dc in self.target_datacenters:
            if dc.name == name:
                return dc
        raise KeyError(f"no target data center named {name!r}")

    def current(self, name: str) -> DataCenter:
        """Current (as-is) data center by name."""
        for dc in self.current_datacenters:
            if dc.name == name:
                return dc
        raise KeyError(f"no current data center named {name!r}")

    # -- summary ------------------------------------------------------------
    @property
    def total_servers(self) -> int:
        """Σ S_i across application groups."""
        return sum(g.servers for g in self.app_groups)

    @property
    def total_target_capacity(self) -> int:
        return sum(dc.capacity for dc in self.target_datacenters)

    def summary(self) -> dict[str, int]:
        """Table-II-style dataset summary."""
        return {
            "app_groups": len(self.app_groups),
            "servers": self.total_servers,
            "current_datacenters": len(self.current_datacenters),
            "target_datacenters": len(self.target_datacenters),
            "user_locations": len(self.user_locations),
        }

    def placeable(self, group: ApplicationGroup, dc: DataCenter) -> bool:
        """Whether constraints allow ``group`` in target ``dc`` at all.

        Checks the static placement constraints (size, region, explicit
        forbids); capacity interaction with other groups is the
        solver's job.
        """
        if group.servers > dc.capacity:
            return False
        if dc.name in group.forbidden_datacenters:
            return False
        if group.allowed_regions is not None and dc.region not in group.allowed_regions:
            return False
        return True

    def placeable_mask(self) -> np.ndarray:
        """:meth:`placeable` for every (group, target) pair: (G, J) bool."""
        targets = self.target_datacenters
        capacity = np.array([dc.capacity for dc in targets])
        mask = np.array([g.servers for g in self.app_groups])[:, None] <= capacity
        site_index = {dc.name: j for j, dc in enumerate(targets)}
        region_masks: dict[frozenset[str], np.ndarray] = {}
        for gi, group in enumerate(self.app_groups):
            for name in group.forbidden_datacenters:
                if name in site_index:
                    mask[gi, site_index[name]] = False
            if group.allowed_regions is not None:
                allowed = frozenset(group.allowed_regions)
                if allowed not in region_masks:
                    region_masks[allowed] = np.array(
                        [dc.region in allowed for dc in targets], dtype=bool
                    )
                mask[gi] &= region_masks[allowed]
        return mask


def groups_by_risk(groups: Iterable[ApplicationGroup]) -> dict[str, list[ApplicationGroup]]:
    """Bucket groups by shared-risk tag (groups without a tag excluded)."""
    buckets: dict[str, list[ApplicationGroup]] = {}
    for group in groups:
        if group.risk_group:
            buckets.setdefault(group.risk_group, []).append(group)
    return buckets
