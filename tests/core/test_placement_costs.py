"""The array placement pricer against the scalar per-pair oracle.

Every comparison is exact (``==``): the kernel promises the scalar's
float operations in the scalar's order, so plans, bounds and round
counts built on it cannot move.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ApplicationGroup, AsIsState, CostParameters
from repro.core import formulation
from repro.core.formulation import ConsolidationModel, ModelOptions, placement_costs
from repro.core.latency import NO_PENALTY, LatencyPenaltyFunction, PenaltyStep
from repro.datasets import load_enterprise1, load_federal, load_florida
from tests.conftest import make_datacenter
from tests.core.test_decomposition import VARIANTS, variant_estate
from tests.oracles.placement import placement_cost, placement_cost_matrix

WAN_MODELS = ("metered", "vpn")

PENALTIES = (
    NO_PENALTY,
    LatencyPenaltyFunction.single_threshold(10.0, 100.0),
    LatencyPenaltyFunction.banded(6.0, 2.5, 17.0, 5),
    LatencyPenaltyFunction([PenaltyStep(3.0, 0.0), PenaltyStep(9.5, 41.3)]),
)


def assert_exact(state: AsIsState, wan_model: str) -> np.ndarray:
    got = placement_costs(state, wan_model)
    want = placement_cost_matrix(state, wan_model)
    assert got.shape == want.shape
    assert np.array_equal(got, want), np.argwhere(got != want)[:5]
    return got


def mixed_state(seed: int = 11) -> AsIsState:
    """Small random estate touching every branch of the pricer.

    Banded multi-step and distinct penalty functions, groups without
    users, zero-count locations, region limits, forbidden sites,
    oversized groups and integer user counts.
    """
    rng = np.random.default_rng(seed)
    locations = [f"loc{k}" for k in range(5)]
    targets = []
    for j in range(8):
        dc = make_datacenter(
            f"dc{j}",
            capacity=int(rng.integers(40, 200)),
            space_base=float(rng.uniform(60, 150)),
            power=float(rng.uniform(150, 300)),
            labor=float(rng.uniform(5000, 9000)),
            wan=float(rng.uniform(0.01, 0.2)),
            fixed=float(rng.uniform(0, 5000)),
            region=("east", "west", "north")[j % 3],
        )
        dc.latency_to_users = {loc: float(rng.uniform(0.5, 40.0)) for loc in locations}
        dc.vpn_link_cost = {loc: float(rng.uniform(100, 900)) for loc in locations}
        targets.append(dc)
    groups = []
    for i in range(40):
        users: dict[str, float] = {}
        if i % 7:  # every seventh group has no users at all
            for loc in rng.choice(locations, size=int(rng.integers(1, 6)), replace=False):
                count = float(rng.integers(0, 400)) if i % 2 else int(rng.integers(0, 400))
                users[str(loc)] = count if rng.random() > 0.2 else 0.0
        groups.append(
            ApplicationGroup(
                f"g{i}",
                servers=int(rng.integers(1, 120)),
                monthly_data_mb=float(rng.uniform(0, 50_000)) if i % 5 else 3000,
                users=users,
                latency_penalty=PENALTIES[i % len(PENALTIES)],
                allowed_regions=frozenset({"east", "north"}) if i % 6 == 1 else None,
                forbidden_datacenters=frozenset({"dc2", "dc5"}) if i % 4 == 3 else frozenset(),
            )
        )
    return AsIsState("mixed", groups, targets, params=CostParameters())


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_estates(self, variant):
        state, options = variant_estate(variant)
        got = assert_exact(state, options.wan_model)
        assert np.isinf(got).any() == (variant == "forbidden-sites")

    @pytest.mark.parametrize("wan_model", WAN_MODELS)
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_mixed_estate(self, seed, wan_model):
        state = mixed_state(seed)
        got = assert_exact(state, wan_model)
        # Not vacuous: every branch is live on this estate.
        assert np.isinf(got).any() and np.isfinite(got).any()
        assert any(not g.users for g in state.app_groups)
        assert any(0.0 in g.users.values() for g in state.app_groups)
        assert len({g.latency_penalty for g in state.app_groups}) >= 3

    @pytest.mark.parametrize("wan_model", WAN_MODELS)
    @pytest.mark.parametrize(
        "loader", [load_enterprise1, load_florida, load_federal],
        ids=["enterprise1", "florida", "federal"],
    )
    def test_case_studies(self, loader, wan_model):
        assert_exact(loader(scale=0.05), wan_model)

    def test_placeable_mask_matches_placeable(self):
        state = mixed_state()
        want = [
            [state.placeable(g, dc) for dc in state.target_datacenters]
            for g in state.app_groups
        ]
        assert np.array_equal(state.placeable_mask(), np.array(want))
        assert not state.placeable_mask().all()

    def test_empty_estate(self, tiny_state):
        tiny_state.app_groups = []
        assert placement_costs(tiny_state).shape == (0, 3)


def scalar_error(state: AsIsState, wan_model: str) -> Exception | None:
    """The first error the scalar raises over the placeable pairs."""
    for group in state.app_groups:
        for dc in state.target_datacenters:
            if state.placeable(group, dc):
                try:
                    placement_cost(state, group, dc, wan_model=wan_model)
                except (KeyError, ValueError) as exc:
                    return exc
    return None


class TestKernelErrors:
    @pytest.mark.parametrize("wan_model", WAN_MODELS)
    @pytest.mark.parametrize("table", ["latency_to_users", "vpn_link_cost"])
    def test_missing_figure_on_a_placeable_pair(self, tiny_state, table, wan_model):
        del getattr(tiny_state.target("mid"), table)["west"]
        want = scalar_error(tiny_state, wan_model)
        if want is None:  # a VPN price is read only under the VPN model
            assert (table, wan_model) == ("vpn_link_cost", "metered")
            assert_exact(tiny_state, wan_model)
            return
        with pytest.raises(type(want)) as got:
            placement_costs(tiny_state, wan_model)
        assert str(got.value) == str(want)

    def test_vpn_price_checked_before_latency(self, tiny_state):
        dc = tiny_state.target("east-dc")
        del dc.latency_to_users["east"]
        del dc.vpn_link_cost["west"]
        want = scalar_error(tiny_state, "vpn")
        assert "VPN link price" in str(want)
        with pytest.raises(KeyError) as got:
            placement_costs(tiny_state, "vpn")
        assert str(got.value) == str(want)

    @pytest.mark.parametrize("wan_model", WAN_MODELS)
    @pytest.mark.parametrize("table", ["latency_to_users", "vpn_link_cost"])
    def test_missing_figure_on_an_unplaceable_pair(self, tiny_state, table, wan_model):
        del getattr(tiny_state.target("mid"), table)["west"]
        for group in tiny_state.app_groups:
            group.forbidden_datacenters = frozenset({"mid"})
        assert scalar_error(tiny_state, wan_model) is None
        got = assert_exact(tiny_state, wan_model)
        assert np.isinf(got[:, 1]).all()

    def test_negative_latency(self, tiny_state):
        tiny_state.target("mid").latency_to_users["east"] = -50.0
        want = scalar_error(tiny_state, "metered")
        assert isinstance(want, ValueError)
        with pytest.raises(ValueError) as got:
            placement_costs(tiny_state)
        assert str(got.value) == str(want)

    def test_unknown_wan_model(self, tiny_state):
        with pytest.raises(ValueError, match="unknown WAN cost model 'smoke'"):
            placement_costs(tiny_state, "smoke")


class TestModelObjective:
    @pytest.mark.parametrize("wan_model", WAN_MODELS)
    @pytest.mark.parametrize("economies_of_scale", [True, False])
    def test_objective_equals_the_scalar_built_one(
        self, monkeypatch, wan_model, economies_of_scale
    ):
        state = mixed_state()
        options = ModelOptions(
            wan_model=wan_model, economies_of_scale=economies_of_scale
        )
        kernel = ConsolidationModel(state, options)
        monkeypatch.setattr(formulation, "placement_costs", placement_cost_matrix)
        scalar = ConsolidationModel(state, options)

        def vector(model):
            terms = model.problem.objective.terms().items()
            return {var.name: coef for var, coef in terms}

        assert vector(kernel) == vector(scalar)
        assert kernel.problem.objective.constant == scalar.problem.objective.constant
        for (group, dc), _var in kernel.x.items():
            assert kernel.placement_cost(state.group(group), state.target(dc)) == (
                placement_cost(
                    state, state.group(group), state.target(dc), wan_model=wan_model
                )
            )
