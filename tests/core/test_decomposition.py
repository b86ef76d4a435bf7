"""The Dantzig-Wolfe/Lagrangian decomposition engine end to end."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    ApplicationGroup,
    AsIsState,
    CostParameters,
    validate_plan,
)
from repro.core.decomposition import (
    DecompositionConfig,
    DecompositionError,
    _improve_placement,
    _round_placement,
    _run_master_loop,
    extract_group_blocks,
    model_objective,
    solve_decomposition,
)
from repro.core.formulation import ModelOptions
from repro.core.planner import ETransformPlanner, PlannerOptions
from repro.datasets import latency_line_scenario, load_enterprise1
from repro.datasets.builders import EnterpriseSpec, build_enterprise_state
from repro.lp.master import RestrictedMasterLP
from tests.conftest import NO_PENALTY, make_datacenter
from tests.oracles.decomposition import improve_placement, round_placement
from tests.oracles.master import RevisedMasterLP
from tests.oracles.placement import placement_cost


def line_state(n_groups=24, total_servers=160) -> AsIsState:
    return latency_line_scenario(
        penalty_per_band=20.0,
        fraction_at_west=0.5,
        n_groups=n_groups,
        total_servers=total_servers,
    )


def synthetic_state(groups=300, servers=1_600, targets=20, seed=1) -> AsIsState:
    """A seeded synthetic enterprise; its sites carry fixed costs."""
    return build_enterprise_state(
        EnterpriseSpec(
            name=f"synthetic-{groups}",
            app_groups=groups,
            total_servers=servers,
            current_datacenters=max(5, targets // 3),
            target_datacenters=targets,
            total_users=float(servers) * 4.0,
            seed=seed,
        )
    )


def variant_estate(variant: str) -> tuple[AsIsState, ModelOptions]:
    """The master-shape estate, changed in one way the local pass reads."""
    if variant == "subgradient-shape":
        return synthetic_state(groups=1_600, servers=8_000, seed=2), ModelOptions()
    state = synthetic_state(seed=3 if variant == "master-shape" else 1)
    options = ModelOptions()
    if variant == "no-economies-of-scale":
        options = ModelOptions(economies_of_scale=False)
    elif variant == "vpn":
        options = ModelOptions(wan_model="vpn")
    elif variant == "risk-groups":
        for i, group in enumerate(state.app_groups[::3]):
            group.risk_group = f"risk-{i % 5}"
    elif variant == "business-impact":
        state.params.business_impact = 0.1
    elif variant == "forbidden-sites":
        names = [dc.name for dc in state.target_datacenters]
        for i, group in enumerate(state.app_groups):
            group.forbidden_datacenters = frozenset(names[i % 7 :: 7])
    return state, options


VARIANTS = (
    "master-shape",
    "subgradient-shape",
    "no-economies-of-scale",
    "vpn",
    "risk-groups",
    "business-impact",
    "forbidden-sites",
)


class TestGroupBlocks:
    def test_blocks_shape_and_eligibility(self, tiny_state):
        blocks = extract_group_blocks(tiny_state)
        assert blocks.n_groups == len(tiny_state.app_groups)
        assert blocks.n_targets == len(tiny_state.target_datacenters)
        assert blocks.cost.shape == (blocks.n_groups, blocks.n_targets)
        assert np.isfinite(blocks.cost).all()  # everything placeable here
        assert (blocks.space_rate > 0).all()

    def test_space_rate_underestimates_exact_space(self, tiny_state):
        # For any integral load the linear rate never exceeds the exact
        # step-priced schedule — that is what makes the bound valid.
        blocks = extract_group_blocks(tiny_state)
        for j, dc in enumerate(tiny_state.target_datacenters):
            schedule = dc.space_cost.truncated(dc.capacity)
            for load in (1, 25, 60, dc.capacity):
                exact = schedule.total_cost(load) + dc.fixed_monthly_cost
                assert blocks.space_rate[j] * load <= exact + 1e-6

    def test_space_points_match_exact_site_cost(self, tiny_state):
        # Every candidate point the site-side Lagrangian term minimizes
        # over must price its load exactly as the model does — the
        # bound's validity rests on the candidates being real costs.
        blocks = extract_group_blocks(tiny_state)
        for j, dc in enumerate(tiny_state.target_datacenters):
            schedule = dc.space_cost.truncated(dc.capacity)
            # Padding past the site's last tier: load 0 at cost inf.
            real = np.isfinite(blocks.point_costs[j])
            assert (blocks.point_loads[j, ~real] == 0.0).all()
            loads, costs = blocks.point_loads[j, real], blocks.point_costs[j, real]
            assert loads[0] == 0.0 and costs[0] == 0.0
            assert dc.capacity in loads
            for load, cost in zip(loads[1:], costs[1:]):
                exact = schedule.total_cost(int(load)) + dc.fixed_monthly_cost
                assert cost == pytest.approx(exact)

    def test_unplaceable_group_raises_with_name(self, tiny_state):
        tiny_state.app_groups[0].servers = 10_000  # fits nowhere
        with pytest.raises(DecompositionError, match="erp"):
            extract_group_blocks(tiny_state)

    @pytest.mark.parametrize("variant", ["forbidden-sites", "vpn"])
    def test_placement_block_is_exact_placement_cost(self, variant):
        state, options = variant_estate(variant)
        blocks = extract_group_blocks(state, options)
        for g, group in enumerate(state.app_groups):
            for j, dc in enumerate(state.target_datacenters):
                if state.placeable(group, dc):
                    assert blocks.placement[g, j] == placement_cost(
                        state, group, dc, wan_model=options.wan_model
                    )
                else:
                    assert blocks.placement[g, j] == np.inf
        assert np.isinf(blocks.placement).any() == (variant == "forbidden-sites")
        assert np.array_equal(
            blocks.cost,
            blocks.placement + blocks.space_rate * blocks.servers[:, None],
        )

    @pytest.mark.parametrize("economies_of_scale", [True, False])
    def test_site_space_prices_like_the_schedule(self, economies_of_scale):
        state = synthetic_state(groups=40, servers=200, targets=6)
        blocks = extract_group_blocks(
            state, ModelOptions(economies_of_scale=economies_of_scale)
        )
        for j, dc in enumerate(state.target_datacenters):
            schedule = dc.space_cost.truncated(dc.capacity)
            for load in range(dc.capacity + 1):
                loads = np.zeros(blocks.n_targets)
                loads[j] = load
                got = blocks.space.cost(loads)[j]
                assert blocks.space.site_cost(j, float(load)) == got
                if load == 0:
                    want = 0.0
                elif economies_of_scale:
                    want = schedule.total_cost(load) + dc.fixed_monthly_cost
                else:
                    want = (
                        schedule.segments[0].unit_price * load
                        + dc.fixed_monthly_cost
                    )
                assert got == want


def zero_dual_rounding(state, blocks):
    return _round_placement(state, blocks, None, np.zeros(blocks.n_targets))


class TestLocalPassOracle:
    """The row-at-a-time primal pass against the scalar reference scan."""

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_improve_matches_scalar_pass(self, variant):
        state, options = variant_estate(variant)
        # Every synthetic site carries a fixed facility cost.
        assert all(dc.fixed_monthly_cost > 0 for dc in state.target_datacenters)
        blocks = extract_group_blocks(state, options)
        rounded = zero_dual_rounding(state, blocks)
        improved = _improve_placement(state, blocks, dict(rounded))
        assert improved == improve_placement(state, blocks, dict(rounded), options)
        # Not vacuous: the pass really moves groups on this estate.
        assert sum(improved[name] != rounded[name] for name in rounded) >= 1

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rounding_matches_scalar_rounding(self, variant):
        state, options = variant_estate(variant)
        blocks = extract_group_blocks(state, options)
        rng = np.random.default_rng(7)
        pi = -rng.uniform(0.0, 50.0, blocks.n_targets)
        # A master-like support: each group's three cheapest sites.
        ranked = np.argsort(blocks.cost, axis=1, kind="stable")[:, :3]
        support = [[(int(j), 1.0 / 3.0) for j in row] for row in ranked]
        for walk in (None, support):
            rounded = _round_placement(state, blocks, walk, pi)
            assert rounded is not None
            assert rounded == round_placement(state, blocks, walk, pi)


class TestDecompositionParity:
    def test_tiny_state_within_reported_gap_of_milp(self, tiny_state):
        outcome = solve_decomposition(tiny_state)
        milp = ETransformPlanner(tiny_state, PlannerOptions()).build_plan()
        assert outcome.gap == pytest.approx(
            (outcome.upper_bound - outcome.lower_bound) / outcome.upper_bound
        )
        # The certified bound really bounds the exact optimum.
        assert outcome.lower_bound <= milp.breakdown.total + 1e-6
        assert outcome.upper_bound >= milp.breakdown.total - 1e-6
        # And the heuristic lands within its own certificate.
        assert (
            outcome.upper_bound - milp.breakdown.total
        ) / milp.breakdown.total <= outcome.gap + 1e-9

    def test_line_scenario_parity_master_mode(self):
        state = line_state()
        outcome = solve_decomposition(
            state, config=DecompositionConfig(coordination="master")
        )
        milp = ETransformPlanner(state, PlannerOptions()).build_plan()
        assert outcome.coordination == "master"
        assert outcome.lower_bound <= milp.breakdown.total + 1e-6
        rel = (outcome.upper_bound - milp.breakdown.total) / milp.breakdown.total
        assert rel <= max(outcome.gap, 0.0) + 1e-9

    def test_subgradient_mode_same_certificate(self):
        state = line_state()
        outcome = solve_decomposition(
            state, config=DecompositionConfig(coordination="subgradient")
        )
        milp = ETransformPlanner(state, PlannerOptions()).build_plan()
        assert outcome.coordination == "subgradient"
        assert outcome.lower_bound <= milp.breakdown.total + 1e-6
        rel = (outcome.upper_bound - milp.breakdown.total) / milp.breakdown.total
        assert rel <= max(outcome.gap, 0.0) + 1e-9

    def test_fixed_cost_state_bound_stays_valid(self, fixed_cost_state):
        outcome = solve_decomposition(fixed_cost_state)
        milp = ETransformPlanner(fixed_cost_state, PlannerOptions()).build_plan()
        assert outcome.lower_bound <= milp.breakdown.total + 1e-6
        assert outcome.upper_bound >= outcome.lower_bound - 1e-6

    def test_plan_objective_matches_model_objective(self, tiny_state):
        outcome = solve_decomposition(tiny_state)
        placement = outcome.plan.placement
        blocks = extract_group_blocks(tiny_state)
        assert model_objective(tiny_state, blocks, placement) == pytest.approx(
            outcome.upper_bound
        )
        # The evaluated plan's cost breakdown agrees with the objective
        # the gap certificate was computed against.
        assert outcome.plan.breakdown.total == pytest.approx(outcome.upper_bound)


class TestDecompositionFeasibility:
    def test_plan_validates(self, tiny_state):
        outcome = solve_decomposition(tiny_state)
        validate_plan(tiny_state, outcome.plan)  # raises on violation
        assert not outcome.plan.backup_servers

    def test_risk_anticolocation_respected(self, user_locations):
        targets = [
            make_datacenter("a", capacity=100),
            make_datacenter("b", capacity=100, space_base=101.0),
        ]
        groups = [
            ApplicationGroup("pci-1", 20, 100.0, {}, NO_PENALTY),
            ApplicationGroup("pci-2", 20, 100.0, {}, NO_PENALTY),
            ApplicationGroup("other", 20, 100.0, {}, NO_PENALTY),
        ]
        groups[0].risk_group = "pci"
        groups[1].risk_group = "pci"
        state = AsIsState(
            "risk", groups, targets, user_locations=user_locations,
            params=CostParameters(),
        )
        outcome = solve_decomposition(state)
        placement = outcome.plan.placement
        assert placement["pci-1"] != placement["pci-2"]
        validate_plan(state, outcome.plan)

    def test_business_impact_cap_respected(self, user_locations):
        # omega = 0.5 over 4 groups caps any site at 2 groups, so the
        # all-in-one-cheap-site packing is off the table.
        targets = [
            make_datacenter("a", capacity=400),
            make_datacenter("b", capacity=400, space_base=130.0),
        ]
        groups = [
            ApplicationGroup(f"g{i}", 20, 100.0, {}, NO_PENALTY) for i in range(4)
        ]
        state = AsIsState(
            "omega", groups, targets, user_locations=user_locations,
            params=CostParameters(business_impact=0.5),
        )
        outcome = solve_decomposition(state)
        counts: dict[str, int] = {}
        for site in outcome.plan.placement.values():
            counts[site] = counts.get(site, 0) + 1
        assert max(counts.values()) <= 2
        validate_plan(state, outcome.plan)

    def test_dr_states_are_rejected(self, tiny_state):
        with pytest.raises(DecompositionError, match="disaster recovery"):
            solve_decomposition(tiny_state, ModelOptions(enable_dr=True))

    def test_time_limit_still_returns_a_plan(self):
        state = line_state()
        outcome = solve_decomposition(
            state, config=DecompositionConfig(time_limit=1e-6)
        )
        validate_plan(state, outcome.plan)
        assert math.isfinite(outcome.upper_bound)


class TestDecompositionMechanics:
    def test_parallel_pricing_matches_serial(self):
        state = line_state()
        serial = solve_decomposition(state, config=DecompositionConfig(jobs=1))
        fanned = solve_decomposition(state, config=DecompositionConfig(jobs=2))
        assert serial.upper_bound == pytest.approx(fanned.upper_bound)
        assert serial.lower_bound == pytest.approx(fanned.lower_bound)

    def test_auto_coordination_switches_on_group_count(self, tiny_state):
        small = solve_decomposition(
            tiny_state, config=DecompositionConfig(master_group_limit=1500)
        )
        assert small.coordination == "master"
        forced = solve_decomposition(
            tiny_state, config=DecompositionConfig(master_group_limit=1)
        )
        assert forced.coordination == "subgradient"

    def test_stats_record_the_run(self, tiny_state):
        outcome = solve_decomposition(tiny_state)
        stats = outcome.stats
        assert stats.backend == "decomposition"
        assert stats.incumbent == pytest.approx(outcome.upper_bound)
        assert stats.best_bound == pytest.approx(outcome.lower_bound)
        assert stats.extra["decomp_groups"] == len(tiny_state.app_groups)
        assert outcome.plan.solver_stats is stats

    def test_stats_record_the_master_layer(self, tiny_state):
        master = solve_decomposition(
            tiny_state, config=DecompositionConfig(coordination="master")
        ).stats
        assert master.extra["decomp_master_seconds"] > 0.0
        assert master.extra["decomp_master_iterations"] == master.lp_iterations
        subgradient = solve_decomposition(
            tiny_state, config=DecompositionConfig(coordination="subgradient")
        ).stats
        assert subgradient.extra["decomp_master_seconds"] == 0.0
        assert subgradient.extra["decomp_master_iterations"] == 0.0

    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="coordination"):
            DecompositionConfig(coordination="annealing")
        with pytest.raises(ValueError, match="smoothing"):
            DecompositionConfig(smoothing=0.0)


def record_master_solves(monkeypatch) -> list:
    """Spy on every restricted-master solve; returns the live record."""
    solutions = []
    solve = RestrictedMasterLP.solve

    def spy(self, *args, **kwargs):
        solution = solve(self, *args, **kwargs)
        solutions.append(solution)
        return solution

    monkeypatch.setattr(RestrictedMasterLP, "solve", spy)
    return solutions


class TestMasterLoop:
    def test_iteration_limited_solve_is_counted(self, monkeypatch):
        solutions = record_master_solves(monkeypatch)
        outcome = solve_decomposition(
            synthetic_state(groups=120, servers=3_000, targets=12, seed=2),
            config=DecompositionConfig(coordination="master", master_iterations=3),
        )
        assert solutions[-1].status == "iteration_limit"
        assert solutions[-1].iterations > 0
        assert outcome.stats.lp_iterations == sum(s.iterations for s in solutions)

    @pytest.mark.parametrize("seed", range(1, 5))
    def test_converged_master_is_the_full_master_lp(self, monkeypatch, seed):
        """An oracle for the bound: HiGHS over every (group, site) column."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        sparse = pytest.importorskip("scipy.sparse")
        state = synthetic_state(groups=120, servers=3_000, targets=12, seed=seed)
        blocks = extract_group_blocks(state, ModelOptions())
        config = DecompositionConfig()
        solutions = record_master_solves(monkeypatch)
        _lb, _pi, _support, rounds, _columns, _iters, _secs = _run_master_loop(
            blocks, config, None
        )
        assert rounds < config.max_rounds, "column generation did not converge"
        final = solutions[-1]
        assert final.status == "optimal"
        assert final.artificial_weight < 1e-7

        g, j = np.nonzero(np.isfinite(blocks.cost))
        n = g.size
        a_ub = sparse.csr_matrix(
            (blocks.servers[g].astype(float), (j, np.arange(n))),
            shape=(blocks.n_targets, n),
        )
        a_eq = sparse.csr_matrix(
            (np.ones(n), (g, np.arange(n))), shape=(blocks.n_groups, n)
        )
        full = linprog(
            blocks.cost[g, j], A_ub=a_ub, b_ub=blocks.capacities,
            A_eq=a_eq, b_eq=np.ones(blocks.n_groups), bounds=(0.0, None),
            method="highs",
        )
        assert full.status == 0
        assert final.objective == pytest.approx(full.fun, rel=1e-7)

    def test_master_inverts_nothing_wider_than_the_sites(self, monkeypatch):
        """The GUB master factorizes only its J x J working basis."""
        widths = []
        inv = np.linalg.inv

        def spy(matrix):
            widths.append(np.shape(matrix))
            return inv(matrix)

        monkeypatch.setattr(np.linalg, "inv", spy)
        state = synthetic_state()
        outcome = solve_decomposition(
            state, config=DecompositionConfig(coordination="master")
        )
        n_targets = len(state.target_datacenters)
        assert outcome.coordination == "master"
        assert widths, "the master never factorized its working basis"
        assert set(widths) == {(n_targets, n_targets)}

    def test_enterprise1_master_matches_the_revised_simplex_oracle(self, monkeypatch):
        """The converged master LP bound, against the generic engine."""
        masters = []
        solve = RestrictedMasterLP.solve

        def spy(self, *args, **kwargs):
            solution = solve(self, *args, **kwargs)
            masters.append((self, self.n_columns, solution))
            return solution

        monkeypatch.setattr(RestrictedMasterLP, "solve", spy)
        blocks = extract_group_blocks(load_enterprise1(), ModelOptions())
        config = DecompositionConfig(coordination="master")
        _run_master_loop(blocks, config, None)
        master, ncols, final = masters[-1]
        assert final.status == "optimal" and final.artificial_weight < 1e-7
        oracle = RevisedMasterLP(master.capacities, master.n_groups, master.col_cost[0])
        for idx in range(master.n_groups, ncols):
            oracle.add_column(
                master.col_group[idx], master.col_target[idx],
                master.col_cost[idx], master.col_load[idx],
            )
        assert final.objective == pytest.approx(oracle.solve().objective, rel=1e-9)
