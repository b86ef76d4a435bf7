"""Incumbent hint repair: projection onto new directives + polish."""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    ConsolidationModel,
    Directive,
    InfeasibleModelError,
    PlannerOptions,
    RevisionedModel,
)
from repro.core import hint_repair
from repro.core.costs import StepCostFunction
from repro.core.hint_repair import make_hint_repairer
from repro.datasets import online_line_scenario, online_line_trace
from repro.io.serialization import state_to_dict
from repro.lp import SolveStatus, solve
from repro.lp.sparse import bound_arrays
from repro.online import ReplayConfig, run_replay
from repro.online import controller as controller_module
from tests.oracles.hint_repair import make_scalar_hint_repairer


def _violations(problem, values: dict[str, float]) -> list[str]:
    by_name = {var.name: var for var in problem.variables}
    out = []
    for name, var in by_name.items():
        v = values.get(name, 0.0)
        if var.lb is not None and v < var.lb - 1e-6:
            out.append(f"{name} < lb")
        if var.ub is not None and v > var.ub + 1e-6:
            out.append(f"{name} > ub")
    for con in problem.constraints:
        lhs = sum(
            coef * values.get(var.name, 0.0)
            for var, coef in con.expr.terms().items()
        )
        sense = con.sense.value
        tol = 1e-6 * max(1.0, abs(con.rhs))
        if sense == "<=" and lhs > con.rhs + tol:
            out.append(con.name or "<=-row")
        elif sense == ">=" and lhs < con.rhs - tol:
            out.append(con.name or ">=-row")
        elif sense == "=" and abs(lhs - con.rhs) > tol:
            out.append(con.name or "=-row")
    return out


def _objective(problem, values: dict[str, float]) -> float:
    return sum(
        coef * values.get(var.name, 0.0)
        for var, coef in problem.objective.terms().items()
    ) + problem.objective.constant


def _placement(model, values: dict[str, float]) -> dict[str, str]:
    return {
        g: dc
        for (g, dc), var in model.x.items()
        if values.get(var.name, 0.0) > 0.5
    }


@pytest.fixture
def solved_model(tiny_state):
    model = ConsolidationModel(tiny_state, PlannerOptions(backend="highs"))
    sol = solve(model.problem, backend="highs")
    assert sol.status is SolveStatus.OPTIMAL
    return model, sol.as_name_dict()


class TestRepair:
    def test_forbidding_the_chosen_site_relocates_the_group(self, solved_model):
        model, hint = solved_model
        engine = RevisionedModel(model)
        before = _placement(model, hint)
        victim = "erp"
        engine.apply(Directive("forbid", group=victim, datacenter=before[victim]))
        repaired = make_hint_repairer(model)(model.problem, hint)
        assert repaired is not None
        assert _violations(model.problem, repaired) == []
        after = _placement(model, repaired)
        assert after[victim] != before[victim]
        assert len(after) == len(before)

    def test_feasible_hint_may_only_be_polished_downhill(self, solved_model):
        # The hint is the true optimum of the unrevised problem: nothing
        # to repair, nothing to improve — the repairer must step aside.
        model, hint = solved_model
        assert make_hint_repairer(model)(model.problem, hint) is None

    def test_stale_but_feasible_hint_gets_polished(self, solved_model):
        model, hint = solved_model
        # Degrade the incumbent: pin every group to the costliest legal
        # arrangement by solving, then moving one group off its optimal
        # site while keeping the point feasible.
        engine = RevisionedModel(model)
        placement = _placement(model, hint)
        g = "bi"
        others = [
            dc.name
            for dc in model.state.target_datacenters
            if dc.name != placement[g]
        ]
        engine.apply(Directive("pin", group=g, datacenter=others[0]))
        repaired = make_hint_repairer(model)(model.problem, hint)
        assert repaired is not None
        assert _violations(model.problem, repaired) == []
        assert _placement(model, repaired)[g] == others[0]
        engine.pop()

    def test_foreign_problem_is_refused(self, solved_model, tiny_state):
        model, hint = solved_model
        other = ConsolidationModel(tiny_state, PlannerOptions(backend="highs"))
        assert make_hint_repairer(model)(other.problem, hint) is None


class TestPolish:
    def test_polish_improves_a_bad_feasible_hint(self, solved_model):
        model, hint = solved_model
        # Build a deliberately bad but feasible point: every group on
        # the site the optimum does NOT use (capacity permitting).
        placement = _placement(model, hint)
        sites = [dc.name for dc in model.state.target_datacenters]
        bad = {}
        for g, site in placement.items():
            bad[g] = next(s for s in sites if s != site)
        values = {}
        for (g, dc), var in model.x.items():
            values[var.name] = 1.0 if bad.get(g) == dc else 0.0
        repaired = make_hint_repairer(model)(model.problem, values)
        if repaired is None:
            pytest.skip("bad point not repairable on this state")
        assert _violations(model.problem, repaired) == []
        assert _objective(model.problem, repaired) < _objective(
            model.problem, values
        ) - 1e-9


def _same_point(fast: dict | None, slow: dict | None) -> bool:
    if fast is None or slow is None:
        return fast is slow
    return set(fast) == set(slow) and all(
        abs(fast[name] - slow[name]) <= 1e-9 for name in slow
    )


def _x_hint(model, placement: dict[str, str]) -> dict[str, float]:
    return {
        var.name: 1.0 if placement[g] == dc else 0.0
        for (g, dc), var in model.x.items()
    }


def _check_parity(model, hint) -> dict | None:
    """Array repairer == scalar oracle, and its point holds the live rows."""
    fast = make_hint_repairer(model)(model.problem, hint)
    slow = make_scalar_hint_repairer(model)(model.problem, hint)
    assert _same_point(fast, slow)
    if fast is not None:
        assert _violations(model.problem, fast) == []
        assert _placement(model, fast) == _placement(model, slow)
    return fast


@pytest.fixture
def peer_state(tiny_state):
    """tiny_state with peer traffic and fixed site costs: U, z/n and P
    columns all move with the groups."""
    peers = {"erp": {"web": 40.0, "bi": 25.0}, "batch": {"bi": 60.0}}
    for group in tiny_state.app_groups:
        group.peers = dict(peers.get(group.name, {}))
    tiny_state.target_datacenters = [
        dataclasses.replace(dc, fixed_monthly_cost=fixed)
        for dc, fixed in zip(tiny_state.target_datacenters, (900.0, 0.0, 2500.0))
    ]
    return tiny_state


class TestOracleParity:
    """The array polish makes the scalar oracle's moves, point for point."""

    def test_controller_replays(self, monkeypatch):
        # Every repair call of two short mixed replays: retire (outage)
        # and cap_load rows under the controller's move penalties.
        calls = []

        def paired(model):
            fast, slow = make_hint_repairer(model), make_scalar_hint_repairer(model)

            def repair(problem, hint):
                mine, theirs = fast(problem, hint), slow(problem, hint)
                calls.append((mine, theirs))
                if mine is not None:
                    assert _violations(problem, mine) == []
                return theirs

            return repair

        monkeypatch.setattr(controller_module, "make_hint_repairer", paired)
        for seed in (1, 4):
            state = online_line_scenario(
                n_groups=12, total_servers=300, n_datacenters=5, capacity=170, seed=seed
            )
            load, outages = online_line_trace(
                state, profile="mixed", horizon_hours=96.0, seed=seed
            )
            run_replay(
                state, load, outages,
                ReplayConfig(horizon_hours=96.0),
                PlannerOptions(backend="highs"),
            )
        assert sum(mine is not None for mine, _ in calls) >= 5
        assert all(_same_point(mine, theirs) for mine, theirs in calls)

    @pytest.mark.parametrize("seed", [0, 1, 2, 4, 5, 6])
    def test_line_estate_directives_with_move_penalty(self, seed):
        state = online_line_scenario(
            n_groups=12, total_servers=300, n_datacenters=5, capacity=170, seed=seed
        )
        model = ConsolidationModel(state, PlannerOptions(backend="highs"))
        sol = solve(model.problem, backend="highs")
        hint = sol.as_name_dict()
        placement = _placement(model, hint)
        engine = RevisionedModel(model)
        engine.set_move_penalty(placement, 50.0)
        rng = random.Random(seed)
        groups = sorted(placement)
        sites = sorted({dc for _, dc in model.x})
        movers = rng.sample(groups, 2)
        engine.apply(Directive("forbid", group=movers[0], datacenter=placement[movers[0]]))
        assert _check_parity(model, hint) is not None
        busiest = max(sites, key=lambda s: sum(1 for g in groups if placement[g] == s))
        servers = {grp.name: float(grp.servers) for grp in state.app_groups}
        weights = tuple((g, servers[g]) for g in groups)
        engine.apply(Directive("cap_load", datacenter=busiest, limit=60.0, weights=weights))
        _check_parity(model, hint)
        try:
            engine.apply(Directive("retire_site", datacenter=placement[movers[1]]))
        except InfeasibleModelError:
            return
        _check_parity(model, hint)

    def test_peer_state_has_every_column_kind(self, peer_state):
        model = ConsolidationModel(peer_state, PlannerOptions(backend="highs"))
        assert model.used and model.segment_blocks and model.peer_split

    @pytest.mark.parametrize("seed", range(12))
    def test_random_hints_on_site_segment_and_peer_columns(self, peer_state, seed):
        rng = random.Random(seed)
        model = ConsolidationModel(peer_state, PlannerOptions(backend="highs"))
        engine = RevisionedModel(model)
        sites = sorted({dc for _, dc in model.x})
        groups = sorted({g for g, _ in model.x})
        placement = {
            g: rng.choice([dc for (h, dc) in model.x if h == g]) for g in groups
        }
        hint = _x_hint(model, placement)
        if rng.random() < 0.5:
            engine.set_move_penalty(placement, 20.0)
        g = rng.choice(groups)
        directives = [
            Directive("forbid", group=g, datacenter=placement[g]),
            Directive("pin", group=g, datacenter=rng.choice(sites)),
            Directive("retire_site", datacenter=rng.choice(sites)),
            Directive("cap_groups", datacenter=rng.choice(sites), limit=1.0),
            Directive("cap_servers", datacenter=rng.choice(sites), limit=70.0),
        ]
        for directive in rng.sample(directives, 2):
            try:
                engine.apply(directive)
            except (InfeasibleModelError, ValueError):
                continue
        _check_parity(model, hint)

    def test_peer_state_polish_from_every_single_move(self, peer_state):
        # From the optimum, displace each group to each other site in
        # turn: the projection plus polish must walk back identically.
        model = ConsolidationModel(peer_state, PlannerOptions(backend="highs"))
        sol = solve(model.problem, backend="highs")
        best = _placement(model, sol.as_name_dict())
        repaired = 0
        for (g, dc) in model.x:
            if best[g] == dc:
                continue
            repaired += _check_parity(model, _x_hint(model, {**best, g: dc})) is not None
        assert repaired >= 3


class TestPolishTies:
    def test_a_move_that_ties_the_current_point_is_not_taken(self, tiny_state):
        # Two sites identical but for their name, flat-priced: moving a
        # group between them changes nothing, so an optimal hint must
        # come back untouched rather than shuffled onto the twin.
        twin = dataclasses.replace(tiny_state.target_datacenters[1], name="mid-twin")
        tiny_state.target_datacenters = [
            dataclasses.replace(dc, space_cost=StepCostFunction.flat(100.0))
            for dc in (*tiny_state.target_datacenters, twin)
        ]
        model = ConsolidationModel(tiny_state, PlannerOptions(backend="highs"))
        sol = solve(model.problem, backend="highs")
        hint = sol.as_name_dict()
        assert {"mid", "mid-twin"} & set(_placement(model, hint).values())
        assert make_hint_repairer(model)(model.problem, hint) is None
        assert make_scalar_hint_repairer(model)(model.problem, hint) is None


#: Forbid "bi" everywhere but two twin sites, both empty in the hint, and
#: print the twin each repairer (array, scalar oracle) relocates it to.
_TIE_CHILD = """
import json, sys
from repro.core import ConsolidationModel, Directive, PlannerOptions, RevisionedModel
from repro.core.hint_repair import make_hint_repairer
from repro.io.serialization import state_from_dict
from tests.oracles.hint_repair import make_scalar_hint_repairer

model = ConsolidationModel(state_from_dict(json.load(sys.stdin)), PlannerOptions())
hint = {var.name: float(dc == "cheap-far") for (g, dc), var in model.x.items()}
engine = RevisionedModel(model)
for site in ("cheap-far", "east-dc"):
    engine.apply(Directive("forbid", group="bi", datacenter=site))
picks = []
for make in (make_hint_repairer, make_scalar_hint_repairer):
    point = make(model)(model.problem, hint)
    picks += [dc for (g, dc), var in model.x.items() if g == "bi" and point[var.name] > 0.5]
print(json.dumps(picks))
"""


class TestRepairTies:
    def test_a_destination_price_tie_does_not_depend_on_string_hashing(
        self, tiny_state
    ):
        # Relocating onto either of two identical empty sites costs the
        # same to the cent; the pick must not follow set iteration order,
        # which changes with PYTHONHASHSEED from one process to the next.
        twin = dataclasses.replace(tiny_state.target_datacenters[1], name="mid-twin")
        tiny_state.target_datacenters = [
            dataclasses.replace(dc, space_cost=StepCostFunction.flat(100.0))
            for dc in (*tiny_state.target_datacenters, twin)
        ]
        doc = json.dumps(state_to_dict(tiny_state))
        root = Path(__file__).resolve().parents[2]
        picks = set()
        for seed in ("0", "1", "2", "3", "4", "5"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
            )
            out = subprocess.run(
                [sys.executable, "-c", _TIE_CHILD],
                input=doc, capture_output=True, text=True, env=env, cwd=root,
                check=True, timeout=120,
            ).stdout
            picks.add(tuple(json.loads(out)))
        assert picks == {("mid", "mid")}  # sorted-name order: the first twin


class TestArrayMoves:
    """The pieces the polish is built from, checked directly."""

    def test_move_deltas_match_a_fresh_completion(self, peer_state):
        # Every relocate and swap rewrites exactly the columns a fresh
        # completion of the moved placement changes, to the same values.
        model = ConsolidationModel(peer_state, PlannerOptions(backend="highs"))
        groups = {g.name: g for g in peer_state.app_groups}
        sites = {dc.name: dc for dc in peer_state.target_datacenters}
        table = hint_repair._Columns(model, groups, sites)
        rng = random.Random(7)
        n_groups, n_sites = table.x.shape
        checked = 0
        for _ in range(10):
            p = np.array([
                rng.choice([j for j in range(n_sites) if table.x[g, j] >= 0])
                for g in range(n_groups)
            ])
            x = table.complete(p, np.zeros(table.n))
            if x is None:
                continue
            load = np.bincount(p, weights=table.servers, minlength=n_sites)
            reloc = (table.x >= 0) & (np.arange(n_sites) != p[:, None])
            group, dest = reloc.nonzero()
            swap_a, swap_b = np.triu(p[:, None] != p, 1).nonzero()
            move, cols, values, ok = table.changes(p, load, group, dest, swap_a, swap_b)
            ok = np.broadcast_to(ok, (len(group) + len(swap_a),))
            assert len(set(zip(move.tolist(), cols.tolist()))) == len(move)
            for k in range(len(group) + len(swap_a)):
                trial = p.copy()
                if k < len(group):
                    trial[group[k]] = dest[k]
                else:
                    a, b = swap_a[k - len(group)], swap_b[k - len(group)]
                    trial[a], trial[b] = p[b], p[a]
                fresh = table.complete(trial, x)
                assert (fresh is not None) == bool(ok[k])
                if fresh is None:
                    continue
                moved = x.copy()
                moved[cols[move == k]] = values[move == k]
                assert np.array_equal(moved, fresh)
                checked += 1
        assert checked > 100

    def test_a_site_turning_on_relieves_its_capacity_row(self, fixed_cost_state):
        # Every group sits on fx-a; forbidding one there leaves only
        # empty sites, whose capacity rows hold only once U flips on.
        model = ConsolidationModel(fixed_cost_state, PlannerOptions(backend="highs"))
        engine = RevisionedModel(model)
        hint = _x_hint(model, {g.name: "fx-a" for g in fixed_cost_state.app_groups})
        engine.apply(Directive("forbid", group="g2", datacenter="fx-a"))
        repaired = _check_parity(model, hint)
        assert repaired is not None
        assert _placement(model, repaired)["g2"] != "fx-a"

    def test_candidates_are_checked_against_the_bounds(self, solved_model):
        model, hint = solved_model
        state = model.state
        table = hint_repair._Columns(
            model,
            {g.name: g for g in state.app_groups},
            {dc.name: dc for dc in state.target_datacenters},
        )
        rows = hint_repair._Rows(model.problem)
        lb, ub, _ = bound_arrays(model.problem)
        placement = _placement(model, hint)
        p = np.array([table.site_index[placement[g]] for g in table.group_names])
        x = table.complete(p, np.zeros(table.n))
        act = rows.activity(x)
        load = np.bincount(p, weights=table.servers, minlength=len(table.site_names))
        group, dest = ((table.x >= 0) & (np.arange(len(table.site_names)) != p[:, None])).nonzero()
        none = np.zeros(0, dtype=np.int64)
        move, cols, values, _ = table.changes(p, load, group, dest, none, none)
        entries = (move, cols, values, values - x[cols])
        every = np.arange(len(group))
        holds = rows.holds_after(x, act, (lb, ub), None, entries, len(group), every)
        # Two legal relocates of different groups, checked as a pair.
        first = every[holds][0]
        second = next(k for k in every[holds] if group[k] != group[first])
        order = np.array([first, second])
        assert rows.holds_after(x, act, (lb, ub), None, entries, len(group), order).all()
        # A bound that the first move's destination binary may not take.
        tight = ub.copy()
        tight[table.x[group[first], dest[first]]] = 0.5
        fine = rows.holds_after(x, act, (lb, tight), None, entries, len(group), order)
        assert fine.tolist() == [False, True]
        # A point already past a bound holds only after a move that
        # rewrites that column back inside it: the first group leaving.
        tight = ub.copy()
        tight[table.x[group[first], p[group[first]]]] = 0.5
        broken = x > tight
        fine = rows.holds_after(x, act, (lb, tight), broken, entries, len(group), order)
        assert fine.tolist() == [True, False]


class TestPrePolishFallback:
    def test_a_tripped_polish_move_falls_back_to_the_projection(
        self, solved_model, monkeypatch
    ):
        # Blind the polish's row check so its best-scoring move can trip
        # a cap row: the final self-check must catch it and return the
        # merely-repaired projection instead.
        model, hint = solved_model
        engine = RevisionedModel(model)
        placement = _placement(model, hint)
        sites = sorted({dc for _, dc in model.x})
        triggered = 0
        for g in sorted(placement):
            for cap_site in sites:
                engine.apply(Directive("forbid", group=g, datacenter=placement[g]))
                engine.apply(Directive("cap_groups", datacenter=cap_site, limit=1.0))
                with monkeypatch.context() as patch:
                    patch.setattr(hint_repair, "_POLISH_BUDGET", 0)
                    projection = make_hint_repairer(model)(model.problem, hint)
                checks = []
                holds = hint_repair._Rows.holds

                def spy(self, *args):
                    checks.append(holds(self, *args))
                    return checks[-1]

                with monkeypatch.context() as patch:
                    patch.setattr(
                        hint_repair._Rows,
                        "holds_after",
                        lambda self, x, act, bounds, broken, entries, n, order: (
                            order >= 0
                        ),
                    )
                    patch.setattr(hint_repair._Rows, "holds", spy)
                    out = make_hint_repairer(model)(model.problem, hint)
                engine.pop()
                engine.pop()
                if checks[:1] != [False]:
                    continue  # the blind polish stayed feasible here
                triggered += 1
                assert projection is not None
                assert checks == [False, True]
                assert _same_point(out, projection)
        assert triggered >= 1


class TestRepairTime:
    def test_solve_cache_records_time_spent_in_the_repairer(self, tiny_state):
        import time

        from repro.lp import SolveOptions
        from repro.lp.solvers import SolveCache

        model = ConsolidationModel(tiny_state, PlannerOptions(backend="highs"))
        cache = SolveCache()
        calls = []

        def slow_repairer(problem, hint):
            calls.append(problem)
            time.sleep(0.02)
            return None

        cache.hint_repairer = slow_repairer
        first = cache.solve(model.problem, "branch_bound", SolveOptions())
        assert first.stats.hint_repair_seconds == 0.0  # nothing to repair yet
        RevisionedModel(model).apply(Directive("cap_groups", datacenter="mid", limit=1.0))
        second = cache.solve(model.problem, "branch_bound", SolveOptions())
        assert len(calls) == 1
        assert second.stats.hint_repaired == 0
        assert second.stats.hint_repair_seconds >= 0.02
