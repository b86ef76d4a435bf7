"""Scalar reference for the incumbent hint repairer.

The historical name→value implementation of
:func:`repro.core.hint_repair.make_hint_repairer`, kept verbatim as the
cross-check oracle: ``build_values`` completes a full point as a dict
per candidate, ``polish`` scores each relocate/swap candidate with a
full-objective sum and ``feasible_point`` re-sums every row of the live
problem.  The library's repairer does the same walk on the problem's
arrays; the suite checks that both return the same placement and the
same point.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.core.formulation import ConsolidationModel
from repro.core.local_search import _IncrementalEvaluator, _risk_conflict

_TOL = 1e-6
#: Repair rounds before giving up; each round fixes every violation it
#: can see, so >1 rounds only happen when a repair move itself trips a
#: different row (moving into a freshly-capped site).
_MAX_ROUNDS = 8


def _violation(con, values: dict) -> float:
    """How far ``values`` violates ``con`` (0.0 when satisfied)."""
    lhs = sum(
        coef * values.get(var.name, 0.0) for var, coef in con.expr.terms().items()
    )
    tol = _TOL * max(1.0, abs(con.rhs))
    sense = con.sense.value
    if sense == "<=":
        return lhs - con.rhs if lhs > con.rhs + tol else 0.0
    if sense == ">=":
        return con.rhs - lhs if lhs < con.rhs - tol else 0.0
    return abs(lhs - con.rhs) if abs(lhs - con.rhs) > tol else 0.0


def make_scalar_hint_repairer(
    model: ConsolidationModel,
) -> Callable[[object, Mapping[str, float]], dict | None]:
    """Build a ``(problem, hint) -> repaired | None`` callback for ``model``.

    Returns ``None`` from every call when repair cannot be trusted: a DR
    model (backup pools move non-locally), a hint that does not decode
    to a full placement, or a projection that fails its own feasibility
    self-check.
    """
    state = model.state
    ev = _IncrementalEvaluator(state, model.options.wan_model)
    groups = ev.groups
    sites = ev.sites
    omega = state.params.business_impact
    group_cap = omega * len(state.app_groups) if omega < 1.0 else None
    schedules = {
        dc.name: dc.space_cost.truncated(dc.capacity)
        for dc in state.target_datacenters
    }
    x_site = {var.name: key for key, var in model.x.items()}

    def build_values(placement: dict[str, str]) -> dict[str, float] | None:
        """Full name→value point implied by ``placement``.

        Sets each site-used binary iff the site carries load, selects
        the space-cost tier containing the site's load, and tightens
        every peer-split linker — the cheapest completion of the
        assignment, mirroring what any optimal solution does.
        """
        values: dict[str, float] = {}
        load_at = {name: 0 for name in sites}
        for g, site in placement.items():
            load_at[site] += groups[g].servers
        for (g, dc), var in model.x.items():
            values[var.name] = 1.0 if placement.get(g) == dc else 0.0
        for name, var in model.used.items():
            values[var.name] = 1.0 if load_at[name] > 0 else 0.0
        for name, block in model.segment_blocks.items():
            load = float(load_at[name])
            chosen = None
            if load > 0:
                for k, seg in enumerate(schedules[name].segments):
                    if seg.lower - _TOL <= load <= seg.upper + _TOL:
                        chosen = k
                        break
                if chosen is None:
                    return None  # load outside every tier: cannot complete
            for k, (z, n) in enumerate(zip(block.selectors, block.loads)):
                values[z.name] = 1.0 if k == chosen else 0.0
                values[n.name] = load if k == chosen else 0.0
        for (a, b, dc_a, dc_b), var in model.peer_split.items():
            both = placement.get(a) == dc_a and placement.get(b) == dc_b
            values[var.name] = 1.0 if both else 0.0
        return values

    def repair(problem, hint: Mapping[str, float]) -> dict | None:
        if model.options.enable_dr:
            return None  # backup pools re-size non-locally under a move
        if problem is not model.problem:
            return None  # a different model: the session's vars don't apply
        placement: dict[str, str] = {}
        for (g, dc), var in model.x.items():
            if float(hint.get(var.name, 0.0)) > 0.5:
                placement[g] = dc
        if len(placement) != len(groups):
            return None

        # Current directive state, read straight off the live variables:
        # retire/forbid push ub below 1 (site disallowed), pin lifts lb
        # above 0 (site forced).
        allowed: dict[str, set[str]] = {g: set() for g in groups}
        forced: dict[str, str] = {}
        for (g, dc), var in model.x.items():
            ub = float("inf") if var.ub is None else var.ub
            lb = float("-inf") if var.lb is None else var.lb
            if ub >= 0.5:
                allowed[g].add(dc)
            if lb > 0.5:
                if forced.setdefault(g, dc) != dc:
                    return None  # two pins on one group: infeasible
        servers_at = {name: 0 for name in sites}
        count_at = {name: 0 for name in sites}
        for g, site in placement.items():
            servers_at[site] += groups[g].servers
            count_at[site] += 1
        values = build_values(placement)
        if values is None:
            return None

        # Every ``<=`` row each assignment binary loads (positively), so
        # the destination gate can see cap rows too — without this a
        # repair ping-pongs load between two capped sites forever.
        rows_by_x: dict[str, list[tuple[object, float]]] = {}
        for con in problem.constraints:
            if con.sense.value != "<=":
                continue
            for var, coef in con.expr.terms().items():
                if coef > 0.0 and var.name in x_site:
                    rows_by_x.setdefault(var.name, []).append((con, float(coef)))
        used_by_site = {name: var for name, var in model.used.items()}
        moves_of: dict[str, int] = {}

        def apply_move(g: str, dst: str, budget: dict | None = None) -> bool:
            nonlocal values
            src = placement[g]
            placement[g] = dst
            servers_at[src] -= groups[g].servers
            servers_at[dst] += groups[g].servers
            count_at[src] -= 1
            count_at[dst] += 1
            tally = moves_of if budget is None else budget
            tally[g] = tally.get(g, 0) + 1
            values = build_values(placement)
            return values is not None

        def le_fits(g: str, dst: str) -> bool:
            """Would moving ``g`` to ``dst`` keep every ``<=`` row on
            ``X[g,dst]`` satisfied, at the current point?"""
            src = placement[g]
            var_dst = model.x[(g, dst)]
            var_src = model.x.get((g, src))
            u_dst = used_by_site.get(dst)
            for con, coef_dst in rows_by_x.get(var_dst.name, ()):
                terms = con.expr.terms()
                lhs = sum(
                    c * values.get(v.name, 0.0) for v, c in terms.items()
                )
                lhs += coef_dst  # X[g,dst] flips 0 -> 1
                if var_src is not None and var_src in terms:
                    lhs -= terms[var_src]  # X[g,src] flips 1 -> 0
                if (
                    u_dst is not None
                    and u_dst in terms
                    and values.get(u_dst.name, 0.0) < 0.5
                ):
                    lhs += terms[u_dst]  # site turns on: U[dst] 0 -> 1
                if lhs > con.rhs + _TOL * max(1.0, abs(con.rhs)):
                    return False
            return True

        def gates_ok(g: str, dst: str, budget: dict | None = None) -> bool:
            if dst not in allowed[g] or dst == placement[g]:
                return False
            if forced.get(g, dst) != dst:
                return False
            tally = moves_of if budget is None else budget
            if tally.get(g, 0) >= 3:
                return False  # thrash backstop: a group moves at most thrice
            dst_dc = sites[dst]
            if servers_at[dst] + groups[g].servers > dst_dc.capacity:
                return False
            if group_cap is not None and count_at[dst] + 1 > group_cap:
                return False
            if _risk_conflict(groups[g], dst, placement, groups):
                return False
            return le_fits(g, dst)

        def move_delta(g: str, dst: str) -> float:
            grp = groups[g]
            src_dc, dst_dc = sites[placement[g]], sites[dst]
            src_servers = servers_at[placement[g]]
            dst_servers = servers_at[dst]
            return (
                ev.site_cost(src_dc, src_servers - grp.servers)
                - ev.site_cost(src_dc, src_servers)
                + ev.site_cost(dst_dc, dst_servers + grp.servers)
                - ev.site_cost(dst_dc, dst_servers)
                + ev.group_cost(grp, dst_dc)
                - ev.group_cost(grp, src_dc)
            )

        def cheapest_destination(g: str) -> str | None:
            best, best_delta = None, None
            for dst in sorted(allowed[g]):  # ties: the first name wins
                if not gates_ok(g, dst):
                    continue
                delta = move_delta(g, dst)
                if best_delta is None or delta < best_delta:
                    best, best_delta = dst, delta
            return best

        def feasible_point(point: dict[str, str]) -> dict | None:
            """Full values for ``point`` iff it satisfies every bound and
            constraint of the live problem, else ``None``."""
            vals = build_values(point)
            if vals is None:
                return None
            for var in problem.variables:
                value = vals.setdefault(var.name, float(hint.get(var.name, 0.0)))
                if var.lb is not None and value < var.lb - _TOL:
                    return None
                if var.ub is not None and value > var.ub + _TOL:
                    return None
            for con in problem.constraints:
                if _violation(con, vals) > 0.0:
                    return None
            return vals

        def polish() -> bool:
            """Relocate/swap descent on the *problem* objective.

            Repair only restores feasibility; the projected point can sit
            several percent above the optimum, and a loose incumbent gives
            the solver's root reduced-cost fixing nothing to work with.
            Candidates are scored against the live objective vector —
            which, unlike :func:`move_delta`'s base-cost model, includes
            the controller's move-penalty terms — and the winner is only
            applied after a full feasibility check of the candidate point,
            so no conservative gate can strand the descent.  Swaps are
            what let two groups trade capacity-tight sites, the move a
            relocate-only pass cannot make.  A per-group move budget,
            separate from the repair budget, bounds the walk.
            """
            sign = 1.0 if problem.sense == "minimize" else -1.0
            obj_terms = {
                var.name: sign * float(coef)
                for var, coef in problem.objective.terms().items()
            }

            def point_obj(vals: dict[str, float]) -> float:
                return sum(
                    coef * vals.get(name, 0.0)
                    for name, coef in obj_terms.items()
                )

            def candidates() -> list[dict[str, str]]:
                names = sorted(placement)
                out = []
                for g in names:
                    if budget.get(g, 0) >= 4:
                        continue
                    for dst in sorted(allowed[g]):
                        if dst == placement[g] or forced.get(g, dst) != dst:
                            continue
                        trial = dict(placement)
                        trial[g] = dst
                        out.append(trial)
                for i, a in enumerate(names):
                    if budget.get(a, 0) >= 4:
                        continue
                    site_a = placement[a]
                    for b in names[i + 1 :]:
                        site_b = placement[b]
                        if site_a == site_b or budget.get(b, 0) >= 4:
                            continue
                        if site_b not in allowed[a] or site_a not in allowed[b]:
                            continue
                        if forced.get(a, site_b) != site_b:
                            continue
                        if forced.get(b, site_a) != site_a:
                            continue
                        trial = dict(placement)
                        trial[a], trial[b] = site_b, site_a
                        out.append(trial)
                return out

            nonlocal values
            budget: dict[str, int] = {}
            current = point_obj(values)
            polished = False
            for _ in range(4 * len(placement)):
                scored = []
                for trial in candidates():
                    vals = build_values(trial)
                    if vals is None:
                        continue
                    cand = point_obj(vals)
                    if cand < current - 1e-9:
                        scored.append((cand, trial))
                scored.sort(key=lambda sc: sc[0])
                applied = False
                for cand, trial in scored:
                    vals = feasible_point(trial)
                    if vals is None:
                        continue
                    for g in sorted(placement):
                        if trial[g] != placement[g]:
                            budget[g] = budget.get(g, 0) + 1
                            servers_at[placement[g]] -= groups[g].servers
                            servers_at[trial[g]] += groups[g].servers
                            count_at[placement[g]] -= 1
                            count_at[trial[g]] += 1
                    placement.clear()
                    placement.update(trial)
                    values = vals
                    current = cand
                    applied = polished = True
                    break
                if not applied:
                    break
            return polished

        moved = False
        for _ in range(_MAX_ROUNDS):
            # Pins override everything: the group must sit at its site.
            for g, site in forced.items():
                if placement[g] != site:
                    if not apply_move(g, site):
                        return None
                    moved = True
            # Retire/forbid: the current site is no longer allowed.
            displaced = [g for g in placement if placement[g] not in allowed[g]]
            for g in displaced:
                dst = cheapest_destination(g)
                if dst is None:
                    return None  # nowhere legal to land: give up
                if not apply_move(g, dst):
                    return None
                moved = True
            # Appended cap rows (and any other ``<=`` the point trips):
            # unload the cheapest contributing group until the row holds.
            clean = True
            for con in problem.constraints:
                overshoot = _violation(con, values)
                if overshoot <= 0.0 or con.sense.value != "<=":
                    if overshoot > 0.0:
                        clean = False  # non-LE violation: next round re-checks
                    continue
                contributors = []
                for var, coef in con.expr.terms().items():
                    key = x_site.get(var.name)
                    if key is None or coef <= 0.0:
                        continue
                    g, dc = key
                    if placement.get(g) == dc:
                        contributors.append((g, float(coef)))
                while overshoot > _TOL and contributors:
                    best = None
                    for i, (g, coef) in enumerate(contributors):
                        dst = cheapest_destination(g)
                        if dst is None:
                            continue
                        delta = move_delta(g, dst)
                        if best is None or delta < best[3]:
                            best = (i, g, dst, delta, coef)
                    if best is None:
                        return None  # row cannot be satisfied by moves
                    i, g, dst, _, coef = best
                    if not apply_move(g, dst):
                        return None
                    contributors.pop(i)
                    overshoot -= coef
                    moved = True
                    clean = False
            if clean and all(placement[g] in allowed[g] for g in placement):
                break
        else:
            return None  # did not converge within the round budget

        repaired_placement = dict(placement)
        polished = polish()
        if not (moved or polished):
            return None  # hint untouched: seed the raw hint as before

        # Final self-check: the projected point must satisfy every bound
        # and constraint of the live problem, or seeding would fail and
        # the "repair" would just burn time.  (Polish moves were already
        # checked one by one; this re-checks whatever survived.)
        out = feasible_point(placement)
        if out is None and polished and moved:
            # A polish move tripped something the gates missed: fall back
            # to the merely-repaired (pre-polish) projection.
            out = feasible_point(repaired_placement)
        return out

    return repair
