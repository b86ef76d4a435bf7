"""Incumbent hint repair: project a stale MIP start onto new directives.

The online loop seeds every re-solve with the previous incumbent as a
warm-start hint.  A *bound-only* directive (pin, forbid, retire) or an
appended cap row frequently invalidates that hint — it violates exactly
the new restriction — and branch-and-bound then rejects the seed and
loses all of its pruning power (`warm_start_rejected`).  This module
builds the :attr:`repro.lp.SolveCache.hint_repairer` callback: instead
of discarding the incumbent, *project* it back into the feasible region
by shifting application groups off the violated site, choosing the
cheapest legal relocation with the same incremental move evaluator the
local-search polisher uses.

The repaired hint reconstructs **every** model variable — assignment
binaries, site-used binaries, space-segment selectors and loads, and
peer-split linkers — so the branch-and-bound seeding check
(:func:`repro.lp.branch_bound._warm_start_point`) sees a complete,
feasible point.  Feasibility alone is not enough, though: a projection
that lands several percent above the optimum seeds an incumbent too
loose for root reduced-cost fixing to prune anything, so a greedy
*polish* pass then relocates groups while the live problem objective
(move penalty included) improves.  A final self-check evaluates all
bounds and constraints of the live problem; any doubt falls back to the
unpolished projection or returns ``None`` and the solve proceeds
unseeded, exactly as before.

Everything is checked on the live problem's arrays: the objective
vector ``c``, the constraint rows ``A x ≤/≥/= b`` and the variable
bounds, read once per call.  The point is one vector ``x`` with its row
activity ``A x``.  A move changes only the columns the moved groups and
their two sites own — assignment binaries, site-used binary, segment
selectors and loads, and the groups' peer-split linkers — so each
candidate is a sparse ``Δx`` over those columns.  Polish scores a whole
round of relocate and swap candidates as one ``c·Δx`` and checks them
as ``A x + A[:, cols]·Δx`` against ``b`` and ``x + Δx`` against the
bounds; the repair rounds and the final self-check read the same
activity vector.  The historical name→value walk is the test oracle
``tests/oracles/hint_repair.py``.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ..lp.expressions import Sense
from ..lp.sparse import bound_arrays, constraint_blocks, objective_arrays, scatter_add
from .formulation import ConsolidationModel
from .local_search import _IncrementalEvaluator, _risk_conflict

_TOL = 1e-6
#: Repair rounds before giving up; each round fixes every violation it
#: can see, so >1 rounds only happen when a repair move itself trips a
#: different row (moving into a freshly-capped site).
_MAX_ROUNDS = 8
#: Polish moves any one group may make in one repair call.
_POLISH_BUDGET = 4


def _padded(owner: np.ndarray, item: np.ndarray, n_owners: int, fill: int):
    """``(n_owners, width)`` table of each owner's items, in order.

    ``owner`` must be sorted; rows are padded with ``fill``.  Returns the
    table and each item's slot in it.
    """
    count = np.bincount(owner, minlength=n_owners)
    first = count.cumsum() - count
    slot = np.arange(len(owner)) - first[owner]
    table = np.full((n_owners, int(count.max(initial=0))), fill, dtype=item.dtype)
    table[owner, slot] = item
    return table, slot


class _Memo(dict):
    """A dict that fills a missing ``key`` with ``fill(key)``."""

    def __init__(self, fill: Callable) -> None:
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Columns:
    """The model's variable columns, indexed by group and by site.

    Groups and sites are numbered in sorted-name order, the order the
    polish walks its candidates in.  Built once per model: directives
    move bounds and append rows, but never add variables.
    """

    def __init__(self, model: ConsolidationModel, groups: dict, sites: dict) -> None:
        variables = model.problem.variables
        col = {var: i for i, var in enumerate(variables)}
        self.n = len(variables)
        self.group_names = sorted(groups)
        self.site_names = sorted(sites)
        self.group_index = {g: i for i, g in enumerate(self.group_names)}
        self.site_index = {s: j for j, s in enumerate(self.site_names)}
        n_groups, n_sites = len(self.group_names), len(self.site_names)
        self.servers = np.array([float(groups[g].servers) for g in self.group_names])
        owned = np.zeros(self.n, dtype=bool)

        self.x = np.full((n_groups, n_sites), -1, dtype=np.int64)
        #: X column → (group, site) names, the row-repair contributors.
        self.x_key: dict[int, tuple[str, str]] = {}
        for (g, dc), var in model.x.items():
            self.x[self.group_index[g], self.site_index[dc]] = col[var]
            self.x_key[col[var]] = (g, dc)
        self.x_cols = self.x[self.x >= 0]
        owned[self.x_cols] = True

        # Site columns: the used binary, then each tier's selector and
        # load.  Padding tiers (and sites without tiers) fit no load.
        self.used = np.full(n_sites, -1, dtype=np.int64)
        for name, var in model.used.items():
            self.used[self.site_index[name]] = col[var]
        n_tiers = max((len(b.selectors) for b in model.segment_blocks.values()), default=0)
        seg_z = np.full((n_sites, n_tiers), -1, dtype=np.int64)
        seg_n = np.full((n_sites, n_tiers), -1, dtype=np.int64)
        self.seg_lo = np.full((n_sites, n_tiers), np.inf)
        self.seg_hi = np.full((n_sites, n_tiers), -np.inf)
        self.tiered = np.zeros(n_sites, dtype=bool)
        for name, block in model.segment_blocks.items():
            j = self.site_index[name]
            dc = sites[name]
            segments = dc.space_cost.truncated(dc.capacity).segments
            self.tiered[j] = True
            for k, (z, n, seg) in enumerate(zip(block.selectors, block.loads, segments)):
                seg_z[j, k], seg_n[j, k] = col[z], col[n]
                self.seg_lo[j, k], self.seg_hi[j, k] = seg.lower, seg.upper
        self.site_cols = np.concatenate([self.used[:, None], seg_z, seg_n], axis=1)
        self.has_site_cols = bool((self.site_cols >= 0).any())
        owned[self.site_cols[self.site_cols >= 0]] = True

        # Peer-split linkers by pair end; ``group_links[g]`` lists the
        # linkers with an end at group g (padded with -1).
        keys = list(model.peer_split)
        self.link_col = np.array([col[model.peer_split[k]] for k in keys], dtype=np.int64)
        self.link_a = np.array([self.group_index[k[0]] for k in keys], dtype=np.int64)
        self.link_b = np.array([self.group_index[k[1]] for k in keys], dtype=np.int64)
        self.link_sa = np.array([self.site_index[k[2]] for k in keys], dtype=np.int64)
        self.link_sb = np.array([self.site_index[k[3]] for k in keys], dtype=np.int64)
        ends = np.concatenate([self.link_a, self.link_b])
        order = ends.argsort(kind="stable")
        self.group_links, _ = _padded(
            ends[order], order % max(1, len(keys)), n_groups, -1
        )
        owned[self.link_col] = True
        #: Columns no move changes: they keep the hint's value.
        self.others = np.flatnonzero(~owned)

    def _site_values(self, sites: np.ndarray, loads: np.ndarray):
        """``(cols, values, ok)`` of each (site, load) pair's site columns.

        The used binary is on iff the site carries load; the first tier
        containing the load is selected and carries it.  ``ok`` is False
        where a tiered site's load fits no tier.  Padding columns are -1.
        """
        on = loads > 0
        fits = (self.seg_lo[sites] - _TOL <= loads[:, None]) & (
            loads[:, None] <= self.seg_hi[sites] + _TOL
        )
        chosen = fits & (fits.cumsum(axis=1) == 1) & on[:, None]
        values = np.concatenate(
            [on[:, None], chosen, np.where(chosen, loads[:, None], 0.0)], axis=1
        )
        ok = ~(self.tiered[sites] & on) | fits.any(axis=1)
        return self.site_cols[sites], values.astype(float), ok

    def complete(self, p: np.ndarray, base: np.ndarray) -> np.ndarray | None:
        """The point ``x`` of placement ``p`` (site per group), or ``None``.

        Sets each site-used binary iff the site carries load, selects
        the space-cost tier containing the site's load, and tightens
        every peer-split linker — the cheapest completion of the
        assignment, mirroring what any optimal solution does.  Columns
        no move owns keep their value in ``base``.
        """
        x = base.copy()
        x[self.x_cols] = 0.0
        x[self.x[np.arange(len(p)), p]] = 1.0
        load = scatter_add(p, self.servers, len(self.site_names))
        if self.has_site_cols:
            cols, values, ok = self._site_values(np.arange(len(load)), load)
            if not ok.all():
                return None  # a load outside every tier: cannot complete
            keep = cols >= 0
            x[cols[keep]] = values[keep]
        x[self.link_col] = (p[self.link_a] == self.link_sa) & (p[self.link_b] == self.link_sb)
        return x

    def changes(self, p, load, group, dest, swap_a, swap_b):
        """The columns each move rewrites, with their completed values.

        The moves are the relocates ``group[i] -> dest[i]``, then the
        swaps ``swap_a[i] <-> swap_b[i]``.  Returns ``(move, col, value,
        ok)``: one entry per rewritten column of each move, and whether
        each move's completion exists (every tiered load fits a tier;
        ``True`` for all when the model has no tiers).  No (move, col)
        pair repeats.
        """
        n_r, n_s = len(group), len(swap_a)
        m = n_r + n_s
        g1 = np.concatenate((group, swap_a))
        t1 = np.concatenate((dest, p[swap_b]))
        f1 = p[g1]
        every = np.arange(m)
        # Assignment binaries: every moved group leaves its site (0),
        # then takes its destination (1).
        move = [np.concatenate((every, every[n_r:], every, every[n_r:]))]
        cols = [
            np.concatenate(
                (self.x[g1, f1], self.x[swap_b, t1[n_r:]], self.x[g1, t1], self.x[swap_b, f1[n_r:]])
            )
        ]
        values = [np.zeros(len(cols[0]))]
        values[0][m + n_s :] = 1.0
        ok = True
        if self.has_site_cols:
            shift = self.servers[g1]
            shift[n_r:] -= self.servers[swap_b]
            site_cols, site_values, fits = self._site_values(
                np.concatenate((f1, t1)), np.concatenate((load[f1] - shift, load[t1] + shift))
            )
            ok = fits[:m] & fits[m:]
            keep = site_cols >= 0
            move.append(np.concatenate((every, every))[keep.nonzero()[0]])
            cols.append(site_cols[keep])
            values.append(site_values[keep])
        if len(self.link_col):
            # Every linker with an end at g1, then those at the swap
            # partner not shared with g1; each reads the new sites.
            g2 = np.concatenate((np.full(n_r, -1), swap_b))
            t2 = np.concatenate((np.full(n_r, -1), f1[n_r:]))
            first = self.group_links[g1]
            second = self.group_links[swap_b]
            own = (self.link_a[second] != swap_a[:, None]) & (
                self.link_b[second] != swap_a[:, None]
            )
            w1, k1 = (first >= 0).nonzero()
            w2, k2 = ((second >= 0) & own).nonzero()
            who = np.concatenate((w1, n_r + w2))
            link = np.concatenate((first[w1, k1], second[w2, k2]))
            at = []
            for end in (self.link_a[link], self.link_b[link]):
                at.append(
                    np.where(end == g1[who], t1[who], np.where(end == g2[who], t2[who], p[end]))
                )
            move.append(who)
            cols.append(self.link_col[link])
            values.append(
                ((at[0] == self.link_sa[link]) & (at[1] == self.link_sb[link])).astype(float)
            )
        if len(move) == 1:
            return move[0], cols[0], values[0], ok
        return np.concatenate(move), np.concatenate(cols), np.concatenate(values), ok


class _Rows:
    """The live problem's rows as arrays: matrix, senses and limits."""

    def __init__(self, problem) -> None:
        blocks = constraint_blocks(problem)
        self.blocks = blocks
        # Each column's rows and coefficients, padded with a dummy row
        # (index n_rows, coefficient 0) to the longest column.
        by_col = blocks.cols.argsort(kind="stable")
        cols = blocks.cols[by_col]
        self.col_rows, slot = _padded(cols, blocks.rows[by_col], blocks.n_cols, blocks.n_rows)
        self.col_coefs = np.zeros(self.col_rows.shape)
        self.col_coefs[cols, slot] = blocks.data[by_col]
        self.rhs = blocks.rhs
        tol = _TOL * np.maximum(1.0, np.abs(self.rhs))
        self.le = np.array([s is Sense.LE for s in blocks.senses], dtype=bool)
        ge = np.array([s is Sense.GE for s in blocks.senses], dtype=bool)
        self.row_hi = np.where(ge, np.inf, self.rhs + tol)
        self.row_lo = np.where(self.le, -np.inf, self.rhs - tol)
        is_le = self.le.tolist()
        rows_of, coefs_of = self.col_rows.tolist(), self.col_coefs.tolist()
        #: ``{row: coefficient}`` of each column (padding included), on use.
        self.column = _Memo(lambda j: dict(zip(rows_of[j], coefs_of[j])))
        #: ``[(row, coefficient)]`` of each column's positive ``<=`` terms.
        self.le_terms = _Memo(
            lambda j: [(r, v) for r, v in zip(rows_of[j], coefs_of[j]) if v > 0.0 and is_le[r]]
        )

    def activity(self, x: np.ndarray) -> np.ndarray:
        """``A x``, each row summed in its terms' order."""
        blocks = self.blocks
        return scatter_add(blocks.rows, blocks.data * x[blocks.cols], blocks.n_rows)

    def overshoot(self, act: np.ndarray) -> np.ndarray:
        """How far each row is violated at activity ``act`` (0 when held)."""
        return np.where(act > self.row_hi, act - self.rhs, 0.0) + np.where(
            act < self.row_lo, self.rhs - act, 0.0
        )

    def holds(self, x: np.ndarray, act: np.ndarray, bounds) -> bool:
        """Does the point satisfy every bound ``(lo, hi)`` and every row?"""
        lo, hi = bounds
        return not (
            np.count_nonzero(x < lo)
            or np.count_nonzero(x > hi)
            or np.count_nonzero(act > self.row_hi)
            or np.count_nonzero(act < self.row_lo)
        )

    def holds_after(self, x, act, bounds, broken, entries, n_moves: int, order):
        """Per move in ``order``: does ``x + Δx`` hold every bound and row?

        ``entries`` are the ``(move, col, value, delta)`` of the
        ``n_moves`` moves' sparse ``Δx``: each rewritten column's new
        value and its change.  Each checked move's row activity is
        ``act`` plus its columns of ``A`` times its deltas.
        ``broken`` marks the columns whose bound ``x`` already breaks
        (``None`` when there are none).
        """
        lo, hi = bounds
        move, col, value, delta = entries
        q = len(order)
        slot = -np.ones(n_moves, dtype=np.int64)
        slot[order] = np.arange(q)
        at = slot[move]
        pick = (at >= 0).nonzero()[0]
        at, col, value, delta = at[pick], col[pick], value[pick], delta[pick]
        n_rows = len(act)
        cell = self.col_rows[col] * q + at[:, None]
        change = scatter_add(
            cell.ravel(), (self.col_coefs[col] * delta[:, None]).ravel(), (n_rows + 1) * q
        )[: n_rows * q].reshape(n_rows, q)
        new = act[:, None] + change
        fine = ~((new > self.row_hi[:, None]) | (new < self.row_lo[:, None])).any(axis=0)
        broken_after = (value < lo[col]) | (value > hi[col])
        if np.count_nonzero(broken_after):
            fine &= scatter_add(at, broken_after.astype(float), q) == 0.0
        if broken is not None:  # a move must rewrite every broken column
            fine &= scatter_add(at, broken[col].astype(float), q) == np.count_nonzero(broken)
        return fine


def make_hint_repairer(
    model: ConsolidationModel,
) -> Callable[[object, Mapping[str, float]], dict | None]:
    """Build a ``(problem, hint) -> repaired | None`` callback for ``model``.

    Returns ``None`` from every call when repair cannot be trusted: a DR
    model (backup pools move non-locally), a hint that does not decode
    to a full placement, or a projection that fails its own feasibility
    self-check.
    """
    if model.options.enable_dr:
        return lambda problem, hint: None  # backup pools re-size non-locally
    state = model.state
    ev = _IncrementalEvaluator(state, model.options.wan_model)
    groups = ev.groups
    sites = ev.sites
    omega = state.params.business_impact
    group_cap = omega * len(state.app_groups) if omega < 1.0 else None
    table = _Columns(model, groups, sites)
    gi, ji = table.group_index, table.site_index
    n_groups = len(gi)
    site_ids = np.arange(len(ji))
    upper = np.triu(np.ones((n_groups, n_groups), dtype=bool), 1)
    names = [var.name for var in model.problem.variables]
    x_col = {key: int(table.x[gi[key[0]], ji[key[1]]]) for key in model.x}
    used_col = {name: int(table.used[ji[name]]) for name in model.used}
    capacity = {name: dc.capacity for name, dc in sites.items()}
    # The evaluator's base-cost pieces, by (site, servers) and (group, site).
    site_cost = _Memo(lambda key: ev.site_cost(sites[key[0]], key[1]))
    group_cost = _Memo(lambda key: ev.group_cost(groups[key[0]], sites[key[1]]))

    def repair(problem, hint: Mapping[str, float]) -> dict | None:
        if problem is not model.problem:
            return None  # a different model: the session's vars don't apply
        # The hint's placement, and the current directive state read
        # straight off the live variables: retire/forbid push ub below 1
        # (site disallowed), pin lifts lb above 0 (site forced).
        placement: dict[str, str] = {}
        allowed: dict[str, set[str]] = {g: set() for g in groups}
        forced: dict[str, str] = {}
        for (g, dc), var in model.x.items():
            if hint.get(var.name, 0.0) > 0.5:
                placement[g] = dc
            if var.ub is None or var.ub >= 0.5:
                allowed[g].add(dc)
            if var.lb is not None and var.lb > 0.5:
                if forced.setdefault(g, dc) != dc:
                    return None  # two pins on one group: infeasible
        if len(placement) != len(groups):
            return None
        servers_at = {name: 0 for name in sites}
        count_at = {name: 0 for name in sites}
        for g, site in placement.items():
            servers_at[site] += groups[g].servers
            count_at[site] += 1

        rows = _Rows(problem)
        c = objective_arrays(problem)[0]
        lb, ub, _ = bound_arrays(problem)
        bounds = (lb - _TOL, ub + _TOL)
        base = np.zeros(table.n)
        for i in table.others:
            base[i] = float(hint.get(names[i], 0.0))
        p = np.array([ji[placement[g]] for g in table.group_names], dtype=np.int64)
        x = table.complete(p, base)
        if x is None:
            return None
        load = scatter_add(p, table.servers, len(ji))
        act = rows.activity(x)
        # The activity as floats, for the per-destination gates.
        level, is_le, row_hi = act.tolist(), rows.le.tolist(), rows.row_hi.tolist()
        moves_of: dict[str, int] = {}

        def settle() -> None:
            """Re-read the row activity after ``x`` changed."""
            nonlocal act, level
            act = rows.activity(x)
            level = act.tolist()

        def shift(g: int, t: int) -> None:
            """Book group ``g``'s move to site ``t``."""
            name, src, dst = table.group_names[g], table.site_names[p[g]], table.site_names[t]
            n = groups[name].servers
            placement[name] = dst
            servers_at[src] -= n
            servers_at[dst] += n
            count_at[src] -= 1
            count_at[dst] += 1
            load[p[g]] -= n
            load[t] += n
            p[g] = t

        def apply_move(g: str, dst: str) -> bool:
            moves_of[g] = moves_of.get(g, 0) + 1
            trial = p.copy()
            trial[gi[g]] = ji[dst]
            moved_x = table.complete(trial, x)
            if moved_x is None:
                return False  # a load outside every tier: cannot complete
            x[:] = moved_x
            settle()
            shift(gi[g], ji[dst])
            return True

        def cheapest_destination(g: str) -> tuple[str, float] | None:
            """The legal destination of ``g`` that :class:`_IncrementalEvaluator`
            prices cheapest, with that price; ``None`` when none is legal."""
            if moves_of.get(g, 0) >= 3:
                return None  # thrash backstop: a group moves at most thrice
            grp = groups[g]
            n = grp.servers
            src = placement[g]
            pin = forced.get(g)
            risky = grp.risk_group is not None
            leave = site_cost[src, servers_at[src] - n] - site_cost[src, servers_at[src]]
            stay = group_cost[g, src]
            src_terms = rows.column[x_col[g, src]]
            best = None
            for dst in sorted(allowed[g]):  # ties: the first name wins
                if dst == src or (pin is not None and pin != dst):
                    continue
                load_dst = servers_at[dst]
                if load_dst + n > capacity[dst]:
                    continue
                if group_cap is not None and count_at[dst] + 1 > group_cap:
                    continue
                if risky and _risk_conflict(grp, dst, placement, groups):
                    continue
                u_dst = used_col.get(dst)
                if u_dst is not None and x[u_dst] < 0.5:
                    u_terms = rows.column[u_dst]  # site turns on: U[dst] 0 -> 1
                else:
                    u_terms = {}
                # Every ``<=`` row on X[g,dst] must hold after the move:
                # X[g,dst] flips 0 -> 1 and X[g,src] flips 1 -> 0.
                for r, coef in rows.le_terms[x_col[g, dst]]:
                    if level[r] + coef - src_terms.get(r, 0.0) + u_terms.get(r, 0.0) > row_hi[r]:
                        break
                else:
                    delta = (
                        leave
                        + site_cost[dst, load_dst + n]
                        - site_cost[dst, load_dst]
                        + group_cost[g, dst]
                        - stay
                    )
                    if best is None or delta < best[1]:
                        best = (dst, delta)
            return best

        # Polish gates in sorted (group, site) order: the sites each group
        # may take (allowed, and its pinned site if it has one).
        exists = table.x >= 0
        pin_at = exists & (lb[table.x] > 0.5)
        reach = exists & (ub[table.x] >= 0.5) & (~pin_at.any(axis=1)[:, None] | pin_at)

        def polish() -> bool:
            """Relocate/swap descent on the *problem* objective.

            Repair only restores feasibility; the projected point can sit
            several percent above the optimum, and a loose incumbent gives
            the solver's root reduced-cost fixing nothing to work with.
            Candidates are scored against the live objective vector —
            which, unlike the repair's base-cost model, includes the
            controller's move-penalty terms — and the winner is only
            applied after a full feasibility check of the candidate point,
            so no conservative gate can strand the descent.  Swaps are
            what let two groups trade capacity-tight sites, the move a
            relocate-only pass cannot make.  A per-group move budget,
            separate from the repair budget, bounds the walk.

            Each round builds every candidate at once — relocates in
            (group, site) order, then swaps in (group, group) order —
            and applies the cheapest strictly improving one that holds
            every bound and row, ties going to the earlier candidate.
            """
            budget = np.zeros(n_groups, dtype=np.int64)
            current = float(c @ x)
            broken = (x < bounds[0]) | (x > bounds[1])
            broken = broken if broken.any() else None
            polished = False
            for _ in range(4 * n_groups):
                free = budget < _POLISH_BUDGET
                group, dest = (reach & free[:, None] & (site_ids != p[:, None])).nonzero()
                cross = reach[:, p]  # cross[a, b]: a may take b's site
                swap_a, swap_b = (
                    cross & cross.T & (p[:, None] != p) & free[:, None] & free & upper
                ).nonzero()
                n_moves = len(group) + len(swap_a)
                if not n_moves:
                    break
                move, cols, values, ok = table.changes(p, load, group, dest, swap_a, swap_b)
                delta = values - x[cols]
                score = current + scatter_add(move, c[cols] * delta, n_moves)
                order = (ok & (score < current - 1e-9)).nonzero()[0]
                if not order.size:
                    break
                order = order[score[order].argsort(kind="stable")]
                fine = rows.holds_after(
                    x, act, bounds, broken, (move, cols, values, delta), n_moves, order
                )
                hit = fine.nonzero()[0]
                if not hit.size:
                    break
                k = order[hit[0]]
                if k < len(group):
                    shifts = [(group[k], dest[k])]
                else:
                    a, b = swap_a[k - len(group)], swap_b[k - len(group)]
                    shifts = [(a, p[b]), (b, p[a])]
                mine = move == k
                x[cols[mine]] = values[mine]
                settle()
                for g, t in shifts:
                    budget[g] += 1
                    shift(g, t)
                current = float(c @ x)
                broken = None  # the applied move held every bound
                polished = True
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
                best = cheapest_destination(g)
                if best is None:
                    return None  # nowhere legal to land: give up
                if not apply_move(g, best[0]):
                    return None
                moved = True
            # Appended cap rows (and any other ``<=`` the point trips):
            # unload the cheapest contributing group until the row holds.
            # Rows are visited in order, each read off the current point.
            clean = True
            r = 0
            while True:
                late = (rows.overshoot(act)[r:] > 0.0).nonzero()[0]
                if not late.size:
                    break
                r += int(late[0])
                if not is_le[r]:
                    clean = False  # non-LE violation: next round re-checks
                    r += 1
                    continue
                overshoot = level[r] - float(rows.rhs[r])
                contributors = []
                lo, hi = rows.blocks.row_ptr[r], rows.blocks.row_ptr[r + 1]
                for col, coef in zip(
                    rows.blocks.cols[lo:hi].tolist(), rows.blocks.data[lo:hi].tolist()
                ):
                    key = table.x_key.get(col)
                    if key is None or coef <= 0.0:
                        continue
                    g, dc = key
                    if placement.get(g) == dc:
                        contributors.append((g, coef))
                while overshoot > _TOL and contributors:
                    best = None
                    for i, (g, coef) in enumerate(contributors):
                        found = cheapest_destination(g)
                        if found is None:
                            continue
                        if best is None or found[1] < best[3]:
                            best = (i, g, found[0], found[1], coef)
                    if best is None:
                        return None  # row cannot be satisfied by moves
                    i, g, dst, _, coef = best
                    if not apply_move(g, dst):
                        return None
                    contributors.pop(i)
                    overshoot -= coef
                    moved = True
                    clean = False
                r += 1
            if clean and all(placement[g] in allowed[g] for g in placement):
                break
        else:
            return None  # did not converge within the round budget

        repaired = (x.copy(), act)
        polished = polish()
        if not (moved or polished):
            return None  # hint untouched: seed the raw hint as before

        # Final self-check: the projected point must satisfy every bound
        # and constraint of the live problem, or seeding would fail and
        # the "repair" would just burn time.  (Polish moves were already
        # checked one by one; this re-checks whatever survived.)
        if not rows.holds(x, act, bounds):
            if not (polished and moved and rows.holds(*repaired, bounds)):
                return None
            # A polish move tripped something the gates missed: fall back
            # to the merely-repaired (pre-polish) projection.
            x = repaired[0]
        return dict(zip(names, x.tolist()))

    return repair
