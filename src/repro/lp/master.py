"""Restricted master LP for Dantzig-Wolfe column generation.

The consolidation MILP is nearly block-separable: each application
group's block is "pick one eligible target site", and the blocks couple
only through the per-target capacity rows.  The Dantzig-Wolfe master
over that structure is

.. math::

    \\min \\sum_p c_p \\lambda_p
    \\quad \\text{s.t.} \\quad
    \\sum_p s_p \\lambda_p \\le O_j \\;\\forall j, \\qquad
    \\sum_{p \\in g} \\lambda_p = 1 \\;\\forall g, \\qquad
    \\lambda \\ge 0,

where each column *p* is one (group, target) placement with cost
:math:`c_p` and load :math:`s_p`.  This module owns the *restricted*
master: a column pool grown by the pricing loop in
:mod:`repro.core.decomposition`, and the row duals it hands back
(capacity duals :math:`\\pi_j \\le 0`, convexity duals :math:`\\mu_g`).

One artificial column per convexity row (big-M cost, no capacity
footprint) keeps every restricted master feasible regardless of which
placement columns have been generated yet.

The master is solved by a primal simplex with **generalized upper
bounding** (GUB; Dantzig & Van Slyke, 1967).  Each convexity row is a
GUB row: every column sits in exactly one, so the ``J + G`` basis never
needs to be factorized whole.

* **Keys and the working basis.**  Each group keeps one basic column,
  its *key* (a placement column or its artificial).  The other ``J``
  basics — placement columns and capacity slacks — form the *working
  basis* ``W``, one ``J``-column per non-key: ``e_j`` for slack *j*,
  ``s_p e_{j(p)} - s_k e_{j(k)}`` for a column *p* whose group's key is
  *k* (an artificial loads no site, so it contributes nothing).  Only
  ``W⁻¹`` is kept, explicitly; it is the only matrix ever inverted.
* **Values and duals.**  The non-key values are ``W⁻¹ (O - Σ_g a_k(g))``
  and each key takes ``1`` minus its group's other basics.  The
  capacity duals are ``π = W⁻ᵀ c_W`` (``c_W`` the non-keys' costs minus
  their keys'), and each ``μ_g`` zeroes its key's reduced cost.
* **A pivot.**  Dantzig pricing of ``c_p − π_{j(p)} s_p − μ_{g(p)}``
  over the whole pool in one array pass (Bland's rule after a long
  degenerate stall), a ``J``-vector FTRAN of the entering column's
  ``W``-column, the two-pass ratio test over the ``J`` non-keys and the
  ``G`` keys, and a rank-1 update of ``W⁻¹``.  A leaving key hands its
  role to another basic column of its group (the entering column when
  the group has none); ``W`` is then refactorized, as it is every
  :data:`~repro.lp.revised_simplex.REFACTOR_INTERVAL` updates.
* **Warm re-entry.**  Appended columns enter nonbasic at 0, so each
  re-solve starts from the previous optimal basis and its ``W``.
* **The first solve** starts from a *crash* basis: every capacity slack
  is a non-key (``W = I``), and each group's key is its first placement
  column in the pool (the seeded cheapest site) when its load fits what
  is left of that site's capacity, else its artificial.  It is primal
  feasible by construction, so phase 1 does no work.
* **Accuracy gate.**  At an optimum ``W`` is refactorized and the values
  and duals recomputed; the optimum is accepted only with every basic
  within 1e-6 of its bound and the primal and dual residuals, formed
  from the pool's columns, within
  :data:`~repro.lp.revised_simplex.RESIDUAL_TOL`.  Otherwise the solve
  continues from the fresh factorization, four attempts in all.

Column upper bounds ``λ ≤ 1`` are implied by the convexity rows, so no
column carries one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .revised_simplex import (
    DJ_TOL,
    FEAS_TOL,
    PHASE1_TOL,
    PIV_TOL,
    REFACTOR_INTERVAL,
    RESIDUAL_TOL,
)


@dataclass
class MasterSolution:
    """One restricted-master solve: primal weights plus both dual rows."""

    status: str
    objective: float
    #: Column weights, aligned with the master's column pool (the first
    #: ``n_groups`` entries are the artificial columns).
    weights: np.ndarray | None
    #: Capacity-row duals, one per target (``<=`` rows: ``pi <= 0``).
    capacity_duals: np.ndarray | None
    #: Convexity-row duals, one per group.
    convexity_duals: np.ndarray | None
    iterations: int = 0
    #: The solve reused a previous solve's basis (the crash-started
    #: first solve reports False).
    warm_started: bool = False
    #: Total weight carried by artificial columns (0 at a usable optimum).
    artificial_weight: float = 0.0


@dataclass
class RestrictedMasterLP:
    """Column pool + re-solvable master for one decomposition run."""

    capacities: np.ndarray
    n_groups: int
    artificial_cost: float

    #: Parallel per-column arrays (artificials occupy the first
    #: ``n_groups`` slots with ``target == -1`` and ``load == 0``).
    col_group: list[int] = field(default_factory=list)
    col_target: list[int] = field(default_factory=list)
    col_cost: list[float] = field(default_factory=list)
    col_load: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.capacities = np.asarray(self.capacities, dtype=float)
        self._seen: set[tuple[int, int]] = set()
        #: The last optimal basis: each group's key column, and the
        #: non-key basics (a pool column, or ``-1 - j`` for slack j).
        self._keys: np.ndarray | None = None
        self._nonkeys: np.ndarray | None = None
        for g in range(self.n_groups):
            self.col_group.append(g)
            self.col_target.append(-1)
            self.col_cost.append(float(self.artificial_cost))
            self.col_load.append(0.0)

    # -- column pool -------------------------------------------------------

    @property
    def n_columns(self) -> int:
        return len(self.col_cost)

    def has_column(self, group: int, target: int) -> bool:
        return (group, target) in self._seen

    def add_column(self, group: int, target: int, cost: float, load: float) -> bool:
        """Add one placement column; ignores duplicates. Returns added?"""
        if (group, target) in self._seen:
            return False
        self._seen.add((group, target))
        self.col_group.append(int(group))
        self.col_target.append(int(target))
        self.col_cost.append(float(cost))
        self.col_load.append(float(load))
        return True

    def _crash_basis(self) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, nonkeys)`` of the primal-feasible first basis.

        Every capacity slack is a non-key; each group's key is its first
        placement column in pool order if its load fits the site's
        remaining capacity, else its artificial.
        """
        remaining = self.capacities.copy()
        keys = np.arange(self.n_groups, dtype=np.int64)  # artificials
        seen = [False] * self.n_groups
        for idx in range(self.n_groups, self.n_columns):
            g = self.col_group[idx]
            if seen[g]:
                continue
            seen[g] = True
            j, load = self.col_target[idx], self.col_load[idx]
            if load <= remaining[j]:
                remaining[j] -= load
                keys[g] = idx
        nonkeys = -1 - np.arange(self.capacities.shape[0], dtype=np.int64)
        return keys, nonkeys

    # -- solve -------------------------------------------------------------

    def solve(self, max_iterations: int = 50000) -> MasterSolution:
        """Re-solve the restricted master over the current column pool."""
        reused = self._keys is not None
        keys, nonkeys = (
            (self._keys, self._nonkeys) if reused else self._crash_basis()
        )
        ncols = self.n_columns
        solver = _GubSolver(self, keys, nonkeys, max_iterations)
        status = solver.solve()
        if status != "optimal":
            return MasterSolution(
                status=status, objective=float("nan"), weights=None,
                capacity_duals=None, convexity_duals=None,
                iterations=solver.iterations,
            )
        n_targets = solver.J
        basis = solver.basis
        self._keys = basis[n_targets:].copy()
        nonkeys = basis[:n_targets]
        self._nonkeys = np.where(nonkeys >= ncols, ncols - 1 - nonkeys, nonkeys)
        values = np.zeros(solver.N)
        values[basis] = solver.xb
        weights = np.clip(values[:ncols], 0.0, 1.0)
        return MasterSolution(
            status="optimal",
            objective=float(solver.cost[:ncols] @ weights),
            weights=weights,
            capacity_duals=solver.pi[:n_targets].copy(),
            convexity_duals=solver.mu[: self.n_groups].copy(),
            iterations=solver.iterations,
            warm_started=reused,
            artificial_weight=float(weights[: self.n_groups].sum()),
        )

    # -- extraction --------------------------------------------------------

    def group_support(self, weights: np.ndarray) -> list[list[tuple[int, float]]]:
        """Per group: its placement columns' ``(target, weight)`` pairs,
        heaviest first (artificials excluded)."""
        support: list[list[tuple[int, float]]] = [[] for _ in range(self.n_groups)]
        for idx in range(self.n_groups, self.n_columns):
            w = float(weights[idx])
            if w > 1e-9:
                support[self.col_group[idx]].append((self.col_target[idx], w))
        for entries in support:
            entries.sort(key=lambda tw: -tw[1])
        return support


class _GubSolver:
    """One GUB primal-simplex solve of a restricted master.

    Variables are the pool's columns, then the ``J`` capacity slacks.
    Each carries its cost, load, coupling row (``J`` for an artificial,
    which loads no site) and group (``G`` for a slack, which is in no
    convexity row); ``pi`` and ``mu`` are padded with a 0 at those
    indices, and ``W⁻¹`` with a zero column at ``J``, so no pass over
    the variables needs a branch.  ``basis`` holds the ``J`` non-keys,
    then the ``G`` keys, and ``xb`` their values in the same order.
    """

    def __init__(
        self,
        master: RestrictedMasterLP,
        keys: np.ndarray,
        nonkeys: np.ndarray,
        max_iterations: int,
    ) -> None:
        n, J, G = master.n_columns, master.capacities.shape[0], master.n_groups
        self.J, self.G, self.N = J, G, n + J
        self.max_iterations = max_iterations
        target = np.asarray(master.col_target, dtype=np.int64)
        self.cost = np.concatenate([np.asarray(master.col_cost, dtype=float), np.zeros(J)])
        self.load = np.concatenate([np.asarray(master.col_load, dtype=float), np.ones(J)])
        self.row = np.concatenate([np.where(target < 0, J, target), np.arange(J)])
        self.grp = np.concatenate([
            np.asarray(master.col_group, dtype=np.int64), np.full(J, G, dtype=np.int64),
        ])
        self.cap = master.capacities
        self.rhs_scale = 1.0 + max(float(np.abs(self.cap).max(initial=0.0)), 1.0)

        self.basis = np.concatenate([np.where(nonkeys < 0, n - 1 - nonkeys, nonkeys), keys])
        self.basic = np.zeros(self.N, dtype=bool)
        self.basic[self.basis] = True
        self.xb = np.zeros(J + G)
        self.winv = np.zeros((J, J + 1))
        self.pi = np.zeros(J + 1)
        self.mu = np.zeros(G + 1)
        self._updates = 0
        self.iterations = 0
        self.bland = False

    # -- working basis -----------------------------------------------------

    def _refactor(self) -> bool:
        """Invert ``W`` from the basis (a ``J × J`` inverse); recompute ``xb``."""
        J, G = self.J, self.G
        nonkeys, keys = self.basis[:J], self.basis[J:]
        cols = np.arange(J)
        w = np.zeros((J + 1, J))
        w[self.row[nonkeys], cols] = self.load[nonkeys]
        group = self.grp[nonkeys]
        own = group < G
        k = keys[group[own]]
        w[self.row[k], cols[own]] -= self.load[k]
        try:
            winv = np.linalg.inv(w[:J])
        except np.linalg.LinAlgError:
            return False
        if not np.isfinite(winv).all():
            return False
        self.winv[:, :J] = winv
        self._updates = 0
        rhs = self.cap - np.bincount(
            self.row[keys], weights=self.load[keys], minlength=J + 1
        )[:J]
        x = winv @ rhs
        self.xb[:J] = x
        self.xb[J:] = 1.0 - np.bincount(group, weights=x, minlength=G + 1)[:G]
        return True

    def _duals(self, cb: np.ndarray) -> None:
        """``pi`` and ``mu`` for basic costs ``cb`` (in ``basis`` order)."""
        J, G = self.J, self.G
        key_cost = np.append(cb[J:], 0.0)
        self.pi[:] = (cb[:J] - key_cost[self.grp[self.basis[:J]]]) @ self.winv
        keys = self.basis[J:]
        self.mu[:G] = cb[J:] - self.pi[self.row[keys]] * self.load[keys]

    def _reduced_costs(self, cost: np.ndarray) -> np.ndarray:
        return cost - self.pi[self.row] * self.load - self.mu[self.grp]

    def _price(self, d: np.ndarray) -> int | None:
        """Entering variable: Dantzig's most negative, or Bland's first."""
        d = np.where(self.basic, 0.0, d)
        if self.bland:
            elig = np.flatnonzero(d < -DJ_TOL)
            return int(elig[0]) if elig.size else None
        q = int(np.argmin(d))
        return q if d[q] < -DJ_TOL else None

    def _ftran(self, q: int) -> np.ndarray:
        """Rate of decrease of every basic per unit of ``q``, in ``basis`` order.

        The non-keys' part is ``W⁻¹`` times ``q``'s ``W``-column; a key
        decreases by its group's own decrease of the entering column
        minus the non-keys' rates in that group.
        """
        J, G = self.J, self.G
        alpha = self.winv[:, self.row[q]] * self.load[q]
        g = int(self.grp[q])
        if g < G:
            k = self.basis[J + g]
            alpha -= self.winv[:, self.row[k]] * self.load[k]
        a = np.empty(J + G)
        a[:J] = alpha
        a[J:] = -np.bincount(self.grp[self.basis[:J]], weights=alpha, minlength=G + 1)[:G]
        if g < G:
            a[J + g] += 1.0
        return a

    def _ratio_test(self, a: np.ndarray, phase1: bool) -> tuple[float, int] | None:
        """Two-pass (Harris) ratio test: ``(step, leaving position)``.

        Every basic has bounds ``[0, inf)``.  A decreasing basic blocks
        at 0; in phase 1 an infeasible one instead blocks when, rising,
        it reaches 0, and never when it falls further.
        """
        if phase1:
            block = np.where(self.xb < -FEAS_TOL, a < -PIV_TOL, a > PIV_TOL)
        else:
            block = a > PIV_TOL
        idx = np.flatnonzero(block)
        if idx.size == 0:
            return None
        rate = a[idx]
        gap = np.where(rate > 0, self.xb[idx], -self.xb[idx])
        adv = np.abs(rate)
        t_str = np.maximum(gap / adv, 0.0)
        tmax = float(np.maximum((gap + 1e-9) / adv, 0.0).min())
        cand = np.flatnonzero(t_str <= tmax)
        if cand.size == 0:
            cand = np.array([int(np.argmin(t_str))])
        if self.bland:
            # Among the minimum-ratio rows, the lowest variable index leaves.
            tmin = float(t_str[cand].min())
            tied = cand[t_str[cand] <= tmin + 1e-12]
            c = int(tied[np.argmin(self.basis[idx[tied]])])
        else:
            c = int(cand[np.argmax(adv[cand])])
        return float(t_str[c]), int(idx[c])

    def _pivot(self, q: int, a: np.ndarray, theta: float, r: int) -> bool:
        """Move ``theta`` along ``q`` and swap it in at position ``r``.

        False on a numerically bad pivot or a failed refactorization.
        """
        J = self.J
        ar = float(a[r])
        if abs(ar) < PIV_TOL:
            return False
        self.xb -= theta * a
        self.basic[self.basis[r]] = False
        self.basic[q] = True
        if r < J:
            self.basis[r] = q
            self.xb[r] = theta
            row = self.winv[r] / ar
            self.winv -= a[:J, None] * row
            self.winv[r] = row
            self._updates += 1
            return self._updates < REFACTOR_INTERVAL or self._refactor()
        g = r - J
        mates = np.flatnonzero(self.grp[self.basis[:J]] == g)
        if mates.size == 0:
            # The entering column was the group's only other basic: it
            # becomes the key, and no column of W refers to this key.
            self.basis[r] = q
            self.xb[r] = theta
            return True
        # The group's largest basic non-key takes over as key, the
        # entering column takes its place, and W is refactorized.
        i = int(mates[np.argmax(self.xb[mates])])
        self.basis[r] = self.basis[i]
        self.basis[i] = q
        return self._refactor()

    # -- phases --------------------------------------------------------------

    def _run_phase(self, phase: int) -> str:
        stall = 0
        self.bland = False
        zero_c = np.zeros(self.N)
        while True:
            if phase == 1:
                # Minimize the basics' infeasibility: cost -1 on each
                # basic below 0, and 0 on every nonbasic.
                below = self.xb < -FEAS_TOL
                if float(-self.xb[below].sum()) <= PHASE1_TOL:
                    return "feasible"
                self._duals(np.where(below, -1.0, 0.0))
                d = self._reduced_costs(zero_c)
            else:
                self._duals(self.cost[self.basis])
                d = self._reduced_costs(self.cost)
            q = self._price(d)
            if q is None:
                return "infeasible" if phase == 1 else "optimal"
            if self.iterations >= self.max_iterations:
                return "iteration_limit"
            a = self._ftran(q)
            step = self._ratio_test(a, phase == 1)
            if step is None:
                return "error" if phase == 1 else "unbounded"
            theta, r = step
            if not self._pivot(q, a, theta, r):
                # Bad pivot: refresh the factorization and retry once
                # from clean data; a second failure is terminal.
                if not self._refactor():
                    return "error"
                a = self._ftran(q)
                step = self._ratio_test(a, phase == 1)
                if step is None:
                    return "error" if phase == 1 else "unbounded"
                theta, r = step
                if not self._pivot(q, a, theta, r):
                    return "error"
            self.iterations += 1
            # Degeneracy watchdog: a long run of zero-length steps flips
            # pricing to Bland's rule, which cannot cycle; any real step
            # flips it back.
            if theta <= 1e-12:
                stall += 1
                if stall > 2 * (self.J + self.G):
                    self.bland = True
            else:
                stall = 0
                self.bland = False

    def _accurate(self) -> bool:
        """Gate: bounds within 1e-6, relative residuals within RESIDUAL_TOL."""
        J, G = self.J, self.G
        if float(self.xb.min(initial=0.0)) < -1e-6:
            return False
        basis, x = self.basis, self.xb
        row, grp, load = self.row[basis], self.grp[basis], self.load[basis]
        coupling = np.bincount(row, weights=load * x, minlength=J + 1)[:J] - self.cap
        convexity = np.bincount(grp, weights=x, minlength=G + 1)[:G] - 1.0
        primal = max(
            float(np.abs(coupling).max(initial=0.0)),
            float(np.abs(convexity).max(initial=0.0)),
        )
        cb = self.cost[basis]
        self._duals(cb)
        dual = float(np.abs(cb - self.pi[row] * load - self.mu[grp]).max(initial=0.0))
        return (
            primal / self.rhs_scale <= RESIDUAL_TOL
            and dual / (1.0 + float(np.abs(cb).max(initial=0.0))) <= RESIDUAL_TOL
        )

    def solve(self) -> str:
        if not self._refactor():
            return "error"
        for _attempt in range(4):
            status = self._run_phase(1)
            if status == "feasible":
                status = self._run_phase(2)
            if status != "optimal":
                return status
            if not self._refactor():
                return "error"
            if self._accurate():
                return "optimal"
        return "error"
