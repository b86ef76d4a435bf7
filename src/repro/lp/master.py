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
:mod:`repro.core.decomposition`, solved with the builtin sparse revised
simplex (:mod:`repro.lp.revised_simplex`), warm-started across
re-solves by remapping the previous ``(basis, vstat)`` token onto the
extended column layout, and exposing the row duals the simplex now
reports (capacity duals :math:`\\pi_j \\le 0`, convexity duals
:math:`\\mu_g`).

One artificial column per convexity row (big-M cost, no capacity
footprint) keeps every restricted master feasible regardless of which
placement columns have been generated yet.

The first solve does not cold-start from the all-slack basis, which is
primal infeasible in every convexity row (``b = 1`` against a fixed
slack) and would spend one phase-1 pivot per group restoring
feasibility.  It starts instead from a *crash* basis: every capacity
slack, plus one column per group — the group's first placement column
in the pool (the seeded cheapest site) when its load fits what is left
of that site's capacity, else the group's artificial.  That basis is
``[[I, L], [0, I]]`` (unit upper triangular, so nonsingular) and primal
feasible by construction, so phase 1 does no work; it goes through the
ordinary ``warm=`` token of :func:`~repro.lp.revised_simplex.solve_bounded_lp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .revised_simplex import AT_LOWER, BASIC, SparseBoundedLP, solve_bounded_lp
from .sparse import CSCMatrix


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
        self._warm: tuple[np.ndarray, np.ndarray] | None = None
        self._warm_ncols = 0
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

    # -- assembly ----------------------------------------------------------

    def _family(self) -> SparseBoundedLP:
        """Assemble the current pool as a :class:`SparseBoundedLP`.

        Rows: the ``J`` capacity ``<=`` rows, then the ``G`` convexity
        equalities.  Every column has at most one nonzero per block, so
        both CSC matrices are built directly from the parallel arrays.
        """
        ncols = self.n_columns
        n_targets = self.capacities.shape[0]
        group = np.asarray(self.col_group, dtype=np.int64)
        target = np.asarray(self.col_target, dtype=np.int64)
        load = np.asarray(self.col_load, dtype=float)

        real = target >= 0
        ub_counts = real.astype(np.int64)
        ub_indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(ub_counts, out=ub_indptr[1:])
        a_ub = CSCMatrix(
            shape=(n_targets, ncols),
            indptr=ub_indptr,
            indices=target[real].copy(),
            data=load[real].copy(),
        )
        a_eq = CSCMatrix(
            shape=(self.n_groups, ncols),
            indptr=np.arange(ncols + 1, dtype=np.int64),
            indices=group.copy(),
            data=np.ones(ncols),
        )
        return SparseBoundedLP(
            c=np.asarray(self.col_cost, dtype=float),
            a_ub=a_ub,
            b_ub=self.capacities,
            a_eq=a_eq,
            b_eq=np.ones(self.n_groups),
        )

    def _remapped_warm(self, ncols: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Shift the cached warm token onto the extended column layout.

        Structural indices are stable (columns are only appended); slack
        indices move by the number of columns added since the token was
        taken, and the new columns enter nonbasic at their lower bound.
        """
        if self._warm is None:
            return None
        basis, vstat = self._warm
        added = ncols - self._warm_ncols
        if added == 0:
            return basis, vstat
        basis = np.where(basis >= self._warm_ncols, basis + added, basis)
        vstat = np.concatenate([
            vstat[: self._warm_ncols],
            np.full(added, AT_LOWER, dtype=vstat.dtype),
            vstat[self._warm_ncols :],
        ])
        return basis, vstat

    def _crash_basis(self, ncols: int) -> tuple[np.ndarray, np.ndarray]:
        """A primal-feasible starting token for the first solve.

        Basic: every capacity slack, then one column per convexity row —
        the group's first placement column in pool order if its load
        fits the site's remaining capacity, else its artificial.
        """
        n_targets = self.capacities.shape[0]
        remaining = self.capacities.copy()
        chosen = list(range(self.n_groups))  # artificials by default
        seen = [False] * self.n_groups
        for idx in range(self.n_groups, ncols):
            g = self.col_group[idx]
            if seen[g]:
                continue
            seen[g] = True
            j, load = self.col_target[idx], self.col_load[idx]
            if load <= remaining[j]:
                remaining[j] -= load
                chosen[g] = idx
        basis = np.concatenate([
            np.arange(ncols, ncols + n_targets, dtype=np.int64),
            np.asarray(chosen, dtype=np.int64),
        ])
        vstat = np.full(ncols + n_targets + self.n_groups, AT_LOWER, dtype=np.int8)
        vstat[basis] = BASIC
        return basis, vstat

    # -- solve -------------------------------------------------------------

    def solve(self, max_iterations: int = 50000) -> MasterSolution:
        """Re-solve the restricted master over the current column pool."""
        ncols = self.n_columns
        family = self._family()
        lb = np.zeros(ncols)
        ub = np.ones(ncols)
        warm = self._remapped_warm(ncols)
        reused = warm is not None
        result = solve_bounded_lp(
            family, lb, ub,
            max_iterations=max_iterations,
            warm=warm if reused else self._crash_basis(ncols),
        )
        if result.status != "optimal":
            return MasterSolution(
                status=result.status, objective=float("nan"), weights=None,
                capacity_duals=None, convexity_duals=None,
                iterations=result.iterations,
            )
        self._warm = (result.basis, result.vstat)
        self._warm_ncols = ncols
        n_targets = self.capacities.shape[0]
        duals = result.duals
        weights = result.x
        return MasterSolution(
            status="optimal",
            objective=float(result.objective),
            weights=weights,
            capacity_duals=duals[:n_targets].copy(),
            convexity_duals=duals[n_targets:].copy(),
            iterations=result.iterations,
            warm_started=reused and result.warm_started,
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
