"""Generic revised-simplex restricted master: the oracle for the GUB master.

The restricted master LP solved the way :mod:`repro.lp.master` solved it
before it kept one key column per group: the whole pool is assembled
as a ``J + G``-row :class:`~repro.lp.revised_simplex.SparseBoundedLP`
(capacity ``<=`` rows, then one convexity equality per group), every
column bounded by ``0 <= w <= 1``, and handed to
:func:`~repro.lp.revised_simplex.solve_bounded_lp`.  The first solve
starts from the crash basis (every capacity slack, plus per group its
first pool column if it fits the site's remaining capacity, else its
artificial); later solves remap the previous ``(basis, vstat)`` token
onto the extended column layout.

It shares the column pool with :class:`repro.lp.master.RestrictedMasterLP`
and overrides only :meth:`solve`, so both masters can be fed the same
columns and compared.
"""

from __future__ import annotations

import numpy as np

from repro.lp.master import MasterSolution, RestrictedMasterLP
from repro.lp.revised_simplex import AT_LOWER, BASIC, SparseBoundedLP, solve_bounded_lp
from repro.lp.sparse import CSCMatrix


class RevisedMasterLP(RestrictedMasterLP):
    """The pool of :class:`RestrictedMasterLP`, solved by the generic engine."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._warm: tuple[np.ndarray, np.ndarray] | None = None
        self._warm_ncols = 0

    def family(self) -> SparseBoundedLP:
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
        ub_indptr = np.zeros(ncols + 1, dtype=np.int64)
        np.cumsum(real.astype(np.int64), out=ub_indptr[1:])
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

    def remapped_warm(self, ncols: int) -> tuple[np.ndarray, np.ndarray] | None:
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

    def crash_basis(self, ncols: int) -> tuple[np.ndarray, np.ndarray]:
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

    def solve(self, max_iterations: int = 50000) -> MasterSolution:
        """Re-solve the restricted master over the current column pool."""
        ncols = self.n_columns
        family = self.family()
        warm = self.remapped_warm(ncols)
        reused = warm is not None
        result = solve_bounded_lp(
            family, np.zeros(ncols), np.ones(ncols),
            max_iterations=max_iterations,
            warm=warm if reused else self.crash_basis(ncols),
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
        weights = result.x
        return MasterSolution(
            status="optimal",
            objective=float(result.objective),
            weights=weights,
            capacity_duals=result.duals[:n_targets].copy(),
            convexity_duals=result.duals[n_targets:].copy(),
            iterations=result.iterations,
            warm_started=reused and result.warm_started,
            artificial_weight=float(weights[: self.n_groups].sum()),
        )
