"""The :class:`SolveStats` record threaded through every solver backend.

One structured object describes what a solve *did* — simplex pivots,
branch-and-bound search progress, cut separation, presolve reductions,
wall-clock time — regardless of which backend produced it.  Backends
fill in the fields they know about and leave the rest at their
defaults; consumers (reports, traces, benchmarks) can therefore render
a single schema for every solver.

Related MILP studies report exactly these quantities (node counts,
optimality gaps, per-phase iteration counts) as first-class results;
this module is what lets the reproduction do the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


def _json_safe(value: Any) -> Any:
    """Map non-finite floats to ``None`` so records stay strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _from_json(value: Any, default: float) -> float:
    """Inverse of :func:`_json_safe`: ``None`` becomes ``default``."""
    return default if value is None else float(value)


@dataclass
class GapPoint:
    """One sample of the incumbent / best-bound trajectory."""

    nodes_explored: int
    best_bound: float
    incumbent: float
    elapsed_seconds: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "nodes_explored": self.nodes_explored,
            "best_bound": _json_safe(self.best_bound),
            "incumbent": _json_safe(self.incumbent),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GapPoint":
        """Inverse of :meth:`as_dict` (``None`` floats read back non-finite)."""
        return cls(
            nodes_explored=data["nodes_explored"],
            best_bound=_from_json(data.get("best_bound"), float("-inf")),
            incumbent=_from_json(data.get("incumbent"), float("nan")),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
        )


@dataclass
class SolveStats:
    """Structured search statistics for one solve.

    Field groups (all optional; backends fill what they measure):

    * **identity / timing** — ``backend``, ``elapsed_seconds``;
    * **LP / simplex** — total ``lp_iterations`` plus the two-phase
      split, Bland-rule switches and degenerate pivots;
    * **branch and bound** — nodes explored/pruned, cut rounds and cuts
      added, the proven ``best_bound``, the ``incumbent`` objective, the
      final relative ``mip_gap`` and the gap trajectory over the search;
    * **presolve** — array-presolve rows dropped, bounds tightened and
      fixpoint rounds.
    """

    backend: str = ""
    elapsed_seconds: float = 0.0

    # -- LP / simplex ------------------------------------------------------
    lp_iterations: int = 0
    phase1_iterations: int = 0
    phase2_iterations: int = 0
    bland_switches: int = 0
    degenerate_pivots: int = 0

    # -- node-relaxation hot path ------------------------------------------
    #: Wall clock spent converting to standard form across all node solves.
    conversion_seconds: float = 0.0
    #: Wall clock spent inside the LP engine across all node solves.
    relaxation_solve_seconds: float = 0.0
    #: Node solves that skipped phase 1 via the parent's basis.
    warm_start_hits: int = 0
    #: Node solves where the parent basis was stale and phase 1 reran.
    warm_start_misses: int = 0

    # -- revised simplex core ----------------------------------------------
    #: Basis refactorizations (LU rebuilds retiring the eta file).
    refactorizations: int = 0
    #: Total eta-file length retired across refactorizations.
    eta_file_length: int = 0
    #: Partial-pricing block scans across all pivots.
    pricing_passes: int = 0
    #: Nonbasic lower<->upper bound flips (pivots without a basis change).
    bound_flips: int = 0
    #: Node re-solves entered through the dual simplex.
    dual_entries: int = 0
    #: Dual-simplex pivots across those re-solves.
    dual_pivots: int = 0
    #: Dual entries that fell back to the primal engine.
    dual_fallbacks: int = 0

    # -- incremental warm path ---------------------------------------------
    #: 1 when this solve ran on a row-extended context instead of a rebuild.
    context_extended: int = 0
    #: 1 when the incumbent MIP start was repaired before seeding.
    hint_repaired: int = 0
    #: Wall clock the solve cache spent in its hint repairer, repaired or not.
    hint_repair_seconds: float = 0.0
    #: Dual re-entries that carried a bordered (extended) basis across
    #: a row append — the proof the extension kept the warm start alive.
    extension_dual_entries: int = 0

    # -- branch and bound --------------------------------------------------
    nodes_explored: int = 0
    nodes_pruned: int = 0
    cut_rounds: int = 0
    cuts_added: int = 0
    best_bound: float = float("-inf")
    incumbent: float = float("nan")
    mip_gap: float = float("nan")
    gap_trajectory: list[GapPoint] = field(default_factory=list)

    # -- presolve ----------------------------------------------------------
    presolve_dropped_constraints: int = 0
    presolve_tightened_bounds: int = 0
    presolve_rounds: int = 0

    #: Free-form backend extras (e.g. native solver node counts).
    extra: dict[str, float] = field(default_factory=dict)

    def relative_gap(self) -> float:
        """Relative incumbent / best-bound gap (``nan`` when unknown)."""
        if not math.isfinite(self.incumbent) or not math.isfinite(self.best_bound):
            return float("nan")
        return abs(self.incumbent - self.best_bound) / max(1.0, abs(self.incumbent))

    def merge_presolve(
        self,
        dropped_constraints: int = 0,
        tightened_bounds: int = 0,
        rounds: int = 0,
    ) -> "SolveStats":
        """Fold presolve reductions into this record (returns ``self``)."""
        self.presolve_dropped_constraints += dropped_constraints
        self.presolve_tightened_bounds += tightened_bounds
        self.presolve_rounds += rounds
        return self

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe dict (non-finite floats become ``None``)."""
        return {
            "backend": self.backend,
            "elapsed_seconds": self.elapsed_seconds,
            "lp_iterations": self.lp_iterations,
            "phase1_iterations": self.phase1_iterations,
            "phase2_iterations": self.phase2_iterations,
            "bland_switches": self.bland_switches,
            "degenerate_pivots": self.degenerate_pivots,
            "conversion_seconds": self.conversion_seconds,
            "relaxation_solve_seconds": self.relaxation_solve_seconds,
            "warm_start_hits": self.warm_start_hits,
            "warm_start_misses": self.warm_start_misses,
            "refactorizations": self.refactorizations,
            "eta_file_length": self.eta_file_length,
            "pricing_passes": self.pricing_passes,
            "bound_flips": self.bound_flips,
            "dual_entries": self.dual_entries,
            "dual_pivots": self.dual_pivots,
            "dual_fallbacks": self.dual_fallbacks,
            "context_extended": self.context_extended,
            "hint_repaired": self.hint_repaired,
            "hint_repair_seconds": self.hint_repair_seconds,
            "extension_dual_entries": self.extension_dual_entries,
            "nodes_explored": self.nodes_explored,
            "nodes_pruned": self.nodes_pruned,
            "cut_rounds": self.cut_rounds,
            "cuts_added": self.cuts_added,
            "best_bound": _json_safe(self.best_bound),
            "incumbent": _json_safe(self.incumbent),
            "mip_gap": _json_safe(self.mip_gap),
            "gap_trajectory": [p.as_dict() for p in self.gap_trajectory],
            "presolve_dropped_constraints": self.presolve_dropped_constraints,
            "presolve_tightened_bounds": self.presolve_tightened_bounds,
            "presolve_rounds": self.presolve_rounds,
            "extra": {k: _json_safe(v) for k, v in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SolveStats":
        """Inverse of :meth:`as_dict`, so stats survive a JSON round-trip.

        ``None`` floats (the JSON spelling of non-finite values) read
        back as the field's non-finite default: ``-inf`` for
        ``best_bound``, ``nan`` for ``incumbent`` / ``mip_gap`` and for
        ``extra`` values.  Missing keys keep their dataclass defaults,
        so records written by older builds still load.
        """
        stats = cls(
            backend=data.get("backend", ""),
            elapsed_seconds=data.get("elapsed_seconds", 0.0),
            lp_iterations=data.get("lp_iterations", 0),
            phase1_iterations=data.get("phase1_iterations", 0),
            phase2_iterations=data.get("phase2_iterations", 0),
            bland_switches=data.get("bland_switches", 0),
            degenerate_pivots=data.get("degenerate_pivots", 0),
            conversion_seconds=data.get("conversion_seconds", 0.0),
            relaxation_solve_seconds=data.get("relaxation_solve_seconds", 0.0),
            warm_start_hits=data.get("warm_start_hits", 0),
            warm_start_misses=data.get("warm_start_misses", 0),
            refactorizations=data.get("refactorizations", 0),
            eta_file_length=data.get("eta_file_length", 0),
            pricing_passes=data.get("pricing_passes", 0),
            bound_flips=data.get("bound_flips", 0),
            dual_entries=data.get("dual_entries", 0),
            dual_pivots=data.get("dual_pivots", 0),
            dual_fallbacks=data.get("dual_fallbacks", 0),
            context_extended=data.get("context_extended", 0),
            hint_repaired=data.get("hint_repaired", 0),
            hint_repair_seconds=data.get("hint_repair_seconds", 0.0),
            extension_dual_entries=data.get("extension_dual_entries", 0),
            nodes_explored=data.get("nodes_explored", 0),
            nodes_pruned=data.get("nodes_pruned", 0),
            cut_rounds=data.get("cut_rounds", 0),
            cuts_added=data.get("cuts_added", 0),
            best_bound=_from_json(data.get("best_bound"), float("-inf")),
            incumbent=_from_json(data.get("incumbent"), float("nan")),
            mip_gap=_from_json(data.get("mip_gap"), float("nan")),
            gap_trajectory=[
                GapPoint.from_dict(p) for p in data.get("gap_trajectory", [])
            ],
            presolve_dropped_constraints=data.get("presolve_dropped_constraints", 0),
            presolve_tightened_bounds=data.get("presolve_tightened_bounds", 0),
            presolve_rounds=data.get("presolve_rounds", 0),
        )
        stats.extra = {
            k: _from_json(v, float("nan")) for k, v in data.get("extra", {}).items()
        }
        return stats
