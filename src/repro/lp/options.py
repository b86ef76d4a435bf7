"""Typed solver options: one validated record instead of scattered kwargs.

Historically every backend took ``**options`` and silently dropped the
flags it did not understand (``mip_rel_gap`` on ``branch_bound``,
``cover_cut_rounds`` on ``rounding``, ...).  :class:`SolveOptions` is the
replacement: a frozen dataclass carrying every knob any backend accepts,
plus a per-backend capability table so :func:`SolveOptions.validate_for`
can reject an option the chosen backend would ignore.  Built-in
backends take options only through this record; keyword options are
reserved for externally registered backends.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, fields
from typing import Mapping


@dataclass(frozen=True)
class SolveOptions:
    """Options for one :func:`repro.lp.solve` call.

    Attributes
    ----------
    time_limit:
        Wall-clock budget in seconds (``highs``, ``branch_bound``).
    mip_rel_gap:
        Relative optimality gap at which the MIP search may stop
        (``highs``).
    node_limit:
        Branch-and-bound node budget (``branch_bound``).
    gap_tolerance:
        Absolute incumbent/bound gap at which ``branch_bound`` declares
        optimality.
    max_iterations:
        Simplex pivot budget per LP relaxation on the builtin engine
        (``branch_bound``, ``rounding``).
    relaxation_engine:
        Which LP engine solves relaxations (``branch_bound``,
        ``rounding``): ``"highs"`` or ``"builtin"`` (the sparse revised
        simplex, re-entering warm nodes through the dual simplex).
        Both run the array presolve once per tree.
    cover_cut_rounds:
        Rounds of root knapsack cover cuts (``branch_bound``).
    warm_start:
        Variable-name → value hint from a previous, closely related
        solve.  ``branch_bound`` seeds its incumbent from it when the
        point is feasible; ``highs`` accepts but ignores it (SciPy's
        ``milp`` exposes no solution hint) — accepted everywhere so an
        incremental caller need not special-case backends.
    """

    time_limit: float | None = None
    mip_rel_gap: float | None = None
    node_limit: int = 200000
    gap_tolerance: float = 1e-6
    max_iterations: int = 20000
    relaxation_engine: str = "highs"
    cover_cut_rounds: int = 0
    warm_start: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.mip_rel_gap is not None and self.mip_rel_gap < 0:
            raise ValueError("mip_rel_gap cannot be negative")
        if self.node_limit <= 0:
            raise ValueError("node_limit must be positive")
        if self.gap_tolerance < 0:
            raise ValueError("gap_tolerance cannot be negative")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.relaxation_engine not in ("highs", "builtin"):
            raise ValueError(
                f"unknown relaxation engine {self.relaxation_engine!r}; "
                "expected 'highs' or 'builtin'"
            )
        if self.cover_cut_rounds < 0:
            raise ValueError("cover_cut_rounds cannot be negative")

    # -- per-backend validation -------------------------------------------

    def non_default_fields(self) -> dict[str, object]:
        """Fields that differ from their defaults (what the caller set)."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out

    def validate_for(self, backend: str) -> "SolveOptions":
        """Raise ``ValueError`` if a set option is meaningless for ``backend``.

        Unknown backends (externally registered) accept everything — the
        capability table only covers the built-in solvers.  Returns
        ``self`` so calls chain.
        """
        supported = BACKEND_OPTION_FIELDS.get(backend)
        if supported is None:
            return self
        rejected = [
            name for name in self.non_default_fields() if name not in supported
        ]
        if rejected:
            raise ValueError(
                f"option(s) {', '.join(sorted(rejected))} are not supported by "
                f"backend {backend!r}; supported options: "
                f"{', '.join(sorted(supported))}"
            )
        return self

    def replace(self, **changes) -> "SolveOptions":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def as_kwargs(self) -> dict[str, object]:
        """Non-default fields as a keyword dict (for custom backends)."""
        return self.non_default_fields()


#: Which :class:`SolveOptions` fields each built-in backend honours.
#: ``auto`` accepts the union of its delegates; when it falls back from
#: HiGHS to the builtin stack, HiGHS-only fields are dropped explicitly
#: (see ``repro.lp.solvers._solve_auto``), never silently mid-backend.
BACKEND_OPTION_FIELDS: dict[str, frozenset[str]] = {
    "highs": frozenset({"time_limit", "mip_rel_gap", "warm_start"}),
    "branch_bound": frozenset(
        {
            "time_limit",
            "node_limit",
            "gap_tolerance",
            "max_iterations",
            "relaxation_engine",
            "cover_cut_rounds",
            "warm_start",
        }
    ),
    "rounding": frozenset({"relaxation_engine", "max_iterations", "warm_start"}),
    "auto": frozenset(
        {
            "time_limit",
            "mip_rel_gap",
            "node_limit",
            "gap_tolerance",
            "max_iterations",
            "relaxation_engine",
            "cover_cut_rounds",
            "warm_start",
        }
    ),
}
