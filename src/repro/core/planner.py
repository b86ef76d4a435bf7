"""The eTransform planner facade (paper Fig. 5).

Wires the four components together: the transformation & consolidation
module (:mod:`repro.core.formulation`), the optimization engine
(:mod:`repro.lp`), the output-generation subroutine (extraction +
:func:`repro.core.plan.evaluate_plan`), and — via
:mod:`repro.core.iterative` — the admin interface for iterative
modification.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lp import SolveCache, SolveOptions, SolveStatus, solve, write_lp_file
from .formulation import ConsolidationModel, ModelOptions
from .entities import AsIsState
from .plan import TransformationPlan, evaluate_plan
from .validation import validate_plan, validate_state


class PlanningError(RuntimeError):
    """The optimizer failed to produce a usable plan."""


@dataclass
class PlannerOptions:
    """End-to-end planning options (model + solver).

    ``solve_options`` is the typed way to configure the solver (a
    :class:`repro.lp.SolveOptions`); the legacy ``solver_options`` dict
    (``time_limit``, ``mip_rel_gap``, ``node_limit``, ...) still works
    and is mapped onto the same record — set one or the other, not both.
    ``lp_export_path`` optionally dumps the model in CPLEX LP format
    before solving, mirroring the paper's LP-file hand-off.

    ``method`` selects the planning engine for :func:`repro.solve`
    (``"auto"``, ``"milp"``, ``"decomposition"`` or ``"greedy"``);
    ``jobs`` is the process fan-out the decomposition engine uses for
    block extraction and pricing (``<= 1`` stays in-process).
    """

    wan_model: str = "metered"
    economies_of_scale: bool = True
    enable_dr: bool = False
    dedicated_backups: bool = False
    backend: str = "auto"
    solver_options: dict = field(default_factory=dict)
    solve_options: SolveOptions | None = None
    lp_export_path: str | None = None
    validate_inputs: bool = True
    method: str = "auto"
    jobs: int = 1

    #: Planning engines :func:`repro.solve` accepts.
    METHODS = ("auto", "milp", "decomposition", "greedy")

    #: Option keys accepted from untrusted wire payloads (service API).
    WIRE_FIELDS = (
        "wan_model",
        "economies_of_scale",
        "enable_dr",
        "dedicated_backups",
        "backend",
        "solver_options",
        "method",
        "jobs",
    )

    #: Largest fan-out a wire payload may request (guards the service
    #: from a remote caller spawning unbounded worker processes).
    MAX_WIRE_JOBS = 64

    def __post_init__(self) -> None:
        if self.method not in self.METHODS:
            raise ValueError(
                f"unknown planning method {self.method!r} "
                f"(expected one of {', '.join(self.METHODS)})"
            )
        if isinstance(self.jobs, bool) or not isinstance(self.jobs, int):
            raise ValueError(
                f"jobs must be an integer, got {self.jobs!r}"
            )

    @classmethod
    def from_wire(cls, data: dict | None) -> "PlannerOptions":
        """Build options from a JSON payload, rejecting unknown keys.

        The planning service feeds request bodies through this; only the
        :data:`WIRE_FIELDS` subset is accepted — deliberately *not*
        ``lp_export_path`` (a remote caller must not name server-side
        files) nor ``validate_inputs``.
        """
        data = dict(data or {})
        unknown = sorted(set(data) - set(cls.WIRE_FIELDS))
        if unknown:
            raise ValueError(
                f"unknown planner option(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(cls.WIRE_FIELDS)})"
            )
        solver_options = data.pop("solver_options", {})
        if not isinstance(solver_options, dict):
            raise ValueError("solver_options must be an object")
        if "jobs" in data:
            jobs = data["jobs"]
            if isinstance(jobs, bool) or not isinstance(jobs, int):
                raise ValueError(f"jobs must be an integer, got {jobs!r}")
            if not 0 <= jobs <= cls.MAX_WIRE_JOBS:
                raise ValueError(
                    f"jobs must be between 0 and {cls.MAX_WIRE_JOBS}, got {jobs}"
                )
        return cls(solver_options=dict(solver_options), **data)

    def as_wire(self) -> dict:
        """The :data:`WIRE_FIELDS` subset as a JSON-safe dict."""
        return {
            "wan_model": self.wan_model,
            "economies_of_scale": self.economies_of_scale,
            "enable_dr": self.enable_dr,
            "dedicated_backups": self.dedicated_backups,
            "backend": self.backend,
            "solver_options": dict(self.solver_options),
            "method": self.method,
            "jobs": self.jobs,
        }

    def model_options(self) -> ModelOptions:
        return ModelOptions(
            wan_model=self.wan_model,
            economies_of_scale=self.economies_of_scale,
            enable_dr=self.enable_dr,
            dedicated_backups=self.dedicated_backups,
        )

    def resolved_solve_options(self) -> SolveOptions:
        """The typed solver options, folding in the legacy dict form."""
        if self.solve_options is not None:
            if self.solver_options:
                raise ValueError(
                    "set either solve_options or the legacy solver_options "
                    "dict, not both"
                )
            return self.solve_options
        return SolveOptions(**self.solver_options)


class ETransformPlanner:
    """Generate a "to-be" transformation plan from an "as-is" state.

    Example
    -------
    ::

        planner = ETransformPlanner(state, PlannerOptions(enable_dr=True))
        plan = planner.build_plan()
        print(plan.breakdown.total, plan.datacenters_used)
    """

    def __init__(self, state: AsIsState, options: PlannerOptions | None = None) -> None:
        self.state = state
        self.options = options or PlannerOptions()
        if self.options.validate_inputs:
            validate_state(state, require_dr_headroom=self.options.enable_dr)
        self.model = ConsolidationModel(state, self.options.model_options())
        self.last_solution = None

    def build_plan(self) -> TransformationPlan:
        """Build, solve and score the transformation plan (MILP path).

        This is the monolithic-MILP engine behind
        ``repro.solve(state, method="milp")``.

        Raises
        ------
        PlanningError
            When the model is infeasible or the solver fails.
        """
        return self.finish_plan(self.solve_model())

    def solve_model(self, cache: SolveCache | None = None):
        """Solve the built model and return the raw solution.

        ``cache`` routes the solve through a :class:`repro.lp.SolveCache`
        so a refinement session's re-solves can reuse previous work; the
        incremental engine (:mod:`repro.core.incremental`) passes the
        session cache here.
        """
        if self.options.lp_export_path:
            write_lp_file(self.model.problem, self.options.lp_export_path)

        solution = solve(
            self.model.problem,
            backend=self.options.backend,
            options=self.options.resolved_solve_options(),
            cache=cache,
        )
        self.last_solution = solution
        if solution.status is SolveStatus.INFEASIBLE:
            raise PlanningError(
                "the consolidation model is infeasible: total capacity, region "
                "constraints or the business-impact cap ω are too tight"
            )
        if not solution.status.has_solution:
            raise PlanningError(
                f"solver returned {solution.status.value}: {solution.message}"
            )
        return solution

    def finish_plan(self, solution, state: AsIsState | None = None) -> TransformationPlan:
        """Extract, evaluate and validate a plan from a solved model.

        ``state`` overrides the evaluation state — the incremental
        engine passes the directive-reduced state (retired sites
        filtered out) so incremental plans match the cold rebuild path
        bit-for-bit.
        """
        state = self.state if state is None else state
        placement = self.model.extract_placement(solution)
        secondary = (
            self.model.extract_secondary(solution) if self.options.enable_dr else {}
        )
        plan = evaluate_plan(
            state,
            placement,
            secondary=secondary,
            wan_model=self.options.wan_model,
            backup_sharing="dedicated" if self.options.dedicated_backups else "shared",
            solver=solution.solver,
            objective=solution.objective,
        )
        plan.solver_stats = solution.stats
        validate_plan(state, plan)
        return plan
