"""eTransform — automated transformation and consolidation planning for
enterprise data centers.

A from-scratch reproduction of *"eTransform: Transforming Enterprise
Data Centers by Automated Consolidation"* (Singh, Shenoy, Ramakrishnan,
Kelkar, Vin — ICDCS 2012), including its optimization-engine substrate,
the manual/greedy comparison baselines, synthetic versions of the three
case-study datasets, and a harness for every table and figure of the
paper's evaluation.

Quick start::

    from repro import load_enterprise1, solve

    state = load_enterprise1()
    result = solve(state, method="auto")
    print(result.plan.breakdown.total, result.method, result.gap)

The planning surface is exported here so users never need deep module
paths: :func:`solve` is the unified planning entry point (``method`` of
``"auto"``, ``"milp"``, ``"decomposition"`` or ``"greedy"``, returning
a typed :class:`PlanResult`), :class:`ETransformPlanner` /
:class:`PlannerOptions` the full facade, :class:`IterativeSession` the
admin refinement loop, and :class:`SolveOptions` the knobs for the
optimization engine underneath.  LP-level models are solved with
``repro.lp.solve``.
"""

from .core import (
    ApplicationGroup,
    AsIsState,
    CostParameters,
    DataCenter,
    DirectiveConflictError,
    ETransformPlanner,
    IterativeSession,
    LatencyPenaltyFunction,
    PlannerOptions,
    StepCostFunction,
    TransformationPlan,
    UserLocation,
    evaluate_plan,
)
from .api import METHODS, PlanResult, solve
from .lp import SolveCache, SolveOptions
from .analysis import run_robustness, run_sensitivity
from .baselines import asis_plan, asis_with_dr_plan, manual_plan
from .core import improve_plan, split_oversized_groups
from .migration import MigrationConfig, plan_migration
from .online import ControllerConfig, OnlineController, ReplayConfig, run_replay
from .service import JobManager, ServiceClient, ServiceConfig
from .sim import SimulatorConfig, simulate_plan
from .datasets import (
    latency_line_scenario,
    load_enterprise1,
    load_federal,
    load_florida,
    tradeoff_line_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "ApplicationGroup",
    "AsIsState",
    "CostParameters",
    "DataCenter",
    "DirectiveConflictError",
    "ETransformPlanner",
    "IterativeSession",
    "LatencyPenaltyFunction",
    "METHODS",
    "PlanResult",
    "PlannerOptions",
    "SolveCache",
    "SolveOptions",
    "StepCostFunction",
    "TransformationPlan",
    "UserLocation",
    "__version__",
    "ControllerConfig",
    "JobManager",
    "MigrationConfig",
    "OnlineController",
    "ReplayConfig",
    "ServiceClient",
    "ServiceConfig",
    "SimulatorConfig",
    "asis_plan",
    "asis_with_dr_plan",
    "evaluate_plan",
    "improve_plan",
    "plan_migration",
    "run_replay",
    "run_robustness",
    "run_sensitivity",
    "simulate_plan",
    "solve",
    "split_oversized_groups",
    "latency_line_scenario",
    "load_enterprise1",
    "load_federal",
    "load_florida",
    "manual_plan",
    "tradeoff_line_scenario",
]
