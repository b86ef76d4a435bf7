"""eTransform core: entities, cost models, MILP formulation, planner."""

from .costs import StepCostFunction, PriceSegment, monthly_power_cost_per_kw
from .decomposition import (
    DecompositionConfig,
    DecompositionError,
    DecompositionOutcome,
    extract_group_blocks,
    solve_decomposition,
)
from .entities import (
    ApplicationGroup,
    AsIsState,
    CostParameters,
    DataCenter,
    UserLocation,
)
from .formulation import ConsolidationModel, InfeasibleModelError, ModelOptions
from .incremental import Directive, Revision, RevisionedModel
from .iterative import DirectiveConflictError, IterativeSession
from .latency import NO_PENALTY, LatencyPenaltyFunction, PenaltyStep
from .local_search import LocalSearchResult, improve_plan
from .plan import (
    CostBreakdown,
    DataCenterUsage,
    TransformationPlan,
    dedicated_backup_requirements,
    evaluate_plan,
    shared_backup_requirements,
)
from .planner import ETransformPlanner, PlannerOptions, PlanningError
from .splitting import (
    SplitRecord,
    SplitResult,
    merge_placement,
    split_oversized_groups,
)
from .validation import (
    PlanValidationError,
    StateValidationError,
    validate_plan,
    validate_state,
)

__all__ = [
    "ApplicationGroup",
    "AsIsState",
    "ConsolidationModel",
    "CostBreakdown",
    "CostParameters",
    "DataCenter",
    "DataCenterUsage",
    "DecompositionConfig",
    "DecompositionError",
    "DecompositionOutcome",
    "Directive",
    "DirectiveConflictError",
    "Revision",
    "RevisionedModel",
    "ETransformPlanner",
    "InfeasibleModelError",
    "IterativeSession",
    "LatencyPenaltyFunction",
    "LocalSearchResult",
    "ModelOptions",
    "NO_PENALTY",
    "PenaltyStep",
    "PlanValidationError",
    "PlannerOptions",
    "PlanningError",
    "PriceSegment",
    "SplitRecord",
    "SplitResult",
    "StateValidationError",
    "StepCostFunction",
    "TransformationPlan",
    "UserLocation",
    "merge_placement",
    "split_oversized_groups",
    "dedicated_backup_requirements",
    "evaluate_plan",
    "extract_group_blocks",
    "solve_decomposition",
    "improve_plan",
    "monthly_power_cost_per_kw",
    "shared_backup_requirements",
    "validate_plan",
    "validate_state",
]
