"""Public-API snapshot: fail loudly when the facade changes silently.

If a test here fails, the public surface changed.  That is sometimes
intended — then update the snapshot below *and* the docs
(``docs/architecture.md``, section "Incremental re-solve & the public
API") in the same commit.
"""

from __future__ import annotations

import dataclasses

import repro
from repro.lp import SolveOptions

PUBLIC_API = {
    "ApplicationGroup",
    "AsIsState",
    "ControllerConfig",
    "CostParameters",
    "DataCenter",
    "DirectiveConflictError",
    "ETransformPlanner",
    "IterativeSession",
    "JobManager",
    "LatencyPenaltyFunction",
    "METHODS",
    "MigrationConfig",
    "OnlineController",
    "PlanResult",
    "PlannerOptions",
    "ReplayConfig",
    "ServiceClient",
    "ServiceConfig",
    "SimulatorConfig",
    "SolveCache",
    "SolveOptions",
    "StepCostFunction",
    "TransformationPlan",
    "UserLocation",
    "__version__",
    "asis_plan",
    "asis_with_dr_plan",
    "evaluate_plan",
    "improve_plan",
    "latency_line_scenario",
    "load_enterprise1",
    "load_federal",
    "load_florida",
    "manual_plan",
    "plan_migration",
    "run_replay",
    "run_robustness",
    "run_sensitivity",
    "simulate_plan",
    "solve",
    "split_oversized_groups",
    "tradeoff_line_scenario",
}

LP_PUBLIC_API = {
    "CSCMatrix",
    "Constraint",
    "ConstraintBlocks",
    "LPParseError",
    "LinExpr",
    "MasterSolution",
    "ObjectiveSense",
    "Problem",
    "RestrictedMasterLP",
    "RevisedResult",
    "Sense",
    "Solution",
    "SolveCache",
    "SolveOptions",
    "SolveStats",
    "SolveStatus",
    "SparseBoundedLP",
    "VarType",
    "Variable",
    "available_backends",
    "constraint_blocks",
    "parse_lp_string",
    "payload_fingerprint",
    "problem_fingerprint",
    "quicksum",
    "read_lp_file",
    "register_backend",
    "solve",
    "solve_bounded_lp",
    "structure_fingerprint",
    "write_lp_file",
    "write_lp_string",
    "write_mps_file",
    "write_mps_string",
}

SOLVE_OPTION_FIELDS = {
    "time_limit",
    "mip_rel_gap",
    "node_limit",
    "gap_tolerance",
    "max_iterations",
    "relaxation_engine",
    "cover_cut_rounds",
    "node_resolve",
    "presolve",
    "warm_start",
}


class TestPublicSurface:
    def test_repro_all_matches_snapshot(self):
        assert set(repro.__all__) == PUBLIC_API

    def test_repro_lp_all_matches_snapshot(self):
        assert set(repro.lp.__all__) == LP_PUBLIC_API

    def test_everything_in_all_is_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_solve_options_fields_match_snapshot(self):
        fields = {f.name for f in dataclasses.fields(SolveOptions)}
        assert fields == SOLVE_OPTION_FIELDS

    def test_solve_options_is_frozen(self):
        opts = SolveOptions()
        with pytest_raises_frozen():
            opts.node_limit = 1

    def test_facade_names_resolve_to_canonical_objects(self):
        from repro.api import solve as deep_solve
        from repro.core.iterative import IterativeSession as deep_session
        from repro.lp.solvers import solve as lp_solve

        assert repro.IterativeSession is deep_session
        # repro.solve is now the unified *planning* entry point; the
        # LP-level solve stays reachable at repro.lp.solve.
        assert repro.solve is deep_solve
        assert repro.lp.solve is lp_solve


def pytest_raises_frozen():
    import pytest

    return pytest.raises(dataclasses.FrozenInstanceError)
