"""Optimization-engine substrate: modeling layer, solvers, LP-file I/O.

This subpackage is a self-contained miniature of the modeling-plus-solver
stack the paper builds on (Python modeling layer + CPLEX).  Typical use::

    from repro.lp import Problem, quicksum, solve

    prob = Problem("toy")
    x = prob.add_binary("x")
    y = prob.add_binary("y")
    prob.add_constraint(x + y <= 1)
    prob.set_objective(-(2 * x + 3 * y))
    solution = solve(prob, backend="branch_bound")

Backends (:func:`available_backends`): ``highs``, ``branch_bound``,
``rounding`` and ``auto``.  The from-scratch backends solve every LP
relaxation through one path, :class:`~repro.lp.matrix_lp.RelaxationContext`:
array presolve, then the sparse revised simplex (warm nodes re-enter
through the dual simplex) or HiGHS, per ``SolveOptions.relaxation_engine``.
"""

from ..telemetry import SolveStats
from .expressions import Constraint, LinExpr, Sense, Variable, VarType, quicksum
from .fingerprint import (
    payload_fingerprint,
    problem_fingerprint,
    structure_fingerprint,
)
from .lpformat import write_lp_file, write_lp_string
from .lpparse import LPParseError, parse_lp_string, read_lp_file
from .master import MasterSolution, RestrictedMasterLP
from .mpsformat import write_mps_file, write_mps_string
from .options import SolveOptions
from .problem import ObjectiveSense, Problem
from .revised_simplex import RevisedResult, SparseBoundedLP, solve_bounded_lp
from .solution import Solution, SolveStatus
from .solvers import SolveCache, available_backends, register_backend, solve
from .sparse import CSCMatrix, ConstraintBlocks, constraint_blocks

__all__ = [
    "CSCMatrix",
    "Constraint",
    "ConstraintBlocks",
    "LPParseError",
    "LinExpr",
    "MasterSolution",
    "RestrictedMasterLP",
    "RevisedResult",
    "SparseBoundedLP",
    "constraint_blocks",
    "solve_bounded_lp",
    "ObjectiveSense",
    "Problem",
    "SolveCache",
    "SolveOptions",
    "payload_fingerprint",
    "problem_fingerprint",
    "structure_fingerprint",
    "parse_lp_string",
    "read_lp_file",
    "Sense",
    "Solution",
    "SolveStats",
    "SolveStatus",
    "Variable",
    "VarType",
    "available_backends",
    "quicksum",
    "register_backend",
    "solve",
    "write_lp_file",
    "write_lp_string",
    "write_mps_file",
    "write_mps_string",
]
