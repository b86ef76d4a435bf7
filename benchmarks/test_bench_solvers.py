"""Optimization-engine benchmarks: the substrate itself.

Timings of the from-scratch components against the HiGHS reference on
consolidation-shaped instances, plus the effect of cover cuts.  These are throughput benchmarks (pytest-benchmark runs them
repeatedly), unlike the run-once experiment benches.
"""

from __future__ import annotations

import pytest

from repro.core import ConsolidationModel, ModelOptions
from repro.datasets import load_enterprise1
from repro.lp import SolveOptions, SolveStatus, solve
from repro.lp.standard_form import to_matrix_form


@pytest.fixture(scope="module")
def small_model():
    state = load_enterprise1(scale=0.08)
    return ConsolidationModel(state, ModelOptions()).problem


@pytest.fixture(scope="module")
def medium_model():
    state = load_enterprise1(scale=0.3)
    return ConsolidationModel(state, ModelOptions()).problem


def test_bench_model_build(benchmark):
    state = load_enterprise1(scale=0.3)
    problem = benchmark(
        lambda: ConsolidationModel(state, ModelOptions()).problem
    )
    assert problem.num_variables > 100


def test_bench_matrix_conversion(benchmark, medium_model):
    form = benchmark(to_matrix_form, medium_model)
    assert form.c.shape[0] == medium_model.num_variables


def test_bench_highs_small(benchmark, small_model):
    sol = benchmark(lambda: solve(small_model, backend="highs"))
    assert sol.status is SolveStatus.OPTIMAL


def test_bench_branch_bound_small(benchmark, small_model):
    sol = benchmark(
        lambda: solve(
            small_model,
            backend="branch_bound",
            options=SolveOptions(node_limit=50_000),
        )
    )
    assert sol.status is SolveStatus.OPTIMAL


def test_bench_branch_bound_with_cuts_small(benchmark, small_model):
    sol = benchmark(
        lambda: solve(
            small_model,
            backend="branch_bound",
            options=SolveOptions(node_limit=50_000, cover_cut_rounds=3),
        )
    )
    assert sol.status is SolveStatus.OPTIMAL


def test_bench_highs_medium(benchmark, medium_model):
    sol = benchmark(lambda: solve(medium_model, backend="highs"))
    assert sol.status is SolveStatus.OPTIMAL


def test_bench_exactness_cross_check(benchmark, small_model):
    """The two exact backends agree on the same instance."""
    highs = benchmark.pedantic(
        lambda: solve(small_model, backend="highs"), rounds=1, iterations=1
    )
    bb = solve(small_model, backend="branch_bound")
    assert highs.objective == pytest.approx(bb.objective, rel=1e-6)
