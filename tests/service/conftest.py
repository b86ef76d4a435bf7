"""Service-test fixtures: wire-format states and managed JobManagers.

The solver workload in every test is the shared ``tiny_state`` (solves
in milliseconds with HiGHS).  Tests that need a job to stay *running*
long enough to be killed, timed out or cancelled use a ``simulate`` job
whose horizon stretches the deterministic event loop — tunable duration
without touching the solver.
"""

from __future__ import annotations

import pytest

from repro.io.serialization import state_to_dict
from repro.service import JobManager, ServiceConfig

#: Simulation horizons (months) at mtbf 100h on tiny_state, calibrated
#: on the CI box: SLOW runs ~2s (killable mid-flight, finishes fast),
#: VERY_SLOW runs ~90s (never meant to finish inside a test).
SLOW_HORIZON = 20_000.0
VERY_SLOW_HORIZON = 600_000.0


def plan_payload(state_doc: dict, backend: str = "highs") -> dict:
    return {"state": state_doc, "options": {"backend": backend}}


def sim_payload(state_doc: dict, horizon: float, seed: int = 1) -> dict:
    return {
        "state": state_doc,
        "options": {"backend": "highs"},
        "simulation": {
            "horizon_months": horizon,
            "mtbf_hours": 100.0,
            "mttr_hours": 24.0,
            "seed": seed,
        },
    }


@pytest.fixture
def state_doc(tiny_state) -> dict:
    return state_to_dict(tiny_state)


@pytest.fixture
def make_manager():
    """Factory for started managers; everything is torn down hard."""
    managers: list[JobManager] = []

    def factory(**overrides) -> JobManager:
        settings = {
            "workers": 2,
            "job_timeout": 60.0,
            "retry_backoff": 0.05,
        }
        settings.update(overrides)
        manager = JobManager(ServiceConfig(**settings)).start()
        managers.append(manager)
        return manager

    yield factory
    for manager in managers:
        try:
            manager.shutdown(drain=False)
        except Exception:
            pass


@pytest.fixture
def manager(make_manager) -> JobManager:
    return make_manager()
