"""Counters, timers and the metrics registry."""

from __future__ import annotations

import pytest

from repro.telemetry import Counter, MetricsRegistry, Timer, metrics


class TestCounter:
    def test_increment_and_value(self):
        c = Counter("pivots")
        assert c.increment() == 1.0
        assert c.increment(4) == 5.0
        assert c.value == 5.0

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="forward"):
            Counter("x").increment(-1)

    def test_reset(self):
        c = Counter("x", value=3.0)
        c.reset()
        assert c.value == 0.0


class TestTimer:
    def test_context_manager_measures(self):
        with Timer() as t:
            sum(range(1000))
        assert t.elapsed >= 0.0
        assert not t.running

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError, match="never started"):
            Timer().stop()

    def test_running_flag(self):
        t = Timer().start()
        assert t.running
        t.stop()
        assert not t.running


class TestRegistry:
    def test_counter_is_memoized(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_increment_and_snapshot(self):
        reg = MetricsRegistry()
        reg.increment("b")
        reg.increment("a", 2)
        assert reg.snapshot() == {"a": 2.0, "b": 1.0}

    def test_reset_zeroes_all(self):
        reg = MetricsRegistry()
        reg.increment("a", 5)
        reg.reset()
        assert reg.snapshot() == {"a": 0.0}


class TestGlobalRegistry:
    def test_solves_are_counted(self):
        from repro.lp import Problem, solve

        before = metrics.counter("solves.total").value
        p = Problem()
        x = p.add_variable("x", ub=1.0)
        p.set_objective(-x)
        solve(p, backend="rounding")
        assert metrics.counter("solves.total").value == before + 1
        assert metrics.counter("solves.backend.rounding").value >= 1


class TestGauge:
    def test_moves_both_ways(self):
        from repro.telemetry import Gauge

        g = Gauge("queue.depth")
        assert g.set(4) == 4.0
        assert g.increment() == 5.0
        assert g.decrement(3) == 2.0
        g.reset()
        assert g.value == 0.0

    def test_registry_memoizes_and_snapshots(self):
        reg = MetricsRegistry()
        assert reg.gauge("depth") is reg.gauge("depth")
        reg.gauge("depth").set(7)
        reg.increment("jobs", 2)
        assert reg.snapshot() == {"depth": 7.0, "jobs": 2.0}


class TestHistogram:
    def test_observations_land_in_buckets(self):
        from repro.telemetry import Histogram

        h = Histogram("t", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.7, 30.0):
            h.observe(value)
        snap = h.as_dict()
        assert snap["count"] == 4
        assert snap["buckets"] == {"0.1": 1, "1.0": 2, "inf": 1}
        assert snap["mean"] == pytest.approx((0.05 + 0.5 + 0.7 + 30.0) / 4)

    def test_unsorted_buckets_rejected(self):
        from repro.telemetry import Histogram

        with pytest.raises(ValueError, match="sorted"):
            Histogram("t", buckets=(1.0, 0.1))
        with pytest.raises(ValueError, match="sorted"):
            Histogram("t", buckets=())

    def test_registry_observe_and_snapshot(self):
        reg = MetricsRegistry()
        reg.observe("solve", 0.02)
        reg.observe("solve", 0.03)
        snap = reg.histogram_snapshot()
        assert snap["solve"]["count"] == 2
        reg.reset()
        assert reg.histogram_snapshot()["solve"]["count"] == 0

    def test_empty_histogram_mean_is_zero(self):
        from repro.telemetry import Histogram

        assert Histogram("t").mean == 0.0


class TestDeclareCounters:
    """Mirror of the solver-backend registry's duplicate guard."""

    def test_duplicate_declaration_raises(self):
        from repro.telemetry import declare_counters, declared_counters

        declare_counters("tests.owner_a", ["tests.unique.counter"])
        assert declared_counters()["tests.unique.counter"] == "tests.owner_a"
        with pytest.raises(ValueError, match="already declared"):
            declare_counters("tests.owner_b", ["tests.unique.counter"])

    def test_failed_declaration_is_atomic(self):
        from repro.telemetry import declare_counters, declared_counters

        declare_counters("tests.owner_c", ["tests.atomic.taken"])
        with pytest.raises(ValueError, match="already declared"):
            declare_counters(
                "tests.owner_d", ["tests.atomic.fresh", "tests.atomic.taken"]
            )
        # The fresh name must not have been claimed by the failed call.
        assert "tests.atomic.fresh" not in declared_counters()

    def test_service_counters_are_declared_by_the_manager(self):
        import repro.service.manager as manager_module
        from repro.telemetry import declared_counters

        owners = declared_counters()
        for name in manager_module.SERVICE_COUNTERS:
            assert owners[name] == "repro.service.manager"

    def test_redeclaring_service_counters_raises(self):
        from repro.telemetry import declare_counters

        with pytest.raises(ValueError, match="already declared"):
            declare_counters("tests.intruder", ["service.jobs.submitted"])
