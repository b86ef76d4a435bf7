"""Estate simulator semantics, driven by hand-crafted outage scripts."""

from __future__ import annotations

import pytest

import repro
from repro import PlannerOptions
from repro.core import evaluate_plan
from repro.sim import (
    FailureModelConfig,
    Outage,
    SimulatorConfig,
    compare_resilience,
    simulate_plan,
)
from repro.sim.failures import HOURS_PER_MONTH

CONFIG = SimulatorConfig(horizon_months=1.0, failover_hours=0.5)
HORIZON = CONFIG.horizon_months * HOURS_PER_MONTH


@pytest.fixture
def dr_plan(tiny_state):
    placement = {"erp": "mid", "web": "mid", "batch": "cheap-far", "bi": "cheap-far"}
    secondary = {g: "east-dc" for g in placement}
    return evaluate_plan(tiny_state, placement, secondary=secondary)


@pytest.fixture
def bare_plan(tiny_state):
    placement = {g.name: "mid" for g in tiny_state.app_groups}
    return evaluate_plan(tiny_state, placement)


class TestNoOutages:
    def test_perfect_availability(self, tiny_state, dr_plan):
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=[])
        assert report.outages == 0
        assert report.mean_availability == 1.0
        assert report.total_failovers == 0


class TestFailover:
    def test_single_failure_fails_over(self, tiny_state, dr_plan):
        outages = [Outage("mid", 100.0, 200.0)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        assert report.outages == 1
        # erp and web fail over; batch and bi are untouched.
        assert report.groups["erp"].failovers == 1
        assert report.groups["web"].failovers == 1
        assert report.groups["batch"].failovers == 0
        # Downtime is just the failover blip.
        assert report.groups["erp"].downtime_hours == pytest.approx(0.5)
        assert report.groups["erp"].failbacks == 1

    def test_no_dr_means_down_for_the_outage(self, tiny_state, bare_plan):
        outages = [Outage("mid", 100.0, 200.0)]
        report = simulate_plan(tiny_state, bare_plan, CONFIG, outages=outages)
        for g in ("erp", "web", "batch", "bi"):
            assert report.groups[g].downtime_hours == pytest.approx(100.0)
            assert report.groups[g].failovers == 0

    def test_availability_math(self, tiny_state, bare_plan):
        outages = [Outage("mid", 0.0, HORIZON / 2)]
        report = simulate_plan(tiny_state, bare_plan, CONFIG, outages=outages)
        assert report.mean_availability == pytest.approx(0.5)

    def test_outage_open_at_horizon(self, tiny_state, bare_plan):
        outages = [Outage("mid", HORIZON - 10.0, HORIZON)]
        report = simulate_plan(tiny_state, bare_plan, CONFIG, outages=outages)
        assert report.groups["erp"].downtime_hours == pytest.approx(10.0)


class TestPoolLimits:
    def test_pool_exhaustion_denies_failover(self, tiny_state, dr_plan):
        # Shared pool at east-dc = max(70, 85) = 85 servers.  A double
        # failure needs 155 and must produce a shortfall.
        outages = [
            Outage("mid", 100.0, 300.0),
            Outage("cheap-far", 150.0, 250.0),
        ]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        assert report.concurrent_failure_peak == 2
        assert report.shortfalls  # pool could not absorb both sites
        denied = sum(g.denied_failovers for g in report.groups.values())
        assert denied >= 1

    def test_single_failures_never_shortfall(self, tiny_state, dr_plan):
        # Sequential (non-overlapping) failures are exactly what the
        # shared pool was sized for.
        outages = [
            Outage("mid", 100.0, 150.0),
            Outage("cheap-far", 200.0, 250.0),
        ]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        assert not report.shortfalls
        assert report.total_failovers == 4

    def test_secondary_site_failure_drops_refugees(self, tiny_state, dr_plan):
        outages = [
            Outage("mid", 100.0, 400.0),
            Outage("east-dc", 200.0, 300.0),  # refuge fails underneath them
        ]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        # erp/web fail over at t=100, go down at t=200 when east-dc dies,
        # and only return when mid repairs at t=400.
        assert report.groups["erp"].downtime_hours == pytest.approx(0.5 + 200.0)


class TestValidationAndComparison:
    def test_unknown_outage_site_rejected(self, tiny_state, dr_plan):
        with pytest.raises(ValueError, match="not used by the plan"):
            simulate_plan(
                tiny_state, dr_plan, CONFIG, outages=[Outage("ghost", 0.0, 1.0)]
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulatorConfig(horizon_months=0)
        with pytest.raises(ValueError):
            SimulatorConfig(failover_hours=-1)

    def test_dr_plan_beats_bare_plan(self, tiny_state):
        dr = repro.solve(
            tiny_state,
            method="milp",
            options=PlannerOptions(enable_dr=True, backend="highs"),
        ).plan
        bare = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        config = SimulatorConfig(
            horizon_months=240.0,
            failure=FailureModelConfig(mtbf_hours=4000.0, mttr_hours=96.0, seed=11),
        )
        reports = compare_resilience(tiny_state, {"dr": dr, "bare": bare}, config)
        assert reports["dr"].mean_availability >= reports["bare"].mean_availability
        assert reports["dr"].total_failovers > 0

    def test_report_summary_text(self, tiny_state, dr_plan):
        outages = [Outage("mid", 100.0, 200.0)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        text = report.summary()
        assert "availability" in text
        assert "failovers" in text

    def test_sampled_simulation_runs(self, tiny_state, dr_plan):
        config = SimulatorConfig(
            horizon_months=120.0,
            failure=FailureModelConfig(mtbf_hours=2000.0, mttr_hours=48.0, seed=5),
        )
        report = simulate_plan(tiny_state, dr_plan, config)
        assert report.outages > 0
        assert 0.0 < report.mean_availability <= 1.0


class TestBlipEdgeCases:
    """Regressions for the failover-blip accounting rewrite.

    The blip used to be charged to downtime up front and *pre-subtracted*
    from secondary hours, which went negative (then was clamped, inflating
    accounted hours past the horizon) whenever the outage was shorter than
    the blip or the secondary died mid-blip.  The blip is now an explicit
    interval, so every hour lands in exactly one bucket.
    """

    def test_outage_shorter_than_blip(self, tiny_state, dr_plan):
        # 0.2 h outage with a 0.5 h blip: the group fails straight back
        # mid-blip.  Downtime is the outage, not the full blip, and
        # secondary hours are exactly zero — never negative.
        outages = [Outage("mid", 100.0, 100.2)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        erp = report.groups["erp"]
        assert erp.downtime_hours == pytest.approx(0.2)
        assert erp.secondary_hours == 0.0
        assert erp.failovers == 1
        assert erp.failbacks == 1
        total = erp.primary_hours + erp.secondary_hours + erp.downtime_hours
        assert total == pytest.approx(HORIZON)

    def test_stale_completion_after_failback_is_ignored(self, tiny_state, dr_plan):
        # The FAILOVER_COMPLETE scheduled for the aborted blip above
        # fires at t=100.5 while the group already serves from its
        # repaired primary; it must not flip the group to "secondary".
        outages = [Outage("mid", 100.0, 100.2)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        erp = report.groups["erp"]
        assert erp.primary_hours == pytest.approx(HORIZON - 0.2)

    def test_secondary_fails_mid_blip(self, tiny_state, dr_plan):
        # The refuge dies 0.2 h into a 0.5 h blip: the group is down for
        # the whole primary outage, with no secondary service at all and
        # no inflated accounting.
        outages = [
            Outage("mid", 100.0, 300.0),
            Outage("east-dc", 100.2, 150.0),
        ]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        erp = report.groups["erp"]
        assert erp.secondary_hours == 0.0
        assert erp.downtime_hours == pytest.approx(200.0)
        assert erp.failovers == 1
        total = erp.primary_hours + erp.secondary_hours + erp.downtime_hours
        assert total == pytest.approx(HORIZON)

    def test_blip_open_at_horizon(self, tiny_state, dr_plan):
        # Failover starts 0.5 h before the horizon; the completion lands
        # exactly *at* the horizon and is never processed.  The open
        # blip closes as downtime and the partition still holds.
        outages = [Outage("mid", HORIZON - 0.5, HORIZON)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        erp = report.groups["erp"]
        assert erp.downtime_hours == pytest.approx(0.5)
        assert erp.secondary_hours == 0.0
        total = erp.primary_hours + erp.secondary_hours + erp.downtime_hours
        assert total == pytest.approx(HORIZON)

    def test_repair_exactly_at_horizon(self, tiny_state, dr_plan):
        # A repair at the horizon instant is outside the simulated
        # window (drain is horizon-exclusive): the group stays on its
        # secondary until the horizon closes the interval.
        outages = [Outage("mid", HORIZON - 10.0, HORIZON)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        erp = report.groups["erp"]
        assert erp.downtime_hours == pytest.approx(0.5)
        assert erp.secondary_hours == pytest.approx(9.5)
        total = erp.primary_hours + erp.secondary_hours + erp.downtime_hours
        assert total == pytest.approx(HORIZON)

    def test_zero_duration_outages_are_skipped(self, tiny_state, dr_plan):
        # An interval clamped to nothing affects nobody — with repairs
        # ordered before failures at equal timestamps, queueing it would
        # otherwise leave the site permanently failed.
        outages = [Outage("mid", 100.0, 100.0)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        assert report.outages == 0
        assert report.total_failovers == 0
        assert report.mean_availability == 1.0

    def test_back_to_back_outages_resolve_as_two(self, tiny_state, dr_plan):
        # Repair at t=200 processes before the new failure at t=200, so
        # the group fails over twice instead of being stranded.
        outages = [Outage("mid", 100.0, 200.0), Outage("mid", 200.0, 300.0)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        erp = report.groups["erp"]
        assert erp.failovers == 2
        assert erp.failbacks == 2
        assert erp.downtime_hours == pytest.approx(1.0)  # two blips
        total = erp.primary_hours + erp.secondary_hours + erp.downtime_hours
        assert total == pytest.approx(HORIZON)


class TestCompareResilienceDeterminism:
    def _report_signature(self, report):
        return (
            report.outages,
            report.mean_availability,
            tuple(
                (name, g.failovers, g.downtime_hours, g.secondary_hours)
                for name, g in sorted(report.groups.items())
            ),
        )

    def test_subset_invariance(self, tiny_state):
        # The same seed must give a plan the same disasters whether it
        # is compared alongside other plans or alone: per-site outage
        # streams cannot depend on which other sites were sampled.
        dr = repro.solve(
            tiny_state,
            method="milp",
            options=PlannerOptions(enable_dr=True, backend="highs"),
        ).plan
        bare = repro.solve(
            tiny_state, method="milp", options=PlannerOptions(backend="highs")
        ).plan
        config = SimulatorConfig(
            horizon_months=240.0,
            failure=FailureModelConfig(mtbf_hours=3000.0, mttr_hours=96.0, seed=7),
        )
        both = compare_resilience(tiny_state, {"dr": dr, "bare": bare}, config)
        alone = compare_resilience(tiny_state, {"dr": dr}, config)
        assert self._report_signature(both["dr"]) == self._report_signature(
            alone["dr"]
        )

    def test_repeatable_across_calls(self, tiny_state):
        dr = repro.solve(
            tiny_state,
            method="milp",
            options=PlannerOptions(enable_dr=True, backend="highs"),
        ).plan
        config = SimulatorConfig(
            horizon_months=240.0,
            failure=FailureModelConfig(mtbf_hours=3000.0, mttr_hours=96.0, seed=7),
        )
        a = compare_resilience(tiny_state, {"dr": dr}, config)
        b = compare_resilience(tiny_state, {"dr": dr}, config)
        assert self._report_signature(a["dr"]) == self._report_signature(b["dr"])


class TestModeAccounting:
    def test_hours_partition_the_horizon(self, tiny_state, dr_plan):
        outages = [Outage("mid", 100.0, 200.0), Outage("cheap-far", 300.0, 350.0)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        for outcome in report.groups.values():
            total = (
                outcome.primary_hours
                + outcome.secondary_hours
                + outcome.downtime_hours
            )
            assert total == pytest.approx(HORIZON)

    def test_experienced_latency_blends_sites(self, tiny_state, dr_plan):
        # erp at mid (east 8ms, west 9ms → mean 8.2) fails over to
        # east-dc (east 4, west 30 → mean 9.2) for 100 h of the month.
        outages = [Outage("mid", 100.0, 200.0)]
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=outages)
        erp = report.groups["erp"]
        assert erp.secondary_hours == pytest.approx(100.0 - 0.5)
        lat = erp.experienced_latency_ms
        assert lat is not None
        assert 8.2 < lat < 9.2  # strictly between the two site latencies

    def test_userless_groups_have_no_latency(self, tiny_state, dr_plan):
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=[])
        assert report.groups["batch"].experienced_latency_ms is None

    def test_quiet_horizon_latency_equals_primary(self, tiny_state, dr_plan):
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=[])
        erp = report.groups["erp"]
        group = tiny_state.group("erp")
        expected = group.mean_latency(tiny_state.target("mid").latency_to_users)
        assert erp.experienced_latency_ms == pytest.approx(expected)
        assert erp.primary_hours == pytest.approx(HORIZON)

    def test_report_mean_latency(self, tiny_state, dr_plan):
        report = simulate_plan(tiny_state, dr_plan, CONFIG, outages=[])
        assert report.mean_experienced_latency_ms is not None
        assert "latency" in report.summary()
