"""Plan report rendering."""

from __future__ import annotations

from repro.core import evaluate_plan
from repro.io import render_placement_listing, render_plan_report


def make_plan(state, dr=False):
    placement = {g.name: "mid" for g in state.app_groups}
    secondary = {g.name: "cheap-far" for g in state.app_groups} if dr else None
    return evaluate_plan(state, placement, secondary=secondary, solver="test")


class TestPlanReport:
    def test_headline(self, tiny_state):
        text = render_plan_report(tiny_state, make_plan(tiny_state))
        assert 'Transformation plan for "tiny"' in text
        assert "4 application groups / 155 servers" in text

    def test_cost_lines_present(self, tiny_state):
        text = render_plan_report(tiny_state, make_plan(tiny_state))
        for label in ("space", "power", "labor", "WAN", "TOTAL"):
            assert label in text

    def test_violations_and_solver(self, tiny_state):
        text = render_plan_report(tiny_state, make_plan(tiny_state))
        assert "Latency violations: 0" in text
        assert "test" in text

    def test_dr_sections(self, tiny_state):
        text = render_plan_report(tiny_state, make_plan(tiny_state, dr=True))
        assert "with disaster recovery" in text
        assert "Backup pools" in text
        assert "cheap-far:155" in text

    def test_site_rows(self, tiny_state):
        plan = make_plan(tiny_state)
        text = render_plan_report(tiny_state, plan)
        assert "mid" in text


class TestPlacementListing:
    def test_all_groups_listed(self, tiny_state):
        text = render_placement_listing(make_plan(tiny_state))
        for g in tiny_state.app_groups:
            assert g.name in text

    def test_dr_column(self, tiny_state):
        text = render_placement_listing(make_plan(tiny_state, dr=True))
        assert "secondary" in text
        assert "cheap-far" in text


class TestSolveStatsBlock:
    def test_hint_repair_line_shows_its_time(self):
        from repro.io.report import render_solve_stats
        from repro.telemetry import SolveStats

        text = render_solve_stats(
            SolveStats(context_extended=1, hint_repaired=1, hint_repair_seconds=0.0421)
        )
        line = next(row for row in text.splitlines() if "hint fixed" in row)
        assert line.endswith("1 / 1 (0.042 s repairing)")

    def test_root_lp_line_shows_seconds_and_engine(self):
        from repro.io.report import render_solve_stats
        from repro.telemetry import SolveStats

        text = render_solve_stats(SolveStats(root_lp_seconds=0.0123, root_lp_engine="dual"))
        line = next(row for row in text.splitlines() if "root LP" in row)
        assert line.endswith("0.012 (dual)")
        text = render_solve_stats(SolveStats())
        line = next(row for row in text.splitlines() if "root LP" in row)
        assert line.endswith("0.000 (n/a)")

    def test_residual_line_shows_both_maxima(self):
        from repro.io.report import render_solve_stats
        from repro.telemetry import SolveStats

        text = render_solve_stats(
            SolveStats(max_primal_residual=8.95e-13, max_dual_residual=1.3e-14)
        )
        line = next(row for row in text.splitlines() if "max residual" in row)
        assert line.endswith("8.95e-13 / 1.30e-14")
