"""CLI subcommands (exercised in-process through main())."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.io import save_state


@pytest.fixture
def state_file(tiny_state, tmp_path):
    # tiny_state has no current estate; add one for `asis`/`compare`.
    path = tmp_path / "state.json"
    save_state(tiny_state, str(path))
    return str(path)


@pytest.fixture
def full_state_file(asis_capable_state, tmp_path):
    path = tmp_path / "full.json"
    save_state(asis_capable_state, str(path))
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_backend_choices_are_free_text(self):
        args = build_parser().parse_args(["plan", "x.json", "--backend", "highs"])
        assert args.backend == "highs"


class TestDataset:
    def test_generates_file(self, tmp_path, capsys):
        out = tmp_path / "e1.json"
        code = main(["dataset", "enterprise1", str(out), "--scale", "0.1"])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["name"] == "enterprise1"
        assert "wrote" in capsys.readouterr().out

    def test_unknown_dataset(self, tmp_path, capsys):
        code = main(["dataset", "narnia", str(tmp_path / "x.json")])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err


class TestPlan:
    def test_plan_report_printed(self, state_file, capsys):
        code = main(["plan", state_file, "--backend", "highs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Transformation plan" in out
        assert "TOTAL" in out

    def test_plan_output_file(self, state_file, tmp_path, capsys):
        out_file = tmp_path / "plan.json"
        code = main([
            "plan", state_file, "--backend", "highs", "--output", str(out_file),
        ])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert set(data["placement"]) == {"erp", "web", "batch", "bi"}

    def test_plan_with_dr_and_lp_export(self, state_file, tmp_path, capsys):
        lp_file = tmp_path / "model.lp"
        code = main([
            "plan", state_file, "--backend", "highs", "--dr",
            "--lp-export", str(lp_file), "--mip-gap", "0.01",
        ])
        assert code == 0
        assert "Binaries" in lp_file.read_text()
        assert "disaster recovery" in capsys.readouterr().out

    def test_vpn_wan_model(self, state_file, capsys):
        assert main(["plan", state_file, "--backend", "highs",
                     "--wan-model", "vpn"]) == 0


class TestProfileAndTrace:
    def test_profile_prints_stats_block(self, state_file, capsys):
        code = main([
            "plan", state_file, "--backend", "branch_bound", "--profile",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Solver statistics" in out
        assert "nodes explored" in out
        assert "best-bound gap" in out
        assert "presolve reductions" in out
        # The CLI's branch_bound relaxes nodes with HiGHS by default.
        assert any(
            "root LP seconds" in line and line.endswith("(highs)")
            for line in out.splitlines()
        )

    def test_trace_writes_one_json_record_per_solve(self, state_file, tmp_path):
        trace = tmp_path / "out.jsonl"
        code = main([
            "plan", state_file, "--backend", "highs", "--trace", str(trace),
        ])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert len(lines) >= 1
        for line in lines:
            record = json.loads(line)
            assert record["event"] == "solve"
            assert record["backend"] == "highs"
            assert record["stats"] is not None

    def test_trace_unwritable_path_is_clean_error(self, state_file, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "t.jsonl"
        code = main(["plan", state_file, "--backend", "highs",
                     "--trace", str(bad)])
        assert code == 2
        assert "cannot open trace file" in capsys.readouterr().err

    def test_trace_disabled_after_command(self, state_file, tmp_path):
        from repro.telemetry import trace_enabled

        trace = tmp_path / "out.jsonl"
        assert main(["plan", state_file, "--backend", "highs",
                     "--trace", str(trace)]) == 0
        assert not trace_enabled()


class TestCompare:
    def test_compare_table(self, full_state_file, capsys):
        code = main(["compare", full_state_file, "--backend", "highs"])
        assert code == 0
        out = capsys.readouterr().out
        for algorithm in ("as-is", "manual", "greedy", "etransform"):
            assert algorithm in out


class TestAsIs:
    def test_asis_report(self, full_state_file, capsys):
        assert main(["asis", full_state_file]) == 0
        assert "Transformation plan" in capsys.readouterr().out

    def test_asis_with_dr(self, full_state_file, capsys):
        assert main(["asis", full_state_file, "--dr"]) == 0
        assert "Backup pools" in capsys.readouterr().out


class TestMigrate:
    def test_migrate_report(self, full_state_file, capsys):
        assert main(["migrate", full_state_file, "--backend", "highs"]) == 0
        out = capsys.readouterr().out
        assert "Migration plan" in out
        assert "payback" in out

    def test_wave_budget_flag(self, full_state_file, capsys):
        assert main([
            "migrate", full_state_file, "--backend", "highs",
            "--wave-budget", "40",
        ]) == 0
        assert "waves" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_report(self, state_file, capsys):
        code = main([
            "simulate", state_file, "--dr", "--backend", "highs",
            "--mtbf-hours", "2000", "--horizon-months", "24",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "availability" in out


class TestAnalysisCommands:
    def test_sensitivity(self, state_file, capsys):
        assert main(["sensitivity", state_file, "wan", "--backend", "highs"]) == 0
        out = capsys.readouterr().out
        assert "elasticity" in out

    def test_robustness(self, state_file, capsys):
        assert main([
            "robustness", state_file, "--samples", "2", "--backend", "highs",
        ]) == 0
        assert "regret" in capsys.readouterr().out


class TestSweepJobs:
    """`sweep --jobs N` must reach the experiment fan-out."""

    def test_latency_sweep_receives_jobs(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.experiments.harness import SweepPoint, SweepSeries
        from repro.experiments.latency_sweep import LatencySweepResult

        seen = {}

        def fake_sweep(backend="auto", solver_options=None, jobs=1):
            seen["jobs"] = jobs
            series = SweepSeries(
                name="All users in location 0",
                points=[SweepPoint(0.0, {
                    "total_cost": 1.0, "space_cost": 1.0, "mean_latency_ms": 1.0,
                })],
            )
            return LatencySweepResult(series=[series])

        monkeypatch.setattr(cli, "run_latency_sweep", fake_sweep)
        assert cli.main(["sweep", "latency", "--jobs", "3"]) == 0
        assert seen["jobs"] == 3
        assert "Fig 7(a)" in capsys.readouterr().out

    def test_dr_sweep_receives_jobs(self, monkeypatch, capsys):
        import repro.cli as cli
        from repro.experiments.dr_cost_sweep import DRCostSweepResult
        from repro.experiments.harness import SweepPoint

        seen = {}

        def fake_sweep(backend="auto", solver_options=None, jobs=1):
            seen["jobs"] = jobs
            return DRCostSweepResult(points=[
                SweepPoint(1.0, {"datacenters_used": 2.0, "dr_servers": 5.0}),
            ])

        monkeypatch.setattr(cli, "run_dr_cost_sweep", fake_sweep)
        assert cli.main(["sweep", "dr-cost", "--jobs", "2"]) == 0
        assert seen["jobs"] == 2
        assert "Fig 8" in capsys.readouterr().out

    def test_jobs_defaults_to_one(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["sweep", "latency"])
        assert args.jobs == 1


class TestRefine:
    @pytest.fixture
    def script_file(self, tmp_path):
        def write(text: str) -> str:
            path = tmp_path / "refine.txt"
            path.write_text(text)
            return str(path)

        return write

    def test_scripted_session_reports_per_step_timing(
        self, state_file, script_file, capsys
    ):
        script = script_file(
            "# steer batch away from wherever it landed\n"
            "cap mid 3\n"
            "undo\n"
        )
        code = main(["refine", state_file, script, "--backend", "highs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "initial plan" in out
        assert "cap mid 3" in out
        assert "undo" in out
        assert "2 directives" in out
        assert "fingerprint hits" in out

    def test_cold_flag_disables_the_cache(self, state_file, script_file, capsys):
        script = script_file("cap mid 3\n")
        code = main(["refine", state_file, script, "--cold", "--backend", "highs"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cold rebuild" in out
        assert "fingerprint hits" not in out

    def test_conflicting_script_is_a_clean_error(
        self, state_file, script_file, capsys
    ):
        script = script_file("pin batch mid\nforbid batch mid\n")
        code = main(["refine", state_file, script, "--backend", "highs"])
        assert code == 2
        assert "conflicts with earlier directive" in capsys.readouterr().err

    def test_malformed_script_is_a_clean_error(self, state_file, script_file, capsys):
        script = script_file("pin onlyonearg\n")
        code = main(["refine", state_file, script])
        assert code == 2
        assert "takes 2 operand" in capsys.readouterr().err

    def test_unknown_verb_is_a_clean_error(self, state_file, script_file, capsys):
        script = script_file("teleport batch mid\n")
        code = main(["refine", state_file, script])
        assert code == 2
        assert "unknown directive" in capsys.readouterr().err


class TestReplay:
    @pytest.fixture
    def online_state_file(self, tmp_path):
        from repro.datasets import online_line_scenario

        path = tmp_path / "online.json"
        save_state(
            online_line_scenario(
                n_groups=16, total_servers=400, n_datacenters=5,
                capacity=220, seed=11,
            ),
            str(path),
        )
        return str(path)

    def test_replay_prints_delta_table(self, online_state_file, capsys):
        code = main([
            "replay", "--input", online_state_file, "--backend", "highs",
            "--trace-profile", "diurnal", "--horizon-days", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "online replay (incremental" in out
        assert "reason" in out          # the delta table header
        assert "oscillating moves: 0" in out

    def test_replay_json_record(self, online_state_file, tmp_path, capsys):
        record = tmp_path / "replay.json"
        code = main([
            "replay", "--input", online_state_file, "--backend", "highs",
            "--trace-profile", "flash", "--horizon-days", "4",
            "--json", str(record),
        ])
        assert code == 0
        payload = json.loads(record.read_text())
        assert payload["incremental"] is True
        assert payload["deltas"], "flash profile should emit deltas"
        # Deltas carry moves, not full placements.
        assert all(0 < len(d["moves"]) < 16 for d in payload["deltas"])

    def test_replay_full_mode(self, online_state_file, capsys):
        code = main([
            "replay", "--input", online_state_file, "--backend", "highs",
            "--trace-profile", "flash", "--horizon-days", "4", "--full",
        ])
        assert code == 0
        assert "full re-plan" in capsys.readouterr().out

    def test_replay_bad_thresholds_exit_2(self, online_state_file, capsys):
        code = main([
            "replay", "--input", online_state_file,
            "--underload", "0.9", "--target", "0.7",
        ])
        assert code == 2
        assert "utilization" in capsys.readouterr().err

    def test_replay_missing_state_file(self, tmp_path, capsys):
        code = main(["replay", "--input", str(tmp_path / "nope.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestInputRobustness:
    """Operational input problems exit 2 with a one-line diagnostic."""

    COMMANDS = ("plan", "compare", "asis", "migrate", "simulate")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_missing_state_file(self, command, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        code = main([command, path])
        err = capsys.readouterr().err
        assert code == 2
        assert "not found" in err
        assert "nope.json" in err
        assert "Traceback" not in err

    def test_state_path_is_a_directory(self, tmp_path, capsys):
        code = main(["plan", str(tmp_path)])
        assert code == 2
        assert "is a directory" in capsys.readouterr().err

    def test_malformed_json_names_the_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,,}')
        code = main(["plan", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "not valid JSON" in err
        assert "line 1" in err
        assert "broken.json" in err

    def test_missing_required_field_is_named(self, state_file, tmp_path, capsys):
        data = json.loads(open(state_file).read())
        del data["app_groups"]
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(data))
        code = main(["plan", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "missing required field" in err
        assert "app_groups" in err

    def test_wrong_schema_version_is_invalid(self, state_file, tmp_path, capsys):
        data = json.loads(open(state_file).read())
        data["schema_version"] = 99
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        code = main(["plan", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "is invalid" in err

    def test_sensitivity_and_robustness_check_inputs_too(self, tmp_path, capsys):
        missing = str(tmp_path / "gone.json")
        assert main(["sensitivity", missing, "space"]) == 2
        assert main(["robustness", missing]) == 2
        err = capsys.readouterr().err
        assert err.count("not found") == 2


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8080
        assert args.workers == 4
        assert args.journal is None

    def test_overrides(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--job-timeout", "10",
             "--max-retries", "0", "--journal", "j.jsonl", "--verbose"]
        )
        assert args.port == 0
        assert args.workers == 2
        assert args.job_timeout == 10.0
        assert args.max_retries == 0
        assert args.journal == "j.jsonl"
        assert args.verbose is True
