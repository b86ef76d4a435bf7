"""Command-line interface: ``etransform`` (or ``python -m repro.cli``).

Subcommands
-----------
``dataset``     generate a synthetic case-study state to JSON
``plan``        run eTransform on a JSON state and print the to-be report
``compare``     run as-is / manual / greedy / eTransform on a state
``sweep``       run the Fig. 7 latency sweep or the Fig. 8 DR-cost sweep
``migrate``     phase the transformation into waves with payback analysis
``simulate``    replay disasters against the plan (availability, pools)
``sensitivity`` sweep one cost dimension and report the plan's response
``robustness``  Monte-Carlo regret under price-estimate noise
``refine``      replay a scripted directive sequence with per-step timing
``replay``      stream a load/failure trace through the online re-planner
``serve``       run the long-lived planning service (HTTP JSON API)

Operational errors — a missing or malformed state file, an unknown
directive — exit with code 2 and a one-line message naming the file or
field, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .baselines import asis_plan, asis_with_dr_plan
from .core.planner import ETransformPlanner, PlannerOptions
from .experiments import (
    run_comparison,
    run_dr_cost_sweep,
    run_latency_sweep,
    tables,
)
from .io import load_state, render_plan_report, save_plan, save_state


class CliInputError(Exception):
    """A user-input problem: printed as one line, exit code 2."""


def _load_state_checked(path: str):
    """Load a state file, mapping every failure to a one-line message."""
    try:
        return load_state(path)
    except FileNotFoundError:
        raise CliInputError(f"state file {path!r} not found") from None
    except IsADirectoryError:
        raise CliInputError(f"state file {path!r} is a directory") from None
    except json.JSONDecodeError as exc:
        raise CliInputError(
            f"state file {path!r} is not valid JSON "
            f"(line {exc.lineno}, column {exc.colno}: {exc.msg})"
        ) from None
    except KeyError as exc:
        raise CliInputError(
            f"state file {path!r} is missing required field {exc.args[0]!r}"
        ) from None
    except (TypeError, ValueError) as exc:
        raise CliInputError(f"state file {path!r} is invalid: {exc}") from None


def _add_solver_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default="auto",
        help="solver backend: auto, highs, branch_bound, rounding",
    )
    parser.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    parser.add_argument("--mip-gap", type=float, default=None, metavar="FRACTION")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-solve search statistics (nodes, iterations, gap, presolve)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append one JSON record per solve to FILE (JSON lines)",
    )


def _solver_options(args: argparse.Namespace) -> dict:
    options: dict = {}
    if args.time_limit is not None:
        options["time_limit"] = args.time_limit
    if args.mip_gap is not None:
        options["mip_rel_gap"] = args.mip_gap
    return options


def _maybe_print_stats(args: argparse.Namespace, stats) -> None:
    """Print the --profile statistics block when requested."""
    if not getattr(args, "profile", False):
        return
    from .io import render_solve_stats

    print()
    if stats is None:
        print("Solver statistics\n  (no solver statistics recorded)")
    else:
        print(render_solve_stats(stats))


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .experiments.comparison import CASE_STUDY_LOADERS

    loader = CASE_STUDY_LOADERS.get(args.name)
    if loader is None:
        print(
            f"unknown dataset {args.name!r}; choose from "
            f"{', '.join(sorted(CASE_STUDY_LOADERS))}",
            file=sys.stderr,
        )
        return 2
    state = loader(scale=args.scale)
    save_state(state, args.output)
    summary = ", ".join(f"{k}={v}" for k, v in state.summary().items())
    print(f"wrote {args.output}: {summary}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .api import solve as plan_solve

    state = _load_state_checked(args.input)
    try:
        options = PlannerOptions(
            wan_model=args.wan_model,
            enable_dr=args.dr,
            backend=args.backend,
            solver_options=_solver_options(args),
            lp_export_path=args.lp_export,
            method=args.method,
            jobs=args.jobs,
        )
        result = plan_solve(state, options=options)
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    plan = result.plan
    print(render_plan_report(state, plan))
    if result.method != "milp" or args.method != "auto":
        import math

        gap = f"{result.gap:.2%}" if math.isfinite(result.gap) else "n/a"
        print(f"\nmethod: {result.method} (gap {gap})")
    _maybe_print_stats(args, plan.solver_stats)
    if args.output:
        save_plan(plan, args.output)
        print(f"\nplan written to {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    state = _load_state_checked(args.input)
    result = run_comparison(
        state,
        enable_dr=args.dr,
        backend=args.backend,
        wan_model=args.wan_model,
        solver_options=_solver_options(args),
    )
    print(tables.render_comparison(result))
    _maybe_print_stats(args, result.etransform.solve_stats)
    return 0


def _cmd_asis(args: argparse.Namespace) -> int:
    state = _load_state_checked(args.input)
    plan = asis_with_dr_plan(state) if args.dr else asis_plan(state)
    print(render_plan_report(state, plan))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    options = _solver_options(args)
    if args.kind == "latency":
        result = run_latency_sweep(
            backend=args.backend, solver_options=options, jobs=args.jobs
        )
        for key in ("total_cost", "space_cost", "mean_latency_ms"):
            print(tables.render_latency_sweep(result, key))
            print()
    else:
        result = run_dr_cost_sweep(
            backend=args.backend, solver_options=options, jobs=args.jobs
        )
        print(tables.render_dr_sweep(result))
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from .migration import MigrationConfig, plan_migration

    state = _load_state_checked(args.input)
    options = PlannerOptions(
        enable_dr=args.dr, backend=args.backend,
        solver_options=_solver_options(args),
    )
    plan = ETransformPlanner(state, options).build_plan()
    config = MigrationConfig(
        max_servers_per_wave=args.wave_budget,
        bandwidth_mbps=args.bandwidth,
    )
    schedule = plan_migration(state, plan, config)
    print(schedule.render())
    _maybe_print_stats(args, plan.solver_stats)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .sim import FailureModelConfig, SimulatorConfig, simulate_plan

    state = _load_state_checked(args.input)
    options = PlannerOptions(
        enable_dr=args.dr, backend=args.backend,
        solver_options=_solver_options(args),
    )
    plan = ETransformPlanner(state, options).build_plan()
    config = SimulatorConfig(
        horizon_months=args.horizon_months,
        failure=FailureModelConfig(
            mtbf_hours=args.mtbf_hours, mttr_hours=args.mttr_hours, seed=args.seed
        ),
    )
    report = simulate_plan(state, plan, config)
    print(report.summary())
    _maybe_print_stats(args, plan.solver_stats)
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from .analysis import run_sensitivity

    state = _load_state_checked(args.input)
    options = PlannerOptions(backend=args.backend,
                             solver_options=_solver_options(args))
    result = run_sensitivity(state, args.dimension, options=options)
    print(result.render())
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from .analysis import run_robustness

    state = _load_state_checked(args.input)
    options = PlannerOptions(backend=args.backend,
                             solver_options=_solver_options(args))
    result = run_robustness(
        state, sigma=args.sigma, samples=args.samples, options=options
    )
    print(result.render())
    return 0


def _parse_refine_script(text: str) -> list[tuple[str, list[str]]]:
    """Parse a refine script: one directive per line, ``#`` comments.

    Grammar::

        pin GROUP DC | forbid GROUP DC | retire DC | cap DC LIMIT | undo
    """
    arity = {"pin": 2, "forbid": 2, "retire": 1, "cap": 2, "undo": 0}
    steps: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        verb, operands = parts[0].lower(), parts[1:]
        if verb not in arity:
            raise ValueError(
                f"line {lineno}: unknown directive {verb!r} "
                f"(expected one of {', '.join(sorted(arity))})"
            )
        if len(operands) != arity[verb]:
            raise ValueError(
                f"line {lineno}: {verb} takes {arity[verb]} operand(s), "
                f"got {len(operands)}"
            )
        steps.append((verb, operands))
    return steps


def _cmd_refine(args: argparse.Namespace) -> int:
    import time

    from .core.iterative import DirectiveConflictError, IterativeSession

    state = _load_state_checked(args.input)
    try:
        with open(args.script, encoding="utf-8") as handle:
            steps = _parse_refine_script(handle.read())
    except (OSError, ValueError) as exc:
        print(f"cannot read refine script {args.script!r}: {exc}", file=sys.stderr)
        return 2
    options = PlannerOptions(
        backend=args.backend,
        solver_options=_solver_options(args),
    )
    session = IterativeSession(state, options, incremental=not args.cold)
    mode = "cold rebuild" if args.cold else "incremental"
    print(f"refinement session ({mode}, backend={args.backend})")
    print(f"{'step':<28} {'solve':>9} {'total cost':>14}  via")

    def describe_reuse(before: tuple[int, int], cache) -> str:
        if cache is None:
            return "rebuild"
        if cache.hits > before[0]:
            return "cache hit"
        if cache.tightening_reuses > before[1]:
            return "still optimal"
        return "re-solved"

    def run_step(label: str) -> float:
        cache = session.solve_cache
        before = (cache.hits, cache.tightening_reuses) if cache else (0, 0)
        start = time.perf_counter()
        plan = session.plan()
        elapsed = time.perf_counter() - start
        via = describe_reuse(before, session.solve_cache)
        print(f"{label:<28} {elapsed:>8.3f}s {plan.breakdown.total:>14,.0f}  {via}")
        return elapsed

    total = run_step("initial plan")
    for verb, operands in steps:
        try:
            if verb == "pin":
                session.pin(*operands)
            elif verb == "forbid":
                session.forbid(*operands)
            elif verb == "retire":
                session.retire_site(operands[0])
            elif verb == "cap":
                session.cap_groups(operands[0], int(operands[1]))
            elif verb == "undo":
                session.undo()
        except (DirectiveConflictError, KeyError, ValueError, IndexError) as exc:
            print(f"directive {verb} {' '.join(operands)} rejected: {exc}",
                  file=sys.stderr)
            return 2
        label = f"{verb} {' '.join(operands)}".strip()
        total += run_step(label)

    print(f"\n{len(steps)} directives, {total:.3f}s solving in total")
    cache = session.solve_cache
    if cache is not None:
        print(
            f"cache: {cache.hits} fingerprint hits, "
            f"{cache.tightening_reuses} still-optimal shortcuts, "
            f"{cache.context_reuses} relaxation-context reuses"
        )
    _maybe_print_stats(args, session.history[-1].solver_stats)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from .datasets import ONLINE_TRACE_PROFILES, online_line_scenario, online_line_trace
    from .online import ControllerConfig, ReplayConfig, run_replay

    if args.input:
        state = _load_state_checked(args.input)
    else:
        state = online_line_scenario()
    horizon_hours = args.horizon_days * 24.0
    try:
        load_events, outages = online_line_trace(
            state, args.trace_profile, horizon_hours=horizon_hours, seed=args.seed
        )
        controller = ControllerConfig(
            overload_utilization=args.overload,
            underload_utilization=args.underload,
            target_utilization=args.target,
            move_cost_per_server=args.move_cost,
            payback_window_months=args.payback_months,
        )
        config = ReplayConfig(
            horizon_hours=horizon_hours,
            controller=controller,
            incremental=not args.full,
        )
    except ValueError as exc:
        raise CliInputError(str(exc)) from None
    options = PlannerOptions(
        backend=args.backend,
        solver_options=_solver_options(args),
    )
    result = run_replay(state, load_events, outages, config, options)

    mode = "full re-plan" if args.full else "incremental"
    print(
        f"online replay ({mode}, backend={args.backend}): "
        f"{state.name}, profile={args.trace_profile}, "
        f"{len(load_events)} load events, {len(outages)} outages, "
        f"{args.horizon_days:g} days"
    )
    print(f"initial plan: {result.initial_cost:,.0f}/month "
          f"({result.initial_solve_seconds:.3f}s)")
    if result.deltas:
        print(f"\n{'t (h)':>8} {'reason':<34} {'via':<14} "
              f"{'moves':>5} {'servers':>7} {'cost/month':>12}")
        for delta in result.deltas:
            print(
                f"{delta.time_hours:>8.1f} {delta.reason[:34]:<34} "
                f"{delta.via:<14} {len(delta.moves):>5} "
                f"{delta.servers_moved:>7} {delta.cost_after:>12,.0f}"
            )
    else:
        print("no migration deltas emitted (estate stayed inside thresholds)")
    print(f"\n{result.summary()}")
    oscillations = result.oscillations()
    print(
        f"oscillating moves: {len(oscillations)}; counters: "
        + ", ".join(
            f"{name.removeprefix('online.')}={int(value)}"
            for name, value in sorted(result.counters.items())
        )
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"replay record written to {args.json_out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import ServiceConfig, run_service

    try:
        config = ServiceConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
            journal_path=args.journal,
            store_url=args.store,
            replica_id=args.replica_id,
            max_queue_depth=args.max_queue_depth,
        ).validated()
    except ValueError as exc:
        raise CliInputError(f"bad service configuration: {exc}") from None
    return run_service(config, verbose=args.verbose)


def _cmd_watch(args: argparse.Namespace) -> int:
    from .service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    final_state = None
    try:
        for event in client.stream(args.job_id, after=args.after):
            kind = event.get("type", "?")
            if kind == "state":
                detail = event.get("state", "?")
                extra = event.get("error") or event.get("via")
                if extra:
                    detail += f" ({extra})"
                if event.get("state") is not None:
                    final_state = event["state"]
            elif kind == "progress":
                fields = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(event.items())
                    if key not in ("seq", "ts", "type") and value is not None
                )
                detail = fields or "tick"
            else:
                detail = json.dumps(
                    {k: v for k, v in event.items() if k not in ("seq", "ts")}
                )
            print(f"[{event.get('seq', '?'):>4}] {kind:<9} {detail}", flush=True)
    except ServiceError as exc:
        raise CliInputError(str(exc)) from None
    except KeyboardInterrupt:
        print("watch interrupted; the job keeps running", file=sys.stderr)
        return 130
    return 0 if final_state == "succeeded" else 1


def _cmd_dispatch(args: argparse.Namespace) -> int:
    from .service.cluster import run_dispatcher

    try:
        return run_dispatcher(
            replicas=args.replica,
            host=args.host,
            port=args.port,
            store_url=args.store,
            cache_size=args.cache_size,
            health_interval=args.health_interval,
            verbose=args.verbose,
        )
    except ValueError as exc:
        raise CliInputError(f"bad dispatcher configuration: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etransform",
        description="Automated transformation and consolidation planning "
        "for enterprise data centers (ICDCS 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="generate a synthetic case-study dataset")
    p.add_argument("name", help="enterprise1, florida or federal")
    p.add_argument("output", help="JSON file to write")
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(fn=_cmd_dataset)

    p = sub.add_parser("plan", help="run eTransform on a JSON as-is state")
    p.add_argument("input", help="JSON as-is state")
    p.add_argument("--dr", action="store_true", help="plan disaster recovery too")
    p.add_argument("--wan-model", default="metered", choices=("metered", "vpn"))
    p.add_argument("--output", help="write the plan JSON here")
    p.add_argument("--lp-export", help="dump the model in CPLEX LP format")
    p.add_argument(
        "--method",
        default="auto",
        choices=("auto", "milp", "decomposition", "greedy"),
        help="planning engine: auto picks decomposition for very large estates",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for decomposition pricing subproblems",
    )
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("compare", help="compare all four algorithms on a state")
    p.add_argument("input", help="JSON as-is state")
    p.add_argument("--dr", action="store_true")
    p.add_argument("--wan-model", default="metered", choices=("metered", "vpn"))
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("asis", help="evaluate the as-is cost of a state")
    p.add_argument("input", help="JSON as-is state")
    p.add_argument("--dr", action="store_true", help="add the single-backup-site DR")
    p.set_defaults(fn=_cmd_asis)

    p = sub.add_parser("sweep", help="run a parameter study")
    p.add_argument("kind", choices=("latency", "dr-cost"))
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="solve independent sweep points across N worker processes",
    )
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("migrate", help="plan the migration waves for a state")
    p.add_argument("input", help="JSON as-is state")
    p.add_argument("--dr", action="store_true")
    p.add_argument("--wave-budget", type=int, default=200,
                   help="max servers moved per change window")
    p.add_argument("--bandwidth", type=float, default=1000.0,
                   help="bulk-transfer bandwidth in Mbps")
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_migrate)

    p = sub.add_parser("simulate", help="replay disasters against the plan")
    p.add_argument("input", help="JSON as-is state")
    p.add_argument("--dr", action="store_true")
    p.add_argument("--horizon-months", type=float, default=60.0)
    p.add_argument("--mtbf-hours", type=float, default=10 * 8760.0)
    p.add_argument("--mttr-hours", type=float, default=96.0)
    p.add_argument("--seed", type=int, default=0)
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("sensitivity", help="sweep one cost dimension")
    p.add_argument("input", help="JSON as-is state")
    p.add_argument("dimension", choices=("space", "power", "labor", "wan", "fixed", "vpn"))
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_sensitivity)

    p = sub.add_parser("robustness", help="regret under price noise")
    p.add_argument("input", help="JSON as-is state")
    p.add_argument("--sigma", type=float, default=0.15)
    p.add_argument("--samples", type=int, default=10)
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_robustness)

    p = sub.add_parser(
        "refine",
        help="replay a scripted directive sequence with per-step solve timing",
    )
    p.add_argument("input", help="JSON as-is state")
    p.add_argument(
        "script",
        help="directive script: one 'pin G DC', 'forbid G DC', 'retire DC', "
        "'cap DC N' or 'undo' per line; # starts a comment",
    )
    p.add_argument(
        "--cold",
        action="store_true",
        help="rebuild the model from scratch at every step (disable the "
        "incremental engine, for comparison)",
    )
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_refine)

    p = sub.add_parser(
        "replay",
        help="stream a load/failure trace through the online re-planner",
    )
    p.add_argument(
        "--input",
        default=None,
        help="JSON as-is state (default: the built-in online-line scenario)",
    )
    p.add_argument(
        "--trace-profile",
        default="diurnal",
        choices=("diurnal", "flash", "growth", "mixed"),
        help="canned load/failure trace to replay",
    )
    p.add_argument("--horizon-days", type=float, default=14.0, metavar="DAYS")
    p.add_argument("--seed", type=int, default=0, help="trace random seed")
    p.add_argument(
        "--full",
        action="store_true",
        help="rebuild the model from scratch at every re-plan (disable the "
        "incremental engine, for comparison)",
    )
    p.add_argument("--overload", type=float, default=0.85, metavar="UTIL",
                   help="utilization above which a site is capped")
    p.add_argument("--underload", type=float, default=0.30, metavar="UTIL",
                   help="utilization below which a site may be parked")
    p.add_argument("--target", type=float, default=0.70, metavar="UTIL",
                   help="utilization a capped site is squeezed back to")
    p.add_argument("--move-cost", type=float, default=300.0, metavar="USD",
                   help="one-off migration cost per server")
    p.add_argument("--payback-months", type=float, default=6.0, metavar="MONTHS",
                   help="window a voluntary re-plan's move cost must pay back in")
    p.add_argument("--json", dest="json_out", default=None, metavar="FILE",
                   help="write the full replay record as JSON to FILE")
    _add_solver_arguments(p)
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser(
        "serve",
        help="run the long-lived planning service (HTTP JSON API)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port; 0 binds an ephemeral port")
    p.add_argument("--workers", type=int, default=4,
                   help="solver worker processes")
    p.add_argument("--job-timeout", type=float, default=300.0, metavar="SECONDS",
                   help="per-job wall-clock limit")
    p.add_argument("--max-retries", type=int, default=2,
                   help="retries after a worker death before a job fails")
    p.add_argument("--journal", default=None, metavar="FILE",
                   help="append one JSON line per job event to FILE")
    p.add_argument("--store", default=None, metavar="URL",
                   help="shared job store (sqlite://PATH or memory://); "
                        "lets any replica answer for any job")
    p.add_argument("--replica-id", default=None, metavar="NAME",
                   help="stable replica identity in the shared store "
                        "(enables job recovery after a restart)")
    p.add_argument("--max-queue-depth", type=int, default=None, metavar="N",
                   help="reject submissions with 429 once N jobs are queued")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "watch",
        help="stream a job's lifecycle and solver progress events live",
    )
    p.add_argument("job_id", help="the job id to watch")
    p.add_argument("--url", default="http://127.0.0.1:8080",
                   help="service or dispatcher base URL")
    p.add_argument("--after", type=int, default=0, metavar="SEQ",
                   help="resume the stream after event SEQ")
    p.add_argument("--timeout", type=float, default=3600.0, metavar="SECONDS",
                   help="max silent gap between events")
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "dispatch",
        help="run the cluster dispatcher in front of N serve replicas",
    )
    p.add_argument("--replica", action="append", required=True, metavar="URL",
                   help="backend replica base URL (repeatable)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8079,
                   help="TCP port; 0 binds an ephemeral port")
    p.add_argument("--store", default=None, metavar="URL",
                   help="the replicas' shared job store, for answering "
                        "status/result reads when replicas are down")
    p.add_argument("--cache-size", type=int, default=256,
                   help="entries in the shared fingerprint result cache")
    p.add_argument("--health-interval", type=float, default=1.0,
                   metavar="SECONDS", help="replica health-probe period")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request")
    p.set_defaults(fn=_cmd_dispatch)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from .telemetry import trace_to

        # Open eagerly so a bad path is a clean CLI error, not a traceback.
        try:
            handle = open(trace_path, "a", encoding="utf-8")
        except OSError as exc:
            print(f"cannot open trace file {trace_path!r}: {exc}", file=sys.stderr)
            return 2
        try:
            with trace_to(handle):
                return _run(args)
        finally:
            handle.close()
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        return args.fn(args)
    except CliInputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
