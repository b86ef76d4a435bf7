"""The repo benchmark: one command per workload, run from the repo root.

    python3 perfbench/run.py --workload milp-cold --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring for why it exists):

* ``milp-cold``    — one-shot monolithic MILP solves (``milp_cold.py``);
* ``decomp-scale`` — decomposition on both coordinators (``decomp_scale.py``);
* ``replay-mixed`` — online incremental re-planning (``replay_mixed.py``);
* ``service-mix``  — closed-loop jobs through dispatch + 2 replicas
  (``service_mix.py``).

``--seconds`` sizes the run: each workload generates a fixed, seeded list
of ops proportional to it, calibrated so the list takes about that long,
and runs the whole list, so the same seed always does the same work.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a short
untraced pass, then the full list with every layer's public entry points
wrapped, and prints the per-layer metrics.  Both check every output and
print one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from harness import ELASTICITY, Speed, Tracer, environment, percentile, rss_self_mb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = {
    "milp-cold": "milp_cold",
    "decomp-scale": "decomp_scale",
    "replay-mixed": "replay_mixed",
    "service-mix": "service_mix",
}

#: Fresh-process set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Speed-kernel samples taken before and after each set-up.
SPEED_SAMPLES = 5


def _declared(key: str) -> dict[str, str]:
    """Metric names and units of one list in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


#: Gated metrics, printed by ``--trace 0``.
END_TO_END = _declared("end_to_end")
#: Per-layer metrics, printed by ``--trace 1`` (every workload prints all
#: of them; a layer the workload does not reach reads 0).
PER_LAYER = _declared("per_layer")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print its set-up seconds and exit",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _setup(args, workdir: str):
    """Import the program, build the workload's inputs, run its warm-up op.

    Returns the workload and its set-up seconds on the reference core:
    the speed kernel runs just before and just after set-up, in the
    process that sets up, while nothing else runs.
    """
    speed = Speed()
    speed.sample(SPEED_SAMPLES)
    start = time.perf_counter()
    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.Workload(args.seed, args.seconds, workdir)
    end = time.perf_counter()
    speed.sample(SPEED_SAMPLES)
    # The workload's elasticity is known once it is imported.
    speed.elasticity = _elasticity(workload)
    return workload, (end - start) / speed.slowdown(start, end)


def _fresh_setup(args) -> float:
    """Set-up seconds of the workload in a new process."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as child:
        try:
            out, err = child.communicate(timeout=120)
        except BaseException:
            # SIGTERM, not SIGKILL: the child then stops what it started.
            child.terminate()
            child.communicate(timeout=60)
            raise
    if child.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"fresh set-up exited with {child.returncode}")
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def _end_to_end(workload, ops, walls, speed, setup_s: float) -> dict[str, float]:
    """End-to-end figures; op times in seconds of the reference core."""
    latencies = [speed.normalized(op) for op in ops if op.ok]
    wall = sum(walls) / speed.mean_slowdown()
    rss = rss_self_mb() + getattr(workload, "children_rss_mb", lambda: 0.0)()
    summary = workload.summary(ops)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / wall if wall > 0 else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else math.nan,
        "op_p90_s": percentile(latencies, 90) if latencies else math.nan,
        "core_slowdown": speed.mean_slowdown(),
        "plan_cost_usd": summary["plan_cost_usd"],
        "rss_peak_mb": rss,
        **{k: v for k, v in summary.items() if k != "plan_cost_usd"},
    }


def _elasticity(workload) -> float:
    return getattr(workload, "elasticity", ELASTICITY)


def _speed(workload) -> Speed:
    return Speed(elasticity=_elasticity(workload))


def _traced(workload):
    """Untraced overhead pass, then the full traced pass; per-layer metrics.

    Layer times are scaled to the reference core like the end-to-end
    ones (by the pass's mean slowdown); counts and ratios are as read.
    """
    from repro.telemetry import metrics

    specs, same_prefix = workload.overhead_specs()
    plain_speed = _speed(workload)
    plain_ops, plain_walls = workload.run(specs, plain_speed)
    speed = _speed(workload)
    tracer = Tracer().install()
    try:
        before = metrics.snapshot()
        ops, walls = workload.run(workload.specs(), speed, tracer)
        after = metrics.snapshot()
    finally:
        tracer.uninstall()
    layers = {name: 0.0 for name in PER_LAYER}
    layers["unattributed_s"] = sum(op.latency - op.covered for op in ops)
    layers.update(workload.layers(ops, tracer, before, after))
    slowdown = speed.mean_slowdown()
    for name, unit in PER_LAYER.items():
        if unit == "s":
            layers[name] /= slowdown
        elif unit == "1/s":
            layers[name] *= slowdown
    if same_prefix:
        traced = sum(walls[: len(specs)]) / slowdown
        plain = sum(plain_walls) / plain_speed.mean_slowdown()
    else:
        traced = sum(walls) / slowdown / max(1, len(ops))
        plain = sum(plain_walls) / plain_speed.mean_slowdown() / max(1, len(plain_ops))
    layers["trace.overhead_ratio"] = traced / plain if plain > 0 else 0.0
    return ops, walls, speed, layers


def _print_metrics(title: str, values: dict, units: dict, ops) -> None:
    print(title)
    count = sum(1 for op in ops if op.ok)
    for name, value in values.items():
        note = f"  (n={count})" if name in ("op_p50_s", "op_p90_s") else ""
        print(f"  {name:<28} {value:>16.6g} {units.get(name, '')}{note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    os.environ["TMPDIR"] = workdir
    workload = None
    # A terminated run still stops the service processes it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.setup_only:
            workload, setup_s = _setup(args, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = []
        if not args.trace:
            setups = [_fresh_setup(args) for _ in range(SETUPS - 1)]
        workload, own_setup = _setup(args, workdir)
        setups.append(own_setup)

        print("env " + json.dumps(environment(args.workload, args.seed)))
        if args.trace:
            ops, walls, speed, layers = _traced(workload)
        else:
            speed = _speed(workload)
            ops, walls = workload.run(workload.specs(), speed)
        e2e = _end_to_end(workload, ops, walls, speed, statistics.median(setups))
        errors = workload.check(ops)
        if hasattr(workload, "digest"):
            print(f"delta digest {workload.digest()}")
        workload.close()
        workload = None

        attempted, failed = len(ops), sum(1 for op in ops if not op.ok)
        extras = {
            "fail_ratio": failed / attempted if attempted else 1.0,
            **{k: v for k, v in e2e.items() if k not in END_TO_END},
        }
        if args.trace:
            layers.update(extras)
            _print_metrics("per-layer metrics", layers, PER_LAYER, ops)
            reported = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
        else:
            shown = {n: e2e[n] for n in END_TO_END}
            shown.update(extras)
            _print_metrics("end-to-end metrics", shown, {**END_TO_END, **PER_LAYER}, ops)
            print(f"  setup runs: {', '.join(f'{s:.3f}' for s in setups)} s")
            reported = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
        for error in errors:
            print(f"check failed: {error}")
        print(json.dumps({
            "correct": not errors and attempted > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": reported,
        }))
        return 0
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
