"""replay-mixed: warm incremental re-planning through the online controller.

Each replay drives an :class:`OnlineController` over the ``mixed`` trace
(diurnal load, a flash crowd on the four largest groups, a day-long
outage of one site) on a small ``online_line_scenario`` estate, with the
same builtin branch-and-bound as milp-cold.  Re-plans reach it through
the warm paths: fingerprint hits, context extension, hint repair and
dual re-entry.

An op is one replay episode: every controller step of one trace, timed
step by step (each replay's initial cold plan is set-up for that episode
and untimed).  A single re-plan step is too bimodal to be the op: about
half are answered from the fingerprint cache in 2-4 ms and the rest
re-solve in 10-150 ms, so the median step flips between the two modes
from one seed to the next.  Re-plan cost also depends on where a trace's
threshold crossings fall, so the run replays a few dozen short traces,
each on its own estate and trace seed, instead of one long one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

from repro import PlannerOptions, SolveOptions
from repro.core.validation import StateValidationError, validate_plan, validate_state
from repro.datasets import online_line_scenario, online_line_trace
from repro.online import OnlineController
from repro.online.replay import build_queue

from harness import Op, cache_layer, core_layers, counter_delta, lp_layer

#: Replays per second of ``--seconds``.
REPLAYS_PER_SECOND = 2.4
HORIZON_HOURS = 96.0
TIME_LIMIT = 30.0
#: Branch-and-bound node budget per re-plan.  Nearly every re-plan
#: proves optimality within 100 nodes, but about 3 % of them need 300 to
#: 32,000 (up to 21 s), and how many a run meets decides its time.  An
#: online controller bounds re-plan latency, and a node budget does so
#: deterministically, where a time limit would not; a re-plan that hits
#: it keeps its incumbent (``lp.unproven_solves`` counts them).
NODE_LIMIT = 300
#: online_line_scenario arguments.
ESTATE = dict(n_groups=12, total_servers=300, n_datacenters=5, capacity=170)
#: Draw of the fixed warm-up trace (the same in every run).
WARM_UP_SEED = 1
#: Seconds the determinism re-run in a child process may take.
CHILD_TIMEOUT = 120.0


def _options():
    return PlannerOptions(
        backend="branch_bound",
        solve_options=SolveOptions(
            relaxation_engine="builtin", time_limit=TIME_LIMIT, node_limit=NODE_LIMIT
        ),
    )


def _replay_inputs(seed: int, index: int, horizon: float = HORIZON_HOURS):
    """An estate and its trace as (time, same-instant event batch) pairs."""
    draw = seed * 100_003 + index
    while True:
        # Heavy-tailed group sizes can exceed a site; skip such draws.
        state = online_line_scenario(**ESTATE, seed=draw)
        try:
            validate_state(state)
            break
        except StateValidationError:
            draw += 1_000_003
    load, outages = online_line_trace(
        state, profile="mixed", horizon_hours=horizon, seed=draw
    )
    queue = build_queue(load, outages, horizon)
    batches = []
    while queue:
        batch = [queue.pop()]
        now = batch[0].time_hours
        while queue and queue.peek().time_hours == now:
            batch.append(queue.pop())
        batches.append((now, batch))
    return state, batches


def _signature(deltas) -> str:
    rows = [
        [d.time_hours, d.reason, round(d.cost_before, 6), round(d.cost_after, 6),
         [[m.group, m.from_site, m.to_site] for m in d.moves]]
        for d in deltas
    ]
    return hashlib.sha256(json.dumps(rows).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class _Replay:
    controller: object
    #: ``time.perf_counter()`` when the step loop began.
    start: float
    #: Seconds of each re-planning step.
    replans: list[float]
    #: Seconds of the whole step loop.
    loop: float
    #: Seconds of the loop inside outermost layer spans (traced runs).
    covered: float


def _run_replay(state, batches, options, tracer=None) -> _Replay:
    controller = OnlineController(state, planner_options=options)
    controller.initial_plan()
    replans, loop = [], 0.0
    covered = tracer.covered if tracer else 0.0
    loop_start = time.perf_counter()
    for now, batch in batches:
        solved = controller.solve_seconds_total
        start = time.perf_counter()
        controller.step(now, batch)
        elapsed = time.perf_counter() - start
        loop += elapsed
        if controller.solve_seconds_total > solved:
            replans.append(elapsed)
    covered = (tracer.covered - covered) if tracer else 0.0
    return _Replay(controller, loop_start, replans, loop, covered)


def _child_signature(seed: int, index: int) -> str:
    """Delta signature of replay ``index``, replayed in a new process."""
    hash_seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), str(seed), str(index)],
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True,
    )
    return child.stdout.split()[-1]


class Workload:
    name = "replay-mixed"

    def __init__(self, seed: int, seconds: int, workdir: str) -> None:
        self.options = _options()
        count = max(2, round(REPLAYS_PER_SECOND * seconds))
        self.inputs = [_replay_inputs(seed, i) for i in range(count)]
        self.seed = seed
        self.done: dict[int, _Replay] = {}
        # Warm-up on a trace that is the same in every run.
        _run_replay(*_replay_inputs(WARM_UP_SEED, -1, horizon=24.0), self.options)

    def specs(self) -> list:
        return list(range(len(self.inputs)))

    def overhead_specs(self) -> tuple[list, bool]:
        return self.specs()[: max(1, len(self.inputs) // 4)], True

    def run(self, specs, speed, tracer=None) -> tuple[list[Op], list[float]]:
        ops = []
        for index in specs:
            speed.maybe_sample()
            start = time.perf_counter()
            try:
                replay = _run_replay(*self.inputs[index], self.options, tracer)
            except Exception as exc:  # noqa: BLE001 - any failure is a failed op
                ops.append(
                    Op(time.perf_counter() - start, False, start, info={"error": repr(exc)})
                )
                continue
            self.done[index] = replay
            ops.append(
                Op(
                    replay.loop,
                    all(latency < TIME_LIMIT for latency in replay.replans),
                    replay.start,
                    cost=replay.controller.incumbent.breakdown.total,
                    covered=replay.covered,
                    info={"index": index},
                )
            )
        speed.sample()
        return ops, [op.latency for op in ops]

    def check(self, ops: list[Op]) -> list[str]:
        """Valid final plans and a delta sequence that replays identically.

        The first replay runs again in a child process with another
        string-hash seed, so nondeterminism between processes (set or
        dict order of strings) shows as well as nondeterminism within one.
        """
        errors = []
        for index, replay in sorted(self.done.items()):
            state = self.inputs[index][0]
            controller = replay.controller
            retired = controller.failed_sites | controller.parked_sites
            reduced = dataclasses.replace(
                state,
                target_datacenters=[
                    dc for dc in state.target_datacenters if dc.name not in retired
                ],
            )
            try:
                validate_plan(reduced, controller.incumbent)
            except ValueError as exc:
                errors.append(f"replay {index}: invalid final plan: {exc}")
        if self.done:
            first = min(self.done)
            try:
                again = _child_signature(self.seed, first)
            except (OSError, subprocess.SubprocessError) as exc:
                errors.append(f"replay {first}: re-run in a child process failed: {exc}")
            else:
                if again != self._digest(first):
                    errors.append(
                        f"replay {first}: delta sequence differs in another process"
                    )
        return errors

    def _digest(self, index: int) -> str:
        return _signature(self.done[index].controller.deltas)

    def digest(self) -> str:
        """One hash over every replay's delta sequence, for cross-run checks."""
        joined = ",".join(self._digest(i) for i in sorted(self.done))
        return hashlib.sha256(joined.encode("ascii")).hexdigest()[:16]

    def summary(self, ops: list[Op]) -> dict[str, float]:
        controllers = [r.controller for r in self.done.values()]
        return {
            "plan_cost_usd": sum(op.cost for op in ops if op.ok),
            "servers_moved": float(
                sum(d.servers_moved for c in controllers for d in c.deltas)
            ),
        }

    def layers(self, ops, tracer, before, after) -> dict[str, float]:
        replays = list(self.done.values())
        replan_solve = sum(r.controller.solve_seconds_total for r in replays)
        loops = sum(r.loop for r in replays)

        def delta(name: str) -> float:
            return counter_delta(before, after, f"online.{name}")

        return {
            **core_layers(tracer),
            **lp_layer(tracer, before, after),
            **cache_layer(before, after),
            "online.replan_solve_s": replan_solve,
            "online.step_self_s": loops - replan_solve,
            "online.replans": delta("replans_triggered"),
            "online.events": delta("events_processed"),
            "online.deltas": delta("deltas_emitted"),
            "online.thrash_suppressed": delta("thrash_suppressed"),
        }

    def close(self) -> None:
        pass


if __name__ == "__main__":
    # python3 replay_mixed.py SEED INDEX (with src/ on PYTHONPATH): print
    # the delta signature of that run's replay INDEX.
    seed_arg, index_arg = map(int, sys.argv[1:3])
    replayed = _run_replay(*_replay_inputs(seed_arg, index_arg), _options())
    print(_signature(replayed.controller.deltas))
