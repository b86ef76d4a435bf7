"""The bounded process worker pool.

One solver per process: a wedged simplex, a pathological branch-and-
bound or a hard crash in native code takes down *its worker*, never the
service.  Workers are plain ``multiprocessing`` processes (the ``fork``
start method where available, so workers inherit the already-imported
solver stack instead of paying a cold interpreter start each) with a
private inbox queue each — private inboxes are what give refine jobs
worker affinity — and a private result pipe each.  Results deliberately
do *not* share a queue: the manager kills workers (timeouts,
cancellation), and killing a process mid-``put`` on a shared
``multiprocessing.Queue`` can leave the queue's pipe/lock corrupt for
every other producer.  A per-worker ``Pipe`` confines any such damage
to the killed worker's connection, which the manager simply discards.

Workers die with the pool's process.  Each pool holds the only write
end of a *lifeline* pipe that nobody ever writes to: a worker watches
the read end on a daemon thread, and when the owner dies — even by
SIGKILL, which runs no cleanup — the kernel closes that write end, the
read end reports EOF and the worker exits at once, mid-job or idle.
Every process forked from this one closes its inherited copies of the
write ends (a fork hook), so no worker can keep another pool's
lifeline open.

The pool only *hosts* processes; job bookkeeping (retries, timeouts,
cancellation) lives in :class:`repro.service.manager.JobManager`, whose
supervisor blocks on :meth:`WorkerPool.wait_handles` — every open result
pipe plus every process sentinel — so a result, a progress tick or a
worker's death wakes it the moment it happens.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import weakref
from typing import Any

from ..telemetry import set_progress_sink
from .executor import execute_job
from .jobs import JobKind

#: Message sent to a worker inbox to make it exit its loop.
STOP = None

#: Ticks inside this window are dropped before they reach the result
#: pipe — a hot branch-and-bound loop must not flood the manager.
PROGRESS_MIN_INTERVAL = 0.2


#: Lifeline write ends held by pools in this process (see module doc).
_LIFELINE_WRITERS: "weakref.WeakSet" = weakref.WeakSet()


def _close_lifelines_in_child() -> None:  # pragma: no cover - runs post-fork
    for writer in list(_LIFELINE_WRITERS):
        writer.close()


os.register_at_fork(after_in_child=_close_lifelines_in_child)


def _exit_with_owner(lifeline) -> None:
    """Block until the pool's owner is gone, then end this worker now."""
    try:
        lifeline.poll(None)  # readable only at EOF: nothing is ever sent
    finally:
        os._exit(1)


def _mp_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def worker_main(worker_id: int, inbox, results, lifeline) -> None:
    """The worker process loop: take a job, run it, report back.

    Keeps the per-process refine-session registry alive across jobs —
    that is what lets sequential refine requests against one session
    reuse a warm :class:`~repro.core.incremental.RevisionedModel`.
    ``results`` is this worker's private end of its result pipe and
    ``lifeline`` the read end of the pool's lifeline pipe.
    """
    # The manager owns lifecycle; a terminal Ctrl-C must not kill
    # workers before the manager drains them.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_with_owner, args=(lifeline,), name="lifeline", daemon=True
    ).start()
    sessions: dict[str, Any] = {}
    while True:
        message = inbox.get()
        if message is STOP:
            break
        job_id, kind, payload = message

        def forward_tick(event: dict, _job_id: str = job_id) -> None:
            # Rides the same private pipe as the final result; the
            # manager files it under the running job's event stream.
            results.send((worker_id, _job_id, "progress", event, 0.0))

        set_progress_sink(forward_tick, min_interval=PROGRESS_MIN_INTERVAL)
        try:
            result, elapsed = execute_job(JobKind(kind), payload, sessions)
            results.send((worker_id, job_id, "ok", result, elapsed))
        except BaseException as exc:  # noqa: BLE001 - must never kill the loop
            results.send(
                (worker_id, job_id, "error", f"{type(exc).__name__}: {exc}", 0.0)
            )
        finally:
            set_progress_sink(None)


class WorkerHandle:
    """One pool slot: the live process plus manager-side bookkeeping."""

    def __init__(self, worker_id: int, ctx, lifeline) -> None:
        self.worker_id = worker_id
        self._ctx = ctx
        self.inbox = ctx.Queue()
        #: Manager-side read end of this worker's private result pipe.
        self.results, worker_end = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=worker_main,
            args=(worker_id, self.inbox, worker_end, lifeline),
            name=f"planning-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        # The child holds its own copy; closing ours makes a worker
        # death observable as EOF on the read end.
        worker_end.close()
        #: Job id currently executing on this worker (manager-side view).
        self.busy_job: str | None = None
        #: Monotonic deadline of the running job, if it has a timeout.
        self.deadline: float | None = None
        #: Refine sessions pinned to this worker.
        self.sessions: set[str] = set()

    @property
    def pid(self) -> int | None:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def idle(self) -> bool:
        return self.alive and self.busy_job is None

    def send(self, job_id: str, kind: JobKind, payload: dict) -> None:
        self.inbox.put((job_id, kind.value, payload))

    def stop(self) -> None:
        """Ask the worker to exit after its current job (graceful)."""
        self.inbox.put(STOP)

    def kill(self) -> None:
        """Hard-stop the worker immediately (timeout / cancellation).

        The result pipe is discarded with the process: a worker killed
        mid-``send`` can leave a truncated message in it, and nothing a
        killed worker was reporting is wanted anyway.
        """
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        self.results.close()

    def join(self, timeout: float | None = None) -> None:
        self.process.join(timeout=timeout)


class WorkerPool:
    """A fixed-size set of :class:`WorkerHandle` slots."""

    def __init__(self, size: int) -> None:
        self._ctx = _mp_context()
        self._next_id = 0
        self.restarts = 0
        # Only this process may hold the write end (see the module doc).
        self._lifeline, self._lifeline_writer = self._ctx.Pipe(duplex=False)
        _LIFELINE_WRITERS.add(self._lifeline_writer)
        self.workers: list[WorkerHandle] = [self._spawn() for _ in range(size)]

    def _spawn(self) -> WorkerHandle:
        handle = WorkerHandle(self._next_id, self._ctx, self._lifeline)
        self._next_id += 1
        return handle

    def poll_results(self) -> list[tuple]:
        """Collect every buffered completion message, non-blocking.

        Reads each worker's private result pipe.  A pipe that hits EOF
        (worker died) or yields garbage (worker killed mid-``send``) is
        closed and ignored — the damage cannot reach other workers'
        results, and the reaper re-queues whatever job was in flight.
        """
        messages: list[tuple] = []
        for worker in self.workers:
            conn = worker.results
            if conn.closed:
                continue
            try:
                while conn.poll():
                    messages.append(conn.recv())
            except (EOFError, OSError):
                conn.close()
            except Exception:  # truncated pickle from a killed sender
                conn.close()
        return messages

    def wait_handles(self) -> list[int]:
        """File descriptors that become readable when a worker needs the
        supervisor: its result pipe (a message, or EOF on death) and its
        process sentinel (ready once the process has exited)."""
        handles = []
        for worker in self.workers:
            if not worker.results.closed:
                handles.append(worker.results.fileno())
            handles.append(worker.process.sentinel)
        return handles

    def restart(self, worker: WorkerHandle) -> WorkerHandle:
        """Replace a dead/killed worker with a fresh process, in place.

        The dead worker's inbox, result pipe and any refine sessions it
        held are abandoned; the manager re-queues its in-flight job from
        the job record, so nothing is lost except warm solver state.
        """
        worker.kill()  # reap if half-dead; no-op when already gone
        index = self.workers.index(worker)
        replacement = self._spawn()
        self.workers[index] = replacement
        self.restarts += 1
        return replacement

    def idle_workers(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.idle]

    def worker_for_session(self, session: str) -> WorkerHandle | None:
        for worker in self.workers:
            if session in worker.sessions and worker.alive:
                return worker
        return None

    @property
    def alive_count(self) -> int:
        return sum(1 for w in self.workers if w.alive)

    @property
    def busy_count(self) -> int:
        return sum(1 for w in self.workers if w.busy_job is not None)

    def stop_all(self, timeout: float = 5.0) -> None:
        """Graceful stop: sentinel each inbox, join, then kill stragglers."""
        for worker in self.workers:
            if worker.alive:
                worker.stop()
        for worker in self.workers:
            worker.join(timeout=timeout)
        for worker in self.workers:
            if worker.alive:
                worker.kill()
            elif not worker.results.closed:
                worker.results.close()
        self._close_lifeline()

    def kill_all(self) -> None:
        for worker in self.workers:
            worker.kill()
        self._close_lifeline()

    def _close_lifeline(self) -> None:
        """Release the lifeline once every worker is gone."""
        self._lifeline_writer.close()
        self._lifeline.close()
