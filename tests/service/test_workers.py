"""Worker processes never outlive the process that owns their pool.

A SIGKILLed owner runs no cleanup, so nothing can tell its workers to
stop; they must notice on their own (the pool's lifeline pipe) or they
block on their inbox forever, each holding a solver's worth of memory.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time

import pytest

from repro.service.cluster import SubprocessReplica

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
)

#: How long an orphaned worker may take to notice its owner is gone.
EXIT_WITHIN = 5.0


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def children_of(pid: int) -> list[int]:
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[1]) == pid:
                kids.append(int(entry))
    return kids


def running(pid: int) -> bool:
    """Alive and not a zombie (an exited orphan may wait to be reaped)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def wait_gone(pids: list[int], timeout: float = EXIT_WITHIN) -> list[int]:
    """The pids still running after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [pid for pid in alive if running(pid)]
    return alive


def test_workers_exit_when_their_replica_is_sigkilled():
    replica = SubprocessReplica(workers=2, job_timeout=None).start()
    try:
        workers = children_of(replica.process.pid)
        assert len(workers) >= 2, workers
        replica.kill()
        assert wait_gone(workers) == []
    finally:
        replica.kill()


def test_no_pool_keeps_another_pools_workers_alive():
    # Two pools in one process, one with a restarted worker (forked after
    # both lifelines existed): every worker still dies with the owner.
    script = textwrap.dedent(
        """
        import os, signal, sys
        from repro.service.workers import WorkerPool
        first, second = WorkerPool(1), WorkerPool(1)
        first.restart(first.workers[0])
        pids = [w.pid for pool in (first, second) for w in pool.workers]
        print(" ".join(map(str, pids)), flush=True)
        sys.stdin.readline()
        os.kill(os.getpid(), signal.SIGKILL)
        """
    )
    owner = subprocess.Popen(
        [sys.executable, "-c", script],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    try:
        pids = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(pids) == 2 and all(running(pid) for pid in pids)
        owner.stdin.write("\n")
        owner.stdin.flush()
        owner.wait(timeout=10.0)
        assert wait_gone(pids) == []
    finally:
        if owner.poll() is None:
            owner.kill()
            owner.wait()
