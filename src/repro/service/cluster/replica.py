"""Replica harnesses: boot N planning-service replicas for a cluster.

Two ways to run a replica, one interface:

* :class:`InProcessReplica` — the manager + HTTP server inside this
  process (threads).  Fast to boot, fully inspectable, what tests and
  the CI smoke arm use.  Note the solver work still happens in forked
  worker *processes*, so even in-process replicas parallelize solves.
* :class:`SubprocessReplica` — a real ``etransform serve`` child
  process.  Honest isolation (its own GIL, its own supervisor), what
  the load benchmark uses; it can be killed and restarted to exercise
  recovery paths.

:class:`ClusterHarness` wires N of either kind to one shared SQLite
store and a :class:`~repro.service.cluster.dispatcher.Dispatcher`, and
tears the lot down in reverse order.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from typing import Any

from ..config import ServiceConfig
from ..http import PlanningServer
from ..manager import JobManager
from .dispatcher import Dispatcher
from .store import JobStore


class InProcessReplica:
    """One replica hosted by this process (HTTP thread + manager)."""

    def __init__(
        self, config: ServiceConfig, store: "JobStore | None" = None
    ) -> None:
        self.config = config
        self.manager = JobManager(config, store=store)
        self.server: PlanningServer | None = None

    def start(self) -> "InProcessReplica":
        self.manager.start()
        self.server = PlanningServer(
            (self.config.host, self.config.port), self.manager
        ).start(name=f"replica-{self.manager.replica_id}")
        return self

    @property
    def url(self) -> str:
        if self.server is None:
            raise RuntimeError("replica not started")
        return self.server.url

    def stop(self, drain: bool = False) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.manager.shutdown(drain=drain)

    def __enter__(self) -> "InProcessReplica":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class SubprocessReplica:
    """One replica as a real ``etransform serve`` child process."""

    def __init__(
        self,
        workers: int = 2,
        store_url: str | None = None,
        replica_id: str | None = None,
        max_queue_depth: int | None = None,
        job_timeout: float | None = 300.0,
        extra_args: list[str] | None = None,
    ) -> None:
        self.workers = workers
        self.store_url = store_url
        self.replica_id = replica_id
        self.max_queue_depth = max_queue_depth
        self.job_timeout = job_timeout
        self.extra_args = list(extra_args or [])
        self.process: subprocess.Popen | None = None
        self.url: str | None = None

    def _command(self) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--port",
            "0",
            "--workers",
            str(self.workers),
        ]
        if self.job_timeout is not None:
            command += ["--job-timeout", str(self.job_timeout)]
        if self.store_url is not None:
            command += ["--store", self.store_url]
        if self.replica_id is not None:
            command += ["--replica-id", self.replica_id]
        if self.max_queue_depth is not None:
            command += ["--max-queue-depth", str(self.max_queue_depth)]
        return command + self.extra_args

    def start(self, boot_timeout: float = 30.0) -> "SubprocessReplica":
        env = dict(os.environ)
        self.process = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        # The serve banner prints the bound (possibly ephemeral) URL.
        deadline = time.monotonic() + boot_timeout
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            marker = "listening on "
            if marker in line:
                self.url = line.split(marker, 1)[1].split()[0]
                # Drain further output in the background so the child
                # never blocks on a full stdout pipe.
                threading.Thread(
                    target=self._drain_output, daemon=True
                ).start()
                return self
        self.kill()
        raise RuntimeError("replica subprocess did not report its URL")

    def _drain_output(self) -> None:
        try:
            for _ in self.process.stdout:
                pass
        except ValueError:  # stdout closed during teardown
            pass

    def kill(self) -> None:
        """Hard-stop, as an abrupt replica death (recovery tests)."""
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10.0)

    def terminate(self, timeout: float = 30.0) -> int:
        """Graceful SIGTERM stop (drains); returns the exit code."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=10.0)
        return self.process.returncode

    def __enter__(self) -> "SubprocessReplica":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.terminate()


class ClusterHarness:
    """N replicas + a dispatcher, booted and torn down as one unit."""

    def __init__(
        self,
        n_replicas: int = 2,
        workers_per_replica: int = 2,
        store_url: str | None = None,
        max_queue_depth: int | None = None,
        job_timeout: float | None = 60.0,
        in_process: bool = True,
        health_interval: float = 0.2,
        eviction_threshold: int = 2,
        config_overrides: dict[str, Any] | None = None,
    ) -> None:
        if n_replicas < 1:
            raise ValueError("a cluster needs at least one replica")
        self.n_replicas = n_replicas
        self.workers_per_replica = workers_per_replica
        self.store_url = store_url
        self.max_queue_depth = max_queue_depth
        self.job_timeout = job_timeout
        self.in_process = in_process
        self.health_interval = health_interval
        self.eviction_threshold = eviction_threshold
        self.config_overrides = dict(config_overrides or {})
        self.replicas: list[InProcessReplica | SubprocessReplica] = []
        self.dispatcher: Dispatcher | None = None
        self.dispatcher_server: PlanningServer | None = None

    def start(self) -> "ClusterHarness":
        for index in range(self.n_replicas):
            replica_id = f"replica-{index}"
            if self.in_process:
                settings: dict[str, Any] = {
                    "port": 0,
                    "workers": self.workers_per_replica,
                    "job_timeout": self.job_timeout,
                    "store_url": self.store_url,
                    "replica_id": replica_id,
                    "max_queue_depth": self.max_queue_depth,
                }
                settings.update(self.config_overrides)
                replica = InProcessReplica(ServiceConfig(**settings))
            else:
                replica = SubprocessReplica(
                    workers=self.workers_per_replica,
                    store_url=self.store_url,
                    replica_id=replica_id,
                    max_queue_depth=self.max_queue_depth,
                    job_timeout=self.job_timeout,
                )
            self.replicas.append(replica.start())
        self.dispatcher = Dispatcher(
            [replica.url for replica in self.replicas],
            store_url=self.store_url,
            health_interval=self.health_interval,
            eviction_threshold=self.eviction_threshold,
        ).start()
        self.dispatcher_server = PlanningServer(
            ("127.0.0.1", 0), self.dispatcher
        ).start(name="cluster-dispatcher-http")
        return self

    @property
    def url(self) -> str:
        if self.dispatcher_server is None:
            raise RuntimeError("cluster not started")
        return self.dispatcher_server.url

    def stop(self) -> None:
        if self.dispatcher_server is not None:
            self.dispatcher_server.stop()
            self.dispatcher_server = None
        if self.dispatcher is not None:
            self.dispatcher.shutdown()
            self.dispatcher = None
        for replica in self.replicas:
            if isinstance(replica, InProcessReplica):
                replica.stop()
            else:
                replica.terminate()
        self.replicas = []

    def __enter__(self) -> "ClusterHarness":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "ClusterHarness",
    "InProcessReplica",
    "SubprocessReplica",
]
