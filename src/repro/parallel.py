"""Shared process fan-out used across the library.

:func:`parallel_map` fans the experiment sweeps (CLI ``--jobs N``) and
the decomposition engine's pricing (:mod:`repro.core.decomposition`)
across worker processes: "run these independent chunks in parallel".
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

__all__ = ["parallel_map", "effective_jobs"]


def _in_daemon() -> bool:
    import multiprocessing

    return multiprocessing.current_process().daemon


def parallel_map(
    fn: Callable[[_T], _R], items: Iterable[_T], jobs: int = 1
) -> list[_R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    ``jobs <= 1`` runs a plain serial loop (no pickling requirements);
    otherwise a :class:`~concurrent.futures.ProcessPoolExecutor` with
    ``min(jobs, len(items))`` workers is used and results come back in
    input order.  ``fn`` and the items must be picklable in that case —
    pass a module-level function (or :func:`functools.partial` over one).

    Inside a daemonic process (e.g. a planning-service worker) forking
    children is forbidden, so the call degrades to the serial loop
    rather than raising.
    """
    work: Sequence[_T] = list(items)
    if jobs <= 1 or len(work) <= 1 or _in_daemon():
        return [fn(item) for item in work]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
        return list(pool.map(fn, work))


def effective_jobs(jobs: int) -> int:
    """Resolve a jobs request: ``0``/negative means "one per CPU"."""
    if jobs >= 1:
        return jobs
    return max(1, os.cpu_count() or 1)
