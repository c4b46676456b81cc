"""The one process-parallel map behind every `--jobs` flag."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def worker_count(jobs: int, num_items: int) -> int:
    """Workers to start: `jobs`, capped by the work items and the available CPUs.

    A pool starts all its workers at once, so an uncapped request could ask
    the system for any number of processes.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return max(1, min(jobs, num_items, available_cpus()))


def parallel_map(fn: Callable[[T], R], work: Iterable[T], jobs: int) -> list[R]:
    """`[fn(item) for item in work]`, in order, over up to `jobs` processes."""
    work = list(work)
    workers = worker_count(jobs, len(work))
    if workers == 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))
