"""The one process-parallel map behind every `--jobs` flag.

Pool workers run a single-threaded BLAS. A forked worker inherits the
parent's multi-threaded OpenBLAS, so N workers on N CPUs would run N BLAS
threads each and contend for the CPUs: on two CPUs that made `--jobs 2`
slower than `--jobs 1`. The pool's initializer sets the thread count to one
in each worker only; the serial path and the parent process keep their BLAS
threads. Where no OpenBLAS is found (MKL, macOS, no `/proc`), the
initializer does nothing.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_MAPS = "/proc/self/maps"
# OpenBLAS builds export their thread controls under one of these names;
# numpy's wheels ship `scipy_openblas` with a `64_` suffix.
_OPENBLAS_PREFIXES = ("openblas", "scipy_openblas")
_OPENBLAS_SUFFIXES = ("", "64_", "_64_")


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


def _loaded_openblas() -> list[ctypes.CDLL]:
    """The OpenBLAS libraries already mapped into this process."""
    try:
        with open(_MAPS) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6 and "openblas" in os.path.basename(fields[5]) and fields[5] not in paths:
            paths.append(fields[5])
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return libs


def _openblas_function(verb: str):
    """The first `<prefix>_<verb>_num_threads<suffix>` a loaded OpenBLAS exports, or None."""
    for lib in _loaded_openblas():
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
                if fn is not None:
                    return fn
    return None


def use_one_blas_thread() -> None:
    """Pool initializer: limit this process's OpenBLAS to one thread, if one is loaded."""
    set_threads = _openblas_function("set")
    if set_threads is None:
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


def parallel_map(fn: Callable[[T], R], work: Iterable[T], jobs: int) -> list[R]:
    """`[fn(item) for item in work]`, in order, over up to `jobs` processes."""
    work = list(work)
    workers = worker_count(jobs, len(work))
    if workers == 1:
        return [fn(item) for item in work]
    with ProcessPoolExecutor(max_workers=workers, initializer=use_one_blas_thread) as pool:
        return list(pool.map(fn, work))
