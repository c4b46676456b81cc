"""The one process-parallel map behind every `--jobs` flag, and the one
thread map behind the attention heads.

Pool workers run a single-threaded BLAS. A forked worker inherits the
parent's multi-threaded OpenBLAS, so N workers on N CPUs would run N BLAS
threads each and contend for the CPUs: on two CPUs that made `--jobs 2`
slower than `--jobs 1`. The pool's initializer sets the thread count to one
in each worker. Where no OpenBLAS is found (MKL, macOS, no `/proc`), the
initializer does nothing.

`thread_map` runs independent items, such as attention heads, on up to one
thread per CPU. A process that does so runs a single-threaded BLAS as well,
pinned before its first threaded call: the head threads already keep the
CPUs busy, and BLAS threads on top of them contend for the same CPUs (on
two CPUs, two heads on two threads took 11.1 ms with one BLAS thread and
31.7 ms with two). A `--jobs` worker runs its items serially, so that N workers never
start N threads each on N CPUs.
"""

from __future__ import annotations

import contextvars
import ctypes
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from typing import Callable, Iterable, Optional, TypeVar

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


# The threads behind `thread_map`, started on its first threaded call. Like
# BLAS's own thread pool they belong to the process, not to a caller.
_threads: Optional[ThreadPoolExecutor] = None
_threads_lock = threading.Lock()


def _drop_threads() -> None:
    """A forked child has no threads: forget the parent's pool and its lock."""
    global _threads, _threads_lock
    _threads, _threads_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_threads)


def thread_count(num_items: int) -> int:
    """Threads `thread_map` runs `num_items` items on.

    One in a process that multiprocessing started, such as a `--jobs` worker,
    and otherwise one per item, up to the available CPUs.
    """
    if multiprocessing.parent_process() is not None:
        return 1
    return max(1, min(num_items, available_cpus()))


def thread_map(fn: Callable[[T], R], work: Iterable[T]) -> list[R]:
    """`[fn(item) for item in work]`, in order, over `thread_count` threads.

    Each thread, the calling one included, takes the next item not yet taken
    until none is left, so that a thread that gets no CPU delays no more than
    the item it holds. The other threads run in a copy of the caller's
    context, so that numpy's error state and autodiff's recording mode hold
    on every thread. `fn` must not call `thread_map`, and no item may depend
    on another's effects.
    """
    global _threads
    work = list(work)
    width = thread_count(len(work))
    if width == 1:
        return [fn(item) for item in work]
    with _threads_lock:
        if _threads is None:
            use_one_blas_thread()
            _threads = ThreadPoolExecutor(max_workers=available_cpus() - 1,
                                          thread_name_prefix="vqs-threads")
        pool = _threads
    indices = iter(range(len(work)))  # next() on a range iterator is atomic
    out: list = [None] * len(work)

    def drain() -> None:
        for i in indices:
            out[i] = fn(work[i])

    futures = [pool.submit(contextvars.copy_context().run, drain) for _ in range(width - 1)]
    try:
        drain()
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return out
