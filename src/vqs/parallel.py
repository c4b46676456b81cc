"""The one process-parallel map behind every `--jobs` flag, and the one
thread map behind the attention heads, under one CPU budget: a process keeps
at most `available_cpus()` CPUs busy. `parallel_map` gives each of its
`worker_count` workers `available_cpus() // workers` of them, the threads
that worker's `thread_map` may run, so workers × threads per worker never
exceeds the CPUs. On two CPUs a serial run has two head threads, and each
`--jobs 2` worker one.

A process that starts threads or workers runs a one-thread BLAS, pinned in
the parent before its first thread or fork, as BLAS threads on top of them
would contend for the same CPUs (on two CPUs, two heads on two threads took
11.1 ms with one BLAS thread and 31.7 ms with two). Forked workers inherit
the pin and make no BLAS call to set it: OpenBLAS shuts its thread pool down
at a fork, and `set_num_threads` in the child starts a new thread that
busy-waits on the CPU another worker needs (at `--jobs 2` on two CPUs, 150 ms
for a video that took 77 ms in one process). Without OpenBLAS (MKL, macOS,
no `/proc`) the pin does nothing.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
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

# A `--jobs` worker's threads, set by its pool's initializer; None elsewhere.
_thread_share: Optional[int] = None


def available_cpus() -> int:
    """CPUs this process may keep busy: its share in a `--jobs` worker,
    otherwise every CPU it may run on."""
    if _thread_share is not None:
        return _thread_share
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


def thread_count(num_items: int) -> int:
    """Threads `thread_map` runs `num_items` items on: one per item, up to the available CPUs."""
    return max(1, min(num_items, available_cpus()))


def _openblas_function(verb: str):
    """The first `<prefix>_<verb>_num_threads<suffix>` exported by an OpenBLAS
    already mapped into this process, or None."""
    try:
        with open(_MAPS) as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    fields = [line.split(maxsplit=5) for line in lines]
    for path in dict.fromkeys(f[5] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[5])):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in _OPENBLAS_PREFIXES:
            for suffix in _OPENBLAS_SUFFIXES:
                fn = getattr(lib, f"{prefix}_{verb}_num_threads{suffix}", None)
                if fn is not None:
                    return fn
    return None


# The threads behind `thread_map`, started on its first threaded call. Like
# BLAS's own thread pool they belong to the process, not to a caller.
_threads: Optional[ThreadPoolExecutor] = None
_threads_lock = threading.Lock()


def _drop_threads() -> None:
    """A forked child has no threads: forget the parent's pool and its lock."""
    global _threads, _threads_lock
    _threads, _threads_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_threads)


@functools.cache
def pin_one_blas_thread() -> None:
    """Limit this process's OpenBLAS to one thread, if one is loaded. Only the
    first call acts, and forked workers inherit it: make it before the first
    thread or fork."""
    set_threads = _openblas_function("set")
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


def _take_thread_share(threads: int) -> None:
    """Pool initializer: the threads this worker may run. It makes no BLAS call."""
    global _thread_share
    _thread_share = threads


def parallel_map(fn: Callable[[T], R], work: Iterable[T], jobs: int) -> list[R]:
    """`[fn(item) for item in work]`, in order, over up to `jobs` processes."""
    work = list(work)
    workers = worker_count(jobs, len(work))
    if workers == 1:
        return [fn(item) for item in work]
    pin_one_blas_thread()
    with ProcessPoolExecutor(max_workers=workers, initializer=_take_thread_share,
                             initargs=(available_cpus() // workers,)) as pool:
        return list(pool.map(fn, work))


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
            pin_one_blas_thread()
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
