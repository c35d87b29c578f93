"""The fork pool the stages fan their tasks out to. Outputs never depend on
the worker count or on numpy's OpenBLAS thread count; only the speed does."""

from __future__ import annotations

import ctypes
import glob
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from .errors import VobsError

# the function of the pool `map_tasks` is running; its forked workers
# inherit it, so only the tasks and results cross a pipe
_job = None


def _set_blas_threads(n: int) -> int | None:
    """Set numpy's bundled OpenBLAS to `n` threads; return the previous
    count, or None, changing nothing, without the library or its symbols."""
    libs = os.path.dirname(os.path.abspath(np.__file__)) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        previous = get()
        put(n)
        return previous
    return None


def _keep_freed_memory() -> None:
    """Each worker's initializer: glibc keeps the memory a worker frees, so a
    training batch's buffers reuse the last batch's pages instead of
    faulting in new ones. Without glibc it does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD: return no free heap top below 1 GiB
    mallopt(-3, 1 << 30)   # M_MMAP_THRESHOLD: serve blocks below 1 GiB from the heap
    mallopt(-2, 128 << 20)  # M_TOP_PAD: grow the heap 128 MiB at a time


def _task(task):
    return _job(task)


def map_tasks(fn, tasks, workers: int) -> list:
    """`[fn(t) for t in tasks]`, in task order.

    With more than one worker (capped at the task count) the tasks run in a
    pool of forked processes. `fn`, with any inputs bound into it by
    `functools.partial`, reaches the workers by inheritance; a worker that
    dies is a `VobsError`.

    This process holds numpy's OpenBLAS at one thread while the pool forks,
    so each worker inherits one thread and never starts another; the count
    is restored afterwards. Setting it inside a forked worker instead would
    restart OpenBLAS's thread pool there, whose idle thread spins for about
    0.1 s of CPU time."""
    global _job
    n_workers = min(workers, len(tasks))
    if n_workers <= 1:
        return [fn(task) for task in tasks]
    _job = fn
    blas = _set_blas_threads(1)
    try:
        pool = ProcessPoolExecutor(max_workers=n_workers, initializer=_keep_freed_memory,
                                   mp_context=multiprocessing.get_context("fork"))
        try:
            return list(pool.map(_task, tasks))
        finally:
            pool.shutdown(cancel_futures=True)
    except BrokenProcessPool as exc:
        raise VobsError("a worker process died before finishing its tasks") from exc
    finally:
        _job = None
        if blas is not None:
            _set_blas_threads(blas)
