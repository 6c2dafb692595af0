"""Monte Carlo repetitions in a pool of forked processes.

Every repetition depends only on its seed, and results come back in input
order, so the process count never changes a byte of any output.  Each
child runs numpy's OpenBLAS at one thread: outputs are byte-identical at
one thread and at two, and a second thread per child only burns CPU.  The
pin is what makes the pool pay: with ``_blas_thread_functions`` returning
None, the benchmark's Monte Carlo workload fell from 23-28 to 6-10
repetitions/s on 2 vCPUs (x86-64 Linux, 5 pairs of 15-s runs).

The pool forks, it does not spawn: a spawned child re-imports __main__,
which breaks scripts that call the library at top level, and starts with
cold caches.  Forked children also inherit the function they apply, so it
need not be picklable; only the items and results cross the pipe.  The
pool forks every worker before its manager thread starts.  Checked on
Python 3.11; on 3.12+ each fork warns (DeprecationWarning) because numpy's
OpenBLAS threads are already running in the parent.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, so ``taskset -c 0`` keeps every loop in-process."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _blas_thread_functions():
    """(get, set) of the thread count of numpy's OpenBLAS, or None where
    they are not found.  Looked up once per process; forked children
    inherit the result with the library mapped at the same addresses."""
    import ctypes
    from pathlib import Path

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            try:
                dll = ctypes.CDLL(str(lib))
                get = getattr(dll, f"{prefix}get_num_threads{suffix}")
                set_ = getattr(dll, f"{prefix}set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _set_blas_threads(count: int):
    """Set numpy's OpenBLAS to ``count`` threads; return the previous
    count, or None without a setter."""
    functions = _blas_thread_functions()
    if functions is None:
        return None
    get, set_ = functions
    previous = get()
    set_(count)
    return previous


# the function a forked child applies to each item, set once in the child
# by the pool's initializer; the parent never sets it
_child_fn = None


def _start_child(fn) -> None:
    global _child_fn
    _child_fn = fn
    _set_blas_threads(1)


def _run_in_child(item):
    return _child_fn(item)


def fork_map(fn, items, processes: int) -> list:
    """``[fn(item) for item in items]``, in input order.

    With ``processes`` > 1, where the platform can fork, the items are
    shared one at a time among that many forked children; an error raised
    in a child reaches the caller with its type and message.  Otherwise the
    loop runs in this process at one OpenBLAS thread and restores the
    previous count.
    """
    import multiprocessing

    if processes > 1 and "fork" in multiprocessing.get_all_start_methods():
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(processes, multiprocessing.get_context("fork"),
                                 initializer=_start_child, initargs=(fn,)) as pool:
            return list(pool.map(_run_in_child, items, chunksize=1))
    previous = _set_blas_threads(1)
    try:
        return [fn(item) for item in items]
    finally:
        if previous is not None:
            _set_blas_threads(previous)
