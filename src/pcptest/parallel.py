"""Independent work units on every CPU the process may use.

Each unit is a pure function of its inputs, so results kept in input order
are bit-identical to the serial loop for any worker count.  Forked workers
inherit the function and the units; only a unit's position and its result
cross between processes.  Each worker runs OpenBLAS on one thread.
Results come back lazily, so a caller can work on the first ones while the
workers still fit the rest.
"""

import ctypes
import multiprocessing as mp
import os
from collections.abc import Callable, Generator, Sequence
from concurrent.futures import Future, ProcessPoolExecutor

_job = None  # (fn, units) in a worker

# The thread-count setters of OpenBLAS builds: numpy's bundled 64-bit one,
# scipy's, and plain builds.
_SET_BLAS_THREADS = (
    "scipy_openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def worker_count() -> int:
    """CPUs this process may run on; tests replace it to fix the count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def openblas_libraries() -> list[ctypes.CDLL]:
    """The OpenBLAS libraries loaded in this process, numpy's among them,
    found by name in its memory map; none where there is no such map."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            pass
    return libs


def _one_blas_thread() -> None:
    """Pin every loaded OpenBLAS to one thread.  The workers already fill
    the CPUs; BLAS threads of their own would only oversubscribe them."""
    for lib in openblas_libraries():
        for name in _SET_BLAS_THREADS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(1)
                break


def _inherit(*job) -> None:
    global _job
    _job = job
    _one_blas_thread()


def _run_unit(i: int):
    fn, units = _job
    return fn(units[i])


def call(unit: Callable):
    """Run a zero-argument unit: ``map_units(call, thunks)`` runs units of
    different procedures in one batch."""
    return unit()


def pool_size(n_units: int) -> int:
    """The workers that ``map_units`` runs n_units units on: one, in this
    process, without "fork" and inside a worker."""
    if mp.parent_process() is not None or "fork" not in mp.get_all_start_methods():
        return 1
    return min(worker_count(), n_units)


def map_units(fn, units: Sequence) -> Generator:
    """Yield ``fn(u)`` for each unit in input order, computed on up to one
    forked worker per CPU; serial with one worker, without "fork" and inside
    a worker, so pools never nest.

    The workers fork and every unit is submitted at the call.  Each result
    is yielded once it and every unit before it are done; the first unit in
    input order that raises raises here, as if serial.  When the iterator
    is used up or closed, the pool shuts down and the units that have not
    started are cancelled, so no worker outlives it.  Wrap the call in
    ``list(...)`` for all results at once."""
    workers = pool_size(len(units))
    if workers < 2:
        return (fn(u) for u in units)
    ctx = mp.get_context("fork")
    pool = ProcessPoolExecutor(workers, ctx, initializer=_inherit, initargs=(fn, units))
    try:
        futures = [pool.submit(_run_unit, i) for i in range(len(units))]
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise
    results = _in_order(pool, futures)
    next(results)
    return results


def _in_order(pool: ProcessPoolExecutor, futures: list[Future]) -> Generator:
    """The futures' results in order.  Primed by one ``next``, so that the
    generator sits inside the ``try`` and closing it before the first result
    still shuts the pool down."""
    try:
        yield
        for future in futures:
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)
