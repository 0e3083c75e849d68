"""Independent work units on every CPU the process may use.

Each unit is a pure function of its inputs, so results kept in input order
are bit-identical to the serial loop for any worker count.  Forked workers
inherit the function and the units; only a unit's position and its result
cross between processes.  Each worker runs OpenBLAS on one thread.
"""

import ctypes
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor

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


def map_units(fn, units) -> list:
    """``[fn(u) for u in units]`` on up to one forked worker per CPU; serial
    with one worker, without "fork" and inside a worker, so pools never nest.
    The first unit in input order that raises raises here, as if serial."""
    workers = min(worker_count(), len(units))
    if workers < 2 or mp.parent_process() is not None or "fork" not in mp.get_all_start_methods():
        return [fn(u) for u in units]
    ctx = mp.get_context("fork")
    with ProcessPoolExecutor(workers, ctx, initializer=_inherit, initargs=(fn, units)) as pool:
        return list(pool.map(_run_unit, range(len(units))))
