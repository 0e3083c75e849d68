"""Independent work units on every CPU the process may use.

Each unit is a pure function of its inputs, so results kept in input order
are bit-identical to the serial loop for any worker count.  Forked workers
inherit the function and the units; only a unit's position and its result
cross between processes.
"""

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor

_job = None  # (fn, units) in a worker


def worker_count() -> int:
    """CPUs this process may run on; tests replace it to fix the count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _inherit(*job) -> None:
    global _job
    _job = job


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
