"""parallel.map_units: results in input order and as they come, serial
fallbacks, the serial loop's error, and no worker left behind."""

import ctypes
import multiprocessing
import os
import time

import pytest

from pcptest import parallel
from pcptest.data import DataError


def pid_and_square(u):
    if u == 0:
        time.sleep(0.2)  # unit 0 finishes after the others
    return os.getpid(), u * u


def fail_odd(u):
    if u == 1:
        time.sleep(0.5)  # unit 3 fails first in time
    if u % 2:
        raise DataError(f"unit {u}")
    return u


def test_results_in_input_order_from_workers(workers):
    workers(2)
    out = list(parallel.map_units(pid_and_square, range(7)))
    assert [sq for _, sq in out] == [u * u for u in range(7)]
    assert os.getpid() not in {pid for pid, _ in out}
    assert multiprocessing.active_children() == []


def test_one_worker_runs_in_this_process(workers):
    workers(1)
    assert {pid for pid, _ in parallel.map_units(pid_and_square, range(3))} == {os.getpid()}


def test_without_fork_runs_in_this_process(workers, monkeypatch):
    workers(2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert {pid for pid, _ in parallel.map_units(pid_and_square, range(3))} == {os.getpid()}


def inner_batch(_):
    return list(parallel.map_units(pid_and_square, range(3)))


def test_call_inside_a_worker_runs_serially(workers):
    workers(2)
    batches = parallel.map_units(inner_batch, range(2))
    for batch in batches:
        pids = {pid for pid, _ in batch}
        assert len(pids) == 1 and os.getpid() not in pids


@pytest.mark.parametrize("n_workers", [1, 2])
def test_first_failing_unit_in_input_order_raises(workers, n_workers):
    workers(n_workers)
    with pytest.raises(DataError, match="^unit 1$"):
        list(parallel.map_units(fail_odd, range(4)))
    assert multiprocessing.active_children() == []


def sleep_unit(seconds):
    time.sleep(seconds)
    return seconds


def test_results_come_before_the_batch_ends(workers):
    workers(2)
    t0 = time.monotonic()
    results = parallel.map_units(sleep_unit, [0.0, 0.0, 1.0, 1.0])
    assert next(results) == 0.0 and next(results) == 0.0
    assert time.monotonic() - t0 < 0.9
    assert list(results) == [1.0, 1.0]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_results", [0, 1])
def test_closing_early_cancels_pending_units(workers, n_results):
    """A consumer that stops after n_results results (0: closes before the
    first) leaves no worker, and the units not yet started never run."""
    workers(2)
    sleeps = [0.25] * 16
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="consumer failed"):
        results = parallel.map_units(sleep_unit, sleeps)
        try:
            for _ in range(n_results):
                next(results)
            raise RuntimeError("consumer failed")
        finally:
            results.close()
    assert multiprocessing.active_children() == []
    # Two units run and at most a few more are already queued to the workers.
    assert time.monotonic() - t0 < sum(sleeps) / 2


def blas_thread_counts():
    """The thread count of each loaded OpenBLAS that reports one."""
    counts = []
    for lib in parallel.openblas_libraries():
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def test_workers_run_blas_on_one_thread(workers):
    workers(2)
    before = blas_thread_counts()
    assert before, "numpy's OpenBLAS was not found"
    out = list(parallel.map_units(lambda _: blas_thread_counts(), range(2)))
    assert out == [[1] * len(before)] * 2
    assert blas_thread_counts() == before
