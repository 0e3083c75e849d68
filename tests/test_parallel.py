"""parallel.map_units: results in input order and as they come, serial
fallbacks, the serial loop's error, and no worker left behind."""

import ctypes
import multiprocessing
import os
import time

import numpy as np
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
    """Unit 0 runs in this process, which with the one child makes the two
    workers, and no child outlives the batch."""
    workers(2)
    out = list(parallel.map_units(pid_and_square, range(7)))
    assert [sq for _, sq in out] == [u * u for u in range(7)]
    pids = {pid for pid, _ in out}
    assert out[0][0] == os.getpid() and len(pids) <= 2
    assert multiprocessing.active_children() == []


def test_one_worker_runs_in_this_process(workers):
    workers(1)
    assert {pid for pid, _ in parallel.map_units(pid_and_square, range(3))} == {os.getpid()}


def test_without_fork_runs_in_this_process(workers, monkeypatch):
    workers(2)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert {pid for pid, _ in parallel.map_units(pid_and_square, range(3))} == {os.getpid()}


def inner_batch(u):
    if u == 0:
        time.sleep(0.2)  # the child takes unit 1 meanwhile
    return os.getpid(), list(parallel.map_units(pid_and_square, range(3)))


def test_call_inside_a_worker_runs_serially(workers):
    """A batch inside a unit runs in the unit's process, whether a child or
    this one runs the unit."""
    workers(2)
    outer = list(parallel.map_units(inner_batch, range(2)))
    assert outer[0][0] == os.getpid() != outer[1][0]
    for pid, batch in outer:
        assert {inner_pid for inner_pid, _ in batch} == {pid}
    assert not parallel.in_unit()


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


def exit_in_a_child(u):
    if u == 0:
        time.sleep(0.3)  # the child takes unit 1 meanwhile
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return u


def test_a_child_that_exits_without_its_result_names_the_unit(workers):
    workers(2)
    with pytest.raises(RuntimeError, match="^unit 1: its worker process exited with code 3 "):
        list(parallel.map_units(exit_in_a_child, range(4)))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_results", [0, 1, 3])
def test_closing_early_cancels_pending_units(workers, n_results):
    """A consumer that stops after n_results results (0: closes before the
    first) leaves no worker, and the units not yet started never run: the
    child is terminated in its unit, and this process runs no further one."""
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


def set_blas_threads(counts):
    for lib, count in zip(parallel.openblas_libraries(), counts):
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [ctypes.c_int], None
                fn(count)
                break


def pid_and_blas_threads(_):
    return os.getpid(), blas_thread_counts()


def test_a_unit_run_here_pins_blas_and_restores_it(workers):
    """With BLAS on two threads here, the unit this process runs sees one,
    as does the child's, and two are back after the batch."""
    workers(2)
    before = blas_thread_counts()
    set_blas_threads([2] * len(before))
    try:
        assert blas_thread_counts() == [2] * len(before)
        out = list(parallel.map_units(pid_and_blas_threads, range(2)))
        assert out[0][0] == os.getpid()
        assert [counts for _, counts in out] == [[1] * len(before)] * 2
        assert blas_thread_counts() == [2] * len(before)
    finally:
        set_blas_threads(before)


def test_units_write_a_shared_array_for_this_process(workers):
    """What the units write to a ``shared_array`` made before the batch,
    in a child (unit 1, taken while this process sleeps in unit 0) or
    here, this process reads; ``release_pages`` keeps every value, in the
    process that wrote them and in this one."""
    workers(2)
    shared = parallel.shared_array(3 * 1024)

    def fill(u):
        if u == 0:
            time.sleep(0.2)
        block = shared[u * 1024 : (u + 1) * 1024]
        block[:] = np.arange(1024) + 1000 * u
        parallel.release_pages(shared)
        return os.getpid(), float(block.sum())

    out = list(parallel.map_units(fill, range(3)))
    assert out[1][0] != os.getpid()
    expected = np.concatenate([np.arange(1024) + 1000.0 * u for u in range(3)])
    assert shared.tobytes() == expected.tobytes()
    assert [total for _, total in out] == [float(block.sum()) for block in np.split(expected, 3)]
    parallel.release_pages(shared)
    assert shared.tobytes() == expected.tobytes()
    assert multiprocessing.active_children() == []
