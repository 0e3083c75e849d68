"""Independent work units on every CPU the process may use.

Each unit is a pure function of its inputs, so results kept in input order
are bit-identical to the serial loop for any worker count.  A batch runs on
this process and workers - 1 forked children.  The children inherit the
function and the units; each claims the next unit from one shared counter
and sends back only the unit's position and its result.  This process runs
unit 0 itself, and later claims from the same counter whenever the result it
must yield next has not arrived, so it never waits while a unit is left.
Every unit runs OpenBLAS on one thread, and a batch called inside a unit
runs serially.  Results come back lazily, so a caller can work on the first
ones while the children still fit the rest.
"""

import contextlib
import ctypes
import multiprocessing as mp
import os
import queue
import threading
from collections.abc import Callable, Generator, Sequence
from multiprocessing.connection import wait

# True while a unit runs: in a child for its whole life, here for one unit.
_in_unit = False

# The (set, get) thread-count functions of OpenBLAS builds: numpy's bundled
# 64-bit one, scipy's, and plain builds.
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
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


def _blas_thread_controls() -> list[tuple[Callable, Callable]]:
    """(set, get) of the thread count of every loaded OpenBLAS."""
    controls = []
    for lib in openblas_libraries():
        for set_name, get_name in _BLAS_THREAD_FUNCTIONS:
            set_fn, get_fn = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if set_fn is not None and get_fn is not None:
                set_fn.argtypes, set_fn.restype = [ctypes.c_int], None
                get_fn.argtypes, get_fn.restype = [], ctypes.c_int
                controls.append((set_fn, get_fn))
                break
    return controls


@contextlib.contextmanager
def _as_unit(blas: list[tuple[Callable, Callable]]):
    """Run the body as a unit in this process: every OpenBLAS in ``blas`` on
    one thread, since the pool already fills the CPUs, and batches called
    inside it serial, as in a child.  Both are restored after."""
    global _in_unit
    counts = [get() for _, get in blas]
    for set_threads, _ in blas:
        set_threads(1)
    _in_unit = True
    try:
        yield
    finally:
        _in_unit = False
        for (set_threads, _), count in zip(blas, counts):
            set_threads(count)


def in_unit() -> bool:
    """Whether a ``map_units`` unit is running in this process."""
    return _in_unit


def call(unit: Callable):
    """Run a zero-argument unit: ``map_units(call, thunks)`` runs units of
    different procedures in one batch."""
    return unit()


def pool_size(n_units: int) -> int:
    """The workers that ``map_units`` runs n_units units on: one, in this
    process, without "fork" and inside a unit."""
    if _in_unit or "fork" not in mp.get_all_start_methods():
        return 1
    return min(worker_count(), n_units)


def map_units(fn, units: Sequence) -> Generator:
    """Yield ``fn(u)`` for each unit in input order, computed on this process
    and up to one forked child per further CPU; serial with one worker,
    without "fork" and inside a unit, so pools never nest.

    The children fork at the call and claim units from a shared counter at
    once; this process runs unit 0, then, whenever the result it must yield
    next has not arrived, the next unclaimed unit.  The first unit in input
    order that raises raises here, as if serial, and a child that exits
    without sending a unit it claimed raises an error naming that unit.
    When the iterator is used up or closed, every child is terminated and
    joined, so none outlives it.  Wrap the call in ``list(...)`` for all
    results at once."""
    workers = pool_size(len(units))
    if workers < 2:
        return (fn(u) for u in units)
    results = _pool(fn, units, workers)
    next(results)
    return results


def _run(fn, unit) -> tuple[bool, object]:
    """(True, fn(unit)), or (False, the exception it raised)."""
    try:
        return True, fn(unit)
    except Exception as exc:
        return False, exc


def _claim(counter, owner, k: int) -> int | None:
    """The next unclaimed unit's position, recorded in ``owner`` as worker
    k's (0 is this process); None when every unit is claimed."""
    with counter.get_lock():
        i = counter.value
        if i == len(owner):
            return None
        counter.value = i + 1
    owner[i] = k
    return i


def _child(fn, units, counter, owner, k: int, conn, blas) -> None:
    """Worker k's life: claim and run units until none is left.  A thread
    sends each result, so the next unit starts while the parent, busy with
    a unit of its own, has not yet read the last."""
    global _in_unit
    _in_unit = True
    for set_threads, _ in blas:
        set_threads(1)
    outbox = queue.SimpleQueue()
    sender = threading.Thread(target=_send, args=(outbox, conn), daemon=True)
    sender.start()
    while (i := _claim(counter, owner, k)) is not None:
        outbox.put((i, *_run(fn, units[i])))
    outbox.put(None)
    sender.join()


def _send(outbox: queue.SimpleQueue, conn) -> None:
    while (message := outbox.get()) is not None:
        conn.send(message)
    conn.close()


def _pool(fn, units: Sequence, workers: int) -> Generator:
    """``map_units`` on this process and workers - 1 children.  Primed by
    one ``next``, which forks the children, so that the generator sits
    inside the ``try`` and closing it before the first result still ends
    them."""
    ctx = mp.get_context("fork")
    counter = ctx.Value("l", 1)  # unit 0 is this process's
    owner = ctx.RawArray("l", len(units))
    blas = _blas_thread_controls()
    children: list = []
    conns: dict = {}  # connection -> its worker number
    done: dict[int, tuple[bool, object]] = {}
    try:
        for k in range(1, workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(
                target=_child, args=(fn, units, counter, owner, k, sender, blas), daemon=True
            )
            child.start()
            sender.close()
            children.append(child)
            conns[receiver] = k
        yield
        with _as_unit(blas):
            done[0] = _run(fn, units[0])
        for i in range(len(units)):
            while i not in done:
                _receive(conns, children, owner, done, timeout=0)
                if i in done:
                    break
                j = _claim(counter, owner, 0)
                if j is not None:
                    with _as_unit(blas):
                        done[j] = _run(fn, units[j])
                else:  # a child holds unit i, or its end has not been read
                    _receive(conns, children, owner, done, timeout=None)
            ok, value = done.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for child in children:
            child.terminate()
        for child in children:
            child.join()
        for conn in conns:
            conn.close()


def _receive(conns: dict, children: list, owner, done: dict, timeout: float | None) -> None:
    """Take every result that has arrived within ``timeout`` seconds (None:
    until one has) into ``done``.  A child whose connection ends is joined,
    and each unit it claimed but did not send becomes an error."""
    for conn in wait(list(conns), timeout):
        k = conns[conn]
        try:
            while True:
                i, ok, value = conn.recv()
                done[i] = ok, value
                if not conn.poll():
                    break
        except EOFError:
            del conns[conn]
            conn.close()
            child = children[k - 1]
            child.join()
            for i, claimed_by in enumerate(owner):
                if claimed_by == k and i not in done:
                    done[i] = False, RuntimeError(
                        f"unit {i}: its worker process exited with code {child.exitcode} "
                        "before sending the result"
                    )
