#!/usr/bin/env python3
"""Timeline of one run of a benchmark workload: its pool units and the parent's stages.

    python3 scripts/batch_timeline.py WORKLOAD --seed S [--repeat N]

The workload's inputs are written by ``benchmarks/workloads.py`` into a
scratch directory, and its command runs N times (1 by default), one run
after the other, in this process, with the package from ``src/``; the
timeline of the last run is printed.  The benchmark times warm runs, and
a first, cold run overstates its units.  For each run a few of the
package's functions are wrapped from outside; no file of the package is
edited:

- every ``map_units`` batch that the command starts, outside any unit,
  tags each unit with its position and times it where it runs, here or in
  a forked child; each unit's pid, whether it ran here, its start and end
  are printed, and the time the command took its result;
- ``cli.load_dataset``, ``cli._write_estimates``, ``cli._write_intersection``
  and ``cli._write_sorted`` are timed as the parent's stages.

Times are milliseconds from the start of the command, read from the
monotonic clock, which forked children share.  BLAS runs one thread in
this process, as in the benchmark; the pool pins every unit's to one.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import workloads  # noqa: E402
from pcptest import cli, inference, learners, network, parallel  # noqa: E402

STAGES = ("load_dataset", "_write_estimates", "_write_intersection", "_write_sorted")
MAP_UNITS_USERS = (cli, inference, learners, network, parallel)


@dataclass
class Batch:
    n_units: int
    arrived: list[float] = field(default_factory=list)


@dataclass
class Timeline:
    logdir: str
    batches: list[Batch] = field(default_factory=list)
    stages: list[tuple[str, float, float]] = field(default_factory=list)

    def timed_unit(self, fn, batch: int, unit):
        """``fn`` of a unit tagged ``(position, unit)``; the unit's pid,
        start and end go to this process's file in ``logdir``."""
        i, inner = unit
        start = time.monotonic()
        try:
            return fn(inner)
        finally:
            end = time.monotonic()
            with open(os.path.join(self.logdir, f"{os.getpid()}.txt"), "a") as fh:
                fh.write(f"{batch} {i} {os.getpid()} {start!r} {end!r}\n")

    def map_units(self, original, fn, units):
        """``original(fn, units)``, timed, when the command calls it; a
        batch inside a unit, here or in a child, runs as it is."""
        if parallel.in_unit():
            return original(fn, units)
        batch = Batch(len(units))
        self.batches.append(batch)
        timed = functools.partial(self.timed_unit, fn, len(self.batches) - 1)
        return self._arrivals(original(timed, list(enumerate(units))), batch)

    @staticmethod
    def _arrivals(results, batch: Batch):
        try:
            for result in results:
                batch.arrived.append(time.monotonic())
                yield result
        finally:
            results.close()

    def stage(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stages.append((name, start, time.monotonic()))

        return timed

    def units(self) -> dict[tuple[int, int], tuple[int, float, float]]:
        """(batch, position) -> (pid, start, end) of every unit that ran."""
        found = {}
        for path in Path(self.logdir).glob("*.txt"):
            for line in path.read_text().splitlines():
                batch, i, pid, start, end = line.split()
                found[int(batch), int(i)] = (int(pid), float(start), float(end))
        return found


def run(
    workload_name: str, seed: int, workdir: str, repeat: int = 1
) -> tuple[Timeline, float, float]:
    """Run the workload ``repeat`` times on one set of inputs; the last
    run's timeline, and its command's start and end."""
    workload = workloads.WORKLOADS[workload_name]
    inputs = workloads.write_inputs(workload, seed, workdir)
    cfg = cli.load_config(inputs.config_path)
    for r in range(repeat):
        timeline, start, end = run_once(workload, cfg, os.path.join(workdir, f"units{r}"))
    return timeline, start, end


def run_once(workload, cfg, logdir: str) -> tuple[Timeline, float, float]:
    """Run the workload's command once under the wrappers."""
    timeline = Timeline(logdir)
    os.makedirs(timeline.logdir)
    patches = []
    for module in MAP_UNITS_USERS:
        original = module.map_units
        patches.append((module, "map_units", original))
        module.map_units = functools.partial(timeline.map_units, original)
    for name in STAGES:
        patches.append((cli, name, getattr(cli, name)))
        setattr(cli, name, timeline.stage(name, getattr(cli, name)))
    try:
        start = time.monotonic()
        cli.run_command(workload.command, cfg)
        end = time.monotonic()
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    return timeline, start, end


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--repeat", type=int, default=1, help="runs in this process; the last is printed")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    workdir = tempfile.mkdtemp(prefix="batch_timeline-")
    try:
        timeline, t0, t1 = run(args.workload, args.seed, workdir, args.repeat)
        units = timeline.units()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def ms(t: float | None) -> str:
        return "-" if t is None else f"{1e3 * (t - t0):.1f}"

    command = workloads.WORKLOADS[args.workload].command
    print(f"{args.workload} seed {args.seed}: {command}, {parallel.worker_count()} CPUs, "
          f"run {args.repeat} of {args.repeat}, {1e3 * (t1 - t0):.1f} ms")
    for b, batch in enumerate(timeline.batches):
        print(f"batch {b + 1}: {batch.n_units} units")
        print(f"  {'unit':>4}  {'pid':>8}  {'ran':>5}  {'start':>9}  {'end':>9}  {'arrived':>9}")
        for i in range(batch.n_units):
            pid, start, end = units.get((b, i), ("-", None, None))
            ran = "-" if start is None else "here" if pid == os.getpid() else "child"
            arrived = batch.arrived[i] if i < len(batch.arrived) else None
            print(f"  {i:>4}  {pid:>8}  {ran:>5}  {ms(start):>9}  {ms(end):>9}  {ms(arrived):>9}")
    print("parent stages:")
    print(f"  {'stage':<20}  {'start':>9}  {'end':>9}")
    for name, start, end in sorted(timeline.stages, key=lambda stage: stage[1]):
        print(f"  {name:<20}  {ms(start):>9}  {ms(end):>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
