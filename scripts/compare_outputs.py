#!/usr/bin/env python3
"""Byte comparison of two source checkouts' outputs on benchmark workloads.

    python3 scripts/compare_outputs.py PARENT_DIR CHANGE_DIR --workload W --seed S [S ...]

``--workload all`` compares every workload of PARENT_DIR's
``benchmarks/workloads.py``; each workload is compared at every seed given.
For each comparison, the workload's inputs (dataset, schema and run config) are written once,
by PARENT_DIR's ``benchmarks/workloads.py``, into a scratch directory.  The
workload's command then runs with each checkout's sources, one checkout
after the other, on that one config and output path: ``report.txt`` holds
the config's fingerprint, which hashes the paths, so the paths must be the
same.  Every output file's SHA-256 digest is printed per checkout, then a
summary line per comparison, and a total line when there are several.  The
exit code is 0 when every comparison found the same files with the same
digests on both sides, 1 otherwise.  For a CSV file that differs, one more
line gives the number of cells that differ and, over those that hold a
finite number on both sides, the largest absolute and relative difference.
Nothing in either checkout is changed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

WRITE_INPUTS = """
import sys
import workloads
workload = workloads.WORKLOADS[sys.argv[1]]
inputs = workloads.write_inputs(workload, int(sys.argv[2]), sys.argv[3])
print(workload.command)
print(inputs.config_path)
print(inputs.out_dir)
"""

LIST_WORKLOADS = """
import workloads
print(*workloads.WORKLOADS)
"""


def run(checkout: Path, args: list[str], *paths: str) -> str:
    """``python args`` with ``checkout``'s ``src`` (and ``paths`` under it)
    first on the import path; its stdout.  A failure ends the comparison."""
    pythonpath = os.pathsep.join(str(checkout / p) for p in ("src", *paths))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {' '.join(args[:2])} exited with code {proc.returncode}")
    return proc.stdout


def digests(root: str) -> dict[str, str]:
    """SHA-256 of every file under ``root``, by path relative to it."""
    out = {}
    for path in sorted(Path(root).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def cell_differences(parent: Path, change: Path) -> tuple[int, int, float, float]:
    """(cells that differ, how many of those hold a finite number on both
    sides, the largest absolute and the largest relative difference over
    those) between two CSV files, cell by cell.  A cell on one side only
    differs and is not numeric; a relative difference is taken against the
    parent's value, infinite where that is 0."""
    def rows(path: Path) -> list[list[str]]:
        with open(path, newline="") as f:
            return list(csv.reader(f))

    differ = numeric = 0
    max_abs = max_rel = 0.0
    for parent_row, change_row in zip_longest(rows(parent), rows(change), fillvalue=[]):
        for a, b in zip_longest(parent_row, change_row):
            if a == b:
                continue
            differ += 1
            try:
                x, y = float(a), float(b)
            except (TypeError, ValueError):
                continue
            if math.isfinite(x) and math.isfinite(y):
                numeric += 1
                max_abs = max(max_abs, abs(x - y))
                max_rel = max(max_rel, abs(x - y) / abs(x) if x else math.inf)
    return differ, numeric, max_abs, max_rel


def compare(checkouts: dict[str, Path], workload: str, seed: int) -> int:
    """Run one workload at one seed in both checkouts and print the
    digests; the number of output files that differ."""
    workdir = Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    try:
        command, config, out_dir = run(
            checkouts["parent"], ["-c", WRITE_INPUTS, workload, str(seed), str(workdir)],
            "benchmarks",
        ).split()
        kept = {side: workdir / f"{side}-output" for side in checkouts}
        found = {}
        for side, checkout in checkouts.items():
            shutil.rmtree(out_dir, ignore_errors=True)
            run(checkout, ["-m", "pcptest.cli", "--config", config, command])
            shutil.move(out_dir, kept[side])
            found[side] = digests(kept[side])

        differ = 0
        for name in sorted(found["parent"].keys() | found["change"].keys()):
            parent, change = (found[side].get(name, "-" * 64) for side in ("parent", "change"))
            same = parent == change
            differ += not same
            print(f"{'same' if same else 'DIFFERS':7}  {name}  {parent[:16]}  {change[:16]}")
            if not same and name.endswith(".csv") and all(name in f for f in found.values()):
                cells, numeric, max_abs, max_rel = cell_differences(
                    kept["parent"] / name, kept["change"] / name
                )
                print(f"{'':7}  {cells} cells differ, {numeric} of them numeric; largest "
                      f"difference {max_abs:.3g} absolute, {max_rel:.3g} relative")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{workload} seed {seed}: {len(found['parent'])} files in the parent's output, "
          f"{len(found['change'])} in the change's, {differ} differ")
    return differ


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout to compare against; writes the inputs")
    ap.add_argument("change", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True, help="a workload's name, or all")
    ap.add_argument("--seed", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = [args.workload]
    if args.workload == "all":
        names = run(checkouts["parent"], ["-c", LIST_WORKLOADS], "benchmarks").split()

    runs = [(name, seed) for name in names for seed in args.seed]
    differ = sum(compare(checkouts, name, seed) for name, seed in runs)
    if len(runs) > 1:
        print(f"{len(runs)} comparisons: {differ} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
