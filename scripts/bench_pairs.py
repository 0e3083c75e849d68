#!/usr/bin/env python3
"""A/B benchmark of two source checkouts in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N

Each pair runs ``benchmarks/run.py --trace 0`` once in each checkout, each
with its own harness and sources, one run after the other, for the
``run_seconds`` that the change's ``BENCHMARK.json`` declares; the side that
runs first swaps with every pair, so a drift in the host's speed falls on
both sides alike.  Every metric of each run is kept, and the summary gives
per side the median and quartiles of each metric, and per metric the
number of pairs in which the change read better, in the direction that the
change's ``BENCHMARK.json`` declares.

The summary is written to ``--out`` (``BENCH.json`` by default) under the
key ``<workload>/seed<S>``; the entries of other workloads and seeds
already in that file are kept, so one file can hold several.  Nothing in
either checkout is changed, apart from the scratch files that its own
harness writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``benchmarks/run.py`` run in ``checkout``; its result object."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: benchmarks/run.py exited with code {proc.returncode}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict[str, dict]], better: dict[str, str]) -> dict:
    """Per-side medians and quartiles, and per-metric win counts, from the
    pairs' results ({"parent": result, "change": result} each)."""
    sides = {}
    for side in ("parent", "change"):
        metrics = {}
        for name in runs[0][side]["metrics"]:
            metrics[name] = quartiles([r[side]["metrics"][name]["value"] for r in runs])
        sides[side] = {
            "attempted": sum(r[side]["attempted"] for r in runs),
            "failed": sum(r[side]["failed"] for r in runs),
            "correct": all(r[side]["correct"] for r in runs),
            "metrics": metrics,
        }
    wins = {}
    for name, direction in better.items():
        sign = -1.0 if direction == "lower" else 1.0
        won = sum(
            sign * (r["change"]["metrics"][name]["value"] - r["parent"]["metrics"][name]["value"]) > 0
            for r in runs
        )
        parent, change = sides["parent"]["metrics"][name], sides["change"]["metrics"][name]
        wins[name] = {
            "better": direction,
            "change_wins": won,
            "pairs": len(runs),
            "median_change": change["median"] - parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return {"sides": sides, "wins": wins}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="checkout to compare against")
    ap.add_argument("change", type=Path, help="checkout with the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: run_once(checkouts[side], args.workload, args.seed, seconds) for side in order}
        runs.append(pair)
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): "
              + ", ".join(f"{name} {pair['parent']['metrics'][name]['value']:.4g} -> "
                          f"{pair['change']['metrics'][name]['value']:.4g}" for name in better),
              file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc[f"{args.workload}/seed{args.seed}"] = {
        "seconds": seconds,
        "order": "alternating, parent first in pair 1",
        **summarize(runs, better),
        "runs": [{side: pair[side]["metrics"] for side in ("parent", "change")} for pair in runs],
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, w in doc[f"{args.workload}/seed{args.seed}"]["wins"].items():
        print(f"{name}: change better in {w['change_wins']}/{w['pairs']}, "
              f"median {w['median_change']:+.4g}, parent IQR {w['parent_iqr']:.4g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
