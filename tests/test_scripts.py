"""Every experiment script still imports and parses its options: each
``--help`` runs in a fresh interpreter with the package's sources on the
path and must exit 0.  The recovery experiment also runs for real, on a
few small replicates, the output comparison compares one checkout with
itself, runs every workload at every seed asked for, and counts the cells
of two CSV files that differ, and the batch timeline times one report."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert len(SCRIPTS) >= 4


def run_script(script, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(script), *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_help_exits_zero(script):
    res = run_script(script, "--help")
    assert res.returncode == 0, res.stderr
    assert res.stdout.startswith("usage:")


def test_recovery_experiment_runs():
    res = run_script(ROOT / "scripts" / "recovery_experiment.py", "--reps", "2", "--n", "600")
    assert res.returncode == 0, res.stderr
    assert "intersection-test rejection rate" in res.stdout


def test_compare_outputs_finds_a_checkout_equal_to_itself():
    res = run_script(
        ROOT / "scripts" / "compare_outputs.py",
        str(ROOT),
        str(ROOT),
        "--workload",
        "report-demo12-boosted",
        "--seed",
        "2",
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[-1] == (
        "report-demo12-boosted seed 2: 20 files in the parent's output, 20 in the change's, 0 differ"
    )
    assert sum(line.startswith("same ") for line in lines) == 20


def test_batch_timeline_times_the_units_and_the_stages():
    """Two in-process reports, the last printed: a row per pool unit with
    its pid, where it ran, start, end and arrival, each unit ending after
    it starts, unit 0 and only the units on its pid run here, and the
    parent's four stages."""
    res = run_script(
        ROOT / "scripts" / "batch_timeline.py", "report-demo12-boosted", "--seed", "2", "--repeat", "2"
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[0].startswith("report-demo12-boosted seed 2: report, ")
    assert ", run 2 of 2, " in lines[0]
    assert lines[1].startswith("batch 1: ") and lines[2].split() == [
        "unit", "pid", "ran", "start", "end", "arrived"
    ]
    n_units = int(lines[1].split()[2])
    rows = [line.split() for line in lines[3 : 3 + n_units]]
    assert [int(row[0]) for row in rows] == list(range(n_units))
    for _, pid, ran, start, end, arrived in rows:
        assert int(pid) > 0 and 0.0 <= float(start) <= float(end) <= float(arrived)
        assert ran == ("here" if pid == rows[0][1] else "child")
    assert rows[0][2] == "here"
    assert lines[3 + n_units : 5 + n_units] == [
        "parent stages:", f"  {'stage':<20}  {'start':>9}  {'end':>9}"
    ]
    stages = [line.split()[0] for line in lines[5 + n_units :]]
    assert stages == ["load_dataset", "_write_estimates", "_write_intersection", "_write_sorted"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_counts_the_cells_that_differ(tmp_path):
    """Numbers, text and a cell on one side only differ; the differences
    are taken over the numeric ones, relative to the parent's value."""
    parent, change = tmp_path / "parent.csv", tmp_path / "change.csv"
    parent.write_text("name,loss,note\r\na,1.5,x\r\nb,2,y\r\nc,0,z\r\nd,nan,w\r\n")
    change.write_text("name,loss,note\r\na,1.5,x\r\nb,2.5,q\r\nc,0.25,z\r\nd,nan,w,extra\r\n")
    cell_differences = load_script("compare_outputs").cell_differences
    assert cell_differences(parent, parent) == (0, 0, 0.0, 0.0)
    cells, numeric, max_abs, max_rel = cell_differences(parent, change)
    assert (cells, numeric, max_abs) == (4, 2, 0.5)
    assert max_rel == math.inf
    parent.write_text("loss\n4\n-2\n")
    change.write_text("loss\n5\n-2.5\n")
    assert cell_differences(parent, change) == (2, 2, 1.0, 0.25)


def test_compare_outputs_runs_every_workload_at_every_seed(monkeypatch, capsys):
    """``--workload all`` is every workload of the benchmark, each at every
    seed given; one differing file in any comparison makes the exit code 1."""
    module = load_script("compare_outputs")
    calls = []

    def compare(checkouts, workload, seed):
        calls.append((workload, seed))
        return int((workload, seed) == ("report-default8-boosted", 3))

    monkeypatch.setattr(module, "compare", compare)
    args = [str(ROOT), str(ROOT), "--workload", "all", "--seed", "1", "3"]
    assert module.main(args) == 1
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert calls == [(name, seed) for name in names for seed in (1, 3)]
    assert capsys.readouterr().out.splitlines()[-1] == "6 comparisons: 1 files differ"
    calls.clear()
    assert module.main([str(ROOT), str(ROOT), "--workload", names[0], "--seed", "3"]) == 0
    assert calls == [(names[0], 3)]
