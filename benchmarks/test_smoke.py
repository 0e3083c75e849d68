"""Smoke check of the benchmark harness at tiny sizes.

Runs each workload's code path once, plain and traced, on a few hundred
records, and checks that every metric BENCHMARK.json declares is emitted
with its unit.  It lives outside the tier-1 ``testpaths``; run it with

    python3 -m pytest benchmarks/test_smoke.py -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "report": {
        "boosted": {"n_rounds": 2, "max_depth": 2},
        "folds": 2,
        "sorted_splits": 1,
        "mc_draws": 200,
        "levels": [0.05],
    },
    "hyperopt": {"network": {"max_epochs": 1, "patience": 1}},
}


def tiny(workload):
    return dataclasses.replace(workload, n=400, config={**workload.config, **TINY[workload.command]})


def test_workloads_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_metric_emitted(name, trace):
    res = run.measure(tiny(workloads.WORKLOADS[name]), seed=3, seconds=0.0, trace=trace, import_s=0.0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    if trace:
        m = {k: v["value"] for k, v in res["metrics"].items()}
        layer_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert layer_self == pytest.approx(m["trace.run_s"], rel=0.05, abs=0.01)
