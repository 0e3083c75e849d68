"""Workload definitions: seeded inputs, run configs and output checks.

Each workload is one ``pcptest`` command run in-process on a dataset drawn
from a fixed synthetic DGP.  The workload seed selects the sample and the
command's master seed; the program sees only the CSV, schema and config
written here.  Ground truth stays in the benchmark for the output checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import yaml

# Calls go through the modules so that an installed tracer sees them.
from pcptest import data, synth

N_RECORDS = 6333  # the paper's sample size

# A cross-fitted debiased group correlation must lie within this many
# sampling standard errors of the DGP truth, the sampling SE of a group
# being 1/sqrt(n_eff) with n_eff = (sum w)^2 / sum w^2: the precision of a
# correlation near 0 estimated directly from the group's records.  The
# bound is wide because the 40-round boosted learner of the report config
# shrinks the estimates toward 0, by 4.5 to 6 sampling SEs on the demo
# DGP; the SEs the program reports (dd_se) are 10 to 100 times
# smaller than the actual error and are not used here.  The check catches
# gross breakage (NaN, sign or scale errors), not that bias.
TRUTH_TOLERANCE_SE = 8.0

REPORT_CONFIG = {
    "learner": "boosted",
    "boosted": {"n_rounds": 40, "max_depth": 3},
    "folds": 5,
    "sorted_splits": 11,
    "hyperopt_grid": "singleton",
}

# The default-grid network search of the ``hyperopt`` command: 108
# candidates trained on the 70 % train block of the dataset.  Every fit runs
# exactly this many epochs, few enough that a run holds several invocations.
# With the default patience of 10, one default-grid test-sorted split ran
# 3875 to 6228 epochs over seeds 1 to 5 (25 to 68 s), which would swamp any
# change to the network engine; a fixed budget makes the work the same for
# every seed.  test-sorted cannot take the budget: it builds its grid
# without the config's network settings.
NETGRID_EPOCHS = 5
NETGRID_CONFIG = {
    "learner": "network",
    "hyperopt_grid": "default",
    "network": {"max_epochs": NETGRID_EPOCHS, "patience": NETGRID_EPOCHS},
}


def demo12_dgp() -> synth.SyntheticDGP:
    """The 4x3 demo DGP of scripts/run_pipeline.py: 12 cells, tanh rho."""
    schema = data.CategoricalSchema((("a", tuple(range(4))), ("b", tuple(range(3)))))
    return synth.SyntheticDGP(
        schema,
        (tuple([0.25] * 4), tuple([1 / 3] * 3)),
        np.array([-0.3, 0.4, -0.2, 0.5, 0.3, -0.4]),
        np.array([-1.8, 0.3, 0.5, -0.3, 0.2, 0.4]),
        synth.RhoSpec("tanh", scale=0.2, coefs=(0.0, 1.0, -1.0, 0.5, -0.5, 1.0)),
        synth.WeightLaw(),
    )


def default8_dgp() -> synth.SyntheticDGP:
    """Acceptance criterion 10's DGP on the 8-feature default schema."""
    schema = data.default_schema()
    rng = np.random.default_rng(0)
    ncols = schema.n_design_columns
    return synth.SyntheticDGP(
        schema,
        tuple(tuple(1.0 / len(codes) for _ in codes) for _, codes in schema.features),
        np.concatenate([[-0.4], rng.uniform(-0.3, 0.3, ncols - 1)]),
        np.concatenate([[-1.5], rng.uniform(-0.3, 0.3, ncols - 1)]),
        synth.RhoSpec("constant", value=0.0),
        synth.WeightLaw(),
    )


DGPS = {"demo12": demo12_dgp, "default8": default8_dgp}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    dgp: str  # key into DGPS
    config: dict = field(hash=False)  # run-config entries besides paths and seed
    n: int = N_RECORDS


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report-demo12-boosted", "report", "demo12", REPORT_CONFIG),
        Workload("report-default8-boosted", "report", "default8", REPORT_CONFIG),
        Workload("hyperopt-default8-netgrid", "hyperopt", "default8", NETGRID_CONFIG),
    )
}


@dataclass
class Inputs:
    config_path: str
    out_dir: str
    dataset: data.Dataset
    truth: synth.GroundTruth
    digest: str  # SHA-256 over the three input files


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_inputs(workload: Workload, seed: int, workdir: str) -> Inputs:
    """Sample the dataset and write the CSV, schema and run config."""
    os.makedirs(workdir, exist_ok=True)
    dgp = DGPS[workload.dgp]()
    d, truth = synth.sample_dataset(dgp, workload.n, seed=seed)
    paths = {k: os.path.join(workdir, k + ext) for k, ext in
             (("dataset", ".csv"), ("schema", ".yaml"), ("run", ".yaml"))}
    out_dir = os.path.join(workdir, "out")
    data.save_csv(d, paths["dataset"])
    dgp.schema.to_yaml(paths["schema"])
    doc = {"dataset": paths["dataset"], "schema": paths["schema"], "out": out_dir,
           "seed": seed, **workload.config}
    with open(paths["run"], "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=True)
    digest = hashlib.sha256("".join(_sha256(p) for p in paths.values()).encode()).hexdigest()
    return Inputs(paths["run"], out_dir, d, truth, digest)


def expected_group_correlations(inputs: Inputs) -> dict[tuple[str, int], tuple[float, float]]:
    """(weighted mean true correlation, sampling SE) of each (feature,
    modality) group."""
    d = inputs.dataset
    rho = inputs.truth.record_values(d.covariates, "correlation")
    out = {}
    for j, (name, codes) in enumerate(d.schema.features):
        for code in codes:
            mask = d.covariates[:, j] == code
            if mask.any():
                w = d.w[mask]
                se = float(np.sqrt(np.sum(w**2)) / np.sum(w))
                out[(name, int(code))] = (float(np.average(rho[mask], weights=w)), se)
    return out


def _read_table(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def check_outputs(
    workload: Workload, inputs: Inputs, expected: dict[tuple[str, int], tuple[float, float]]
) -> tuple[dict | None, list[str]]:
    """Return the manifest and every failed check (empty when all pass)."""
    manifest_path = os.path.join(inputs.out_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        return None, ["manifest.json missing"]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    for entry in manifest["files"]:
        path = os.path.join(inputs.out_dir, entry["name"])
        if not os.path.isfile(path):
            problems.append(f"{entry['name']}: listed in the manifest but missing")
        elif _sha256(path) != entry["sha256"]:
            problems.append(f"{entry['name']}: SHA-256 differs from the manifest")
    if problems:
        return manifest, problems

    tables = {}
    for entry in manifest["files"]:
        if entry["name"].endswith(".csv"):
            tables[entry["name"]] = _read_table(os.path.join(inputs.out_dir, entry["name"]))
    for name, (header, rows) in tables.items():
        for r, row in enumerate(rows):
            for col, cell in zip(header, row):
                value = _number(cell)
                if value is None:
                    continue
                if not math.isfinite(value):
                    problems.append(f"{name} row {r + 1} {col}: {cell}")
                elif col.endswith("p_value") and not 0.0 <= value <= 1.0:
                    problems.append(f"{name} row {r + 1} {col}: {cell} outside [0, 1]")

    if workload.command == "report":
        problems += _check_group_truth(tables.get("group_estimates.csv"), expected)
    if workload.command == "report" and "sorted_median.csv" not in tables:
        problems.append("sorted_median.csv missing")
    if workload.command == "hyperopt":
        problems += _check_selection(inputs.out_dir, tables.get("candidates.csv"))
    return manifest, problems


def _check_selection(out_dir: str, table) -> list[str]:
    """Exactly one candidate is selected and its test loss is finite."""
    if table is None:
        return ["candidates.csv missing"]
    header, rows = table
    selected = [row for row in rows if row[header.index("selected")] == "1"]
    if len(selected) != 1:
        return [f"{len(selected)} candidates marked selected"]
    with open(os.path.join(out_dir, "selected.yaml"), encoding="utf-8") as fh:
        loss = yaml.safe_load(fh)["test_loss"]
    if not math.isfinite(loss):
        return [f"selected candidate has test loss {loss}"]
    return []


def _check_group_truth(table, expected) -> list[str]:
    if table is None:
        return ["group_estimates.csv missing"]
    header, rows = table
    col = {name: i for i, name in enumerate(header)}
    problems, worst = [], 0.0
    for row in rows:
        key = (row[col["feature"]], int(row[col["modality"]]))
        est = float(row[col["dd_correlation"]])
        truth, se = expected[key]
        worst = max(worst, abs(est - truth) / se)
        if not abs(est - truth) <= TRUTH_TOLERANCE_SE * se:
            problems.append(
                f"group {key[0]}={key[1]}: debiased correlation {est:.4g} is more than "
                f"{TRUTH_TOLERANCE_SE:g} sampling SE ({se:.3g}) from the truth {truth:.4g}"
            )
    print(f"truth check: largest |estimate - truth| is {worst:.2f} sampling SE "
          f"(bound {TRUTH_TOLERANCE_SE:g})", file=sys.stderr)
    if len(rows) != len(expected):
        problems.append(f"group_estimates.csv has {len(rows)} groups, expected {len(expected)}")
    return problems
