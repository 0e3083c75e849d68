"""The pinned output corpus: the SHA-256 of every file that a set of small
runs writes, each run with one and with two workers.

The runs cover ``report`` and ``test-intersection`` with a boosted learner,
for both statistics, on two fixed samples: a demo12 one (4x3 schema, 12
cells, so every fit stacks) and a default8 one (the 8-feature default
schema, whose 1500 records are nearly all distinct design rows, so the
fits take the many-rows paths and the histogram subtraction, and whose
intersection tests keep a strict subset of the groups in some rows).
``importance`` runs with the boosted learner on demo12.  ``fit`` runs
with a forest whose one-record leaves let two columns cut a node the
same way, so that its tie rule shows in the model, and with a network
that drops units.  One more case removes all but two records of a
modality of the widest grouping feature, which then goes untested, while
the draw is still made as wide as that feature.

The inputs are sampled here and pinned too, so a change in the sampler
shows as such.  Every path in a run config is relative to the run's
directory, so the config fingerprint in ``report.txt`` and in the
manifest does not depend on where the test runs.  The network's float32
bits depend on the BLAS build: the table pins this environment.  A change
that means to change an output re-pins the files it names.
"""

import hashlib
import os

import numpy as np
import pytest
import yaml

from pcptest import cli, data, synth
from pcptest.inference import IntersectionInput, intersection_test

from conftest import make_dgp


def demo12_dgp() -> synth.SyntheticDGP:
    schema = data.CategoricalSchema((("a", tuple(range(4))), ("b", tuple(range(3)))))
    return make_dgp(
        schema,
        coef_p=[-0.3, 0.4, -0.2, 0.5, 0.3, -0.4],
        coef_q=[-1.8, 0.3, 0.5, -0.3, 0.2, 0.4],
        rho=synth.RhoSpec("tanh", scale=0.2, coefs=(0.0, 1.0, -1.0, 0.5, -0.5, 1.0)),
    )


def default8_dgp() -> synth.SyntheticDGP:
    """The benchmark's default8 margins, with a correlation of opposite
    signs in the two genders, so that one gender's group stands apart."""
    schema = data.default_schema()
    rng = np.random.default_rng(0)
    ncols = schema.n_design_columns
    rho = np.zeros(ncols)
    rho[0], rho[-1] = 1.0, -2.0
    return make_dgp(
        schema,
        coef_p=np.concatenate([[-0.4], rng.uniform(-0.3, 0.3, ncols - 1)]),
        coef_q=np.concatenate([[-1.5], rng.uniform(-0.3, 0.3, ncols - 1)]),
        rho=synth.RhoSpec("tanh", scale=0.25, coefs=tuple(rho)),
    )


def rare_widest(d: data.Dataset) -> data.Dataset:
    """``d`` with all but the first two records of a=3 moved to a=0: the
    widest feature keeps its 4 modalities, one of them too small to test."""
    covariates = d.covariates.copy()
    rare = np.nonzero(covariates[:, 0] == 3)[0]
    covariates[rare[2:], 0] = 0
    return data.Dataset(d.schema, covariates, d.c, d.r, d.w)


# Sample name -> (DGP, records, sampling seed, a change to the sample).
SAMPLES = {
    "demo12": (demo12_dgp, 1000, 5, None),
    "default8": (default8_dgp, 1500, 6, None),
    "demo12-rare": (demo12_dgp, 1000, 5, rare_widest),
}

BOOSTED = {
    "learner": "boosted",
    "boosted": {"n_rounds": 4, "max_depth": 2},
    "folds": 2,
    "mc_draws": 2000,
    "sorted_splits": 2,
    "hyperopt_grid": "singleton",
    "seed": 3,
}

# Case -> (sample, command, run-config entries).
CASES = {
    **{
        f"{sample}-{command}-{statistic}": (sample, command, {**BOOSTED, "statistic": statistic})
        for sample in ("demo12", "default8")
        for command in ("report", "test-intersection")
        for statistic in ("covariance", "correlation")
    },
    "demo12-rare-test-intersection": ("demo12-rare", "test-intersection", BOOSTED),
    "demo12-importance": ("demo12", "importance", BOOSTED),
    "default8-fit-forest": (
        "default8",
        "fit",
        {
            "learner": "forest",
            "forest": {"n_trees": 4, "max_depth": 6, "min_leaf": 1},
            "hyperopt_grid": "singleton",
            "seed": 3,
        },
    ),
    "demo12-fit-network": (
        "demo12",
        "fit",
        {
            "learner": "network",
            "network": {"depth": 1, "width": 8, "dropout": 0.3, "max_epochs": 3},
            "hyperopt_grid": "singleton",
            "seed": 3,
        },
    ),
}

# Sample -> file -> digest.
PINNED_INPUTS = {
    "default8": {
        "dataset.csv": "ae3ad56b51260c6b",
        "schema.yaml": "d6cd5bc82a9565e8",
    },
    "demo12": {
        "dataset.csv": "d785d81395d7b497",
        "schema.yaml": "e00b020af4862aa9",
    },
    "demo12-rare": {
        "dataset.csv": "d3c156fb187bf8c0",
        "schema.yaml": "e00b020af4862aa9",
    },
}

# Case -> file -> digest, the same with one and with two workers.
PINNED = {
    "default8-fit-forest": {
        "manifest.json": "74e820145d5e49a4",
        "model.json": "12919ab53e026e7b",
    },
    "default8-report-correlation": {
        "boxplot.csv": "bdd17169d7872507",
        "boxplot.txt": "67bbdd8b9dab19dd",
        "density_cf_correlation.csv": "12fbef4d35de5c04",
        "density_cf_covariance.csv": "0503d06660eb232d",
        "density_raw_correlation.csv": "34886039ba7fcbfe",
        "density_raw_covariance.csv": "5f384d297086e3a8",
        "group_estimates.csv": "d465c1aada2dd5ea",
        "group_estimates.txt": "5298b847ebd7e942",
        "intersection.csv": "ef9290d5d11edc45",
        "intersection.txt": "9a9196dcfb0f924c",
        "manifest.json": "6642df9ba79799e0",
        "per_obs_stats.csv": "f1bfcdaf0e42ec21",
        "per_obs_stats.txt": "ece8e8982b50fbe4",
        "report.txt": "8447d987ea91d667",
        "sorted_median.csv": "fe6478709727cd65",
        "sorted_median.txt": "956672750b7e2f14",
        "sorted_splits.csv": "43020cbcee4445a0",
        "sorted_splits.txt": "2ffb5f39a3fe6a86",
        "summary.csv": "e026c2520297c783",
        "summary.txt": "55a587a46fe334e8",
    },
    "default8-report-covariance": {
        "boxplot.csv": "7eddcc7dbf0d7350",
        "boxplot.txt": "f059409954edf7ae",
        "density_cf_correlation.csv": "12fbef4d35de5c04",
        "density_cf_covariance.csv": "0503d06660eb232d",
        "density_raw_correlation.csv": "34886039ba7fcbfe",
        "density_raw_covariance.csv": "5f384d297086e3a8",
        "group_estimates.csv": "d465c1aada2dd5ea",
        "group_estimates.txt": "5298b847ebd7e942",
        "intersection.csv": "ef9290d5d11edc45",
        "intersection.txt": "9a9196dcfb0f924c",
        "manifest.json": "b073f58b4c08b75c",
        "per_obs_stats.csv": "f1bfcdaf0e42ec21",
        "per_obs_stats.txt": "ece8e8982b50fbe4",
        "report.txt": "3b56f72b7a8c5168",
        "sorted_median.csv": "699e096b98218290",
        "sorted_median.txt": "a555a74c0ac9a773",
        "sorted_splits.csv": "9ed77d308f1d31a3",
        "sorted_splits.txt": "474fbdd965abe88f",
        "summary.csv": "e026c2520297c783",
        "summary.txt": "55a587a46fe334e8",
    },
    "default8-test-intersection-correlation": {
        "intersection.csv": "ef9290d5d11edc45",
        "intersection.txt": "9a9196dcfb0f924c",
        "manifest.json": "ff889df78f6ba389",
    },
    "default8-test-intersection-covariance": {
        "intersection.csv": "ef9290d5d11edc45",
        "intersection.txt": "9a9196dcfb0f924c",
        "manifest.json": "dcdd2e164266d18d",
    },
    "demo12-fit-network": {
        "manifest.json": "06180bcd7eed74fe",
        "model.json": "10bc9031eac097e4",
    },
    "demo12-importance": {
        "impurity_importance.csv": "8c5faa741e7d16b9",
        "impurity_importance.txt": "ff09c2bf3f0b9587",
        "manifest.json": "257e25cae840fbff",
        "retrain_importance.csv": "4a7f9c3c9b7b038a",
        "retrain_importance.txt": "15b10f125f04fe53",
    },
    "demo12-rare-test-intersection": {
        "intersection.csv": "097a1cdfe2fd5bcf",
        "intersection.txt": "f4e9a030f39a0bcf",
        "manifest.json": "f99cd7895a215edd",
    },
    "demo12-report-correlation": {
        "boxplot.csv": "912b033f8c25d66c",
        "boxplot.txt": "3976d7c19cbaf163",
        "density_cf_correlation.csv": "3df655fbc484251d",
        "density_cf_covariance.csv": "4d6ae7dd2fcb83d8",
        "density_raw_correlation.csv": "23ad5790b406f5e6",
        "density_raw_covariance.csv": "890bf19f6ecf2931",
        "group_estimates.csv": "5ee3a46dd06ececc",
        "group_estimates.txt": "e4d6696973443a7f",
        "intersection.csv": "3b0f428fc240f0a7",
        "intersection.txt": "b430883aa13cda55",
        "manifest.json": "091128169e55f6d6",
        "per_obs_stats.csv": "35fd45efff182e6c",
        "per_obs_stats.txt": "656141c869a5f00e",
        "report.txt": "3d833c3e454f194d",
        "sorted_median.csv": "b76ef29d1d2dfb30",
        "sorted_median.txt": "250dd9c4b76f46df",
        "sorted_splits.csv": "fb98e71d7f356c88",
        "sorted_splits.txt": "25dae9fa21a396d6",
        "summary.csv": "6457595aa15a77ef",
        "summary.txt": "d7979c5cb9f72338",
    },
    "demo12-report-covariance": {
        "boxplot.csv": "67a9e860667a29b7",
        "boxplot.txt": "7ac29652d152bbb7",
        "density_cf_correlation.csv": "3df655fbc484251d",
        "density_cf_covariance.csv": "4d6ae7dd2fcb83d8",
        "density_raw_correlation.csv": "23ad5790b406f5e6",
        "density_raw_covariance.csv": "890bf19f6ecf2931",
        "group_estimates.csv": "5ee3a46dd06ececc",
        "group_estimates.txt": "e4d6696973443a7f",
        "intersection.csv": "3b0f428fc240f0a7",
        "intersection.txt": "b430883aa13cda55",
        "manifest.json": "87e427e4be4071f6",
        "per_obs_stats.csv": "35fd45efff182e6c",
        "per_obs_stats.txt": "656141c869a5f00e",
        "report.txt": "285d246bbcda0b27",
        "sorted_median.csv": "3a646f4bd256cd57",
        "sorted_median.txt": "83d6c23c9b4c8e12",
        "sorted_splits.csv": "b6d5377a35cc417b",
        "sorted_splits.txt": "ce7e51d869427984",
        "summary.csv": "6457595aa15a77ef",
        "summary.txt": "d7979c5cb9f72338",
    },
    "demo12-test-intersection-correlation": {
        "intersection.csv": "3b0f428fc240f0a7",
        "intersection.txt": "b430883aa13cda55",
        "manifest.json": "1e78542d63a977e6",
    },
    "demo12-test-intersection-covariance": {
        "intersection.csv": "3b0f428fc240f0a7",
        "intersection.txt": "b430883aa13cda55",
        "manifest.json": "308b8dc4f3b71fea",
    },
}


def sha256(path) -> str:
    """The first 16 hex digits of the file's SHA-256."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def digests(root) -> dict[str, str]:
    return {name: sha256(os.path.join(root, name)) for name in sorted(os.listdir(root))}


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """Each sample's dataset and schema, written under one directory."""
    root = tmp_path_factory.mktemp("corpus")
    for name, (dgp, n, seed, change) in SAMPLES.items():
        os.makedirs(root / name)
        d, _ = synth.sample_dataset(dgp(), n, seed=seed)
        data.save_csv(d if change is None else change(d), str(root / name / "dataset.csv"))
        d.schema.to_yaml(str(root / name / "schema.yaml"))
    return root


def test_inputs_are_pinned(samples):
    assert {name: digests(samples / name) for name in SAMPLES} == PINNED_INPUTS


def run_case(case: str, samples, monkeypatch) -> dict[str, str]:
    """Run a case in its sample's directory; the digests of its files."""
    sample, command, entries = CASES[case]
    monkeypatch.chdir(samples / sample)
    doc = {"dataset": "dataset.csv", "schema": "schema.yaml", "out": case, **entries}
    with open(f"{case}.yaml", "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh)
    cli.run_command(command, cli.load_config(f"{case}.yaml"))
    return digests(case)


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("case", list(CASES))
def test_outputs_are_pinned(case, n_workers, samples, monkeypatch, workers):
    workers(n_workers)
    assert run_case(case, samples, monkeypatch) == PINNED[case]


def test_default8_keeps_a_strict_subset(samples, monkeypatch):
    """Some tested row of the default8 intersection table has a k that is
    not its full set's, so the corpus reads a strict-subset kept set.  The
    full set's k is that of equal estimates, which keep every group."""
    case = "default8-test-intersection-covariance"
    run_case(case, samples, monkeypatch)
    cfg = cli.load_config(f"{case}.yaml")
    d = cli.load_dataset(cfg)
    with open(os.path.join(case, "intersection.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    subsets = 0
    for group, _, level, _, k, *_ in rows:
        if k == "nan":
            continue
        width = len(np.unique(d.covariates[:, d.schema.feature_index(group)]))
        inp = IntersectionInput(
            np.zeros(width), np.ones(width), d.n, float(level), cfg.mc_draws, cfg.seed
        )
        subsets += k != "%.6g" % intersection_test(inp).k
    assert subsets > 0


def test_rare_widest_feature_goes_untested(samples, monkeypatch):
    """In the demo12-rare case the widest feature, a, has a NaN group and
    is not tested, while b is: the draw is wider than every test that
    reads it."""
    case = "demo12-rare-test-intersection"
    run_case(case, samples, monkeypatch)
    with open(os.path.join(case, "intersection.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert {r[6] for r in rows if r[0] == "a"} == {"not tested"}
    assert {r[6] for r in rows if r[0] == "b"} <= {"rejected", "not rejected"}
