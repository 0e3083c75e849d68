import ast
import csv
import importlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import gaussian_kde

from pcptest import cli, functionals, inference, parallel
from pcptest import learners as L
from pcptest.cli import (
    OutputDir,
    RunConfig,
    load_config,
    main,
    silverman_factor,
    write_density,
    write_table,
)
from pcptest.data import CategoricalSchema, DataError, Dataset, SplitPlan, load_csv, save_csv
from pcptest.functionals import per_obs_stats


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, small_dgp):
    """A DGP config, a small simulated dataset, and its schema on disk."""
    root = tmp_path_factory.mktemp("cli")
    dgp_path = root / "dgp.yaml"
    small_dgp.to_yaml(str(dgp_path))
    runner = CliRunner()
    res = runner.invoke(
        main,
        [
            "--config",
            _write_config(
                root / "sim.yaml",
                {"dgp": str(dgp_path), "n": 800, "out": str(root / "sim"), "seed": 3},
            ),
            "simulate",
        ],
    )
    assert res.exit_code == 0, res.output
    return {
        "root": root,
        "dataset": str(root / "sim" / "dataset.csv"),
        "schema": str(root / "sim" / "schema.yaml"),
        "dgp": str(dgp_path),
    }


ROOT = Path(__file__).resolve().parents[1]


def _write_config(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


def base_config(workdir, out, **extra):
    doc = {
        "dataset": workdir["dataset"],
        "schema": workdir["schema"],
        "out": str(out),
        "seed": 1,
        "learner": "boosted",
        "boosted": {"n_rounds": 8, "max_depth": 2},
        "folds": 2,
        "mc_draws": 2000,
        "sorted_splits": 1,
        "hyperopt_grid": "singleton",
    }
    doc.update(extra)
    return doc


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.seed == 0
        assert cfg.levels == (0.01, 0.05, 0.10)
        assert cfg.n == 6333

    def test_overrides_beat_file(self, tmp_path):
        p = _write_config(tmp_path / "c.yaml", {"seed": 5, "learner": "forest"})
        cfg = load_config(p, seed=9)
        assert cfg.seed == 9
        assert cfg.learner == "forest"

    def test_unknown_keys_rejected(self, tmp_path):
        # The objects a config builds are attributes, not keys.
        for key in ("nonsense", "learner_cfg", "grid", "plan", "sorted_cfg"):
            p = _write_config(tmp_path / "c.yaml", {key: 1})
            with pytest.raises(DataError, match=f"unknown config keys: \\['{key}'\\]"):
                load_config(p)

    def test_version_check(self, tmp_path):
        p = _write_config(tmp_path / "c.yaml", {"version": 99})
        with pytest.raises(DataError, match="unsupported config version"):
            load_config(p)

    def test_lists_become_tuples(self, tmp_path):
        p = _write_config(tmp_path / "c.yaml", {"levels": [0.05], "split_fractions": [0.8, 0.1, 0.1]})
        cfg = load_config(p)
        assert cfg.levels == (0.05,)
        assert cfg.split_fractions == (0.8, 0.1, 0.1)

    def test_validation(self):
        with pytest.raises(DataError):
            RunConfig(levels=(1.5,))
        with pytest.raises(DataError):
            RunConfig(learner="svm")
        with pytest.raises(DataError):
            RunConfig(statistic="median")

    def test_fingerprint_changes_with_config(self):
        assert RunConfig(seed=1).fingerprint() != RunConfig(seed=2).fingerprint()
        assert RunConfig(seed=1).fingerprint() == RunConfig(seed=1).fingerprint()

    def test_fingerprint_hashes_only_the_fields(self):
        """The objects a config builds are not hashed, so manifests keep
        the fingerprints of configs written before they were kept."""
        assert RunConfig().fingerprint() == "3dd079228b0aa1b4"
        cfg = RunConfig(
            seed=7,
            learner="boosted",
            boosted={"n_rounds": 40, "max_depth": 3},
            hyperopt_grid="singleton",
            group_features=("a", "b"),
            levels=(0.05,),
        )
        assert cfg.fingerprint() == "bb86354e4f4cd5d3"

    def test_built_objects_follow_the_config(self):
        cfg = RunConfig(seed=4, learner="boosted", boosted={"n_rounds": 3}, statistic="covariance")
        assert cfg.learner_cfg == L.BoostConfig(n_rounds=3, seed=4)
        assert cfg.grid == tuple(L.default_grid(L.BoostConfig, seed=4, n_rounds=3))
        assert cfg.plan == SplitPlan(cfg.split_fractions, 4)
        assert cfg.sorted_cfg == inference.SortedGroupsConfig(
            cfg.sorted_groups, cfg.sorted_splits, cfg.main_fraction, "covariance", cfg.grid, 4
        )
        assert RunConfig(hyperopt_grid="singleton").grid == (L.NetworkConfig(),)

    def test_readme_run_config_loads(self, tmp_path):
        """The README's minimal run config is one every command accepts."""
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"A minimal run config:\n\n```yaml\n(.*?)```", readme, re.S)
        doc = yaml.safe_load(block.group(1))
        cfg = load_config(_write_config(tmp_path / "c.yaml", doc))
        assert cfg.learner == doc["learner"]


# Every command that reads a dataset.
DATA_COMMANDS = [
    "fit", "hyperopt", "estimate", "test-intersection", "test-sorted", "importance", "report"
]

# A stderr line that reports a stage's wall time.
TIMING = re.compile(r"^\d+-fold cross-fit( \+ raw fit)? in \d+\.\ds$")


def run_cmd(config_path, command):
    return CliRunner().invoke(main, ["--config", config_path, command])


class TestDensity:
    @pytest.mark.parametrize("repeated", [True, False], ids=["repeated", "distinct"])
    def test_matches_per_record_kde(self, tmp_path, repeated):
        """Summing kernels over distinct values with their counts gives the
        per-record gaussian_kde on the same grid, up to summation order."""
        rng = np.random.default_rng(4)
        values = rng.normal(0.1, 0.05, 3000)
        if repeated:
            values = rng.choice(values[:60], 3000)
        write_density(OutputDir(str(tmp_path)), "d", values)
        grid, dens = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1).T
        kde = gaussian_kde(values, bw_method="silverman")
        h = values.std(ddof=1) * kde.factor
        np.testing.assert_array_equal(
            grid, np.linspace(values.min() - 3 * h, values.max() + 3 * h, 512)
        )
        assert np.max(np.abs(dens - kde(grid)) / kde(grid)) <= 1e-12

    def test_constant_values(self, tmp_path):
        write_density(OutputDir(str(tmp_path)), "d", np.full(5, 0.25))
        grid, dens = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1).T
        assert np.all(grid == 0.25) and np.all(dens == 0.0)

    @given(n=st.integers(2, 20_000))
    @settings(max_examples=200, deadline=None)
    def test_silverman_factor_is_scipys(self, n):
        values = np.arange(n, dtype=np.float64)
        assert silverman_factor(n) == gaussian_kde(values, bw_method="silverman").factor


def write_table_by_rows(root: str, name: str, header: list[str], rows: list[list]) -> None:
    """The row-by-row ``write_table`` that the column writer replaced, kept
    as its oracle: ``csv.writer`` for the CSV, one ``str.format`` template
    for each .txt line."""
    cells = [header] + [
        [format(v, ".6g") if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    with open(os.path.join(root, name + ".csv"), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(cells)
    widths = [max(map(len, column)) for column in zip(*cells)]
    line = "  ".join(f"{{:<{w}}}" for w in widths)
    with open(os.path.join(root, name + ".txt"), "w", encoding="utf-8") as fh:
        fh.write(line.format(*header).rstrip() + "\n")
        fh.write("  ".join("-" * w for w in widths) + "\n")
        fh.writelines(line.format(*row).rstrip() + "\n" for row in cells[1:])


# Text that csv must quote or that a template must not interpret.
CELL_TEXT = st.text(alphabet='ab ,"\r\n%{}-é', max_size=6)
SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 1e-300, 5e-324, 1e300]
)
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats(), st.floats(-1.0, 1.0))
INTS = st.one_of(st.integers(-(10**20), 10**20), st.booleans())


@st.composite
def table_columns(draw):
    """A header of 1-5 names and as many columns of one length: all floats
    (a list or a float array), all ints, all strings, or a mix; a float
    column repeats a few of its values."""
    header = draw(st.lists(CELL_TEXT, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 12))
    columns = []
    for _ in header:
        kind = draw(st.sampled_from(["floats", "float array", "ints", "text", "mixed"]))
        if kind in ("floats", "float array"):
            pool = draw(st.lists(FLOATS, min_size=1, max_size=4))
            column = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            if kind == "float array":
                column = np.array(column, dtype=np.float64)
        else:
            cell = {"ints": INTS, "text": CELL_TEXT, "mixed": st.one_of(FLOATS, INTS, CELL_TEXT)}
            column = draw(st.lists(cell[kind], min_size=n, max_size=n))
        columns.append(column)
    return header, columns


class TestWriteTable:
    @given(table=table_columns())
    @example(
        table=(
            ["x", "y"],
            [np.array([0.0, -0.0, np.nan, -np.nan, 0.0, 1e-300, -0.0, np.inf]), list(range(8))],
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_the_row_writer(self, table):
        header, columns = table
        n = len(columns[0])
        rows = [[column[i] for column in columns] for i in range(n)]
        with tempfile.TemporaryDirectory() as root:
            write_table(OutputDir(root), "t", dict(zip(header, columns)))
            write_table_by_rows(root, "oracle", header, rows)
            for ext in (".csv", ".txt"):
                with open(os.path.join(root, "t" + ext), "rb") as fh:
                    written = fh.read()
                with open(os.path.join(root, "oracle" + ext), "rb") as fh:
                    assert written == fh.read(), ext


def test_clamped_interval_is_noted(tmp_path, small_dataset, capsys):
    """The tight identical estimates of the intersection test's clamp case
    get one note per level; the separated estimates of its other case get
    none.  The file still writes the clamped interval as a point."""
    groups = {
        "a": cli.FeatureGroups(
            [0, 1],
            [1.0, 1.0],
            {
                "covariance": (np.array([0.0, 0.0]), np.array([0.5, 0.5])),
                "dd_correlation": (np.array([0.0, 1.0]), np.array([0.01, 0.01])),
            },
        )
    }
    cfg = RunConfig(mc_draws=1000)
    cli._write_intersection(cfg, OutputDir(str(tmp_path)), small_dataset, groups)
    assert capsys.readouterr().err.splitlines() == [
        f"note: intersection a covariance at level {alpha:g}:"
        " ci_b < ci_a, interval written as the point ci_a"
        for alpha in cfg.levels
    ]
    with open(tmp_path / "intersection.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["ci_a"] == r["ci_b"] for r in rows] == [True] * 3 + [False] * 3


class TestCommands:
    def test_simulate_outputs(self, workdir):
        out = os.path.dirname(workdir["dataset"])
        names = set(os.listdir(out))
        assert {"dataset.csv", "ground_truth.csv", "schema.yaml", "manifest.json"} <= names

    def test_manifest_lists_exactly_the_files(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        res = run_cmd(p, "estimate")
        assert res.exit_code == 0, res.output
        with open(tmp_path / "o" / "manifest.json") as fh:
            manifest = json.load(fh)
        listed = {e["name"] for e in manifest["files"]}
        on_disk = set(os.listdir(tmp_path / "o")) - {"manifest.json"}
        assert listed == on_disk
        assert manifest["command"] == "estimate"
        assert manifest["seed"] == 1
        assert all(len(e["sha256"]) == 64 for e in manifest["files"])

    def test_estimate_tables(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        res = run_cmd(p, "estimate")
        assert res.exit_code == 0, res.output
        with open(tmp_path / "o" / "summary.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["estimate", "statistic", "mean", "dispersion", "min", "max"]
        with open(tmp_path / "o" / "boxplot.csv") as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0] == "feature,modality,min,q1,median,q3,max"
        # one row per (feature, modality) present in the data: a has 4, b has 3
        assert len(rows) - 1 == 7

    def test_byte_identical_reruns(self, workdir, tmp_path):
        import hashlib

        digests = []
        for sub in ("o1", "o2"):
            p = _write_config(
                tmp_path / f"{sub}.yaml", base_config(workdir, tmp_path / sub)
            )
            res = run_cmd(p, "estimate")
            assert res.exit_code == 0, res.output
            d = {}
            for name in os.listdir(tmp_path / sub):
                if name == "manifest.json":
                    continue
                with open(tmp_path / sub / name, "rb") as fh:
                    d[name] = hashlib.sha256(fh.read()).hexdigest()
            digests.append(d)
        assert digests[0] == digests[1]

    def test_intersection_table(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        res = run_cmd(p, "test-intersection")
        assert res.exit_code == 0, res.output
        with open(tmp_path / "o" / "intersection.csv") as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0] == "group,statistic,level,k0,k,test_statistic,PCP,ci_a,ci_b"
        # 2 features x 2 statistics x 3 levels
        assert len(rows) - 1 == 12
        assert all(("rejected" in r) for r in rows[1:])

    def test_sorted_table(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        res = run_cmd(p, "test-sorted")
        assert res.exit_code == 0, res.output
        with open(tmp_path / "o" / "sorted_splits.csv") as fh:
            rows = fh.read().strip().splitlines()
        assert rows[0].startswith("split,group1_correlation")
        assert len(rows) - 1 == 1  # sorted_splits: 1
        assert os.path.exists(tmp_path / "o" / "sorted_median.csv")

    def test_sorted_logs_redraws(self, workdir, tmp_path):
        doc = base_config(workdir, tmp_path / "o", sorted_splits=2)
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "test-sorted")
        assert res.exit_code == 0, res.output
        assert re.search(r"^sorted groups: \d+ redraws over 2 splits$", res.output, re.M)

    @pytest.mark.parametrize("command", ["test-sorted", "report"])
    def test_sorted_timing_names_a_shared_batch(self, workdir, tmp_path, command):
        """report's splits run in one batch with the folds and are timed from
        its start, so their line says so; test-sorted's splits run alone."""
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        res = run_cmd(p, command)
        assert res.exit_code == 0, res.output
        when = {
            "test-sorted": r"in \d+\.\ds",
            "report": r"done \d+\.\ds into the fit batch \(shared with the 2-fold cross-fit\)",
        }[command]
        assert re.search(rf"^test-sorted: 1 splits {when}$", res.output, re.M)

    @staticmethod
    def _rare_b2_dataset(workdir, path, keep):
        """The CLI dataset with the records of modality b=2 moved to b=1,
        except those at positions ``keep`` (a slice) among them."""
        schema = CategoricalSchema.from_yaml(workdir["schema"])
        d = load_csv(workdir["dataset"], schema)
        j = schema.feature_index("b")
        rare = np.nonzero(d.covariates[:, j] == 2)[0]
        covariates = d.covariates.copy()
        covariates[np.delete(rare, keep), j] = 1
        save_csv(Dataset(schema, covariates, d.c, d.r, d.w), str(path))
        return str(path)

    @pytest.mark.parametrize("command", ["estimate", "test-intersection", "report"])
    def test_failed_group_estimate_is_reported(self, workdir, tmp_path, command):
        """A modality with two records carries neither statistic: its row
        is NaN, the feature's intersection rows are not tested, and stderr
        says which group and statistic, once each."""
        path = self._rare_b2_dataset(workdir, tmp_path / "rare.csv", keep=slice(0, 2))
        doc = base_config(workdir, tmp_path / "o", dataset=path)
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 0, res.output
        warnings = [line for line in res.output.splitlines() if line.startswith("warning:")]
        assert warnings == [
            f"warning: group b=2: {column} written as NaN: fewer than 3 usable records"
            for column in ("covariance", "dd_correlation")
        ]
        if command != "test-intersection":
            with open(tmp_path / "o" / "group_estimates.csv") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()]
            assert [r[2:6] for r in rows[1:] if r[:2] == ["b", "2"]] == [["nan"] * 4]
        if command != "estimate":
            with open(tmp_path / "o" / "intersection.csv") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            by_test = {(r[0], r[1]): r for r in rows}
            assert len(rows) == 12  # 2 features x 2 statistics x 3 levels
            for statistic in ("covariance", "dd_correlation"):
                assert [r[3:] for r in rows if r[:2] == ["b", statistic]] == [
                    ["nan", "nan", "nan", "not tested", "nan", "nan"]
                ] * 3
                assert by_test["a", statistic][6] in ("rejected", "not rejected")

    @pytest.mark.parametrize("command", ["test-intersection", "report"])
    def test_one_record_modality_is_not_tested(self, workdir, tmp_path, command):
        """A one-record group's covariance SE is 0 or rounding noise.  The
        record kept here gives exactly 0, on which the intersection test
        used to stop; now both statistics of the group are NaN and its
        feature is not tested."""
        path = self._rare_b2_dataset(workdir, tmp_path / "single.csv", keep=slice(1, 2))
        doc = base_config(workdir, tmp_path / "o", dataset=path)
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 0, res.output
        assert [line for line in res.output.splitlines() if line.startswith("warning:")] == [
            f"warning: group b=2: {column} written as NaN: fewer than 3 usable records"
            for column in ("covariance", "dd_correlation")
        ]
        with open(tmp_path / "o" / "intersection.csv") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
        assert [r[6] for r in rows if r[0] == "b"] == ["not tested"] * 6
        assert all(r[6] in ("rejected", "not rejected") for r in rows if r[0] == "a")

    def test_fit_and_hyperopt(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        assert run_cmd(p, "fit").exit_code == 0
        assert os.path.exists(tmp_path / "o" / "model.json")
        p2 = _write_config(tmp_path / "c2.yaml", base_config(workdir, tmp_path / "o2"))
        res = run_cmd(p2, "hyperopt")
        assert res.exit_code == 0, res.output
        with open(tmp_path / "o2" / "selected.yaml") as fh:
            selected = yaml.safe_load(fh)
        assert selected["type"] == "BoostConfig"
        assert "test_loss" in selected

    def test_tree_grid_takes_learner_settings(self, workdir, tmp_path):
        doc = base_config(
            workdir, tmp_path / "o", hyperopt_grid="default", boosted={"n_rounds": 2}
        )
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "hyperopt")
        assert res.exit_code == 0, res.output
        with open(tmp_path / "o" / "candidates.csv") as fh:
            header, *rows = fh.read().splitlines()
        assert header == "max_depth,min_leaf,learning_rate,test_loss,selected"
        assert len(rows) == 27
        with open(tmp_path / "o" / "selected.yaml") as fh:
            assert yaml.safe_load(fh)["n_rounds"] == 2

    @pytest.mark.parametrize(
        "learner, settings", [("boosted", {"n_rounds": 2}), ("forest", {"n_trees": 2})]
    )
    def test_tree_grid_does_not_depend_on_workers(
        self, workdir, tmp_path, workers, learner, settings
    ):
        """Each tree candidate is a unit of one batch, and the losses come
        back in input order, so the search reads the same on any number of
        workers."""
        doc = base_config(
            workdir, tmp_path / "o", learner=learner, hyperopt_grid="default", **{learner: settings}
        )
        p = _write_config(tmp_path / "c.yaml", doc)
        outputs = []
        for n in (1, 2):
            workers(n)
            res = run_cmd(p, "hyperopt")
            assert res.exit_code == 0, res.output
            outputs.append(
                [(tmp_path / "o" / name).read_bytes() for name in ("candidates.csv", "selected.yaml")]
            )
        assert outputs[0] == outputs[1]

    def test_importance(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        res = run_cmd(p, "importance")
        assert res.exit_code == 0, res.output
        names = set(os.listdir(tmp_path / "o"))
        assert {"retrain_importance.csv", "impurity_importance.csv"} <= names

    def test_report_composes(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        res = run_cmd(p, "report")
        assert res.exit_code == 0, res.output
        names = set(os.listdir(tmp_path / "o"))
        assert {"report.txt", "summary.csv", "intersection.csv", "sorted_median.csv"} <= names

    def test_report_cross_fits_once_with_unchanged_tables(self, workdir, tmp_path, monkeypatch):
        """report shares one cross-fit between the estimate and the
        intersection test and writes the same bytes as those commands."""
        for command in ("estimate", "test-intersection"):
            p = _write_config(tmp_path / f"{command}.yaml", base_config(workdir, tmp_path / command))
            assert run_cmd(p, command).exit_code == 0
        calls = []
        cross_fit_units = L.cross_fit_units
        monkeypatch.setattr(
            L, "cross_fit_units", lambda *a, **k: calls.append(a) or cross_fit_units(*a, **k)
        )
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "report"))
        res = run_cmd(p, "report")
        assert res.exit_code == 0, res.output
        assert len(calls) == 1
        for command in ("estimate", "test-intersection"):
            names = set(os.listdir(tmp_path / command)) - {"manifest.json"}
            for name in names:
                with open(tmp_path / command / name, "rb") as a, open(tmp_path / "report" / name, "rb") as b:
                    assert a.read() == b.read(), name

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_report_runs_one_batch(self, workdir, tmp_path, monkeypatch, workers, n_workers):
        """The raw fit, the folds and the splits of report share one
        map_units call, whichever module calls it, and no worker outlives
        the command.  On this 12-cell design the raw fit joins the boosted
        folds' stack, and the folds and the splits share the workers: one
        stack each on one or two workers."""
        workers(n_workers)
        batches = []
        map_units = parallel.map_units

        def counted(fn, units):
            batches.append(len(units))
            return map_units(fn, units)

        for module in (parallel, L, inference, cli):
            monkeypatch.setattr(module, "map_units", counted)
        doc = base_config(workdir, tmp_path / "o", folds=3, sorted_splits=4)
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "report")
        assert res.exit_code == 0, res.output
        assert batches == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["report", "estimate"])
    def test_report_bytes_do_not_depend_on_the_stacks(self, workdir, tmp_path, workers, command):
        """Report stacks the raw fit and the folds into one unit and the
        splits into another on one or two workers, and each into two on
        four; estimate stacks the raw fit and the folds into one unit per
        worker.  Every worker count writes the same manifest."""
        doc = base_config(workdir, tmp_path / "o", folds=3, sorted_splits=4)
        config = _write_config(tmp_path / "c.yaml", doc)
        manifests = []
        for n_workers in (1, 2, 4):
            workers(n_workers)
            res = run_cmd(config, command)
            assert res.exit_code == 0, res.output
            manifests.append((tmp_path / "o" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1] == manifests[2]

    @pytest.mark.parametrize("command", ["hyperopt", "importance", "test-sorted", "report"])
    def test_run_builds_plan_and_sorted_config_once(self, workdir, tmp_path, monkeypatch, command):
        """The config builds the split plan and the sorted-groups config,
        and the command reads them rather than building its own."""
        built = []

        def counted(cls):
            return lambda *a, **k: built.append(cls) or cls(*a, **k)

        for name in ("SplitPlan", "SortedGroupsConfig"):
            monkeypatch.setattr(cli, name, counted(getattr(cli, name)))
        doc = base_config(workdir, tmp_path / "o")
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 0, res.output
        assert sorted(cls.__name__ for cls in built) == ["SortedGroupsConfig", "SplitPlan"]

    def test_sorted_grid_takes_network_settings(self, workdir, tmp_path, monkeypatch, workers):
        """Every split searches the default grid of the config's learner
        family, whose candidates carry the config's settings for that
        learner and the split's own seed."""
        workers(1)
        grids = []

        def first_candidate(aux, grid, *args):
            grids.append(grid)
            return L.HyperoptReport(list(grid), [0.0] * len(grid), 0)

        monkeypatch.setattr(L, "hyperopt", first_candidate)
        for learner, settings, size in (
            ("network", {"max_epochs": 1}, 108),
            ("boosted", {"n_rounds": 2}, 27),
        ):
            grids.clear()
            doc = base_config(
                workdir,
                tmp_path / learner,
                learner=learner,
                hyperopt_grid="default",
                sorted_splits=2,
                **{learner: settings},
            )
            res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "test-sorted")
            assert res.exit_code == 0, res.output
            assert len(grids) == 2
            assert all(len(grid) == size for grid in grids)
            assert all(type(c) is L.KINDS[learner].config for grid in grids for c in grid)
            for k, v in settings.items():
                assert all(getattr(c, k) == v for grid in grids for c in grid)
            seeds = [{c.seed for c in grid} for grid in grids]
            assert all(len(s) == 1 for s in seeds) and seeds[0] != seeds[1]

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("report", {"folds": 3, "sorted_splits": 3}),
            ("test-sorted", {"learner": "network", "network": {"max_epochs": 1}, "sorted_splits": 3}),
            (
                "test-sorted",
                {
                    "learner": "network",
                    "network": {"max_epochs": 1},
                    "hyperopt_grid": "default",
                    "sorted_splits": 3,
                },
            ),
            (
                "hyperopt",
                {"learner": "network", "network": {"max_epochs": 2}, "hyperopt_grid": "default"},
            ),
            ("importance", {}),
        ],
        ids=[
            "report-boosted",
            "sorted-network-singleton",
            "sorted-network-grid",
            "hyperopt-grid",
            "importance-boosted",
        ],
    )
    def test_one_and_two_workers_write_the_same_manifest(
        self, workdir, tmp_path, workers, command, extra
    ):
        """The fits of a batch merge in input order, so the files do not
        depend on the worker count, and no worker outlives the command."""
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o", **extra))
        manifests = []
        for n in (1, 2):
            workers(n)
            res = run_cmd(p, command)
            assert res.exit_code == 0, res.output
            assert multiprocessing.active_children() == []
            manifests.append((tmp_path / "o" / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]


def test_each_score_is_computed_once_per_feature(monkeypatch, small_dataset):
    """The group table scores the records once per feature and statistic,
    not once per group."""
    calls = {"covariance_score": 0, "correlation_score": 0}
    for name in calls:

        def counted(*args, _name=name, _score=getattr(functionals, name)):
            calls[_name] += 1
            return _score(*args)

        monkeypatch.setattr(functionals, name, counted)
    d = small_dataset
    raw = np.random.default_rng(0).uniform(0.05, 1.0, (d.n, 4))
    cf = per_obs_stats(raw / raw.sum(axis=1, keepdims=True))
    groups = cli._group_estimates(load_config(None), d, cf)
    assert calls == {"covariance_score": 2, "correlation_score": 2}
    assert [len(fg.modalities) for fg in groups.values()] == [4, 3]


class TestExitCodes:
    def test_missing_dataset_is_validation_error(self, tmp_path):
        p = _write_config(tmp_path / "c.yaml", {"out": str(tmp_path / "o")})
        res = run_cmd(p, "estimate")
        assert res.exit_code == 1
        assert "error:" in res.output

    def test_unreadable_file(self, tmp_path):
        p = _write_config(
            tmp_path / "c.yaml",
            {"dataset": str(tmp_path / "missing.csv"), "out": str(tmp_path / "o")},
        )
        res = run_cmd(p, "estimate")
        assert res.exit_code == 1

    def test_infeasible_dgp_is_numerical_failure(self, tmp_path, small_schema):
        doc = {
            "version": 1,
            "schema": {
                "features": [
                    {"name": n, "codes": list(c)} for n, c in small_schema.features
                ]
            },
            "marginals": [
                [0.25, 0.25, 0.25, 0.25],
                [1 / 3, 1 / 3, 1 / 3],
            ],
            "coef_p": [4.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "coef_q": [4.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            "rho": {"kind": "constant", "value": -0.95},
        }
        dgp_path = tmp_path / "bad_dgp.yaml"
        with open(dgp_path, "w") as fh:
            yaml.safe_dump(doc, fh)
        p = _write_config(
            tmp_path / "c.yaml",
            {"dgp": str(dgp_path), "out": str(tmp_path / "o"), "n": 50},
        )
        res = run_cmd(p, "simulate")
        assert res.exit_code == 2
        assert "numerical failure" in res.output

    @pytest.mark.parametrize(
        "learner, settings", [("boosted", {"n_rounds": 0}), ("network", {"depth": -1})]
    )
    def test_invalid_learner_settings_are_validation_errors(
        self, workdir, tmp_path, learner, settings
    ):
        doc = base_config(workdir, tmp_path / "o", learner=learner, **{learner: settings})
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "fit")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # not an escaped ValueError
        assert f"error: invalid {learner} settings" in res.output

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_grid_axis_in_learner_settings_is_validation_error(self, workdir, tmp_path, command):
        """The default grid sets max_depth itself; a config that also sets
        it is rejected by every command, not silently overridden."""
        out = tmp_path / "o"
        doc = base_config(workdir, out, hyperopt_grid="default", boosted={"max_depth": 3})
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line == (
            "error: invalid boosted settings: the default grid searches max_depth,"
            " which the settings may not also set"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_unknown_group_feature_is_validation_error(self, workdir, tmp_path, command):
        """group_features is checked against the schema when it is loaded,
        before any fit, whether the command groups or not."""
        out = tmp_path / "o"
        doc = base_config(workdir, out, group_features=["a", "bogus"])
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line == "error: group_features names features the schema lacks: ['bogus']"
        assert not out.exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    @pytest.mark.parametrize(
        "sections, message",
        [
            (
                {"forest": {"bogus_key": 1}, "network": {"depth": -1}},
                "error: invalid network settings: depth must be >= 0",
            ),
            ({"forest": {"bogus_key": 1}}, "error: invalid forest settings: "),
        ],
        ids=["bad-value", "unknown-key"],
    )
    def test_unused_learner_sections_are_checked(
        self, workdir, tmp_path, command, sections, message
    ):
        """Every command rejects a bad section of a learner the run does not
        use, with one line and no output."""
        out = tmp_path / "o"
        doc = base_config(workdir, out, **sections)
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    @pytest.mark.parametrize(
        "learner, settings, message",
        [
            ("network", {"batch_size": 0}, "batch_size must be >= 1"),
            ("network", {"batch_size": -5}, "batch_size must be >= 1"),
            ("network", {"max_epochs": 0}, "max_epochs must be >= 1"),
            ("network", {"learning_rate": -1}, "learning_rate must be > 0"),
            ("network", {"beta1": 1.5}, "beta1 and beta2 must lie in [0, 1)"),
            ("network", {"adam_eps": 0}, "adam_eps must be > 0"),
            ("forest", {"max_features": 0}, "max_features must be None or >= 1"),
            ("forest", {"max_features": -2}, "max_features must be None or >= 1"),
        ],
        ids=[
            "batch-zero", "batch-negative", "epochs-zero", "rate-negative", "beta1", "eps-zero",
            "features-zero", "features-negative",
        ],
    )
    def test_out_of_range_learner_settings_are_validation_errors(
        self, workdir, tmp_path, command, learner, settings, message
    ):
        """A value the trainer cannot run, or would run without training,
        is one line naming the learner, exit 1 and no output."""
        out = tmp_path / "o"
        doc = base_config(workdir, out, learner=learner, **{learner: settings})
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line == f"error: invalid {learner} settings: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    def test_unknown_hyperopt_grid_is_validation_error(self, workdir, tmp_path, command):
        out = tmp_path / "o"
        doc = base_config(workdir, out, hyperopt_grid="bogus")
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line == "error: unknown hyperopt grid 'bogus'"
        assert not out.exists()

    @pytest.mark.parametrize("command", DATA_COMMANDS)
    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"folds": 1}, "error: folds must be at least 2"),
            ({"mc_draws": 10}, "error: mc_draws must be at least 100"),
            ({"sorted_groups": 1}, "error: need at least 2 groups"),
            ({"main_fraction": 2.0}, "error: main_fraction must lie in (0, 1)"),
            ({"split_fractions": [0.5, 0.5, 0.5]}, "error: split fractions must sum to 1"),
            ({"split_fractions": [0.5, 0.5]}, "error: split fractions must be three"),
            ({"levels": []}, "error: no test levels configured"),
        ],
        ids=[
            "folds", "mc_draws", "sorted_groups", "main_fraction", "fractions", "two-fractions", "levels"
        ],
    )
    def test_every_command_checks_every_entry(self, workdir, tmp_path, command, entry, message):
        """An entry a command does not read is still checked, so every
        command rejects the same config, with one line and no output."""
        out = tmp_path / "o"
        doc = base_config(workdir, out, **entry)
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), command)
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"seed": -1}, "seed must be at least 0, got -1"),
            ({"folds": 2.5}, "folds must be an integer, got 2.5"),
            ({"mc_draws": 100.5}, "mc_draws must be an integer, got 100.5"),
            ({"sorted_splits": 2.5}, "sorted_splits must be an integer, got 2.5"),
            ({"sorted_groups": True}, "sorted_groups must be an integer, got True"),
            ({"group_features": "ab"}, "group_features must be a list of feature names, got 'ab'"),
            ({"main_fraction": "x"}, "main_fraction must be a number, got 'x'"),
            ({"levels": 0.05}, "levels must be a list of numbers, got 0.05"),
            ({"levels": ["a"]}, "levels must be a list of numbers, got ['a']"),
        ],
        ids=[
            "negative-seed", "folds", "mc_draws", "sorted_splits", "sorted_groups", "features",
            "main_fraction", "levels-scalar", "levels-entry",
        ],
    )
    def test_ill_typed_entries_are_validation_errors(
        self, workdir, tmp_path, monkeypatch, entry, message
    ):
        """A value of the wrong type or sign is one line naming its key,
        exit 1 and no output, before the dataset is read."""
        monkeypatch.setattr(cli, "load_dataset", lambda cfg: pytest.fail("read the dataset"))
        out = tmp_path / "o"
        doc = base_config(workdir, out, **entry)
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "test-intersection")
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line == f"error: {message}"
        assert not out.exists()

    def test_negative_seed_option_is_validation_error(self, workdir, tmp_path):
        out = tmp_path / "o"
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, out))
        res = CliRunner().invoke(main, ["--config", p, "--seed", "-1", "test-intersection"])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        (line,) = res.output.splitlines()
        assert line == "error: seed must be at least 0, got -1"
        assert not out.exists()

    def test_duplicate_column_is_validation_error(self, workdir, tmp_path):
        with open(workdir["dataset"]) as fh:
            lines = fh.read().splitlines()
        path = tmp_path / "dup.csv"
        path.write_text("\n".join([lines[0] + ",w"] + [line + ",2.0" for line in lines[1:]]) + "\n")
        doc = base_config(workdir, tmp_path / "o", dataset=str(path))
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "estimate")
        assert res.exit_code == 1
        assert "error:" in res.output and "duplicate column(s) ['w']" in res.output

    @pytest.mark.parametrize("column", [0, -3])  # a feature and c
    def test_integer_beyond_int64_is_validation_error(self, workdir, tmp_path, column):
        with open(workdir["dataset"]) as fh:
            lines = fh.read().splitlines()
        cells = lines[2].split(",")
        cells[column] = str(2**64)
        path = tmp_path / "big.csv"
        path.write_text("\n".join([*lines[:2], ",".join(cells), *lines[3:]]) + "\n")
        doc = base_config(workdir, tmp_path / "o", dataset=str(path))
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "estimate")
        assert res.exit_code == 1
        (line,) = res.output.splitlines()
        assert line == f"error: {path}: an integer value lies outside the 64-bit range"

    @pytest.mark.parametrize(
        "case, exit_code, message",
        [
            ("small fold", 1, "error: fold 0: too few records to train on"),
            ("failed split", 1, "error: sorted-groups split failed after 20 retries: "),
            ("report small fold", 1, "error: fold 0: too few records to train on"),
            ("report failed split", 1, "error: sorted-groups split failed after 20 retries: "),
            ("diverged network", 2, "numerical failure: non-finite loss at epoch 1"),
            ("diverged grid", 2, "numerical failure: non-finite loss at epoch 1 (depth 0)"),
        ],
    )
    def test_failure_in_a_batch_ends_as_with_one_worker(
        self, workdir, tmp_path, workers, case, exit_code, message
    ):
        """An error raised in a worker reaches the command line as the same
        one-line message and exit code as in a one-worker run.  In report,
        the folds' error is raised while the splits are still pending, and
        the splits' error after the estimate tables were written; both
        leave no output behind."""
        schema = CategoricalSchema.from_yaml(workdir["schema"])
        d = load_csv(workdir["dataset"], schema)
        extra = {"sorted_splits": 3}
        command = "report" if case.startswith("report") else None
        if case.endswith("small fold"):  # every split fails too, later in the batch
            command, d = command or "estimate", d.take(np.arange(12))
        elif case.endswith("failed split"):  # no claims: every group's correlation is undefined
            command = command or "test-sorted"
            d = Dataset(schema, d.covariates, 0 * d.c, d.r, d.w)
        elif case == "diverged network":
            command = "estimate"
            extra.update(learner="network", network={"learning_rate": float("inf")})
        else:  # every stack diverges; the grid's first config is named
            command = "hyperopt"
            extra.update(
                learner="network",
                network={"learning_rate": float("inf"), "max_epochs": 2},
                hyperopt_grid="default",
            )
        path = str(tmp_path / "d.csv")
        save_csv(d, path)
        doc = base_config(workdir, tmp_path / "o", dataset=path, **extra)
        p = _write_config(tmp_path / "c.yaml", doc)
        outputs = []
        for n in (1, 2):
            workers(n)
            res = run_cmd(p, command)
            assert res.exit_code == exit_code
            assert isinstance(res.exception, SystemExit)
            assert multiprocessing.active_children() == []
            assert not (tmp_path / "o").exists()
            # report logs its cross-fit time before a split fails.
            outputs.append([line for line in res.output.splitlines() if not TIMING.match(line)])
        assert outputs[0] == outputs[1]
        # Notes of clamped intervals may come before a split fails.
        *warnings, error = [line for line in outputs[0] if not line.startswith("note: ")]
        assert error.startswith(message)
        assert all(line.startswith("warning: ") for line in warnings)
        assert bool(warnings) == (case == "report failed split")

    def test_failed_run_leaves_no_partial_output(self, workdir, tmp_path):
        """The directories a failed run made are removed, and one that was
        there before is kept."""
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "o" / "run", tmp_path / "kept"):
            doc = base_config(workdir, out)
            doc["dataset"] = str(tmp_path / "missing.csv")
            p = _write_config(tmp_path / "c.yaml", doc)
            res = run_cmd(p, "estimate")
            assert res.exit_code == 1
        assert not (tmp_path / "o").exists()
        assert os.listdir(tmp_path / "kept") == []

    def test_failed_rerun_removes_the_stale_manifest(self, workdir, tmp_path):
        """A rerun that fails after writing removes what it wrote, and with
        it the earlier manifest, which listed those files.  A rerun that
        fails before writing leaves the earlier output whole."""
        out = tmp_path / "o"
        good = _write_config(tmp_path / "good.yaml", base_config(workdir, out))
        assert run_cmd(good, "report").exit_code == 0
        before = {name: (out / name).read_bytes() for name in os.listdir(out)}
        missing = base_config(workdir, out, dataset=str(tmp_path / "missing.csv"))
        assert run_cmd(_write_config(tmp_path / "missing.yaml", missing), "report").exit_code == 1
        assert {name: (out / name).read_bytes() for name in os.listdir(out)} == before
        # 400 groups of 400 main records: every split's correlation is
        # undefined, after the estimate tables were written.
        failing = _write_config(tmp_path / "bad.yaml", base_config(workdir, out, sorted_groups=400))
        res = run_cmd(failing, "report")
        assert res.exit_code == 1
        assert "sorted-groups split failed" in res.output.splitlines()[-1]
        assert "manifest.json" not in os.listdir(out)


class TestCliOverrides:
    def test_seed_and_out_flags(self, workdir, tmp_path):
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "ignored"))
        res = CliRunner().invoke(
            main,
            ["--config", p, "--seed", "42", "--out", str(tmp_path / "flag"), "fit"],
        )
        assert res.exit_code == 0, res.output
        with open(tmp_path / "flag" / "manifest.json") as fh:
            assert json.load(fh)["seed"] == 42


class TestRuntimeImports:
    # Import names whose distribution is named otherwise.
    DISTRIBUTIONS = {"yaml": "pyyaml"}

    def test_no_scipy_at_run_time(self, workdir, tmp_path):
        """scipy is a test oracle, not a runtime dependency: a fresh
        interpreter that imports the CLI and runs a report never loads it,
        and every third-party module the package imports is a declared
        dependency."""
        p = _write_config(tmp_path / "c.yaml", base_config(workdir, tmp_path / "o"))
        code = (
            "import sys; from click.testing import CliRunner; import pcptest.cli; "
            "res = CliRunner().invoke(pcptest.cli.main, ['--config', sys.argv[1], 'report']); "
            "assert res.exit_code == 0, res.output; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        res = subprocess.run(
            [sys.executable, "-c", code, p], env=env, capture_output=True, text=True, timeout=300
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"

        tomllib = pytest.importorskip("tomllib")
        with open(ROOT / "pyproject.toml", "rb") as fh:
            declared = {
                re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in tomllib.load(fh)["project"]["dependencies"]
            }
        assert "scipy" not in declared
        imported = set()
        for path in (ROOT / "src" / "pcptest").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported |= {alias.name.split(".")[0] for alias in node.names}
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names) - {"pcptest"}
        assert third_party
        assert {self.DISTRIBUTIONS.get(m, m) for m in third_party} <= declared

    def test_every_export_exists(self):
        """Each name in the package's ``__all__`` and in each module's is
        defined, so ``from pcptest import *`` cannot fail on a stale one."""
        modules = [importlib.import_module("pcptest")] + [
            importlib.import_module(f"pcptest.{path.stem}")
            for path in sorted((ROOT / "src" / "pcptest").glob("*.py"))
            if path.stem != "__init__"
        ]
        with_all = [m for m in modules if hasattr(m, "__all__")]
        assert len(with_all) > 1
        for module in with_all:
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert missing == [], module.__name__
