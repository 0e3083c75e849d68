import json
import os

import pytest
import yaml
from click.testing import CliRunner

from pcptest import learners as L
from pcptest.cli import RunConfig, load_config, main
from pcptest.data import DataError


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
        p = _write_config(tmp_path / "c.yaml", {"nonsense": 1})
        with pytest.raises(DataError, match="unknown config keys"):
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


def run_cmd(config_path, command):
    return CliRunner().invoke(main, ["--config", config_path, command])


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
        cross_fit = L.cross_fit_predict
        monkeypatch.setattr(
            L, "cross_fit_predict", lambda *a, **k: calls.append(a) or cross_fit(*a, **k)
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

    def test_sorted_grid_takes_network_settings(self, workdir, tmp_path, monkeypatch):
        """Every split's default-grid candidates carry the config's network
        settings and that split's own seed."""
        grids = []

        def first_candidate(aux, grid, plan, target="cr"):
            grids.append(grid)
            return L.HyperoptReport(list(grid), [0.0] * len(grid), 0)

        monkeypatch.setattr(L, "hyperopt_network", first_candidate)
        doc = base_config(
            workdir,
            tmp_path / "o",
            learner="network",
            network={"max_epochs": 1},
            hyperopt_grid="default",
            sorted_splits=2,
        )
        res = run_cmd(_write_config(tmp_path / "c.yaml", doc), "test-sorted")
        assert res.exit_code == 0, res.output
        assert len(grids) == 2
        assert all(len(grid) == 108 for grid in grids)
        assert all(c.max_epochs == 1 for grid in grids for c in grid)
        seeds = [{c.seed for c in grid} for grid in grids]
        assert all(len(s) == 1 for s in seeds) and seeds[0] != seeds[1]


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

    def test_failed_run_leaves_no_partial_output(self, workdir, tmp_path):
        doc = base_config(workdir, tmp_path / "o")
        doc["dataset"] = str(tmp_path / "missing.csv")
        p = _write_config(tmp_path / "c.yaml", doc)
        res = run_cmd(p, "estimate")
        assert res.exit_code == 1
        out = tmp_path / "o"
        assert not out.exists() or os.listdir(out) == []


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
