"""Command-line front end.

Every command is a pure function of (input files, config, seed): the same
invocation writes byte-identical files.  Tables come out twice, as CSV and
as aligned plain text.  Each run ends with a manifest listing every file
written together with its SHA-256 digest; wall-clock timings go to stderr
so the manifest itself stays reproducible.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, replace

import click
import numpy as np
import yaml
from scipy.stats import gaussian_kde

from . import __version__
from . import learners as L
from .data import (
    CategoricalSchema,
    DataError,
    Dataset,
    GroupScheme,
    SplitPlan,
    default_schema,
    load_csv,
    make_folds,
    partition,
    save_csv,
    split,
)
from .functionals import (
    DegenerateMarginalError,
    PerObsStats,
    debiased_group_correlation,
    group_mean,
    per_obs_stats,
    summarize,
)
from .inference import (
    IntersectionInput,
    SortedGroupsConfig,
    intersection_test,
    sorted_groups_run,
)
from .network import NetworkConfig, NetworkTrainingError
from .synth import InfeasibleCellError, SyntheticDGP, sample_dataset
from .trees import BoostConfig, ForestConfig

CONFIG_FILE_VERSION = 1
MANIFEST_FILE_VERSION = 1

DEFAULT_LEVELS = (0.01, 0.05, 0.10)


@dataclass
class RunConfig:
    seed: int = 0
    out: str = "out"
    dataset: str | None = None
    schema: str | None = None  # None = built-in default schema
    dgp: str | None = None  # simulate only
    n: int = 6333  # simulate only
    learner: str = "network"
    statistic: str = "correlation"
    network: dict = field(default_factory=dict)
    forest: dict = field(default_factory=dict)
    boosted: dict = field(default_factory=dict)
    split_fractions: tuple[float, float, float] = (0.70, 0.15, 0.15)
    folds: int = 5
    levels: tuple[float, ...] = DEFAULT_LEVELS
    mc_draws: int = 100_000
    group_features: tuple[str, ...] = ()  # empty = every schema feature
    sorted_splits: int = 101
    sorted_groups: int = 4
    main_fraction: float = 0.5
    hyperopt_grid: str = "default"  # "default" or "singleton"

    def __post_init__(self) -> None:
        for a in self.levels:
            if not (0.0 < a < 1.0):
                raise DataError(f"test level {a} outside (0, 1)")
        if self.learner not in ("network", "forest", "boosted"):
            raise DataError(f"unknown learner {self.learner!r}")
        if self.statistic not in ("covariance", "correlation"):
            raise DataError(f"unknown statistic {self.statistic!r}")

    def fingerprint(self) -> str:
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}
        doc["config_version"] = CONFIG_FILE_VERSION
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str | None, **overrides) -> RunConfig:
    doc = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh) or {}
        version = doc.pop("version", CONFIG_FILE_VERSION)
        if version != CONFIG_FILE_VERSION:
            raise DataError(f"unsupported config version {version} in {path}")
    doc.update({k: v for k, v in overrides.items() if v is not None})
    for key in ("split_fractions", "levels", "group_features"):
        if key in doc and isinstance(doc[key], list):
            doc[key] = tuple(doc[key])
    unknown = set(doc) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**doc)


def _checked(section: str, build, **settings):
    """Call a learner config constructor; a value it rejects is an input
    error, reported like any other bad config entry."""
    try:
        return build(**settings)
    except ValueError as err:
        raise DataError(f"invalid {section} settings: {err}") from err


def learner_config(cfg: RunConfig) -> L.LearnerConfig:
    if cfg.learner == "network":
        return _checked("network", NetworkConfig, seed=cfg.seed, **cfg.network)
    if cfg.learner == "forest":
        return _checked("forest", ForestConfig, seed=cfg.seed, **cfg.forest)
    return _checked("boosted", BoostConfig, seed=cfg.seed, **cfg.boosted)


def load_schema(cfg: RunConfig) -> CategoricalSchema:
    if cfg.schema is None:
        return default_schema()
    return CategoricalSchema.from_yaml(cfg.schema)


def load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.dataset is None:
        raise DataError("no dataset path configured (set 'dataset' or --config)")
    return load_csv(cfg.dataset, load_schema(cfg))


# ---------------------------------------------------------------------------
# Output helpers


class OutputDir:
    """Tracks the files a command writes, for the manifest and for cleanup
    of partial output on failure."""

    def __init__(self, root: str):
        self.root = root
        self.files: list[str] = []
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.root, name)
        self.files.append(name)
        return p

    def cleanup(self) -> None:
        for name in self.files:
            p = os.path.join(self.root, name)
            if os.path.exists(p):
                os.remove(p)

    def write_manifest(self, cfg: RunConfig, command: str) -> None:
        entries = []
        for name in sorted(self.files):
            with open(os.path.join(self.root, name), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            entries.append({"name": name, "sha256": digest})
        doc = {
            "manifest_version": MANIFEST_FILE_VERSION,
            "package_version": __version__,
            "command": command,
            "config_fingerprint": cfg.fingerprint(),
            "seed": cfg.seed,
            "files": entries,
        }
        with open(os.path.join(self.root, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def write_table(out: OutputDir, name: str, header: list[str], rows: list[list]) -> None:
    """Emit a table as <name>.csv and aligned <name>.txt."""
    with open(out.path(name + ".csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    cells = [header] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[j]) for r in cells) for j in range(len(header))]
    with open(out.path(name + ".txt"), "w", encoding="utf-8") as fh:
        for i, row in enumerate(cells):
            fh.write("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() + "\n")
            if i == 0:
                fh.write("  ".join("-" * w for w in widths) + "\n")


def write_density(out: OutputDir, name: str, values: np.ndarray) -> None:
    """Gaussian KDE with Silverman bandwidth on a 512-point grid."""
    values = np.asarray(values, dtype=np.float64)
    if np.ptp(values) <= 0.0:
        grid = np.full(512, values[0])
        dens = np.zeros(512)
    else:
        kde = gaussian_kde(values, bw_method="silverman")
        h = values.std(ddof=1) * kde.factor
        grid = np.linspace(values.min() - 3 * h, values.max() + 3 * h, 512)
        dens = kde(grid)
    with open(out.path(name + ".csv"), "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid", "density"])
        for g, v in zip(grid, dens):
            writer.writerow([repr(float(g)), repr(float(v))])


def _log(msg: str) -> None:
    click.echo(msg, err=True)


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(cfg: RunConfig, out: OutputDir) -> None:
    if cfg.dgp is None:
        raise DataError("simulate needs a 'dgp' path in the config")
    dgp = SyntheticDGP.from_yaml(cfg.dgp)
    d, truth = sample_dataset(dgp, cfg.n, seed=cfg.seed)
    save_csv(d, out.path("dataset.csv"))
    truth.save_csv(out.path("ground_truth.csv"))
    dgp.schema.to_yaml(out.path("schema.yaml"))


def _grid_for(cfg: RunConfig) -> list[L.LearnerConfig]:
    if cfg.hyperopt_grid == "singleton":
        return [learner_config(cfg)]
    if cfg.hyperopt_grid != "default":
        raise DataError(f"unknown hyperopt grid {cfg.hyperopt_grid!r}")
    if cfg.learner == "network":
        return _checked("network", L.default_network_grid, seed=cfg.seed, **cfg.network)
    if cfg.learner == "forest":
        return L.default_forest_grid(seed=cfg.seed)
    return L.default_boost_grid(seed=cfg.seed)


def _candidate_row(c: L.LearnerConfig) -> list:
    if isinstance(c, NetworkConfig):
        return [c.depth, c.width, c.dropout]
    if isinstance(c, ForestConfig):
        return [c.max_depth, c.min_leaf, c.max_features]
    return [c.max_depth, c.min_leaf, c.learning_rate]


def cmd_hyperopt(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    grid = _grid_for(cfg)
    t0 = time.monotonic()
    if cfg.learner == "network":
        report = L.hyperopt_network(d, grid, SplitPlan(cfg.split_fractions, cfg.seed))
        header = ["depth", "width", "dropout", "test_loss", "selected"]
    else:
        report = L.hyperopt_trees(d, grid, seed=cfg.seed)
        header = (
            ["max_depth", "min_leaf", "max_features", "test_loss", "cv_loss", "selected"]
            if cfg.learner == "forest"
            else ["max_depth", "min_leaf", "learning_rate", "test_loss", "cv_loss", "selected"]
        )
    _log(f"hyperopt: {len(grid)} candidates in {time.monotonic() - t0:.1f}s")
    rows = []
    for i, (cand, loss) in enumerate(zip(report.candidates, report.test_losses)):
        row = _candidate_row(cand) + [loss]
        if report.cv_losses is not None:
            row.append(report.cv_losses[i])
        row.append(int(i == report.selected_index))
        rows.append(row)
    write_table(out, "candidates", header, rows)
    selected = L._config_doc(report.selected)
    selected["test_loss"] = report.selected_loss
    with open(out.path("selected.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(selected, fh, sort_keys=True)


def cmd_fit(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    model = L.train_any(d, learner_config(cfg))
    L.save_model(model, out.path("model.json"))


def _five_number(values: np.ndarray) -> list[float]:
    return [float(np.quantile(values, q)) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]


def _cross_fitted(cfg: RunConfig, d: Dataset) -> PerObsStats:
    """Per-record statistics from cfg.folds-fold cross-fitted predictions."""
    t0 = time.monotonic()
    cf = per_obs_stats(
        L.cross_fit_predict(d, learner_config(cfg), make_folds(d, cfg.folds, cfg.seed))
    )
    _log(f"{cfg.folds}-fold cross-fit in {time.monotonic() - t0:.1f}s")
    return cf


def cmd_estimate(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    _write_estimates(cfg, out, d, _cross_fitted(cfg, d))


def _write_estimates(cfg: RunConfig, out: OutputDir, d: Dataset, cf: PerObsStats) -> None:
    t0 = time.monotonic()
    raw = per_obs_stats(L.train_any(d, learner_config(cfg)).predict_quads(d))
    _log(f"estimate: raw fit in {time.monotonic() - t0:.1f}s")

    write_table(
        out,
        "per_obs_stats",
        ["raw_covariance", "raw_correlation", "cf_covariance", "cf_correlation", "w"],
        [
            [raw.covariance[i], raw.correlation[i], cf.covariance[i], cf.correlation[i], d.w[i]]
            for i in range(d.n)
        ],
    )

    rows = []
    for label, stats in (("raw", raw), ("cross-fitted", cf)):
        for kind in ("covariance", "correlation"):
            s = summarize(getattr(stats, kind), d.w)
            rows.append([label, kind, s.mean, s.dispersion, s.range[0], s.range[1]])
    write_table(out, "summary", ["estimate", "statistic", "mean", "dispersion", "min", "max"], rows)

    group_rows = []
    for name in _group_feature_names(cfg, d.schema):
        scheme = GroupScheme("by-modality", feature=name)
        j = d.schema.feature_index(name)
        for idx in partition(d, scheme):
            modality = int(d.covariates[idx[0], j])
            ge = group_mean(cf.covariance, d.w, idx, group_id=f"{name}={modality}")
            try:
                dd = debiased_group_correlation(cf, d.w, idx, group_id=ge.group_id)
                dd_est, dd_se = dd.estimate, dd.se
            except (DataError, DegenerateMarginalError):
                dd_est, dd_se = float("nan"), float("nan")
            group_rows.append(
                [name, modality, ge.estimate, ge.se, dd_est, dd_se, float(d.w[idx].sum())]
            )
    write_table(
        out,
        "group_estimates",
        ["feature", "modality", "covariance", "cov_se", "dd_correlation", "dd_se", "weight"],
        group_rows,
    )

    for label, stats in (("raw", raw), ("cf", cf)):
        write_density(out, f"density_{label}_covariance", stats.covariance)
        write_density(out, f"density_{label}_correlation", stats.correlation)

    values = cf.covariance if cfg.statistic == "covariance" else cf.correlation
    box_rows = []
    for name, codes in d.schema.features:
        j = d.schema.feature_index(name)
        for code in codes:
            mask = d.covariates[:, j] == code
            if not mask.any():
                continue
            box_rows.append([name, int(code)] + _five_number(values[mask]))
    write_table(
        out,
        "boxplot",
        ["feature", "modality", "min", "q1", "median", "q3", "max"],
        box_rows,
    )


def _group_feature_names(cfg: RunConfig, schema: CategoricalSchema) -> tuple[str, ...]:
    if cfg.group_features:
        for name in cfg.group_features:
            schema.feature_index(name)  # raises on unknown names
        return cfg.group_features
    return schema.feature_names


def _group_estimates(cfg, d, cf, scheme):
    """Per-group (estimate, se) pairs for both statistics."""
    groups = partition(d, scheme)
    cov = [group_mean(cf.covariance, d.w, idx, group_id=str(g + 1)) for g, idx in enumerate(groups)]
    dd = [
        debiased_group_correlation(cf, d.w, idx, group_id=str(g + 1))
        for g, idx in enumerate(groups)
    ]
    return cov, dd


def cmd_test_intersection(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    _write_intersection(cfg, out, d, _cross_fitted(cfg, d))


def _write_intersection(cfg: RunConfig, out: OutputDir, d: Dataset, cf: PerObsStats) -> None:
    rows = []
    for name in _group_feature_names(cfg, d.schema):
        cov, dd = _group_estimates(cfg, d, cf, GroupScheme("by-modality", feature=name))
        for stat_name, estimates in (("covariance", cov), ("dd_correlation", dd)):
            est = np.array([g.estimate for g in estimates])
            ses = np.array([g.se for g in estimates])
            for alpha in cfg.levels:
                res = intersection_test(
                    IntersectionInput(est, ses, d.n, alpha, cfg.mc_draws, cfg.seed)
                )
                rows.append(
                    [
                        name,
                        stat_name,
                        alpha,
                        res.k0,
                        res.k,
                        res.statistic,
                        "rejected" if res.rejected else "not rejected",
                        res.ci[0],
                        res.ci[1],
                    ]
                )
    write_table(
        out,
        "intersection",
        ["group", "statistic", "level", "k0", "k", "test_statistic", "PCP", "ci_a", "ci_b"],
        rows,
    )


def cmd_test_sorted(cfg: RunConfig, out: OutputDir) -> None:
    _write_sorted(cfg, out, load_dataset(cfg))


def _write_sorted(cfg: RunConfig, out: OutputDir, d: Dataset) -> None:
    scfg = SortedGroupsConfig(
        n_groups=cfg.sorted_groups,
        n_splits=cfg.sorted_splits,
        main_fraction=cfg.main_fraction,
        statistic=cfg.statistic,
        learner=learner_config(cfg) if cfg.hyperopt_grid == "singleton" else None,
        network=cfg.network,
        seed=cfg.seed,
    )
    t0 = time.monotonic()
    res = sorted_groups_run(d, scfg)
    _log(f"test-sorted: {scfg.n_splits} splits in {time.monotonic() - t0:.1f}s")

    rows = [
        [s + 1]
        + [r.group_stats[g] for g in range(scfg.n_groups)]
        + [r.se, r.tstat, r.p_value]
        for s, r in enumerate(res.splits)
    ]
    header = (
        ["split"]
        + [f"group{g + 1}_{cfg.statistic}" for g in range(scfg.n_groups)]
        + ["group1_se", "tstat", "p_value"]
    )
    write_table(out, "sorted_splits", header, rows)
    write_table(
        out,
        "sorted_median",
        [f"group{g + 1}_{cfg.statistic}" for g in range(scfg.n_groups)]
        + ["median_statistic", "median_tstat", "median_p_value"],
        [list(res.median_group_stats) + [res.median_statistic, res.median_tstat, res.median_p_value]],
    )


def cmd_importance(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    lcfg = learner_config(cfg)
    plan = SplitPlan(cfg.split_fractions, cfg.seed)
    t0 = time.monotonic()
    retrain = L.feature_group_importance(d, lcfg, plan)
    _log(f"importance: retrain in {time.monotonic() - t0:.1f}s")
    write_table(
        out,
        "retrain_importance",
        ["omitted_feature", "delta_loss"],
        [[name, delta] for name, delta in retrain.items()],
    )
    if cfg.learner in ("forest", "boosted"):
        model = L.train_any(d, lcfg)
        imp = L.impurity_importance(model, d.schema)
        write_table(
            out,
            "impurity_importance",
            ["feature", "share"],
            [[name, share] for name, share in imp.items()],
        )


def cmd_report(cfg: RunConfig, out: OutputDir) -> None:
    """Composite run: estimate, intersection test, sorted-groups test, and
    a short plain-text digest pointing at the individual tables.  The
    dataset is read and cross-fitted once for both the estimate and the
    intersection test."""
    d = load_dataset(cfg)
    cf = _cross_fitted(cfg, d)
    _write_estimates(cfg, out, d, cf)
    _write_intersection(cfg, out, d, cf)
    _write_sorted(cfg, out, d)
    with open(out.path("report.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"pcptest report (config {cfg.fingerprint()}, seed {cfg.seed})\n\n")
        fh.write("Summary of per-observation statistics: summary.txt\n")
        fh.write("Group estimates by modality: group_estimates.txt\n")
        fh.write("Intersection tests: intersection.txt\n")
        fh.write("Sorted-groups tests: sorted_median.txt\n")


COMMANDS = {
    "simulate": cmd_simulate,
    "hyperopt": cmd_hyperopt,
    "fit": cmd_fit,
    "estimate": cmd_estimate,
    "test-intersection": cmd_test_intersection,
    "test-sorted": cmd_test_sorted,
    "importance": cmd_importance,
    "report": cmd_report,
}


def run_command(name: str, cfg: RunConfig) -> None:
    out = OutputDir(cfg.out)
    try:
        COMMANDS[name](cfg, out)
    except BaseException:
        out.cleanup()
        raise
    out.write_manifest(cfg, name)


def _invoke(ctx: click.Context, name: str) -> None:
    params = ctx.obj
    try:
        cfg = load_config(
            params["config"],
            seed=params["seed"],
            out=params["out"],
            learner=params["learner"],
            statistic=params["statistic"],
        )
        run_command(name, cfg)
    except (DataError, OSError, KeyError, TypeError, yaml.YAMLError) as err:
        _log(f"error: {err}")
        sys.exit(1)
    except (
        NetworkTrainingError,
        InfeasibleCellError,
        DegenerateMarginalError,
        FloatingPointError,
        np.linalg.LinAlgError,
    ) as err:
        _log(f"numerical failure: {err}")
        sys.exit(2)


@click.group()
@click.option("--config", type=click.Path(), default=None, help="Run config YAML.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--out", type=click.Path(), default=None, help="Output directory override.")
@click.option("--learner", type=click.Choice(["network", "forest", "boosted"]), default=None)
@click.option("--statistic", type=click.Choice(["covariance", "correlation"]), default=None)
@click.version_option(__version__)
@click.pass_context
def main(ctx, config, seed, out, learner, statistic):
    """Test the positive correlation property with machine-learned
    conditional probabilities."""
    ctx.obj = {
        "config": config,
        "seed": seed,
        "out": out,
        "learner": learner,
        "statistic": statistic,
    }


def _register(name: str, doc: str) -> None:
    @main.command(name=name, help=doc)
    @click.pass_context
    def _cmd(ctx):
        _invoke(ctx, name)


_register("simulate", "Draw a synthetic dataset with known ground truth.")
_register("hyperopt", "Grid-search learner hyperparameters.")
_register("fit", "Train one model and save it.")
_register("estimate", "Per-observation statistics, summaries, and figure data.")
_register("test-intersection", "Intersection tests per group scheme and level.")
_register("test-sorted", "Sorted-groups test over repeated splits.")
_register("importance", "Feature importance tables.")
_register("report", "Estimate plus both tests plus a text digest.")


if __name__ == "__main__":
    main()
