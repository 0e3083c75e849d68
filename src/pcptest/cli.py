"""Command-line front end.

Every command is a pure function of (input files, config, seed): the same
invocation writes byte-identical files.  Tables come out twice, as CSV and
as aligned plain text.  Each run ends with a manifest listing every file
written together with its SHA-256 digest; wall-clock timings go to stderr
so the manifest itself stays reproducible.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import click
import numpy as np
import yaml

from . import __version__
from . import learners as L
from .data import (
    CategoricalSchema,
    DataError,
    MIN_FOLDS,
    Dataset,
    SplitPlan,
    default_schema,
    load_csv,
    load_yaml,
    make_folds,
    partition,
    save_csv,
)
from .functionals import MIN_USABLE, PerObsStats, group_estimates, per_obs_stats, summarize
from .inference import (
    FullSetQuantiles,
    IntersectionInput,
    SortedGroupsConfig,
    SortedGroupsResult,
    check_mc_draws,
    full_set_quantiles,
    gamma_n,
    kept_set_tests,
    merge_sorted_splits,
    sorted_split_units,
)
from .network import NetworkTrainingError
from .parallel import call, map_units, release_pages, shared_array
from .synth import InfeasibleCellError, SyntheticDGP, sample_dataset

CONFIG_FILE_VERSION = 1
MANIFEST_FILE_VERSION = 1

DEFAULT_LEVELS = (0.01, 0.05, 0.10)

# The integer fields of a run config, whose types are checked before any
# other value.
INTEGER_FIELDS = ("seed", "n", "folds", "mc_draws", "sorted_splits", "sorted_groups")


def _is_number(value) -> bool:
    """A real number, as YAML reads one; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """A run's settings.  Checking them builds each owner's object once, kept
    as an attribute that is not a config field: ``learner_cfg``, the
    configured learner; ``grid``, the candidates that ``hyperopt`` and each
    sorted-groups split search; ``plan``, the train/validation/test split;
    ``sorted_cfg``, the sorted-groups test."""

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
        for name in INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DataError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise DataError(f"seed must be at least 0, got {self.seed}")
        if not isinstance(self.group_features, tuple) or not all(
            isinstance(name, str) for name in self.group_features
        ):
            raise DataError(
                f"group_features must be a list of feature names, got {self.group_features!r}"
            )
        if not _is_number(self.main_fraction):
            raise DataError(f"main_fraction must be a number, got {self.main_fraction!r}")
        if not isinstance(self.levels, tuple) or not all(_is_number(a) for a in self.levels):
            shown = list(self.levels) if isinstance(self.levels, tuple) else self.levels
            raise DataError(f"levels must be a list of numbers, got {shown!r}")
        if not self.levels:
            raise DataError("no test levels configured")
        for a in self.levels:
            if not (0.0 < a < 1.0):
                raise DataError(f"test level {a} outside (0, 1)")
        if self.learner not in L.KINDS:
            raise DataError(f"unknown learner {self.learner!r}")
        if self.hyperopt_grid not in ("default", "singleton"):
            raise DataError(f"unknown hyperopt grid {self.hyperopt_grid!r}")
        # Every section is checked by its owner's rules, used by this run or
        # not, so that every command accepts or rejects the same config.
        sections = {kind: self._checked(kind, family.config) for kind, family in L.KINDS.items()}
        self.learner_cfg = sections[self.learner]
        self.grid = (
            (self.learner_cfg,)
            if self.hyperopt_grid == "singleton"
            else tuple(self._checked(self.learner, L.default_grid, type(self.learner_cfg)))
        )
        self.plan = SplitPlan(self.split_fractions, self.seed)
        if self.folds < MIN_FOLDS:
            raise DataError(f"folds must be at least {MIN_FOLDS}")
        check_mc_draws(self.mc_draws)
        self.sorted_cfg = SortedGroupsConfig(
            self.sorted_groups,
            self.sorted_splits,
            self.main_fraction,
            self.statistic,
            self.grid,
            self.seed,
        )

    def _checked(self, kind: str, build, *args):
        """``build(*args, seed=..., **settings)`` with the settings section of
        ``kind``; a key or value the learner config rejects is an input
        error, reported like any other bad config entry."""
        try:
            return build(*args, seed=self.seed, **getattr(self, kind))
        except (TypeError, ValueError) as err:
            raise DataError(f"invalid {kind} settings: {err}") from err

    def fingerprint(self) -> str:
        """Digest of the config fields, not of the objects built from them."""
        doc = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        doc["config_version"] = CONFIG_FILE_VERSION
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def load_config(path: str | None, **overrides) -> RunConfig:
    doc = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            doc = load_yaml(fh) or {}
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


def load_schema(cfg: RunConfig) -> CategoricalSchema:
    """The run's schema, which must have every feature ``group_features`` names."""
    schema = default_schema() if cfg.schema is None else CategoricalSchema.from_yaml(cfg.schema)
    unknown = [name for name in cfg.group_features if name not in schema.feature_names]
    if unknown:
        raise DataError(f"group_features names features the schema lacks: {unknown}")
    return schema


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
        self.created: list[str] = []  # directories made for this run, deepest first
        path = os.path.abspath(root)
        while not os.path.isdir(path):
            self.created.append(path)
            path = os.path.dirname(path)
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        p = os.path.join(self.root, name)
        self.files.append(name)
        return p

    def cleanup(self) -> None:
        """Remove the files this run wrote and, if it wrote any, the
        directory's manifest: an earlier run's manifest may list them."""
        for name in self.files + ["manifest.json"] if self.files else []:
            p = os.path.join(self.root, name)
            if os.path.exists(p):
                os.remove(p)
        for path in self.created:
            if os.listdir(path):
                break
            os.rmdir(path)

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


def _format_column(values: Sequence) -> tuple[list[str], list[str] | None]:
    """A column's cells as text, and for a float array its distinct texts
    (None for any other column): a float to 6 significant digits, anything
    else by ``str``.  A float array formats each distinct bit pattern once,
    so ``-0.0`` and ``0.0`` stay apart, as does NaN from every number;
    ``"%.6g"`` gives the strings of ``format(v, ".6g")``."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "f"):
        return [format(v, ".6g") if isinstance(v, float) else str(v) for v in values], None
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = list(map("%.6g".__mod__, distinct.view(np.float64).tolist()))
    return np.array(text, dtype=object)[inverse].tolist(), text


def _write_csv(
    path: str, header: list[str], rows: list[tuple[str, ...]], text: Sequence[str] | None = None
) -> None:
    """The CSV of ``csv.writer`` for text cells: ``\\r\\n`` line endings, and a
    cell quoted where it holds a comma, quote or line break.  Lines are
    joined directly unless some cell needs quoting, or a row of one empty
    cell could occur.  ``text`` holds every cell that may need quoting, by
    default the header and every row."""
    text = "".join(itertools.chain(header, *rows) if text is None else text)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if len(header) < 2 or any(ch in text for ch in ',"\r\n'):
            csv.writer(fh).writerows([header, *rows])
        else:
            fh.write("\r\n".join(map(",".join, [header, *rows])) + "\r\n")


def _columns(header: list[str], rows: Sequence[Sequence]) -> dict[str, list]:
    """A table built row by row, as ``write_table`` takes it."""
    return {h: [row[j] for row in rows] for j, h in enumerate(header)}


def write_table(out: OutputDir, name: str, table: dict[str, Sequence]) -> None:
    """Emit a table, given as its columns by header name, as <name>.csv and
    aligned <name>.txt, formatting each cell once for both.  Each .txt line
    is one format of a template padded to the column widths, stripped of
    trailing blanks; the lines are joined without a Python call per row.
    A float column's text, "%.6g" of a float, never needs quoting, and its
    width is that of its longest distinct text."""
    header = list(table)
    formatted = [_format_column(values) for values in table.values()]
    columns = [cells for cells, _ in formatted]
    rows = list(zip(*columns))
    quotable = itertools.chain(header, *(cells for cells, floats in formatted if floats is None))
    _write_csv(out.path(name + ".csv"), header, rows, quotable)
    widths = [
        max(len(h), max(map(len, cells if floats is None else floats), default=0))
        for h, (cells, floats) in zip(header, formatted)
    ]
    line = "  ".join(f"%-{w}s" for w in widths)
    with open(out.path(name + ".txt"), "w", encoding="utf-8") as fh:
        fh.write((line % tuple(header)).rstrip() + "\n")
        fh.write("  ".join("-" * w for w in widths) + "\n")
        if rows:
            fh.write("\n".join(map(str.rstrip, map(line.__mod__, rows))) + "\n")


def silverman_factor(n: int) -> float:
    """Silverman's bandwidth factor for n equally weighted 1-D points, the
    ``gaussian_kde(values, bw_method="silverman").factor`` of scipy.  The
    effective size is computed as scipy computes it, from the weights'
    dot product, so the factor matches scipy's to the bit."""
    w = np.ones(n) / n
    neff = 1.0 / np.dot(w, w)
    return float(np.power(neff * 3.0 / 4.0, -0.2))


def write_density(out: OutputDir, name: str, values: np.ndarray) -> None:
    """Gaussian KDE with Silverman bandwidth on a 512-point grid.  The kernels
    sum over the distinct values weighted by their counts, a block of grid
    points at a time so no block holds more than 2**16 kernel values."""
    values = np.asarray(values, dtype=np.float64)
    if np.ptp(values) <= 0.0:
        grid = np.full(512, values[0])
        dens = np.zeros(512)
    else:
        h = values.std(ddof=1) * silverman_factor(len(values))
        grid = np.linspace(values.min() - 3 * h, values.max() + 3 * h, 512)
        distinct, counts = np.unique(values, return_counts=True)
        step = max(1, 2**16 // len(distinct))
        blocks = [
            np.exp(-0.5 * ((grid[i : i + step, None] - distinct) / h) ** 2) @ counts
            for i in range(0, len(grid), step)
        ]
        dens = np.concatenate(blocks) / (len(values) * h * np.sqrt(2 * np.pi))
    rows = list(zip(map(repr, grid.tolist()), map(repr, dens.tolist())))
    _write_csv(out.path(name + ".csv"), ["grid", "density"], rows)


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


def cmd_hyperopt(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    t0 = time.monotonic()
    report = L.hyperopt(d, cfg.grid, cfg.plan)
    _log(f"hyperopt: {len(cfg.grid)} candidates in {time.monotonic() - t0:.1f}s")
    axes = list(L.GRID_AXES[type(cfg.learner_cfg)])
    rows = [
        [getattr(cand, axis) for axis in axes] + [loss, int(i == report.selected_index)]
        for i, (cand, loss) in enumerate(zip(report.candidates, report.test_losses))
    ]
    write_table(out, "candidates", _columns(axes + ["test_loss", "selected"], rows))
    selected = L._config_doc(report.selected)
    selected["test_loss"] = report.selected_loss
    with open(out.path("selected.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(selected, fh, sort_keys=True)


def cmd_fit(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    L.save_model(L.train_any(d, cfg.learner_cfg), out.path("model.json"))


def _five_number(values: np.ndarray) -> list[float]:
    return np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0]).tolist()


# The grouped statistics: each one's column in the output tables, and its
# name in ``group_estimates``.
GROUP_STATISTICS = {"covariance": "covariance", "dd_correlation": "correlation"}


@dataclass(frozen=True)
class FeatureGroups:
    """A grouping feature's observed modalities, in schema order, with their
    weights and the (estimates, ses) arrays of each statistic over them,
    keyed by column.  NaN marks a group with too few usable records."""

    modalities: list[int]
    weights: list[float]
    estimates: dict[str, tuple[np.ndarray, np.ndarray]]


Groups = dict[str, FeatureGroups]


def _partitions(cfg: RunConfig, d: Dataset) -> dict[str, list[np.ndarray]]:
    """Each grouping feature's ``partition`` of the records."""
    return {name: partition(d, name) for name in cfg.group_features or d.schema.feature_names}


def _group_estimates(
    d: Dataset, cf: PerObsStats, partitions: dict[str, list[np.ndarray]]
) -> Groups:
    """By-modality group estimates of both statistics for each grouping
    feature, from its partition, computed once per run for the group table
    and the intersection tests, one ``group_estimates`` call per feature
    and statistic, as in a sorted-groups split.  Each NaN group gets one
    warning on stderr."""
    groups = {}
    for name, rows in partitions.items():
        j = d.schema.feature_index(name)
        modalities = [int(d.covariates[idx[0], j]) for idx in rows]
        estimates = {}
        for column, statistic in GROUP_STATISTICS.items():
            est, _ = estimates[column] = group_estimates(statistic, cf, d.c, d.r, d.w, rows)
            for g in np.nonzero(np.isnan(est))[0]:
                _log(
                    f"warning: group {name}={modalities[g]}: {column} written as NaN:"
                    f" fewer than {MIN_USABLE} usable records"
                )
        groups[name] = FeatureGroups(modalities, [float(d.w[idx].sum()) for idx in rows], estimates)
    return groups


def _fit_batch(
    cfg: RunConfig,
    out: OutputDir,
    *,
    estimates: bool = False,
    intersection: bool = False,
    sorted_groups: bool = False,
) -> None:
    """Write the estimate, intersection and sorted-groups tables asked for.
    Every fit they need runs in one ``map_units`` batch, largest first: the
    raw fit on every record for the estimates, the cross-fitting folds, then
    the sorted-groups splits.  The raw fit and the folds, and the splits,
    are grouped into stacks (``L.stacks``), whose results are merged in
    input order; each kind of fit that stacks gets its share of the
    workers.  The intersection tests' Monte Carlo draw is one more unit,
    the second: ``full_set_quantiles`` fills a buffer shared with the
    workers, as wide as the widest grouping feature, and returns the
    critical values of the full sets.  Each result is taken when it is
    needed, in input order.  The estimate and intersection tables are
    written while the splits still fit."""
    d = load_dataset(cfg)
    cross_fit = estimates or intersection
    # The kinds of fits that may stack: the folds with the raw fit, and the
    # splits of a one-learner grid.
    kinds = int(cross_fit) + int(sorted_groups and not cfg.sorted_cfg.searches)
    units = []
    if cross_fit:
        partitions = _partitions(cfg, d)
        folds = make_folds(d, cfg.folds, cfg.seed)
        units += L.cross_fit_units(d, cfg.learner_cfg, folds, estimates, kinds)
    if intersection:
        widths = {len(rows) for rows in partitions.values()}
        normals = shared_array(cfg.mc_draws * max(widths))
        # Second, so that with two workers or more a child takes it at once.
        draw = functools.partial(
            _intersection_draw, normals, cfg.mc_draws, cfg.seed, widths, d.n, cfg.levels
        )
        units.insert(1, draw)
    fold_at = [i for i in range(len(units)) if not (intersection and i == 1)]
    first_split = len(units)
    if sorted_groups:
        units += sorted_split_units(d, cfg.sorted_cfg, kinds)
    t0 = time.monotonic()
    results = map_units(call, units)
    taken: list = []

    def result(i: int):
        """Unit i's result, taking the batch's results, in input order, up
        to it."""
        taken.extend(itertools.islice(results, max(0, i + 1 - len(taken))))
        return taken[i]

    try:
        if cross_fit:
            probs = itertools.chain.from_iterable(result(i) for i in fold_at)
            raw = per_obs_stats(next(probs)) if estimates else None
            cf = per_obs_stats(L.merge_cross_fit(folds, list(probs)))
            elapsed = time.monotonic() - t0
            _log(f"{cfg.folds}-fold cross-fit{' + raw fit' * estimates} in {elapsed:.1f}s")
            groups = _group_estimates(d, cf, partitions)
            if estimates:
                _write_estimates(cfg, out, d, cf, raw, groups)
            if intersection:
                _write_intersection(cfg, out, d, groups, normals, result(1))
        if sorted_groups:
            splits = [result(i) for i in range(first_split, len(units))]
            res = merge_sorted_splits(cfg.sorted_cfg, list(itertools.chain.from_iterable(splits)))
            elapsed = time.monotonic() - t0
            # The splits share the batch, and its clock, with any folds.
            when = (
                f"done {elapsed:.1f}s into the fit batch"
                f" (shared with the {cfg.folds}-fold cross-fit)"
                if cross_fit
                else f"in {elapsed:.1f}s"
            )
            _log(f"test-sorted: {cfg.sorted_cfg.n_splits} splits {when}")
            _write_sorted(cfg, out, res)
    finally:
        results.close()


def _intersection_draw(
    normals: np.ndarray, mc_draws: int, seed: int, widths: set[int], n: int, levels
) -> FullSetQuantiles:
    """The intersection tests' draw unit: ``full_set_quantiles`` on the
    shared buffer ``normals``, whose pages then leave this process's
    resident set, where they would sit under every later unit's."""
    full = full_set_quantiles(normals, mc_draws, seed, widths, [gamma_n(n)], levels)
    release_pages(normals)
    return full


def cmd_estimate(cfg: RunConfig, out: OutputDir) -> None:
    _fit_batch(cfg, out, estimates=True)


def _write_estimates(
    cfg: RunConfig, out: OutputDir, d: Dataset, cf: PerObsStats, raw: PerObsStats, groups: Groups
) -> None:
    write_table(
        out,
        "per_obs_stats",
        {
            "raw_covariance": raw.covariance,
            "raw_correlation": raw.correlation,
            "cf_covariance": cf.covariance,
            "cf_correlation": cf.correlation,
            "w": d.w,
        },
    )

    rows = []
    for label, stats in (("raw", raw), ("cross-fitted", cf)):
        for kind in ("covariance", "correlation"):
            s = summarize(getattr(stats, kind), d.w)
            rows.append([label, kind, s.mean, s.dispersion, s.range[0], s.range[1]])
    write_table(
        out,
        "summary",
        _columns(["estimate", "statistic", "mean", "dispersion", "min", "max"], rows),
    )

    group_rows = []
    for name, fg in groups.items():
        columns = [a.tolist() for pair in fg.estimates.values() for a in pair]
        group_rows += [[name, *row] for row in zip(fg.modalities, *columns, fg.weights)]
    write_table(
        out,
        "group_estimates",
        _columns(
            ["feature", "modality", "covariance", "cov_se", "dd_correlation", "dd_se", "weight"],
            group_rows,
        ),
    )

    for label, stats in (("raw", raw), ("cf", cf)):
        write_density(out, f"density_{label}_covariance", stats.covariance)
        write_density(out, f"density_{label}_correlation", stats.correlation)

    values = cf.covariance if cfg.statistic == "covariance" else cf.correlation
    box_rows = []
    for name in d.schema.feature_names:
        j = d.schema.feature_index(name)
        for idx in partition(d, name):
            box_rows.append([name, int(d.covariates[idx[0], j]), *_five_number(values[idx])])
    write_table(
        out,
        "boxplot",
        _columns(["feature", "modality", "min", "q1", "median", "q3", "max"], box_rows),
    )


def cmd_test_intersection(cfg: RunConfig, out: OutputDir) -> None:
    _fit_batch(cfg, out, intersection=True)


def _write_intersection(
    cfg: RunConfig,
    out: OutputDir,
    d: Dataset,
    groups: Groups,
    normals: np.ndarray,
    full: FullSetQuantiles,
) -> None:
    """One row per feature, statistic and level.  A feature whose estimates
    of a statistic hold a NaN is not tested on it: its rows carry NaN.
    Every test reads the one Monte Carlo draw in ``normals`` and the
    critical values ``full`` of its full sets, which the batch's draw unit
    made; ``kept_set_tests`` adds those of the strict-subset kept sets.  A
    row whose interval was clamped to a point, its upper bound having
    fallen below its lower one, gets one note on stderr."""
    nan = float("nan")
    tested, inputs = set(), []
    for name, fg in groups.items():
        for column, (est, ses) in fg.estimates.items():
            if np.isnan(est).any():
                continue
            tested.add((name, column))
            inputs += [
                IntersectionInput(est, ses, d.n, alpha, cfg.mc_draws, cfg.seed)
                for alpha in cfg.levels
            ]
    results = iter(kept_set_tests(normals, cfg.mc_draws, full, inputs))
    rows = []
    for name in groups:
        for stat_name in GROUP_STATISTICS:
            for alpha in cfg.levels:
                if (name, stat_name) not in tested:
                    rows.append([name, stat_name, alpha, nan, nan, nan, "not tested", nan, nan])
                    continue
                res = next(results)
                if res.ci_clamped:
                    _log(
                        f"note: intersection {name} {stat_name} at level {alpha:g}:"
                        f" ci_b < ci_a, interval written as the point ci_a"
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
        _columns(
            ["group", "statistic", "level", "k0", "k", "test_statistic", "PCP", "ci_a", "ci_b"],
            rows,
        ),
    )


def cmd_test_sorted(cfg: RunConfig, out: OutputDir) -> None:
    _fit_batch(cfg, out, sorted_groups=True)


def _write_sorted(cfg: RunConfig, out: OutputDir, res: SortedGroupsResult) -> None:
    scfg = res.config
    _log(f"sorted groups: {res.redraws} redraws over {scfg.n_splits} splits")

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
    write_table(out, "sorted_splits", _columns(header, rows))
    write_table(
        out,
        "sorted_median",
        _columns(
            [f"group{g + 1}_{cfg.statistic}" for g in range(scfg.n_groups)]
            + ["median_statistic", "median_tstat", "median_p_value", "adjusted_p_value"]
            + [f"ci_{side}_{a:.6g}" for a in cfg.levels for side in ("lower", "upper")],
            [
                list(res.median_group_stats)
                + [res.median_statistic, res.median_tstat, res.median_p_value, res.adjusted_p_value]
                + [bound for a in cfg.levels for bound in res.interval(a)]
            ],
        ),
    )


def cmd_importance(cfg: RunConfig, out: OutputDir) -> None:
    d = load_dataset(cfg)
    t0 = time.monotonic()
    retrain, model = L.feature_group_importance(d, cfg.learner_cfg, cfg.plan)
    _log(f"importance: retrain in {time.monotonic() - t0:.1f}s")
    write_table(
        out,
        "retrain_importance",
        {"omitted_feature": list(retrain), "delta_loss": list(retrain.values())},
    )
    if L.KINDS[cfg.learner].impurity:
        imp = L.impurity_importance(model, d.schema)
        write_table(out, "impurity_importance", {"feature": list(imp), "share": list(imp.values())})


def cmd_report(cfg: RunConfig, out: OutputDir) -> None:
    """Composite run: estimate, intersection test, sorted-groups test, and
    a short plain-text digest pointing at the individual tables.  The
    dataset is read and cross-fitted, and its group estimates computed,
    once for both the estimate and the intersection test, and every fit
    runs in one batch."""
    _fit_batch(cfg, out, estimates=True, intersection=True, sorted_groups=True)
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
        FloatingPointError,
        np.linalg.LinAlgError,
    ) as err:
        _log(f"numerical failure: {err}")
        sys.exit(2)


@click.group()
@click.option("--config", type=click.Path(), default=None, help="Run config YAML.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.option("--out", type=click.Path(), default=None, help="Output directory override.")
@click.option("--learner", type=click.Choice(list(L.KINDS)), default=None)
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
