"""Training protocols shared by the three classifier families.

One model interface covers the softmax network, the random forest, and the
gradient-boosted ensemble: every fitted model predicts a point on the class
simplex for each design row, and writes and reads its own parameters.
``KINDS`` and ``GRID_AXES`` are the only tables of the families.  This
module also carries the grid-search, cross-fitting, and importance
procedures, and JSON persistence.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, asdict
from typing import Callable, Sequence

import numpy as np

from . import network as net
from . import trees
from .data import (
    CategoricalSchema,
    DataError,
    Dataset,
    SplitPlan,
    FoldAssignment,
    one_hot_encode,
    split,
)
from .network import NetworkConfig
from .parallel import call, map_units
from .trees import BoostConfig, ForestConfig

__all__ = [
    "ClassifierModel",
    "HyperoptReport",
    "LearnerConfig",
    "KINDS",
    "GRID_AXES",
    "default_grid",
    "cross_entropy_loss",
    "train_any",
    "hyperopt",
    "hyperopt_network",
    "hyperopt_trees",
    "cross_fit_units",
    "merge_cross_fit",
    "cross_fit_predict",
    "feature_group_importance",
    "impurity_importance",
    "save_model",
    "load_model",
]

MODEL_FILE_VERSION = 1

# Every learner fits the 4-way (c, r) class of ``Dataset.class_labels``.
N_CLASSES = 4

LearnerConfig = NetworkConfig | ForestConfig | BoostConfig

# Each family's kind, as model files and the run config's ``learner`` name
# it, with its config class and its fitted-model class.
KINDS = {
    "network": (NetworkConfig, net.NetworkModel),
    "forest": (ForestConfig, trees.ForestModel),
    "boosted": (BoostConfig, trees.BoostModel),
}
_KIND_OF = {cfg_cls: kind for kind, (cfg_cls, _) in KINDS.items()}


def _kind_of(cfg: LearnerConfig) -> str:
    if type(cfg) not in _KIND_OF:
        raise DataError(f"unknown learner config type {type(cfg).__name__}")
    return _KIND_OF[type(cfg)]


@dataclass
class ClassifierModel:
    config: LearnerConfig
    schema_fingerprint: str
    predictor: net.NetworkModel | trees.ForestModel | trees.BoostModel = field(repr=False)

    @property
    def kind(self) -> str:
        return _kind_of(self.config)

    def predict_quads(self, d: Dataset) -> np.ndarray:
        if d.schema.fingerprint() != self.schema_fingerprint:
            raise DataError("dataset schema does not match the model's schema")
        return self.predictor.predict_probs(one_hot_encode(d))


def cross_entropy_loss(model: ClassifierModel, d: Dataset) -> float:
    """Weighted cross-entropy per unit weight, probabilities clipped at 1e-12."""
    probs = model.predict_quads(d)
    return net.weighted_cross_entropy(probs, d.class_labels(), d.w)


# ---------------------------------------------------------------------------
# Training entry points


def _block(d: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(design, labels, weights): what every trainer reads of a dataset."""
    return one_hot_encode(d), d.class_labels(), d.w


def _inner_split(d: Dataset, seed: int):
    """Hold out 15% for early stopping when the caller only provides one
    dataset (cross-fitting, sorted-groups)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    n_val = max(1, int(np.floor(d.n * 0.15)))
    return d.take(perm[n_val:]), d.take(perm[:n_val])


def train_any(
    d_train: Dataset,
    cfg: LearnerConfig,
    validation: Dataset | None = None,
    fold: int = 0,
) -> ClassifierModel:
    """Fit the learner ``cfg`` configures on ``d_train``.  A network stops
    early on ``validation``; without one it holds out 15% of ``d_train``,
    drawn with seed ``cfg.seed + fold`` so that each cross-fitting fold
    draws its own.  Trees read neither."""
    kind = _kind_of(cfg)
    if kind == "network":
        if validation is None:
            d_train, validation = _inner_split(d_train, cfg.seed + fold)
        if d_train.schema.fingerprint() != validation.schema.fingerprint():
            raise DataError("train and validation schemas differ")
        params, _ = net.fit_softmax_network(*_block(d_train), *_block(validation), cfg, N_CLASSES)
        predictor = net.NetworkModel(params)
    else:
        fit = trees.fit_forest if kind == "forest" else trees.fit_boosted
        predictor = fit(*_block(d_train), cfg, N_CLASSES)
    return ClassifierModel(cfg, d_train.schema.fingerprint(), predictor)


# ---------------------------------------------------------------------------
# Hyperparameter search


@dataclass
class HyperoptReport:
    candidates: list[LearnerConfig]
    test_losses: list[float]
    selected_index: int

    @property
    def selected(self) -> LearnerConfig:
        return self.candidates[self.selected_index]

    @property
    def selected_loss(self) -> float:
        return self.test_losses[self.selected_index]


# The values each family's default grid searches, per config field.
GRID_AXES = {
    NetworkConfig: dict(
        depth=(0, 1, 2, 3), width=(8, 16, 24), dropout=tuple(tenths / 10.0 for tenths in range(9))
    ),
    ForestConfig: dict(max_depth=(3, 5, 7), min_leaf=(5, 10, 20), max_features=(3, 5, 10)),
    BoostConfig: dict(max_depth=(2, 4, 6), min_leaf=(10, 20, 50), learning_rate=(0.01, 0.1, 0.3)),
}


def default_grid(cls: type, seed: int = 0, **overrides) -> list[LearnerConfig]:
    """Every combination of ``GRID_AXES[cls]``, the last axis varying
    fastest; ``overrides`` set the other fields of every candidate and may
    not name an axis."""
    axes = GRID_AXES[cls]
    clash = [axis for axis in axes if axis in overrides]
    if clash:
        raise DataError(
            f"the default grid searches {', '.join(clash)}, which the settings may not also set"
        )
    return [
        cls(**dict(zip(axes, values)), seed=seed, **overrides)
        for values in itertools.product(*axes.values())
    ]


def _network_tie_key(cfg: NetworkConfig, n_inputs: int) -> tuple:
    return (net.count_parameters(cfg, n_inputs, N_CLASSES), cfg.dropout)


def hyperopt_network(d: Dataset, grid: Sequence[NetworkConfig], plan: SplitPlan) -> HyperoptReport:
    """Train every candidate on the train block with validation-based early
    stopping, score on the test block, keep the minimizer.  Exact ties go to
    the smaller parameter count, then the smaller dropout."""
    if not grid:
        raise DataError("empty hyperparameter grid")
    d_train, d_val, d_test = split(d, plan)
    n_inputs = d.schema.n_design_columns
    fits, _ = net.fit_softmax_networks(*_block(d_train), *_block(d_val), grid, N_CLASSES)
    X_test, labels_test, w_test = _block(d_test)
    losses = [
        net.weighted_cross_entropy(net.forward_probs(params, X_test), labels_test, w_test)
        for params in fits
    ]
    order = sorted(
        range(len(grid)),
        key=lambda i: (losses[i], *_network_tie_key(grid[i], n_inputs), i),
    )
    return HyperoptReport(list(grid), losses, order[0])


def hyperopt_trees(d: Dataset, grid: Sequence[LearnerConfig], seed: int = 0) -> HyperoptReport:
    """Grid search on an 80/20 train/test split: every candidate trains on
    the 80% and the least test loss wins, the first candidate on ties."""
    if not grid:
        raise DataError("empty hyperparameter grid")
    perm = np.random.default_rng(seed).permutation(d.n)
    n_test = max(1, int(np.floor(d.n * 0.2)))
    d_test = d.take(perm[:n_test])
    d_train = d.take(perm[n_test:])
    losses = [cross_entropy_loss(train_any(d_train, cfg), d_test) for cfg in grid]
    return HyperoptReport(list(grid), losses, int(np.argmin(losses)))


def hyperopt(d: Dataset, grid: Sequence[LearnerConfig], plan: SplitPlan) -> HyperoptReport:
    """Grid search over one family's candidates: ``hyperopt_network`` on
    ``plan`` for networks, ``hyperopt_trees`` with ``plan.seed`` for trees."""
    if grid and _kind_of(grid[0]) == "network":
        return hyperopt_network(d, grid, plan)
    return hyperopt_trees(d, grid, plan.seed)


# ---------------------------------------------------------------------------
# Cross-fitting and importances


def cross_fit_units(
    d: Dataset, cfg: LearnerConfig, folds: FoldAssignment
) -> list[Callable[[], np.ndarray]]:
    """The fits of ``cross_fit_predict`` as zero-argument units: fold k's
    fit on the other folds, which predicts fold k.  A fold with fewer than
    10 records to train on raises in its unit."""

    def fold_fit(k: int) -> np.ndarray:
        train_rows = folds.complement_indices(k)
        if len(train_rows) < 10:
            raise DataError(f"fold {k}: too few records to train on")
        model = train_any(d.take(train_rows), cfg, fold=k)
        return model.predict_quads(d.take(folds.fold_indices(k)))

    return [functools.partial(fold_fit, k) for k in range(folds.K)]


def merge_cross_fit(folds: FoldAssignment, fold_probs: Sequence[np.ndarray]) -> np.ndarray:
    """The ``(n, classes)`` cross-fitted array from the K fold units' results."""
    out = np.empty((len(folds.fold_of), fold_probs[0].shape[1]))
    for k, probs in enumerate(fold_probs):
        out[folds.fold_indices(k)] = probs
    return out


def cross_fit_predict(d: Dataset, cfg: LearnerConfig, folds: FoldAssignment) -> np.ndarray:
    """Predict each record's class probabilities with a model trained on
    the other folds only.  Network folds carve off 15% internally for early
    stopping, mirroring the main training protocol.  The fits run as one
    ``map_units`` batch."""
    return merge_cross_fit(folds, list(map_units(call, cross_fit_units(d, cfg, folds))))


def feature_group_importance(d: Dataset, cfg: LearnerConfig, plan: SplitPlan) -> dict[str, float]:
    """Additional test loss from retraining without each feature's dummy
    block; the full model's own entry is 'None' = 0.  The full fit and the
    retrains run as one ``map_units`` batch."""
    if d.schema.n_features < 2:
        raise DataError("importance needs at least 2 features")
    names = d.schema.feature_names
    blocks = split(d, plan)

    def fit_loss(omitted: str | None) -> float:
        d_train, d_val, d_test = blocks
        if omitted is not None:
            reduced = _drop_feature_schema(d.schema, omitted)
            keep = [j for j, name in enumerate(names) if name != omitted]
            d_train, d_val, d_test = (
                Dataset(reduced, b.covariates[:, keep].copy(), b.c.copy(), b.r.copy(), b.w.copy())
                for b in blocks
            )
        return cross_entropy_loss(train_any(d_train, cfg, d_val), d_test)

    full_loss, *omitted_losses = map_units(fit_loss, [None, *names])
    deltas: dict[str, float] = {"None": 0.0}
    for name, loss in zip(names, omitted_losses):
        deltas[name] = loss - full_loss
    return deltas


def _drop_feature_schema(schema: CategoricalSchema, name: str) -> CategoricalSchema:
    feats = tuple(f for f in schema.features if f[0] != name)
    if len(feats) == len(schema.features):
        raise DataError(f"unknown feature {name!r}")
    return CategoricalSchema(feats)


def impurity_importance(model: ClassifierModel, schema: CategoricalSchema) -> dict[str, float]:
    """Impurity decrease from splits, normalized to sum to 1 and aggregated
    per feature (forest: weighted entropy; boosted: weighted SSE)."""
    if model.kind == "network":
        raise DataError("impurity importance is only defined for tree models")
    if schema.fingerprint() != model.schema_fingerprint:
        raise DataError("schema does not match the model's schema")
    raw = model.predictor.importance
    total = raw.sum()
    if total <= 0.0:
        return {name: 0.0 for name, _ in schema.features}
    from .data import _design_layout

    return {
        name: float(raw[list(cols)].sum() / total) for name, cols in _design_layout(schema).items()
    }


# ---------------------------------------------------------------------------
# Persistence


def _config_doc(cfg: LearnerConfig) -> dict:
    doc = asdict(cfg)
    doc["type"] = type(cfg).__name__
    return doc


def save_model(model: ClassifierModel, path: str) -> None:
    doc = {
        "format_version": MODEL_FILE_VERSION,
        "kind": model.kind,
        "target": "cr",
        "n_classes": N_CLASSES,
        "schema_fingerprint": model.schema_fingerprint,
        "config": _config_doc(model.config),
        "parameters": model.predictor.to_doc(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_model(path: str, schema: CategoricalSchema) -> ClassifierModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FILE_VERSION:
        raise DataError(f"unsupported model file version in {path}")
    if doc.get("target") != "cr" or doc.get("n_classes") != N_CLASSES:
        raise DataError(f"{path}: not a model of the {N_CLASSES}-way (c, r) class")
    if doc["schema_fingerprint"] != schema.fingerprint():
        raise DataError("model was trained under a different schema")
    cfg_cls, model_cls = KINDS[doc["kind"]]
    cfg = cfg_cls(**{key: v for key, v in doc["config"].items() if key != "type"})
    predictor = model_cls.from_doc(doc["parameters"], N_CLASSES)
    return ClassifierModel(cfg, doc["schema_fingerprint"], predictor)
