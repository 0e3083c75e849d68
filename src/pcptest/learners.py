"""Training protocols shared by the three classifier families.

One model interface covers the softmax network, the random forest, and the
gradient-boosted ensemble: every model predicts a point on the class
simplex for each record.  This module also carries the grid-search,
cross-fitting, and importance procedures, and JSON persistence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from typing import Sequence

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
from .network import NetworkConfig, TrainingReport
from .parallel import map_units
from .trees import BoostConfig, ForestConfig

__all__ = [
    "ClassifierModel",
    "HyperoptReport",
    "LearnerConfig",
    "default_network_grid",
    "default_forest_grid",
    "default_boost_grid",
    "cross_entropy_loss",
    "train_network",
    "train_forest",
    "train_boosted",
    "hyperopt_network",
    "hyperopt_trees",
    "cross_fit_predict",
    "feature_group_importance",
    "impurity_importance",
    "save_model",
    "load_model",
]

MODEL_FILE_VERSION = 1

LearnerConfig = NetworkConfig | ForestConfig | BoostConfig

_TARGET_CLASSES = {"cr": 4, "c": 2, "r": 2}


def _labels_for(d: Dataset, target: str) -> np.ndarray:
    if target == "cr":
        return d.class_labels()
    if target == "c":
        return d.c.astype(np.int64)
    if target == "r":
        return d.r.astype(np.int64)
    raise DataError(f"unknown target {target!r}")


@dataclass
class ClassifierModel:
    kind: str  # "network" | "forest" | "boosted"
    target: str  # "cr" | "c" | "r"
    n_classes: int
    config: LearnerConfig
    schema_fingerprint: str
    _predictor: object = field(repr=False)
    report: TrainingReport | None = field(default=None, repr=False)

    def predict_design(self, X: np.ndarray) -> np.ndarray:
        if self.kind == "network":
            return net.forward_probs(self._predictor, X)
        return self._predictor.predict_probs(X)

    def predict_quads(self, d: Dataset) -> np.ndarray:
        if d.schema.fingerprint() != self.schema_fingerprint:
            raise DataError("dataset schema does not match the model's schema")
        return self.predict_design(one_hot_encode(d).rows)


def cross_entropy_loss(model: ClassifierModel, d: Dataset) -> float:
    """Weighted cross-entropy per unit weight, probabilities clipped at 1e-12."""
    probs = model.predict_quads(d)
    return net.weighted_cross_entropy(probs, _labels_for(d, model.target), d.w)


def constant_model_loss(d: Dataset, target: str = "cr") -> float:
    """Loss of the best constant prediction: the weighted class entropy."""
    labels = _labels_for(d, target)
    class_w = np.bincount(labels, weights=d.w, minlength=_TARGET_CLASSES[target])
    p = class_w / class_w.sum()
    p = np.clip(p, net.PROB_CLIP, None)
    return float(-(class_w / class_w.sum() * np.log(p)).sum())


# ---------------------------------------------------------------------------
# Training entry points


def _network_block(d: Dataset, target: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(design, labels, weights): what the network trainer reads of a dataset."""
    return one_hot_encode(d).rows, _labels_for(d, target), d.w


def train_network(
    train: Dataset,
    validation: Dataset,
    cfg: NetworkConfig,
    target: str = "cr",
) -> ClassifierModel:
    if train.schema.fingerprint() != validation.schema.fingerprint():
        raise DataError("train and validation schemas differ")
    n_classes = _TARGET_CLASSES[target]
    params, report = net.fit_softmax_network(
        *_network_block(train, target), *_network_block(validation, target), cfg, n_classes
    )
    return ClassifierModel(
        "network", target, n_classes, cfg, train.schema.fingerprint(), params, report
    )


def _inner_split(d: Dataset, seed: int, val_fraction: float = 0.15):
    """Hold out a validation slice for early stopping when the caller only
    provides one dataset (cross-fitting, sorted-groups)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    n_val = max(1, int(np.floor(d.n * val_fraction)))
    return d.take(perm[n_val:]), d.take(perm[:n_val])


def train_forest(d: Dataset, cfg: ForestConfig, target: str = "cr") -> ClassifierModel:
    n_classes = _TARGET_CLASSES[target]
    model = trees.fit_forest(
        one_hot_encode(d).rows, _labels_for(d, target), d.w, cfg, n_classes
    )
    return ClassifierModel(
        "forest", target, n_classes, cfg, d.schema.fingerprint(), model
    )


def train_boosted(d: Dataset, cfg: BoostConfig, target: str = "cr") -> ClassifierModel:
    n_classes = _TARGET_CLASSES[target]
    model = trees.fit_boosted(
        one_hot_encode(d).rows, _labels_for(d, target), d.w, cfg, n_classes
    )
    return ClassifierModel(
        "boosted", target, n_classes, cfg, d.schema.fingerprint(), model
    )


def train_any(
    d_train: Dataset, cfg: LearnerConfig, validation: Dataset | None = None, target: str = "cr"
):
    """Dispatch on config type; networks get a validation set for stopping."""
    if isinstance(cfg, NetworkConfig):
        if validation is None:
            d_train, validation = _inner_split(d_train, cfg.seed)
        return train_network(d_train, validation, cfg, target)
    if isinstance(cfg, ForestConfig):
        return train_forest(d_train, cfg, target)
    if isinstance(cfg, BoostConfig):
        return train_boosted(d_train, cfg, target)
    raise DataError(f"unknown learner config type {type(cfg).__name__}")


# ---------------------------------------------------------------------------
# Hyperparameter search


@dataclass
class HyperoptReport:
    candidates: list[LearnerConfig]
    test_losses: list[float]
    selected_index: int
    cv_losses: list[float] | None = None

    @property
    def selected(self) -> LearnerConfig:
        return self.candidates[self.selected_index]

    @property
    def selected_loss(self) -> float:
        return self.test_losses[self.selected_index]


def default_network_grid(seed: int = 0, **overrides) -> list[NetworkConfig]:
    """D in {0,1,2,3} x W in {8,16,24} x dropout in {0,0.1,...,0.8}."""
    grid = []
    for depth in (0, 1, 2, 3):
        for width in (8, 16, 24):
            for tenths in range(0, 9):
                grid.append(
                    NetworkConfig(
                        depth=depth,
                        width=width,
                        dropout=tenths / 10.0,
                        seed=seed,
                        **overrides,
                    )
                )
    return grid


def default_forest_grid(seed: int = 0, n_trees: int = 500) -> list[ForestConfig]:
    grid = []
    for depth in (3, 5, 7):
        for leaf in (5, 10, 20):
            for feats in (3, 5, 10):
                grid.append(
                    ForestConfig(
                        n_trees=n_trees,
                        max_depth=depth,
                        min_leaf=leaf,
                        max_features=feats,
                        seed=seed,
                    )
                )
    return grid


def default_boost_grid(seed: int = 0, n_rounds: int = 500) -> list[BoostConfig]:
    grid = []
    for depth in (2, 4, 6):
        for leaf in (10, 20, 50):
            for rate in (0.01, 0.1, 0.3):
                grid.append(
                    BoostConfig(
                        n_rounds=n_rounds,
                        max_depth=depth,
                        min_leaf=leaf,
                        learning_rate=rate,
                        seed=seed,
                    )
                )
    return grid


def _network_tie_key(cfg: NetworkConfig, n_inputs: int, n_classes: int) -> tuple:
    return (net.count_parameters(cfg, n_inputs, n_classes), cfg.dropout)


def hyperopt_network(
    d: Dataset,
    grid: Sequence[NetworkConfig],
    plan: SplitPlan,
    target: str = "cr",
) -> HyperoptReport:
    """Train every candidate on the train block with validation-based early
    stopping, score on the test block, keep the minimizer.  Exact ties go to
    the smaller parameter count, then the smaller dropout."""
    if not grid:
        raise DataError("empty hyperparameter grid")
    d_train, d_val, d_test = split(d, plan)
    n_inputs = d.schema.n_design_columns
    n_classes = _TARGET_CLASSES[target]
    fits, _ = net.fit_softmax_networks(
        *_network_block(d_train, target), *_network_block(d_val, target), grid, n_classes
    )
    X_test, labels_test, w_test = _network_block(d_test, target)
    losses = [
        net.weighted_cross_entropy(net.forward_probs(params, X_test), labels_test, w_test)
        for params in fits
    ]
    order = sorted(
        range(len(grid)),
        key=lambda i: (losses[i], *_network_tie_key(grid[i], n_inputs, n_classes), i),
    )
    return HyperoptReport(list(grid), losses, order[0])


def hyperopt_trees(
    d: Dataset,
    grid: Sequence[LearnerConfig],
    seed: int = 0,
    target: str = "cr",
    test_fraction: float = 0.2,
    cv_folds: int = 5,
) -> HyperoptReport:
    """Grid search with an 80/20 train/test split; selection is by test
    loss, and 5-fold cross-validated losses on the training side are
    recorded alongside."""
    if not grid:
        raise DataError("empty hyperparameter grid")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    n_test = max(1, int(np.floor(d.n * test_fraction)))
    d_test = d.take(perm[:n_test])
    d_train = d.take(perm[n_test:])

    from .data import make_folds

    folds = make_folds(d_train, cv_folds, seed)
    losses, cv_losses = [], []
    for cfg in grid:
        model = train_any(d_train, cfg, target=target)
        losses.append(cross_entropy_loss(model, d_test))
        fold_losses = []
        for k in range(cv_folds):
            m_k = train_any(d_train.take(folds.complement_indices(k)), cfg, target=target)
            fold_losses.append(
                cross_entropy_loss(m_k, d_train.take(folds.fold_indices(k)))
            )
        cv_losses.append(float(np.mean(fold_losses)))
    order = sorted(range(len(grid)), key=lambda i: (losses[i], i))
    return HyperoptReport(list(grid), losses, order[0], cv_losses)


# ---------------------------------------------------------------------------
# Cross-fitting and importances


def cross_fit_predict(
    d: Dataset, cfg: LearnerConfig, folds: FoldAssignment, target: str = "cr", full_sample=False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Predict each record's class probabilities with a model trained on
    the other folds only.  Network folds carve off 15% internally for early
    stopping, mirroring the main training protocol.  With ``full_sample``
    the pair (cross-fitted, full-sample) is returned, the latter from
    ``train_any`` on every record.  The fits run as one ``map_units`` batch."""
    for k in range(folds.K):
        if len(folds.complement_indices(k)) < 10:
            raise DataError(f"fold {k}: too few records to train on")

    def fold_predictions(k: int) -> np.ndarray:
        if k == folds.K:
            return train_any(d, cfg, target=target).predict_quads(d)
        d_k, validation = d.take(folds.complement_indices(k)), None
        if isinstance(cfg, NetworkConfig):
            d_k, validation = _inner_split(d_k, cfg.seed + k)
        model = train_any(d_k, cfg, validation, target)
        return model.predict_quads(d.take(folds.fold_indices(k)))

    probs = map_units(fold_predictions, range(folds.K + full_sample))
    out = np.empty((d.n, _TARGET_CLASSES[target]))
    for k in range(folds.K):
        out[folds.fold_indices(k)] = probs[k]
    return (out, probs[-1]) if full_sample else out


def feature_group_importance(
    d: Dataset, cfg: LearnerConfig, plan: SplitPlan, target: str = "cr"
) -> dict[str, float]:
    """Additional test loss from retraining without each feature's dummy
    block; the full model's own entry is 'None' = 0."""
    if d.schema.n_features < 2:
        raise DataError("importance needs at least 2 features")
    d_train, d_val, d_test = split(d, plan)

    def fit_loss(subset: Dataset, val: Dataset, test: Dataset) -> float:
        return cross_entropy_loss(train_any(subset, cfg, val, target), test)

    full_loss = fit_loss(d_train, d_val, d_test)
    deltas: dict[str, float] = {"None": 0.0}
    for name, _ in d.schema.features:
        reduced = _drop_feature_schema(d.schema, name)
        keep = [j for j, (nm, _) in enumerate(d.schema.features) if nm != name]

        def shrink(ds: Dataset) -> Dataset:
            return Dataset(
                reduced, ds.covariates[:, keep].copy(), ds.c.copy(), ds.r.copy(), ds.w.copy()
            )

        omitted_loss = fit_loss(shrink(d_train), shrink(d_val), shrink(d_test))
        deltas[name] = omitted_loss - full_loss
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
    raw = model._predictor.importance
    total = raw.sum()
    if total <= 0.0:
        return {name: 0.0 for name, _ in schema.features}
    from .data import _design_layout

    _, feature_columns = _design_layout(schema)
    return {
        name: float(raw[list(cols)].sum() / total)
        for name, cols in feature_columns.items()
    }


# ---------------------------------------------------------------------------
# Persistence


def _config_doc(cfg: LearnerConfig) -> dict:
    doc = asdict(cfg)
    doc["type"] = type(cfg).__name__
    return doc


def _config_from_doc(doc: dict) -> LearnerConfig:
    kind = doc.pop("type")
    cls = {"NetworkConfig": NetworkConfig, "ForestConfig": ForestConfig, "BoostConfig": BoostConfig}[kind]
    return cls(**doc)


def save_model(model: ClassifierModel, path: str) -> None:
    if model.kind == "network":
        payload = [
            {"W": W.tolist(), "b": None if b is None else b.tolist()}
            for W, b in model._predictor
        ]
    elif model.kind == "forest":
        payload = {
            "trees": [t.to_dict() for t in model._predictor.trees],
            "importance": model._predictor.importance.tolist(),
        }
    else:
        bm = model._predictor
        payload = {
            "init_scores": bm.init_scores.tolist(),
            "rounds": [[t.to_dict() for t in rnd] for rnd in bm.rounds],
            "learning_rate": bm.learning_rate,
            "importance": bm.importance.tolist(),
        }
    doc = {
        "format_version": MODEL_FILE_VERSION,
        "kind": model.kind,
        "target": model.target,
        "n_classes": model.n_classes,
        "schema_fingerprint": model.schema_fingerprint,
        "config": _config_doc(model.config),
        "parameters": payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_model(path: str, schema: CategoricalSchema) -> ClassifierModel:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != MODEL_FILE_VERSION:
        raise DataError(f"unsupported model file version in {path}")
    if doc["schema_fingerprint"] != schema.fingerprint():
        raise DataError("model was trained under a different schema")
    cfg = _config_from_doc(dict(doc["config"]))
    kind = doc["kind"]
    payload = doc["parameters"]
    if kind == "network":
        predictor = [
            (
                np.asarray(layer["W"], dtype=np.float64),
                None if layer["b"] is None else np.asarray(layer["b"], dtype=np.float64),
            )
            for layer in payload
        ]
    elif kind == "forest":
        predictor = trees.ForestModel(
            [trees.TreeNode.from_dict(t) for t in payload["trees"]],
            doc["n_classes"],
            np.asarray(payload["importance"], dtype=np.float64),
        )
    else:
        predictor = trees.BoostModel(
            np.asarray(payload["init_scores"], dtype=np.float64),
            [[trees.TreeNode.from_dict(t) for t in rnd] for rnd in payload["rounds"]],
            float(payload["learning_rate"]),
            doc["n_classes"],
            np.asarray(payload["importance"], dtype=np.float64),
        )
    return ClassifierModel(
        kind, doc["target"], doc["n_classes"], cfg, doc["schema_fingerprint"], predictor
    )
