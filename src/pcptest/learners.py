"""Training protocols shared by the three classifier families.

One model interface covers the softmax network, the random forest, and the
gradient-boosted ensemble: every fitted model predicts a point on the class
simplex for each design row, and writes and reads its own parameters.
``KINDS`` and ``GRID_AXES`` are the only tables of the families; a family's
record holds its grid fitter, its tie key and its fitter over several
training sets, so ``train_any``, ``train_many``, ``predict_many``,
``hyperopt``, cross-fitting, importances and model files serve every
family alike.  A family reads a dataset's dense design or its distinct
rows, both taken from the encodings that the dataset's root makes once;
the callers that fork build them before their batch, so the workers
inherit them.  Cross-fitting folds, with the raw fit on every record, and
the sorted-groups splits run as stacks of fits (``stacks``); the boosted
family grows a stack's training sets in one call, and predicts with a
stack's models in one routing pass, bit for bit as it does each alone.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field, asdict, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import network as net
from . import parallel, trees
from .data import (
    CategoricalSchema,
    DataError,
    Dataset,
    SplitPlan,
    FoldAssignment,
    _design_layout,
    split,
)
from .network import NetworkConfig
from .parallel import call, map_units
from .trees import BoostConfig, ForestConfig

__all__ = [
    "ClassifierModel",
    "HyperoptReport",
    "LearnerConfig",
    "Family",
    "KINDS",
    "GRID_AXES",
    "default_grid",
    "cross_entropy_loss",
    "encode",
    "train_any",
    "train_many",
    "predict_many",
    "stacks",
    "hyperopt",
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
        return self.predictor.predict_probs(KINDS[self.kind].predict_input(d))


def cross_entropy_loss(model: ClassifierModel, d: Dataset) -> float:
    """Weighted cross-entropy per unit weight, probabilities clipped at 1e-12."""
    return net.weighted_cross_entropy(model.predict_quads(d), d.class_labels(), d.w)


# ---------------------------------------------------------------------------
# The families and the training entry point


def _block(d: Dataset, read: Callable = Dataset.design) -> tuple:
    """(design, labels, weights): what every trainer reads of a dataset,
    its design as ``read`` reads it."""
    return read(d), d.class_labels(), d.w


def _fit_networks(d_train: Dataset, validation: Dataset | None, cfgs, fold: int = 0) -> list:
    """``fit_softmax_networks``, its stacks one ``map_units`` batch.
    Without a validation block (cross-fitting, sorted-groups) it holds out
    15% of ``d_train`` for early stopping, drawn with seed ``seed + fold``
    so that each cross-fitting fold draws its own."""
    if validation is None:
        perm = np.random.default_rng(cfgs[0].seed + fold).permutation(d_train.n)
        n_val = max(1, int(np.floor(d_train.n * 0.15)))
        d_train, validation = d_train.take(perm[n_val:]), d_train.take(perm[:n_val])
    if d_train.schema.fingerprint() != validation.schema.fingerprint():
        raise DataError("train and validation schemas differ")
    params, _ = net.fit_softmax_networks(*_block(d_train), *_block(validation), cfgs, N_CLASSES)
    return [net.NetworkModel(p) for p in params]


def _fit_each(d_trains: Sequence[Dataset], cfgs, folds: Sequence[int]) -> list:
    """One ``train_any`` per training set, in turn."""
    return [train_any(d, cfg, fold=k) for d, cfg, k in zip(d_trains, cfgs, folds)]


def _fit_boosted_stack(d_trains: Sequence[Dataset], cfgs, folds: Sequence[int]) -> list:
    """``train_any`` of each boosted config on its training set, all grown
    as one ``trees.fit_boosted_many`` stack.  The configs may differ in
    their seeds only: boosting reads neither the seed nor the fold."""
    cfg = replace(cfgs[0], seed=0)
    if any(replace(other, seed=0) != cfg for other in cfgs):
        raise DataError("a boosted stack fits one config")
    blocks = [_block(d, Dataset.distinct_rows) for d in d_trains]
    fitted = trees.fit_boosted_many(blocks, cfg, N_CLASSES)
    return [
        ClassifierModel(cfg, d.schema.fingerprint(), predictor)
        for d, cfg, predictor in zip(d_trains, cfgs, fitted)
    ]


def _predict_each(predictors: Sequence, designs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each fitted model's ``predict_probs`` of its design, in turn."""
    return [predictor.predict_probs(X) for predictor, X in zip(predictors, designs)]


class Family(NamedTuple):
    """A learner family: its config and fitted-model classes; its grid
    fitter ``(d_train, validation, configs, fold=0) -> models``, in input
    order; its tie key ``(config, n_inputs) -> tuple``, which orders
    candidates of equal test loss before their grid position does; its
    fitter over several training sets ``(d_trains, configs, folds) ->
    ClassifierModels``, in input order, and whether that fitter grows them
    as one stack, the only case in which grouping fits pays; its
    predictor ``(fitted models, designs) -> probabilities`` for the models
    of one ``fit_many`` call; and how its fitters and its predictors read
    a dataset's design: ``Dataset.design`` or ``Dataset.distinct_rows``."""

    config: type
    model: type
    fit_grid: Callable[..., list]
    tie_key: Callable[[LearnerConfig, int], tuple]
    fit_many: Callable[..., list] = _fit_each
    stacked: bool = False
    predict_many: Callable[..., list] = _predict_each
    fit_input: Callable[[Dataset], object] = Dataset.design
    predict_input: Callable[[Dataset], object] = Dataset.design

    @property
    def impurity(self) -> bool:
        """Whether the models carry impurity decreases per design column."""
        return "importance" in self.model.__dataclass_fields__


def _tree_family(
    config: type, model: type, fit_name: str, size_field: str, **stack
) -> Family:
    """A tree family, which predicts from distinct rows.  Its grid fitter
    reads no validation block and runs each candidate as one ``map_units``
    unit, largest first by ``<size_field> * 2**max_depth``;
    ``trees.<fit_name>`` is looked up per call, so a wrapper on ``trees``
    sees it.  Ties go to the earlier one.  ``stack`` sets ``fit_many`` and
    ``stacked``, if the family stacks, and ``fit_input``."""
    fit_input = stack.get("fit_input", Dataset.design)

    def fit_grid(d_train: Dataset, validation: Dataset | None, cfgs, fold: int = 0) -> list:
        fit, block = getattr(trees, fit_name), _block(d_train, fit_input)
        size = [getattr(c, size_field) * 2**c.max_depth for c in cfgs]
        order = sorted(range(len(cfgs)), key=lambda i: -size[i])
        # One candidate (train_any) fits in place, a unit of its caller's batch.
        run = map_units if len(cfgs) > 1 else map
        fitted = dict(zip(order, run(lambda i: fit(*block, cfgs[i], N_CLASSES), order)))
        return [fitted[i] for i in range(len(cfgs))]

    return Family(
        config,
        model,
        fit_grid,
        lambda cfg, n_inputs: (),
        predict_input=Dataset.distinct_rows,
        **stack,
    )


# Each family under its kind, its name in model files and the config's
# ``learner``.  Network ties go to fewer parameters, then less dropout.
KINDS = {
    "network": Family(
        NetworkConfig,
        net.NetworkModel,
        _fit_networks,
        lambda cfg, n_inputs: (net.count_parameters(cfg, n_inputs, N_CLASSES), cfg.dropout),
    ),
    "forest": _tree_family(ForestConfig, trees.ForestModel, "fit_forest", "n_trees"),
    "boosted": _tree_family(
        BoostConfig,
        trees.BoostModel,
        "fit_boosted",
        "n_rounds",
        fit_many=_fit_boosted_stack,
        stacked=True,
        predict_many=trees.predict_stack,
        fit_input=Dataset.distinct_rows,
    ),
}
_KIND_OF = {family.config: kind for kind, family in KINDS.items()}


def _kind_of(cfg: LearnerConfig) -> str:
    if type(cfg) not in _KIND_OF:
        raise DataError(f"unknown learner config type {type(cfg).__name__}")
    return _KIND_OF[type(cfg)]


def encode(d: Dataset, cfg: LearnerConfig) -> None:
    """Make the root encodings of ``d`` that cfg's family fits and predicts
    from, before a batch forks, so that its units inherit them."""
    family = KINDS[_kind_of(cfg)]
    family.fit_input(d)
    family.predict_input(d)


def train_any(
    d_train: Dataset, cfg: LearnerConfig, validation: Dataset | None = None, fold: int = 0
) -> ClassifierModel:
    """Fit the learner ``cfg`` configures on ``d_train``: its family's grid
    fitter on the one-config grid.  A network stops early on ``validation``,
    or on 15% of ``d_train`` drawn for ``fold``; trees read neither."""
    (predictor,) = KINDS[_kind_of(cfg)].fit_grid(d_train, validation, [cfg], fold)
    return ClassifierModel(cfg, d_train.schema.fingerprint(), predictor)


def train_many(
    d_trains: Sequence[Dataset], cfgs: Sequence[LearnerConfig], folds: Sequence[int] | None = None
) -> list[ClassifierModel]:
    """``train_any(d_trains[i], cfgs[i], fold=folds[i])`` for every i, by
    the family's ``fit_many``: the configs are of one family, boosted ones
    differ in their seeds only, and the results are bit for bit those of
    the lone fits."""
    family = KINDS[_kind_of(cfgs[0])]
    if any(type(cfg) is not family.config for cfg in cfgs):
        raise DataError("train_many fits one learner family")
    return family.fit_many(d_trains, cfgs, [0] * len(cfgs) if folds is None else folds)


def predict_many(models: Sequence[ClassifierModel], ds: Sequence[Dataset]) -> list[np.ndarray]:
    """``models[i].predict_quads(ds[i])`` for every i, bit for bit, for the
    models of one ``train_many`` call, by their family's ``predict_many``:
    a boosted stack routes all the rows of all its models at once."""
    for model, d in zip(models, ds):
        if d.schema.fingerprint() != model.schema_fingerprint:
            raise DataError("dataset schema does not match the model's schema")
    family = KINDS[models[0].kind]
    return family.predict_many([m.predictor for m in models], [family.predict_input(d) for d in ds])


# The most distinct design rows at which the fits of a stacking family are
# grouped into stacks.  A stack's arrays grow with its rows and leave the
# cache; the crossover is in CHANGES.md.
STACK_MAX_ROWS = 512


def stacks(d: Dataset, cfg: LearnerConfig, n_fits: int, kinds: int = 1) -> list[range]:
    """Fits 0 .. n_fits - 1 of ``cfg`` on subsets of ``d``, grouped into
    contiguous stacks in input order, each to run as one ``map_units``
    unit.  When cfg's family grows its fits as one stack and ``d`` can
    have at most STACK_MAX_ROWS distinct design rows, the fits get
    max(1, workers // kinds) stacks, the earlier ones larger by at most
    one fit: ``kinds`` counts the kinds of fits in the batch that stack
    this way (cross-fitting, sorted-groups splits), and ``workers`` those
    of the batch.  Otherwise every fit is a stack of its own.  The bound
    on the rows is the fewer of d's records and its schema's cells, which
    costs nothing to read.  Grouping changes no result."""
    n_stacks = n_fits
    if KINDS[_kind_of(cfg)].stacked and min(d.n, d.schema.n_cells) <= STACK_MAX_ROWS:
        n_stacks = min(n_fits, max(1, parallel.pool_size(n_fits * kinds) // kinds))
    edges = [-(-s * n_fits // n_stacks) for s in range(n_stacks + 1)]
    return [range(a, b) for a, b in zip(edges, edges[1:])]


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


def hyperopt(d: Dataset, grid: Sequence[LearnerConfig], plan: SplitPlan) -> HyperoptReport:
    """Grid search over one family's candidates on ``plan``'s blocks: the
    family's grid fitter trains every candidate on the train block, a
    network stopping early on the validation block, and the least weighted
    cross-entropy on the test block wins.  Exact ties go to the family's
    tie key, then to the earlier candidate."""
    if not grid:
        raise DataError("empty hyperparameter grid")
    family = KINDS[_kind_of(grid[0])]
    if any(type(cfg) is not family.config for cfg in grid):
        raise DataError("a hyperparameter grid searches one learner family")
    d_train, d_val, d_test = split(d, plan)
    X_test, labels_test, w_test = _block(d_test, family.predict_input)
    losses = [
        net.weighted_cross_entropy(model.predict_probs(X_test), labels_test, w_test)
        for model in family.fit_grid(d_train, d_val, grid)
    ]
    n_inputs = d.schema.n_design_columns
    selected = min(
        range(len(grid)), key=lambda i: (losses[i], *family.tie_key(grid[i], n_inputs), i)
    )
    return HyperoptReport(list(grid), losses, selected)


# ---------------------------------------------------------------------------
# Cross-fitting and importances


def cross_fit_units(
    d: Dataset, cfg: LearnerConfig, folds: FoldAssignment, raw: bool = False, kinds: int = 1
) -> list[Callable]:
    """The fits of ``cross_fit_predict`` as zero-argument units, one per
    stack of fits (``stacks``, with the batch's ``kinds``): fold k's model
    is trained on the other folds and predicts fold k.  With ``raw``, the
    raw fit comes first: trained on every record, as ``train_any`` with
    fold 0, it predicts every record.  Each unit trains its fits by one
    ``train_many`` call, predicts by one ``predict_many`` call and returns
    the predictions in input order.  A fold with fewer than 10 records to
    train on raises in its unit, before any fit.  The encodings of ``d``
    that the units read are made here, once."""
    encode(d, cfg)
    ks = [None] * raw + list(range(folds.K))  # None: the raw fit

    def stack_fit(stack: range) -> list[np.ndarray]:
        fits = [ks[j] for j in stack]
        train_rows = [None if k is None else folds.complement_indices(k) for k in fits]
        for k, rows in zip(fits, train_rows):
            if rows is not None and len(rows) < 10:
                raise DataError(f"fold {k}: too few records to train on")
        d_trains = [d if rows is None else d.take(rows) for rows in train_rows]
        models = train_many(d_trains, [cfg] * len(fits), [k or 0 for k in fits])  # raw: fold 0
        tests = [d if k is None else d.take(folds.fold_indices(k)) for k in fits]
        return predict_many(models, tests)

    return [functools.partial(stack_fit, stack) for stack in stacks(d, cfg, len(ks), kinds)]


def merge_cross_fit(folds: FoldAssignment, fold_probs: Sequence[np.ndarray]) -> np.ndarray:
    """The ``(n, classes)`` cross-fitted array from the K folds' predictions."""
    out = np.empty((len(folds.fold_of), fold_probs[0].shape[1]))
    for k, probs in enumerate(fold_probs):
        out[folds.fold_indices(k)] = probs
    return out


def cross_fit_predict(d: Dataset, cfg: LearnerConfig, folds: FoldAssignment) -> np.ndarray:
    """Predict each record's class probabilities with a model trained on
    the other folds only.  Network folds carve off 15% internally for early
    stopping, mirroring the main training protocol.  The fits run as one
    ``map_units`` batch."""
    results = map_units(call, cross_fit_units(d, cfg, folds))
    return merge_cross_fit(folds, list(itertools.chain.from_iterable(results)))


def feature_group_importance(
    d: Dataset, cfg: LearnerConfig, plan: SplitPlan
) -> tuple[dict[str, float], ClassifierModel]:
    """Additional test loss from retraining without each feature's dummy
    block; the full model's own entry is 'None' = 0.  Returns the deltas
    and the full-feature model.  The full fit and the retrains run as one
    ``map_units`` batch; each retrain's unit builds its dataset without the
    feature, encoded once for its three blocks."""
    if d.schema.n_features < 2:
        raise DataError("importance needs at least 2 features")
    names = d.schema.feature_names

    def fit(omitted: str | None) -> tuple[ClassifierModel | None, float]:
        keep = [j for j, name in enumerate(names) if name != omitted]
        schema = CategoricalSchema(tuple(d.schema.features[j] for j in keep))
        reduced = d if omitted is None else Dataset(schema, d.covariates[:, keep], d.c, d.r, d.w)
        d_train, d_val, d_test = split(reduced, plan)
        model = train_any(d_train, cfg, d_val)
        # Only the full model is read afterwards; the others stay in the worker.
        return model if omitted is None else None, cross_entropy_loss(model, d_test)

    (full, full_loss), *omitted_fits = map_units(fit, [None, *names])
    deltas = {name: loss - full_loss for name, (_, loss) in zip(names, omitted_fits)}
    return {"None": 0.0} | deltas, full


def impurity_importance(model: ClassifierModel, schema: CategoricalSchema) -> dict[str, float]:
    """Impurity decrease from splits, normalized to sum to 1 and aggregated
    per feature (forest: weighted entropy; boosted: weighted SSE)."""
    if not KINDS[model.kind].impurity:
        raise DataError("impurity importance is only defined for tree models")
    if schema.fingerprint() != model.schema_fingerprint:
        raise DataError("schema does not match the model's schema")
    raw = model.predictor.importance
    total = raw.sum()
    if total <= 0.0:
        return {name: 0.0 for name, _ in schema.features}
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
    family = KINDS[doc["kind"]]
    cfg = family.config(**{key: v for key, v in doc["config"].items() if key != "type"})
    predictor = family.model.from_doc(doc["parameters"], N_CLASSES)
    return ClassifierModel(cfg, doc["schema_fingerprint"], predictor)
