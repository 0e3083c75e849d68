"""Feedforward softmax classifiers trained with Adam on weighted cross-entropy.

Everything is plain numpy so training is bitwise deterministic given
(dataset order, config, seed): initialization, mini-batch shuffling, and
dropout masks all draw from a single generator seeded by the config.

Configs that differ only in dropout train together as one stack.  The
parameters of the stack live in one (members, P) buffer; each layer is a
(members, fan_in, fan_out) view of it, the passes are batched matmuls and
Adam updates the whole buffer at once.  Every member draws the numbers it
would draw alone, in the same order, so a stacked fit is bit-identical to
fitting the config alone.

Precision follows mixed-precision training.  Each minibatch step (forward,
softmax, backward, the Adam moments and the parameter buffer) runs in
float32, on the training design and weights cast once per stack; the
kernels run in the dtype of their inputs.  What decides and reports stays
float64: the initialization, the dropout draws (compared with keep in
float64), the validation loss behind early stopping and the non-finite
check, taken from a float64 copy of the stack, and the fitted parameters,
float64 arrays holding float32 values.  ``loss_and_gradient``,
``NetworkModel`` and model files are float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .parallel import map_units

__all__ = [
    "NetworkConfig",
    "TrainingReport",
    "MLPParams",
    "NetworkModel",
    "NetworkTrainingError",
    "count_parameters",
    "param_views",
    "init_params",
    "forward_probs",
    "weighted_cross_entropy",
    "loss_and_gradient",
    "fit_softmax_network",
    "fit_softmax_networks",
]

PROB_CLIP = 1e-12


class NetworkTrainingError(RuntimeError):
    """Non-finite loss encountered during training."""


@dataclass(frozen=True)
class NetworkConfig:
    depth: int = 0
    width: int = 16
    dropout: float = 0.0
    patience: int = 10
    max_epochs: int = 500
    batch_size: int = 64
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.depth > 0 and self.width < 1:
            raise ValueError("width must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.adam_eps > 0.0:
            raise ValueError("adam_eps must be > 0")


@dataclass
class TrainingReport:
    validation_losses: list[float] = field(default_factory=list)
    best_epoch: int = -1
    epochs_run: int = 0


# Parameters are a list of (W, b) pairs; for depth 0 there is a single
# (W, None) since the design matrix's constant column carries the bias.
MLPParams = list


def _layer_shapes(
    cfg: NetworkConfig, n_inputs: int, n_outputs: int
) -> list[tuple[int, int, bool]]:
    """(fan_in, fan_out, has_bias) of each layer, input to output."""
    if cfg.depth == 0:
        return [(n_inputs, n_outputs, False)]
    dims = [n_inputs] + [cfg.width] * cfg.depth + [n_outputs]
    return [(a, b, True) for a, b in zip(dims[:-1], dims[1:])]


def count_parameters(cfg: NetworkConfig, n_inputs: int, n_classes: int = 4) -> int:
    """Exact number of trainable scalars in the implemented architecture."""
    shapes = _layer_shapes(cfg, n_inputs, n_classes)
    return sum(a * b + (b if bias else 0) for a, b, bias in shapes)


def param_views(
    buf: np.ndarray, cfg: NetworkConfig, n_inputs: int, n_outputs: int
) -> MLPParams:
    """Per-layer (W, b) views of a (..., P) parameter buffer laid out layer
    by layer, W row-major then b: W is (..., fan_in, fan_out), b (..., fan_out)."""
    lead = buf.shape[:-1]
    views: MLPParams = []
    pos = 0
    for fan_in, fan_out, bias in _layer_shapes(cfg, n_inputs, n_outputs):
        W = buf[..., pos : pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
        pos += fan_in * fan_out
        b = None
        if bias:
            b = buf[..., pos : pos + fan_out]
            pos += fan_out
        views.append((W, b))
    return views


def init_params(
    cfg: NetworkConfig, n_inputs: int, n_outputs: int, rng: np.random.Generator
) -> np.ndarray:
    """Flat parameter vector: uniform weights scaled by fan-in/fan-out, zero biases."""
    flat = np.zeros(count_parameters(cfg, n_inputs, n_outputs))
    for W, _ in param_views(flat, cfg, n_inputs, n_outputs):
        limit = math.sqrt(6.0 / sum(W.shape))
        W[...] = rng.uniform(-limit, limit, size=W.shape)
    return flat


def _forward(params: MLPParams, X: np.ndarray, dropout_masks: np.ndarray | None = None):
    """Returns (scores, cached hidden activations).  Stacked parameters
    (leading member axis) give stacked outputs."""
    h = X
    hiddens = [h]
    for i, (W, b) in enumerate(params[:-1]):
        h = np.maximum(h @ W + b[..., None, :], 0.0)
        if dropout_masks is not None:
            h = h * dropout_masks[i]
        hiddens.append(h)
    W, b = params[-1]
    scores = h @ W if b is None else h @ W + b[..., None, :]
    return scores, hiddens


def _softmax(scores: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over the class axis: the last one, or axis 0 of class-major
    scores.  The max and the sum take the classes one at a time, left to
    right, which is the order numpy's own reduction takes over a short last
    axis, so the bits are those of ``scores.max`` and ``e.sum`` either way.
    Over a leading axis numpy's reduction itself runs class after class;
    over the last axis the classes are taken as columns, which costs a
    fraction of a reduction over a few classes."""
    if axis == 0:
        e = np.exp(scores - scores.max(axis=0))
        return e / e.sum(axis=0)
    n_classes = scores.shape[-1]
    top = scores[..., 0]
    for k in range(1, n_classes):
        top = np.maximum(top, scores[..., k])
    e = np.exp(scores - top[..., None])
    total = e[..., 0]
    for k in range(1, n_classes):
        total = total + e[..., k]
    return e / total[..., None]


def forward_probs(params: MLPParams, X: np.ndarray) -> np.ndarray:
    scores, _ = _forward(params, X)
    return _softmax(scores)


@dataclass
class NetworkModel:
    """A fitted network: its (W, b) layers, input to output."""

    layers: MLPParams

    def predict_probs(self, X: np.ndarray) -> np.ndarray:
        return forward_probs(self.layers, X)

    def to_doc(self) -> list:
        return [{"W": W.tolist(), "b": None if b is None else b.tolist()} for W, b in self.layers]

    @classmethod
    def from_doc(cls, doc: list, n_classes: int) -> "NetworkModel":
        def array(values) -> np.ndarray | None:
            return None if values is None else np.asarray(values, dtype=np.float64)

        return cls([(array(layer["W"]), array(layer["b"])) for layer in doc])


def weighted_cross_entropy(
    probs: np.ndarray, labels: np.ndarray, w: np.ndarray
) -> float:
    """Negated weighted log-likelihood per unit weight."""
    picked = np.clip(probs[np.arange(len(labels)), labels], PROB_CLIP, None)
    return float(-np.sum(w * np.log(picked)) / np.sum(w))


def _dscores(probs: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Gradient of the per-unit-weight cross-entropy with respect to the scores."""
    onehot = labels[..., None] == np.arange(probs.shape[-1])
    return (probs - onehot) * (w / w.sum(axis=-1, keepdims=True))[..., None]


def _backward(
    params: MLPParams,
    hiddens: list[np.ndarray],
    dscores: np.ndarray,
    grads: MLPParams,
    dropout_masks: np.ndarray | None = None,
) -> None:
    """Backpropagate dscores, writing each layer's gradient into ``grads``
    (views shaped like ``params``)."""
    dz = dscores
    for i in range(len(params) - 1, -1, -1):
        gW, gb = grads[i]
        gW[...] = np.swapaxes(hiddens[i], -1, -2) @ dz
        if gb is not None:
            gb[...] = dz.sum(axis=-2)
        if i > 0:
            dh = dz @ np.swapaxes(params[i][0], -1, -2)
            if dropout_masks is not None:
                dh = dh * dropout_masks[i - 1]
            dz = dh * (hiddens[i] > 0.0)


def loss_and_gradient(
    flat: np.ndarray,
    cfg: NetworkConfig,
    X: np.ndarray,
    labels: np.ndarray,
    w: np.ndarray,
    n_classes: int = 4,
) -> tuple[float, np.ndarray]:
    """Weighted cross-entropy (per unit weight) of the flat parameter vector
    and its backpropagated gradient in the same layout, without dropout."""
    params = param_views(flat, cfg, X.shape[1], n_classes)
    scores, hiddens = _forward(params, X)
    probs = _softmax(scores)
    grad = np.empty_like(flat)
    grad_views = param_views(grad, cfg, X.shape[1], n_classes)
    _backward(params, hiddens, _dscores(probs, labels, w), grad_views)
    return weighted_cross_entropy(probs, labels, w), grad


def _training_key(cfg: NetworkConfig) -> NetworkConfig:
    """Configs with equal keys train identically: at depth 0 neither width
    nor dropout is read."""
    return replace(cfg, width=0, dropout=0.0) if cfg.depth == 0 else cfg


@np.errstate(all="ignore")
def _fit_stack(
    cfgs: Sequence[NetworkConfig],
    X_train: np.ndarray,
    labels_train: np.ndarray,
    w_train: np.ndarray,
    X_val: np.ndarray,
    labels_val: np.ndarray,
    w_val: np.ndarray,
    n_classes: int,
) -> list:
    """Mini-batch Adam with per-member patience-based early stopping for
    configs that differ only in dropout.  Returns, per member, (best params,
    TrainingReport) or the NetworkTrainingError that ended its training.
    Floating-point warnings are off: the non-finite loss check reports.
    The steps run in float32; each epoch's validation losses are taken in
    float64, in one batched pass over the stack.

    A member draws from default_rng(seed) in the one-config order: its
    initialization, one permutation per epoch, then the dropout masks of
    each batch.  The members share the seed, so all members that use
    dropout draw the same numbers and one generator serves them; a member
    without dropout has its own."""
    cfg = cfgs[0]
    n_train, n_inputs = X_train.shape
    X_train, w_train = X_train.astype(np.float32), w_train.astype(np.float32)
    dropping = [cfg.depth > 0 and c.dropout > 0.0 for c in cfgs]
    rngs = {flag: np.random.default_rng(cfg.seed) for flag in dropping}
    init = {flag: init_params(cfg, n_inputs, n_classes, rng) for flag, rng in rngs.items()}
    params = np.stack([init[flag] for flag in dropping]).astype(np.float32)
    best = params.astype(np.float64)
    adam_m = np.zeros_like(params)
    adam_v = np.zeros_like(params)
    grads = np.empty_like(params)
    reports = [TrainingReport() for _ in cfgs]
    results: list = [None] * len(cfgs)
    best_val = [math.inf] * len(cfgs)
    since_best = [0] * len(cfgs)
    active = list(range(len(cfgs)))  # member behind each stack row
    step = 0

    for epoch in range(cfg.max_epochs):
        views = param_views(params, cfg, n_inputs, n_classes)
        grad_views = param_views(grads, cfg, n_inputs, n_classes)
        perms = {flag: rngs[flag].permutation(n_train) for flag in {dropping[j] for j in active}}
        if len(perms) == 1:  # every row shares one order
            (order,) = perms.values()
        else:
            order = np.stack([perms[dropping[j]] for j in active])
        # Without dropout keep is 1, and every draw in [0, 1) keeps its unit.
        # The draws are compared in float64; a kept unit is scaled by the
        # float32 1/keep, so the masks do not promote the step to float64.
        keep = np.array([1.0 - cfgs[j].dropout for j in active])[:, None, None]
        scale = (1.0 / keep).astype(np.float32)
        for start in range(0, n_train, cfg.batch_size):
            batch = order[..., start : start + cfg.batch_size]
            masks = None
            if True in perms:
                draws = rngs[True].random((cfg.depth, batch.shape[-1], cfg.width))
                masks = (draws[:, None] < keep) * scale
            scores, hiddens = _forward(views, X_train[batch], masks)
            dscores = _dscores(_softmax(scores), labels_train[batch], w_train[batch])
            _backward(views, hiddens, dscores, grad_views, masks)

            step += 1
            adam_m *= cfg.beta1
            adam_m += (1 - cfg.beta1) * grads
            adam_v *= cfg.beta2
            adam_v += (1 - cfg.beta2) * grads**2
            params -= (
                cfg.learning_rate
                * (adam_m / (1.0 - cfg.beta1**step))
                / (np.sqrt(adam_v / (1.0 - cfg.beta2**step)) + cfg.adam_eps)
            )

        wide = params.astype(np.float64)
        val_probs = forward_probs(param_views(wide, cfg, n_inputs, n_classes), X_val)
        stay = []
        for row, j in enumerate(active):
            val_loss = weighted_cross_entropy(val_probs[row], labels_val, w_val)
            if not math.isfinite(val_loss):
                c = cfgs[j]
                shape = f", width {c.width}, dropout {c.dropout:g}" if c.depth else ""
                results[j] = NetworkTrainingError(
                    f"non-finite loss at epoch {epoch + 1} (depth {c.depth}{shape})"
                )
                continue
            report = reports[j]
            report.validation_losses.append(val_loss)
            report.epochs_run = epoch + 1
            if val_loss < best_val[j]:
                best_val[j] = val_loss
                best[j] = wide[row]
                report.best_epoch = epoch
                since_best[j] = 0
            else:
                since_best[j] += 1
                if since_best[j] >= cfg.patience:
                    continue
            stay.append(row)
        if len(stay) < len(active):
            if not stay:
                break
            params, adam_m, adam_v, grads = (a[stay] for a in (params, adam_m, adam_v, grads))
            active = [active[row] for row in stay]

    for j, c in enumerate(cfgs):
        if results[j] is None:
            results[j] = (param_views(best[j], c, n_inputs, n_classes), reports[j])
    return results


def fit_softmax_networks(
    X_train: np.ndarray,
    labels_train: np.ndarray,
    w_train: np.ndarray,
    X_val: np.ndarray,
    labels_val: np.ndarray,
    w_val: np.ndarray,
    cfgs: Sequence[NetworkConfig],
    n_classes: int,
) -> tuple[list[MLPParams], list[TrainingReport]]:
    """Fit every config with validation-based early stopping; returns
    (params, reports) in input order.  Configs that train identically are
    fitted once and share the result.  The stacks run as one ``map_units``
    batch, largest first; results are keyed, so the order does not matter."""
    keys = [_training_key(c) for c in cfgs]
    stacks: dict[NetworkConfig, list[NetworkConfig]] = {}
    for key in dict.fromkeys(keys):
        stacks.setdefault(replace(key, dropout=0.0), []).append(key)
    units = sorted(
        stacks.values(),
        key=lambda members: -len(members)
        * count_parameters(members[0], X_train.shape[1], n_classes),
    )
    fits = list(
        map_units(
            lambda members: _fit_stack(
                members, X_train, labels_train, w_train, X_val, labels_val, w_val, n_classes
            ),
            units,
        )
    )
    fitted = {}
    for members, results in zip(units, fits):
        fitted.update(zip(members, results))
    for key in keys:
        if isinstance(fitted[key], NetworkTrainingError):
            raise fitted[key]
    return [fitted[k][0] for k in keys], [fitted[k][1] for k in keys]


def fit_softmax_network(
    X_train: np.ndarray,
    labels_train: np.ndarray,
    w_train: np.ndarray,
    X_val: np.ndarray,
    labels_val: np.ndarray,
    w_val: np.ndarray,
    cfg: NetworkConfig,
    n_classes: int,
) -> tuple[MLPParams, TrainingReport]:
    """fit_softmax_networks for one config."""
    params, reports = fit_softmax_networks(
        X_train, labels_train, w_train, X_val, labels_val, w_val, [cfg], n_classes
    )
    return params[0], reports[0]
