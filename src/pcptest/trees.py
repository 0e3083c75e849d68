"""Tree ensembles over dummy-coded designs: random forest and gradient boosting.

Both learners split on the binary design columns (the constant column is
never a candidate).  Forest trees are grown depth first on weighted
bootstrap resamples from the dense design and split by weighted-entropy
decrease.  Boosted regression trees fit the weighted negative gradient of
the softmax cross-entropy, one tree per class per round, with Newton leaf
values.  Boosting compresses the design once per fit to its distinct rows
with their record counts and per-class weight masses, and grows the class
trees of a round together, one depth level at a time: a few bincounts over
(node, active column) pairs give every open node's split histogram, in the
manner of LightGBM's histogram split finding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import _softmax

__all__ = [
    "ForestConfig",
    "BoostConfig",
    "TreeNode",
    "ForestModel",
    "BoostModel",
    "fit_forest",
    "fit_boosted",
]

PROB_CLIP = 1e-12


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 500
    max_depth: int = 5
    min_leaf: int = 10
    max_features: int | None = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("forest config values must be positive")


@dataclass(frozen=True)
class BoostConfig:
    n_rounds: int = 500
    max_depth: int = 4
    min_leaf: int = 20
    learning_rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rounds < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("boost config values must be positive")
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be >= 0")


@dataclass
class TreeNode:
    """Internal node (column + children) or leaf (value vector)."""

    column: int = -1
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | None = None

    def is_leaf(self) -> bool:
        return self.value is not None

    def to_dict(self) -> dict:
        if self.is_leaf():
            return {"value": [float(v) for v in self.value]}
        return {
            "column": self.column,
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "TreeNode":
        if "value" in doc:
            return cls(value=np.asarray(doc["value"], dtype=np.float64))
        return cls(
            column=int(doc["column"]),
            left=cls.from_dict(doc["left"]),
            right=cls.from_dict(doc["right"]),
        )


def _predict_tree(node: TreeNode, X: np.ndarray) -> np.ndarray:
    """Vectorized traversal; returns (n, value_dim)."""
    out = np.empty((X.shape[0], len(_first_leaf(node).value)))
    stack = [(node, np.arange(X.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if len(idx) == 0:
            continue
        if nd.is_leaf():
            out[idx] = nd.value
            continue
        go_right = X[idx, nd.column] > 0.5
        stack.append((nd.left, idx[~go_right]))
        stack.append((nd.right, idx[go_right]))
    return out


def _first_leaf(node: TreeNode) -> TreeNode:
    while not node.is_leaf():
        node = node.left
    return node


def _weighted_entropy(class_w: np.ndarray) -> float:
    total = class_w.sum()
    if total <= 0.0:
        return 0.0
    p = class_w / total
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def _entropy_by_column(class_w_cols: np.ndarray) -> np.ndarray:
    """Weighted entropy per column from (n_classes, n_cols) class masses."""
    totals = class_w_cols.sum(axis=0)
    safe = np.clip(totals, PROB_CLIP, None)
    p = class_w_cols / safe
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return np.where(totals > 0.0, -terms.sum(axis=0), 0.0)


def _grow_classification_tree(
    X: np.ndarray,
    labels: np.ndarray,
    w: np.ndarray,
    n_classes: int,
    max_depth: int,
    min_leaf: int,
    max_features: int | None,
    rng: np.random.Generator,
    importance: np.ndarray,
) -> TreeNode:
    candidates = np.arange(1, X.shape[1])  # skip the constant column
    onehot_w = np.zeros((X.shape[0], n_classes))
    onehot_w[np.arange(X.shape[0]), labels] = w

    def leaf(idx: np.ndarray) -> TreeNode:
        class_w = onehot_w[idx].sum(axis=0)
        return TreeNode(value=class_w / class_w.sum())

    def grow(idx: np.ndarray, depth: int) -> TreeNode:
        class_w = onehot_w[idx].sum(axis=0)
        if depth >= max_depth or len(idx) < 2 * min_leaf or (class_w > 0).sum() <= 1:
            return leaf(idx)
        if max_features is not None and max_features < len(candidates):
            cols = np.sort(rng.choice(candidates, size=max_features, replace=False))
        else:
            cols = candidates
        Xc = X[np.ix_(idx, cols)]
        n_right = Xc.sum(axis=0)
        valid = (n_right >= min_leaf) & (len(idx) - n_right >= min_leaf)
        if not valid.any():
            return leaf(idx)
        cw_right = onehot_w[idx].T @ Xc  # (n_classes, n_cols)
        cw_left = class_w[:, None] - cw_right
        parent = class_w.sum() * _weighted_entropy(class_w)
        gains = parent - (
            cw_left.sum(axis=0) * _entropy_by_column(cw_left)
            + cw_right.sum(axis=0) * _entropy_by_column(cw_right)
        )
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))
        if gains[best] <= 1e-15:
            return leaf(idx)
        best_col = int(cols[best])
        importance[best_col] += gains[best]
        right = X[idx, best_col] > 0.5
        return TreeNode(
            column=best_col,
            left=grow(idx[~right], depth + 1),
            right=grow(idx[right], depth + 1),
        )

    return grow(np.arange(X.shape[0]), 0)


@dataclass
class ForestModel:
    trees: list[TreeNode]
    n_classes: int
    importance: np.ndarray  # raw weighted-entropy decrease per design column

    def predict_probs(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            acc += _predict_tree(tree, X)
        return acc / len(self.trees)


def fit_forest(
    X: np.ndarray, labels: np.ndarray, w: np.ndarray, cfg: ForestConfig, n_classes: int = 4
) -> ForestModel:
    """Bootstrap draws record i with probability proportional to w_i; the
    resample multiplicities act as the training weights of each tree."""
    n = X.shape[0]
    p = w / w.sum()
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    importance = np.zeros(X.shape[1])
    trees = []
    for seq in seeds:
        rng = np.random.default_rng(seq)
        counts = np.bincount(rng.choice(n, size=n, p=p), minlength=n).astype(np.float64)
        in_bag = counts > 0
        trees.append(
            _grow_classification_tree(
                X[in_bag],
                labels[in_bag],
                counts[in_bag],
                n_classes,
                cfg.max_depth,
                cfg.min_leaf,
                cfg.max_features,
                rng,
                importance,
            )
        )
    return ForestModel(trees, n_classes, importance)


# ---------------------------------------------------------------------------
# Gradient boosting


@dataclass
class BoostModel:
    init_scores: np.ndarray  # (n_classes,)
    rounds: list[list[TreeNode]]  # per round, one tree per class
    learning_rate: float
    n_classes: int
    importance: np.ndarray

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        scores = np.tile(self.init_scores, (X.shape[0], 1))
        if self.learning_rate == 0.0:
            return scores
        for round_trees in self.rounds:
            for k, tree in enumerate(round_trees):
                scores[:, k] += self.learning_rate * _predict_tree(tree, X)[:, 0]
        return scores

    def predict_probs(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self.raw_scores(X))


class _DistinctRows:
    """The design compressed to its distinct rows, with the flat histogram
    entries that the level-wise grower sums over.

    Records that share a design row share every split decision and every
    score, so a boosting round needs only each row's record count, total
    weight W and per-class weight masses M: its gradient and hessian sums
    are M_k - W p_k and W p_k (1 - p_k).  The class trees of a round are
    grown together; item k * m + r stands for distinct row r in class tree
    k, and an entry is one (item, active candidate column) pair.
    """

    def __init__(self, X: np.ndarray, labels: np.ndarray, w: np.ndarray, n_classes: int):
        active = X > 0.5
        # Packing the bits keeps the lexicographic row order and sorts 8
        # columns per byte.
        _, first, inverse, counts = np.unique(
            np.packbits(active, axis=1),
            axis=0,
            return_index=True,
            return_inverse=True,
            return_counts=True,
        )
        inverse = inverse.reshape(-1)
        m = len(first)
        self.m, self.n_classes, self.n_cols = m, n_classes, X.shape[1]
        self.active = active[first]  # (m, n_cols)
        self.W = np.bincount(inverse, weights=w, minlength=m)
        self.M = np.bincount(
            inverse * n_classes + labels, weights=w, minlength=m * n_classes
        ).reshape(m, n_classes)
        self.item_count = np.tile(counts.astype(np.float64), n_classes)
        self.item_W = np.tile(self.W, n_classes)

        # Entries are ordered by class tree, then row, then column, so the
        # histogram bins of two columns that cover the same rows of a node
        # are summed in the same order and tie exactly.
        r, c = np.nonzero(self.active[:, 1:])  # the constant column never splits
        self.entry_item = (np.arange(n_classes)[:, None] * m + r).reshape(-1)
        self.entry_col = np.tile(c + 1, n_classes)
        self.entry_count = self.item_count[self.entry_item]
        self.entry_W = self.item_W[self.entry_item]


def _grow_round(
    rows: _DistinctRows,
    grad: np.ndarray,  # (n_classes, m) summed negative gradient M_k - W p_k
    hess: np.ndarray,  # (n_classes, m) summed hessian W p_k (1 - p_k)
    max_depth: int,
    min_leaf: int,
    importance: np.ndarray,
) -> tuple[list[TreeNode], np.ndarray]:
    """Grow one regression tree per class, all classes one depth level at a
    time; return the trees and the (n_classes, m) leaf value of every row.

    Each tree fits grad/w by weighted least-squares splits and its leaves
    take the Newton step sum(grad) / sum(hess).  Weighted SSE reduction
    reduces to S_R^2/W_R + S_L^2/W_L - S^2/W with S = sum(grad) and
    W = sum(w); record counts serve min_leaf.  For all open nodes of a
    level, three bincounts over the key (node * n_cols + column) give the
    count, W and S of every candidate column's right side at once.
    """
    m, n_cols = rows.m, rows.n_cols
    item_grad = grad.reshape(-1)
    item_hess = hess.reshape(-1)
    entry_grad = item_grad[rows.entry_item]
    nodes = [TreeNode() for _ in range(rows.n_classes)]
    trees = list(nodes)
    node_of = np.repeat(np.arange(rows.n_classes), m)  # open node per item, -1 once in a leaf
    leaf_value = np.empty(rows.n_classes * m)

    for depth in range(max_depth + 1):
        n_nodes = len(nodes)
        live = np.flatnonzero(node_of >= 0)
        g = node_of[live]
        count = np.bincount(g, weights=rows.item_count[live], minlength=n_nodes)
        W = np.bincount(g, weights=rows.item_W[live], minlength=n_nodes)
        S = np.bincount(g, weights=item_grad[live], minlength=n_nodes)
        H = np.bincount(g, weights=item_hess[live], minlength=n_nodes)

        split_col = np.zeros(n_nodes, dtype=np.intp)  # 0 marks a leaf
        can_split = count >= 2 * min_leaf
        if depth < max_depth and can_split.any():
            # Entries of rows already in a leaf (node -1) get a negative key
            # and go to bin 0, the constant column of node 0, never a candidate.
            key = (node_of * n_cols)[rows.entry_item]
            key += rows.entry_col
            np.maximum(key, 0, out=key)
            size = n_nodes * n_cols

            def hist(weights: np.ndarray) -> np.ndarray:
                return np.bincount(key, weights=weights, minlength=size).reshape(n_nodes, n_cols)

            n_r, W_r, S_r = hist(rows.entry_count), hist(rows.entry_W), hist(entry_grad)
            W_l = W[:, None] - W_r
            S_l = S[:, None] - S_r
            valid = (n_r >= min_leaf) & (count[:, None] - n_r >= min_leaf) & can_split[:, None]
            valid[:, 0] = False
            gains = (
                S_r**2 / np.clip(W_r, PROB_CLIP, None)
                + S_l**2 / np.clip(W_l, PROB_CLIP, None)
                - (S**2 / W)[:, None]
            )
            gains = np.where(valid, gains, -np.inf)
            best = np.argmax(gains, axis=1)  # ties go to the lowest column
            best_gain = gains[np.arange(n_nodes), best]
            split_col = np.where(best_gain > 1e-12, best, 0)
            np.add.at(importance, split_col[split_col > 0], best_gain[split_col > 0])

        values = S / np.maximum(H, PROB_CLIP)
        first_child = np.full(n_nodes, -1)
        next_nodes = []
        for i, node in enumerate(nodes):
            if split_col[i]:
                node.column = int(split_col[i])
                node.left, node.right = TreeNode(), TreeNode()
                first_child[i] = len(next_nodes)
                next_nodes += [node.left, node.right]
            else:
                node.value = np.array([values[i]])

        col = split_col[g]
        done = col == 0
        leaf_value[live[done]] = values[g[done]]
        node_of[live] = np.where(done, -1, first_child[g] + rows.active[live % m, col])
        nodes = next_nodes
        if not nodes:
            break
    return trees, leaf_value.reshape(rows.n_classes, m)


def fit_boosted(
    X: np.ndarray, labels: np.ndarray, w: np.ndarray, cfg: BoostConfig, n_classes: int = 4
) -> BoostModel:
    class_w = np.bincount(labels, weights=w, minlength=n_classes)
    init = np.log(np.clip(class_w / class_w.sum(), PROB_CLIP, None))
    importance = np.zeros(X.shape[1])
    model = BoostModel(init, [], cfg.learning_rate, n_classes, importance)
    if cfg.learning_rate == 0.0:
        return model

    rows = _DistinctRows(X, labels, w, n_classes)
    W = rows.W[:, None]
    rest = W - rows.M  # weight of each row's records in the other classes
    scores = np.tile(init, (rows.m, 1))
    for _ in range(cfg.n_rounds):
        probs = _softmax(scores)
        q = 1.0 - probs
        # M - W p written as M (1 - p) - (W - M) p: with p near 1 the first
        # form loses the gradient to cancellation, while this one rounds
        # like the per-record sum of w (y - p).
        grad = (rows.M * q - rest * probs).T
        hess = (W * probs * q).T
        round_trees, leaf_value = _grow_round(
            rows, grad, hess, cfg.max_depth, cfg.min_leaf, importance
        )
        scores += cfg.learning_rate * leaf_value.T
        model.rounds.append(round_trees)
    return model
