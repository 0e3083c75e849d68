"""Tree ensembles over dummy-coded designs: random forest and gradient boosting.

Both learners split on the binary design columns (the constant column is
never a candidate).  Forest trees are grown depth first on weighted
bootstrap resamples from the dense design and split by weighted-entropy
decrease.  Boosted regression trees fit the weighted negative gradient of
the softmax cross-entropy, one tree per class per round, with Newton leaf
values.  One grower fits one or several training blocks on the same design
columns with one config, as a stack: ``fit_boosted`` is its one-block
call.  Boosting and every prediction read a design as its distinct rows
(``data.DistinctRows``): a dataset's ``distinct_rows``, its share of its
root's one compression, or a dense design compressed on the call.
Boosting weighs each row by its record count and per-class weight
masses, and grows the trees of a round together, one depth level at a
time; tree t is the pair (block f, class k), t = f * n_classes + k, so
each block's nodes are contiguous at every level.  A few bincounts over
(node, active column) pairs give every node's split histogram, in the
manner of LightGBM's histogram split finding.  The split search reads each
block's weights and gradient on a fixed-point grid of that block, so
every histogram bin is an exact sum, the same in any order.  At many
distinct rows, a level below the root sums only its right children, the
rows whose split column is active, and takes each left child's histogram
as its parent's less its sibling's (LightGBM's subtraction); at few rows,
it sums every node directly, in fewer numpy calls.  The roots' count and
weight histograms depend on the data alone and are summed once per fit; a
leaf keeps its rows as a node of every later level, so no level gathers
the open rows; the leaf values are the raw gradient's and hessian's sums,
summed at the last level alone.  Each block's trees are therefore
bit-identical to its lone fit's, whichever way each level was summed.

A boosting round is kept as the grower leaves it: for each splitting
level, the split column of every node at that level (0 at a leaf) and the
node's first node at the next level, and the leaf values of the last
level; the models of one stack share these arrays, each reading its own
trees.  One routing function moves rows down those levels, a take and an
add per array and level, in the grower and in prediction alike; a forest
turns each of its trees into the same form once.  Prediction routes the
distinct rows only; the sums are added in the order of the trees and
scattered back to the records, so every bit equals a walk of each tree
over each record.  The models of one stack predict together
(``predict_stack``; ``predict_probs`` is its one-model call): the
distinct rows of all of them are concatenated, and each round routes
every item of every model, tree by row, in one call; each score adds the
same leaf values in the same order as its model alone, so every model's
probabilities are its own, bit for bit.  ``TreeNode`` stays the stored
form of a tree: ``BoostModel.rounds`` builds it from the levels on first
read, and ``from_doc`` turns it back into levels.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .data import DistinctRows, distinct_rows
from .network import PROB_CLIP, _softmax

__all__ = [
    "ForestConfig",
    "BoostConfig",
    "TreeNode",
    "ForestModel",
    "BoostModel",
    "fit_forest",
    "fit_boosted",
    "fit_boosted_many",
    "predict_stack",
]


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
        if self.max_features is not None and self.max_features < 1:
            raise ValueError("max_features must be None or >= 1")


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


def _rows_of(design: np.ndarray | DistinctRows) -> DistinctRows:
    """A design's distinct rows: given, as a dataset's ``distinct_rows``, or
    compressed here from a dense design."""
    return design if isinstance(design, DistinctRows) else distinct_rows(design)


def _flat_bits(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n_cols) active pattern as ``_route`` reads it, as a flat
    copy, and the first bit of each row.  Column 0 never splits, so it is
    cleared: a leaf (split column 0) routes its rows on to its own node at
    the next level."""
    m, n_cols = active.shape
    bits = active.astype(np.uint8)
    bits[:, 0] = 0
    return bits.reshape(-1), np.arange(0, m * n_cols, n_cols)


@dataclass(frozen=True)
class _Levels:
    """Trees as the level-wise grower leaves them: index arrays per level.

    For each splitting level, ``splits`` holds the split column of every
    node at that level, 0 at a leaf, and the node's first node at the next
    level.  A split's children are that node and the next one, the right
    child taking the rows whose column is active; a leaf is carried on as
    one node of the next level, so after the last level every row stands at
    its leaf and reads its row of ``value``.  Tree t's root is node t of
    level 0.
    """

    splits: tuple[tuple[np.ndarray, np.ndarray], ...]  # per level: (split column, first child)
    value: np.ndarray  # (nodes of the last level, value_dim)


def _first_child(split_col: np.ndarray) -> np.ndarray:
    """Each node's first node at the next level: a split has two, a leaf one."""
    width = (split_col > 0) + 1
    first = width.cumsum()
    first -= width
    return first


def _route(
    splits: Sequence[tuple[np.ndarray, np.ndarray]],
    node: np.ndarray,
    bits: np.ndarray,
    item_bit: np.ndarray,
) -> np.ndarray:
    """The node of every item after the given levels.  Item i starts at
    ``node[i]`` and reads bit ``item_bit[i] + column`` of ``bits``."""
    for split_col, first in splits:
        at = split_col.take(node)
        at += item_bit
        node = first.take(node)
        node += bits.take(at)
    return node


def _levels_of(trees: list[TreeNode]) -> _Levels:
    """The level form of TreeNode trees, read level by level."""
    splits, nodes = [], list(trees)
    while not all(node.is_leaf() for node in nodes):
        if any(not node.is_leaf() and node.column < 1 for node in nodes):
            raise ValueError("a tree splits on column 0, the constant column")
        split_col = np.array([0 if node.is_leaf() else node.column for node in nodes])
        splits.append((split_col, _first_child(split_col)))
        nodes = [
            child
            for node in nodes
            for child in ((node,) if node.is_leaf() else (node.left, node.right))
        ]
    return _Levels(tuple(splits), np.array([node.value for node in nodes]))


def _trees_of(levels: _Levels) -> list[TreeNode]:
    """The TreeNode roots of trees in level form, built from the last level up."""
    nodes = [TreeNode(value=value) for value in levels.value]
    for split_col, first in reversed(levels.splits):
        nodes = [
            TreeNode(column=col, left=nodes[f], right=nodes[f + 1]) if col else nodes[f]
            for col, f in zip(split_col.tolist(), first.tolist())
        ]
    return nodes


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

    @cached_property
    def _levels(self) -> list[_Levels]:
        return [_levels_of([tree]) for tree in self.trees]

    def predict_probs(self, X: np.ndarray | DistinctRows) -> np.ndarray:
        rows = _rows_of(X)
        bits, row_bit = _flat_bits(rows.active)
        root = np.zeros(len(row_bit), dtype=np.intp)
        acc = np.zeros((len(row_bit), self.n_classes))
        for tree in self._levels:
            acc += tree.value.take(_route(tree.splits, root, bits, row_bit), axis=0)
        return (acc / len(self.trees))[rows.inverse]

    def to_doc(self) -> dict:
        return {
            "trees": [t.to_dict() for t in self.trees],
            "importance": self.importance.tolist(),
        }

    @classmethod
    def from_doc(cls, doc: dict, n_classes: int) -> "ForestModel":
        return cls(
            [TreeNode.from_dict(t) for t in doc["trees"]],
            n_classes,
            np.asarray(doc["importance"], dtype=np.float64),
        )


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
    # Per round, the class trees of this model and of any fitted in one
    # stack with it; this model's tree k is tree root + k.
    levels: list[_Levels]
    learning_rate: float
    n_classes: int
    importance: np.ndarray
    root: int = 0

    @cached_property
    def rounds(self) -> list[list[TreeNode]]:
        """Per round, one TreeNode tree per class: the stored form."""
        trees = slice(self.root, self.root + self.n_classes)
        return [_trees_of(rnd)[trees] for rnd in self.levels]

    def predict_probs(self, X: np.ndarray | DistinctRows) -> np.ndarray:
        return predict_stack([self], [X])[0]

    def to_doc(self) -> dict:
        return {
            "init_scores": self.init_scores.tolist(),
            "rounds": [[t.to_dict() for t in rnd] for rnd in self.rounds],
            "learning_rate": self.learning_rate,
            "importance": self.importance.tolist(),
        }

    @classmethod
    def from_doc(cls, doc: dict, n_classes: int) -> "BoostModel":
        return cls(
            np.asarray(doc["init_scores"], dtype=np.float64),
            [_levels_of([TreeNode.from_dict(t) for t in rnd]) for rnd in doc["rounds"]],
            float(doc["learning_rate"]),
            n_classes,
            np.asarray(doc["importance"], dtype=np.float64),
        )


# Above this many entries, the grower sums only the right children's
# histograms below the root, and takes each left child's as its parent's
# less its sibling's; at fewer, fewer numpy calls sum every node's.  The
# two sides run at the same speed near 4096 entries (one core).
SUBTRACT_MIN_ENTRIES = 4096


class _DistinctRows:
    """The distinct rows of several training blocks, with the (item, active
    column) entries that the level-wise grower sums its histograms over.

    Records that share a design row share every split decision and every
    score, so a boosting round needs only each row's record count, total
    weight W and per-class weight masses M: its gradient and hessian sums
    are M_k - W p_k and W p_k (1 - p_k).  The blocks' distinct rows are
    concatenated, block after block; m counts them all.  Tree
    t = f * n_classes + k is class k's tree of block f, so the trees of one
    block, and their nodes at every level, are contiguous.  The trees of a
    round are grown together; item k * m + r stands for row r in class k's
    tree of r's block.  M, the scores, the gradient and the hessian are
    laid out the same way, class-major.  Row r of ``entry_cols`` holds row r's active columns,
    column 0 first and always, padded to a common width with column 0 at
    zero weight: a histogram's column 0 is its node's total.  Every item
    of row r reads that row's entries; only at few entries are the count
    and W entries tiled per item, for one bincount a level.

    The split search reads W and the gradient on a fixed-point grid of
    their block: multiples of 2^-k, with 2^(51 - k) above the block's total
    weight.  Every partial sum of a histogram bin is then a multiple of
    2^-k below 2^(53 - k), so it is exact in any order: a bin has the same
    bits whether it adds its entries directly, in any order, or is a
    parent's bin less its sibling's.  Columns that cut a node the same way
    tie exactly, and each block's splits are those of its lone fit.

    The root of every tree holds all rows of its block, so its count and W
    histograms depend on the data alone, and so do the splits that leave
    min_leaf records on each side.  They are summed here once per block
    and shared by the roots of all rounds.
    """

    def __init__(
        self,
        blocks: Sequence[tuple[DistinctRows, np.ndarray, np.ndarray]],
        n_classes: int,
        min_leaf: int,
    ):
        W, M = [], []
        for rows, labels, w in blocks:
            m = len(rows.counts)
            W.append(np.bincount(rows.inverse, weights=w, minlength=m))
            M.append(
                np.bincount(
                    labels * m + rows.inverse, weights=w, minlength=n_classes * m
                ).reshape(n_classes, m)
            )
        sizes = [len(rows.counts) for rows, _, _ in blocks]
        self.block = np.repeat(np.arange(len(blocks)), sizes)  # of each row
        active = np.concatenate([rows.active for rows, _, _ in blocks])  # (m, n_cols)
        counts = np.concatenate([rows.counts for rows, _, _ in blocks]).astype(np.float64)
        m, n_cols = active.shape
        self.m, self.n_classes, self.n_cols = m, n_classes, n_cols
        self.n_blocks, self.min_leaf = len(blocks), min_leaf
        self.W, self.M = np.concatenate(W), np.concatenate(M, axis=1)
        total = np.bincount(self.block, weights=self.W, minlength=self.n_blocks)
        self.scale = np.ldexp(1.0, 51 - np.frexp(total)[1]).take(self.block)  # 2^k of each row

        # Each row's active columns in column order, column 0 first, and
        # their entries; item k * m + r reads row r's.
        active[:, 0] = True
        order = np.argsort(~active, axis=1, kind="stable")[:, : active.sum(axis=1).max()]
        self.entry_real = np.take_along_axis(active, order, axis=1)  # False: padding
        self.entry_cols = np.where(self.entry_real, order, 0)
        self.entry_count = counts[:, None] * self.entry_real
        self.entry_W = self.quantize(self.W)[:, None] * self.entry_real

        # The roots: tree f * n_classes + k is node f * n_classes + k of level 0.
        self.root_block = np.repeat(np.arange(self.n_blocks), n_classes)
        self.root_node = (self.block * n_classes + np.arange(n_classes)[:, None]).reshape(-1)
        self.subtract = n_classes * self.entry_real.size > SUBTRACT_MIN_ENTRIES
        if self.subtract:  # the roots' gradient sums are matrix products
            self.design = active.astype(np.float64)
            ends = np.cumsum(sizes)
            self.block_rows = [slice(end - size, end) for end, size in zip(ends, sizes)]
        else:  # every item's count and W entries, for one bincount a level
            self.item_count, self.item_W = (
                np.tile(a, (n_classes, 1)) for a in (self.entry_count, self.entry_W)
            )
            self.root_key = self.entry_keys(self.root_node, self.entry_cols)
        block_key = self.entry_keys(self.block, self.entry_cols)
        block_hist = _histograms(block_key, [self.entry_count, self.entry_W], self.n_blocks, n_cols)
        self.root_hist = np.repeat(block_hist, n_classes, axis=1)  # count and W, per tree
        self.root_valid = _valid_splits(self.root_hist[0], min_leaf)
        self.bits, row_bit = _flat_bits(active)
        self.item_bit = np.tile(row_bit, n_classes)

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """x (..., m) rounded to each row's block's grid."""
        return np.rint(x * self.scale) / self.scale

    def root_sums(self, x: np.ndarray) -> np.ndarray:
        """The (n_blocks * n_classes, n_cols) sums of x (n_classes, m) over
        each root's rows with each column active, one matrix product per
        block; exact for x on the grid."""
        return np.concatenate([x[:, rows] @ self.design[rows] for rows in self.block_rows])

    def entry_keys(self, node: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The histogram bin, node * n_cols + column, of every entry of the
        items at the given nodes, whose columns are ``cols``: a row of cols
        per item, or per row when ``node`` holds every item."""
        return ((node.reshape(-1, len(cols)) * self.n_cols)[..., None] + cols).reshape(-1)


def _histograms(
    key: np.ndarray, weights: Sequence[np.ndarray], n_nodes: int, n_cols: int
) -> np.ndarray:
    """The (len(weights), n_nodes, n_cols) sums of each weight over the
    entries' bins."""
    sums = [np.bincount(key, weights=w.reshape(-1), minlength=n_nodes * n_cols) for w in weights]
    return np.concatenate(sums).reshape(len(weights), n_nodes, n_cols)


def _valid_splits(n_r: np.ndarray, min_leaf: int) -> np.ndarray:
    """The (node, column) splits that leave min_leaf records on each side,
    from the record counts of each column's right side.  Column 0, the
    node's own count, leaves no record on the left."""
    return (n_r >= min_leaf) & (n_r <= (n_r[:, 0] - min_leaf)[:, None])


def _grow_round(
    rows: _DistinctRows,
    grad: np.ndarray,  # (n_classes, m) summed negative gradient M_k - W p_k
    hess: np.ndarray,  # (n_classes, m) summed hessian W p_k (1 - p_k)
    max_depth: int,
    importance: np.ndarray,  # (n_blocks * n_cols,): each block's row, flat
) -> tuple[_Levels, np.ndarray]:
    """Grow one regression tree per block and class, all trees one depth
    level at a time; return the trees in level form and the
    (n_classes, m) leaf value of every row.

    Each tree fits grad/w by weighted least-squares splits and its leaves
    take the Newton step sum(grad) / sum(hess).  Weighted SSE reduction
    reduces to S_R^2/W_R + S_L^2/W_L - S^2/W with S = sum(grad) and
    W = sum(w); record counts serve ``rows.min_leaf``.  The split search
    reads W and the gradient on the grids of ``rows``, so its sums are
    exact.  For all nodes of a level, three bincounts over the key
    (node * n_cols + column) give the count, W and S of every candidate
    column's right side, and in column 0 the node's own.  The root's count
    and W histograms come from ``rows``.  At many entries, the roots' S
    histograms are one matrix product per block, and below the root only
    the right children, the items whose split column is active, are
    summed: each left child is its parent less its sibling, and a leaf
    keeps its parent's sums.

    A leaf stays a node of every later level, with its rows, so every item
    always has a node and no pass gathers the open ones; its exact sums,
    and so its gains, repeat at each later level, so it never splits
    there.  The leaf values
    are the raw gradient's and hessian's sums, read once, at the last
    level; a node sums its items in item order, so a leaf value has the
    bits of a lone fit's.  A block whose trees stop splitting keeps its
    leaves, one node each, while the other blocks grow on, so its trees
    are those of its lone fit, each leaf carried down to the last level.
    Splits add their gains to their block's row of ``importance`` in node
    order, as in a lone fit.
    """
    n_cols, min_leaf = rows.n_cols, rows.min_leaf
    q = rows.quantize(grad)
    if not rows.subtract:
        entry_grad = q[..., None] * rows.entry_real  # every item's entries, once a round
    splits = []
    row_of_node = rows.root_block * n_cols  # each node's block, as its first entry of importance
    node_of = rows.root_node

    for depth in range(max_depth):
        n_nodes = len(row_of_node)
        if depth == 0:  # the root's counts and weights depend on the data alone
            if rows.subtract:
                S_r = rows.root_sums(q)[None]
            else:
                S_r = _histograms(rows.root_key, [entry_grad], n_nodes, n_cols)
            hist = np.concatenate([rows.root_hist, S_r])
            valid = rows.root_valid
        else:
            if rows.subtract:
                hist = _subtracted(rows, hist, split, splits[-1][1], node_of, q.reshape(-1))
            else:
                key = rows.entry_keys(node_of, rows.entry_cols)
                hist = _histograms(key, [rows.item_count, rows.item_W, entry_grad], n_nodes, n_cols)
            valid = _valid_splits(hist[0], min_leaf)
        if not valid.any():
            break

        W_r, S_r = hist[1], hist[2]
        W, S = W_r[:, 0], S_r[:, 0]
        gains = (
            S_r**2 / np.maximum(W_r, PROB_CLIP)
            + (S[:, None] - S_r) ** 2 / np.maximum(W[:, None] - W_r, PROB_CLIP)
            - (S**2 / W)[:, None]
        )
        gains = np.where(valid, gains, -np.inf)
        best = gains.argmax(axis=1)  # ties go to the lowest column
        best_gain = gains[np.arange(n_nodes), best]
        split = best_gain > 1e-12
        if not split.any():
            break
        split_col = best * split  # 0 marks a leaf
        np.add.at(importance, row_of_node[split] + split_col[split], best_gain[split])
        splits.append((split_col, _first_child(split_col)))
        node_of = _route(splits[-1:], node_of, rows.bits, rows.item_bit)
        row_of_node = np.repeat(row_of_node, split + 1)

    # The level the loop stopped at holds every leaf.
    n_nodes = len(row_of_node)
    S = np.bincount(node_of, weights=grad.reshape(-1), minlength=n_nodes)
    H = np.bincount(node_of, weights=hess.reshape(-1), minlength=n_nodes)
    values = S / np.maximum(H, PROB_CLIP)
    leaf_value = values.take(node_of).reshape(rows.n_classes, rows.m)
    return _Levels(tuple(splits), values[:, None]), leaf_value


def _subtracted(
    rows: _DistinctRows,
    parent: np.ndarray,
    split: np.ndarray,
    first: np.ndarray,
    node_of: np.ndarray,
    item_grad: np.ndarray,
) -> np.ndarray:
    """The count, W and S histograms of a level's nodes from those of the
    level above (``parent``): each right child's summed over its items,
    each left child's as its parent's less its sibling's, and each leaf's
    its parent's."""
    left = first[split]
    right = left + 1
    is_right = np.zeros(len(first) + len(right), dtype=bool)
    is_right[right] = True
    items = np.flatnonzero(is_right.take(node_of))
    item_rows = items % rows.m
    key = rows.entry_keys(node_of.take(items), rows.entry_cols.take(item_rows, axis=0))
    weights = [a.take(item_rows, axis=0) for a in (rows.entry_count, rows.entry_W)]
    weights.append(item_grad.take(items)[:, None] * rows.entry_real.take(item_rows, axis=0))
    direct = _histograms(key, weights, len(is_right), rows.n_cols)[:, right]
    hist = np.repeat(parent, split + 1, axis=1)
    hist[:, right] = direct
    hist[:, left] -= direct
    return hist


def fit_boosted_many(
    blocks: Sequence[tuple[np.ndarray | DistinctRows, np.ndarray, np.ndarray]],
    cfg: BoostConfig,
    n_classes: int = 4,
) -> list[BoostModel]:
    """The boosted models of several training blocks, (design, labels,
    weights) each, on the same design columns, grown as one stack: each
    round grows the class trees of every block together, one depth level
    at a time, and the models share the rounds' level arrays.  A design is
    dense or its distinct rows.  Every block's trees, importances and
    predictions are bit for bit those of its lone fit."""
    blocks = [(_rows_of(X), labels, w) for X, labels, w in blocks]
    n_cols = blocks[0][0].active.shape[1]
    importance = np.zeros(len(blocks) * n_cols)
    models = []
    for f, (_, labels, w) in enumerate(blocks):
        class_w = np.bincount(labels, weights=w, minlength=n_classes)
        init = np.log(np.clip(class_w / class_w.sum(), PROB_CLIP, None))
        block_importance = importance[f * n_cols : (f + 1) * n_cols]
        models.append(
            BoostModel(init, [], cfg.learning_rate, n_classes, block_importance, f * n_classes)
        )
    if cfg.learning_rate == 0.0:
        return models

    rows = _DistinctRows(blocks, n_classes, cfg.min_leaf)
    rest = rows.W - rows.M  # weight of each row's records in the other classes
    init = np.stack([model.init_scores for model in models], axis=1)  # (n_classes, n_blocks)
    scores = init.take(rows.block, axis=1)  # (n_classes, m), like M
    for _ in range(cfg.n_rounds):
        probs = _softmax(scores, axis=0)
        q = 1.0 - probs
        # M - W p written as M (1 - p) - (W - M) p: with p near 1 the first
        # form loses the gradient to cancellation, while this one rounds
        # like the per-record sum of w (y - p).
        grad = rows.M * q - rest * probs
        hess = rows.W * probs * q
        levels, leaf_value = _grow_round(rows, grad, hess, cfg.max_depth, importance)
        scores += cfg.learning_rate * leaf_value
        for model in models:
            model.levels.append(levels)
    return models


def fit_boosted(
    X: np.ndarray | DistinctRows,
    labels: np.ndarray,
    w: np.ndarray,
    cfg: BoostConfig,
    n_classes: int = 4,
) -> BoostModel:
    """The boosted model of one training block: ``fit_boosted_many`` of it alone."""
    (model,) = fit_boosted_many([(X, labels, w)], cfg, n_classes)
    return model


def predict_stack(
    models: Sequence[BoostModel], designs: Sequence[np.ndarray | DistinctRows]
) -> list[np.ndarray]:
    """The class probabilities of ``designs[i]`` under ``models[i]``, for
    models of one stack: they share their rounds' level arrays and their
    learning rate.  Each design's distinct rows are concatenated, model
    after model, so every round routes every item of every model in one
    ``_route`` call.  Item c * m + r stands for row r in class c's tree of
    r's model, and each score adds the same leaf values in the same order
    as a model alone would: the probabilities are bit for bit each model's
    own."""
    first = models[0]
    for model in models:
        if (
            model.learning_rate != first.learning_rate
            or model.n_classes != first.n_classes
            or len(model.levels) != len(first.levels)
            or any(a is not b for a, b in zip(model.levels, first.levels))
        ):
            raise ValueError("predict_stack reads the models of one stack")
    rows = [_rows_of(X) for X in designs]
    sizes = [len(r.counts) for r in rows]
    k, m = first.n_classes, sum(sizes)
    scores = np.repeat(
        np.stack([model.init_scores for model in models], axis=1), sizes, axis=1
    )  # (n_classes, m)
    if first.learning_rate != 0.0:
        bits, row_bit = _flat_bits(np.concatenate([r.active for r in rows]))
        row_root = np.repeat([model.root for model in models], sizes)
        root = (row_root + np.arange(k)[:, None]).reshape(-1)
        item_bit = np.tile(row_bit, k)
        for rnd in first.levels:
            node = _route(rnd.splits, root, bits, item_bit)
            scores += first.learning_rate * rnd.value.take(node, axis=0).reshape(k, m)
    probs = np.split(_softmax(scores, axis=0).T, np.cumsum(sizes)[:-1])
    return [p[r.inverse] for p, r in zip(probs, rows)]
