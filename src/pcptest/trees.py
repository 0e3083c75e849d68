"""Tree ensembles over dummy-coded designs: random forest and gradient boosting.

Both learners split on the binary design columns (the constant column is
never a candidate) and grow their trees one depth level at a time on a
design's distinct rows (``data.DistinctRows``: a dataset's
``distinct_rows``, its share of its root's one compression, or a dense
design compressed on the call).  Records that share a design row share
every split decision, so a few bincounts over (node, active column)
entries (``_entries``) give every node's split histogram, in the manner of
LightGBM's histogram split finding, and every bin is an exact sum, the
same in any order.  A forest tree is grown on a weighted bootstrap
resample, whose integer counts it sums per row and class, and split by
weighted-entropy decrease; the trees grow in groups of bounded size
(``_grow_forest``).  Boosted regression trees fit the weighted negative
gradient of the softmax cross-entropy, one tree per class per round, with
Newton leaf values, on a fixed-point grid; one grower fits one or several
training blocks as a stack, each block's trees bit-identical to its lone
fit's (``_DistinctRows``, ``_grow_round``).

Every tree is kept as its grower leaves it (``_Levels``): per splitting
level, each node's split column (0 at a leaf) and first node at the next
level, and the leaf values of the last level.  A forest's trees are one
such form; a boosting round's class trees are another, shared by the
models of one stack.  One routing function moves rows down the levels, in
both growers and in prediction.  Prediction routes the distinct rows only
and adds the leaf values in tree order, so every bit equals a walk of
each tree over each record; the models of one boosted stack predict in
one routing pass (``predict_stack``).  A model file stores each tree as
nested dicts, written straight from the levels and read straight back.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import DistinctRows, distinct_rows
from .network import PROB_CLIP, _softmax

__all__ = [
    "ForestConfig",
    "BoostConfig",
    "ForestModel",
    "BoostModel",
    "fit_forest",
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


def _entries(active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (row, active column) entries that the growers sum histograms
    over: row r's active columns in column order, column 0 first and
    always, padded to a common width with column 0; and which entries are
    real rather than padding.  A histogram's column 0 is its node's total."""
    inactive = ~active
    inactive[:, 0] = False
    order = np.argsort(inactive, axis=1, kind="stable")[:, : (~inactive).sum(axis=1).max()]
    real = ~np.take_along_axis(inactive, order, axis=1)
    return np.where(real, order, 0), real


@dataclass(frozen=True)
class _Levels:
    """Trees as the level-wise growers leave them: index arrays per level.

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

    @property
    def n_trees(self) -> int:
        return len(self.splits[0][0]) if self.splits else len(self.value)


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


def _concat_levels(parts: Sequence[_Levels]) -> _Levels:
    """The trees of several level forms as one, part after part; a part
    that stops splitting sooner carries its leaves down to the last level."""
    depth = max(len(part.splits) for part in parts)
    split_cols = [
        [split_col for split_col, _ in part.splits]
        + [np.zeros(len(part.value), np.intp)] * (depth - len(part.splits))
        for part in parts
    ]
    splits = tuple((col, _first_child(col)) for col in map(np.concatenate, zip(*split_cols)))
    return _Levels(splits, np.concatenate([part.value for part in parts]))


def _tree_docs(levels: _Levels) -> list[dict]:
    """The trees as a model file stores them, built from the last level up:
    nested dicts, ``{"column", "left", "right"}`` at a split, ``{"value"}``
    at a leaf."""
    nodes = [{"value": value} for value in levels.value.tolist()]
    for split_col, first in reversed(levels.splits):
        nodes = [
            {"column": col, "left": nodes[f], "right": nodes[f + 1]} if col else nodes[f]
            for col, f in zip(split_col.tolist(), first.tolist())
        ]
    return nodes


def _split_column(node: dict, n_cols: int) -> int:
    """A stored node's split column, 0 at a leaf."""
    if "value" in node:
        return 0
    if "column" not in node:
        raise ValueError("a tree node holds neither a value nor a column")
    col = node["column"]
    if type(col) is not int or not 1 <= col < n_cols:
        raise ValueError(f"a tree splits on column {col!r}, outside [1, {n_cols})")
    return col


def _levels_of(trees: Sequence[dict], value_dim: int, n_cols: int) -> _Levels:
    """The level form of stored trees (``_tree_docs``' dicts), read level
    by level.  Raises ValueError where prediction could not route a row:
    no trees, a split column outside [1, n_cols), a leaf value not of
    length value_dim, or a node with neither."""
    if not trees:
        raise ValueError("no trees")
    splits, nodes = [], list(trees)
    while True:
        split_col = np.array([_split_column(node, n_cols) for node in nodes], dtype=np.intp)
        if not split_col.any():
            break
        splits.append((split_col, _first_child(split_col)))
        nodes = [
            child
            for node, col in zip(nodes, split_col.tolist())
            for child in ((node["left"], node["right"]) if col else (node,))
        ]
    if any(len(node["value"]) != value_dim for node in nodes):
        raise ValueError(f"a leaf value is not of length {value_dim}")
    return _Levels(tuple(splits), np.array([node["value"] for node in nodes], dtype=np.float64))


def _entropy_by_column(class_w_cols: np.ndarray) -> np.ndarray:
    """Weighted entropy per column from (n_classes, ...) class masses."""
    totals = class_w_cols.sum(axis=0)
    safe = np.clip(totals, PROB_CLIP, None)
    p = class_w_cols / safe
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(p), 0.0)
    return np.where(totals > 0.0, -terms.sum(axis=0), 0.0)


# A forest grows its trees in groups of at most this many (tree, row,
# class, active column) entries, and prediction routes them in groups of as
# many (tree, row) items; one tree is the least group.  No result depends on
# it.  On one core, default fits on default8 ran as fast at 2^16 to 2^21.
FOREST_GROUP_ENTRIES = 2**17


def _tree_groups(n_trees: int, per_tree: int) -> list[range]:
    """Trees 0 .. n_trees - 1 in consecutive groups of at most
    FOREST_GROUP_ENTRIES // per_tree trees."""
    size = max(1, FOREST_GROUP_ENTRIES // per_tree)
    return [range(start, min(start + size, n_trees)) for start in range(0, n_trees, size)]


@dataclass
class ForestModel:
    levels: _Levels  # tree t's root is node t of level 0
    n_classes: int
    importance: np.ndarray  # raw weighted-entropy decrease per design column

    def predict_probs(self, X: np.ndarray | DistinctRows) -> np.ndarray:
        """A group of trees routes the distinct rows in one pass."""
        rows = _rows_of(X)
        bits, row_bit = _flat_bits(rows.active)
        m, n_trees = len(row_bit), self.levels.n_trees
        acc = np.zeros((m, self.n_classes))
        for group in _tree_groups(n_trees, m):
            root = np.repeat(np.arange(group.start, group.stop), m)
            node = _route(self.levels.splits, root, bits, np.tile(row_bit, len(group)))
            for leaf in node.reshape(len(group), m):
                acc += self.levels.value.take(leaf, axis=0)
        return (acc / n_trees)[rows.inverse]

    def to_doc(self) -> dict:
        return {"trees": _tree_docs(self.levels), "importance": self.importance.tolist()}

    @classmethod
    def from_doc(cls, doc: dict, n_classes: int) -> "ForestModel":
        importance = np.asarray(doc["importance"], dtype=np.float64)
        return cls(_levels_of(doc["trees"], n_classes, len(importance)), n_classes, importance)


def _grow_forest(
    rows: DistinctRows,
    layout: tuple,  # _entries and _flat_bits of rows.active
    labels: np.ndarray,
    p: np.ndarray,
    rngs: list[np.random.Generator],
    cfg: ForestConfig,
    n_classes: int,
    importance: np.ndarray,
) -> _Levels:
    """Grow one classification tree per generator, all of them one depth
    level at a time, and return them in level form.

    Each tree draws its bootstrap resample, then its nodes' candidate
    columns, from its generator.  An item is a (tree, row, class) with
    in-bag records: it weighs its entries by their number and their count
    mass, and two bincounts over (class, node, column) give both for every
    node's column's right side, and in column 0 for the node.  A node below
    max_depth with 2 * min_leaf in-bag records of two classes or more may
    split: in node order, it draws max_features columns, unless that leaves
    none out, and takes the largest entropy decrease above 1e-15 that
    leaves min_leaf in-bag records on each side, ties to the lowest column.
    A node that does not split is a leaf for good.  Gains add to
    ``importance`` tree by tree, so no grouping of the trees changes it.
    """
    m, n_cols = rows.active.shape
    n, g, k = len(labels), len(rngs), n_classes
    entry_cols, entry_real, bits, row_bit = layout
    draws = cfg.max_features is not None and cfg.max_features < n_cols - 1

    resample = np.stack([np.bincount(rng.choice(n, size=n, p=p), minlength=n) for rng in rngs])
    key = ((np.arange(g)[:, None] * k + labels) * m + rows.inverse).reshape(-1)
    in_bag = np.bincount(key, weights=(resample > 0).reshape(-1), minlength=g * k * m)
    mass = np.bincount(key, weights=resample.reshape(-1), minlength=g * k * m)
    item = np.flatnonzero(in_bag)
    tree_class, row = np.divmod(item, m)
    node_of, item_class = np.divmod(tree_class, k)  # tree t's root is node t
    real = entry_real.take(row, axis=0)
    weights = [in_bag.take(item)[:, None] * real, mass.take(item)[:, None] * real]
    cols, item_bit = entry_cols.take(row, axis=0), row_bit.take(row)

    splits, gained = [], []
    tree_of = np.arange(g)  # of each node
    may_split = np.ones(g, dtype=bool)
    for _ in range(cfg.max_depth):
        n_nodes = len(tree_of)
        key = (((item_class * n_nodes + node_of) * n_cols)[:, None] + cols).reshape(-1)
        hist = _histograms(key, weights, k * n_nodes, n_cols).reshape(2, k, n_nodes, n_cols)
        count, right = hist[0].sum(axis=0), hist[1]
        total = right[:, :, 0]  # (k, n_nodes): each node's class masses
        may_split &= (count[:, 0] >= 2 * cfg.min_leaf) & ((total > 0).sum(axis=0) > 1)
        valid = _valid_splits(count, cfg.min_leaf) & may_split[:, None]
        if draws:
            drawn = np.zeros_like(valid)
            for node in np.flatnonzero(may_split).tolist():
                rng = rngs[tree_of[node]]
                drawn[node, rng.choice(n_cols - 1, size=cfg.max_features, replace=False) + 1] = True
            valid &= drawn
        left = total[:, :, None] - right
        gains = (total.sum(axis=0) * _entropy_by_column(total))[:, None] - (
            left.sum(axis=0) * _entropy_by_column(left)
            + right.sum(axis=0) * _entropy_by_column(right)
        )
        gains = np.where(valid, gains, -np.inf)
        best = gains.argmax(axis=1)  # ties go to the lowest column
        best_gain = gains[np.arange(n_nodes), best]
        split = best_gain > 1e-15
        if not split.any():
            break
        split_col = best * split  # 0 marks a leaf
        gained.append((tree_of[split], split_col[split], best_gain[split]))
        splits.append((split_col, _first_child(split_col)))
        node_of = _route(splits[-1:], node_of, bits, item_bit)
        tree_of = np.repeat(tree_of, split + 1)
        may_split = np.repeat(split, split + 1)  # a split's children; never a leaf

    if gained:
        tree, col, gain = (np.concatenate(a) for a in zip(*gained))
        order = np.argsort(tree, kind="stable")
        np.add.at(importance, col[order], gain[order])
    n_nodes = len(tree_of)
    leaf = np.bincount(node_of * k + item_class, weights=mass.take(item), minlength=n_nodes * k)
    leaf = leaf.reshape(n_nodes, k)
    return _Levels(tuple(splits), leaf / leaf.sum(axis=1, keepdims=True))


def fit_forest(
    X: np.ndarray | DistinctRows,
    labels: np.ndarray,
    w: np.ndarray,
    cfg: ForestConfig,
    n_classes: int = 4,
) -> ForestModel:
    """Bootstrap draws record i with probability proportional to w_i; the
    resample multiplicities act as the training weights of each tree, which
    draws from the t-th generator spawned from ``cfg.seed``.  A design is
    dense or its distinct rows."""
    rows = _rows_of(X)
    p = w / w.sum()
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_trees)
    rngs = [np.random.default_rng(seq) for seq in seeds]
    layout = (*_entries(rows.active), *_flat_bits(rows.active))
    # A tree holds its n draws, and entries for at most each (row, class)
    # pair of the records.
    pairs = np.count_nonzero(np.bincount(labels * len(rows.counts) + rows.inverse))
    importance = np.zeros(rows.active.shape[1])
    parts = [
        _grow_forest(
            rows, layout, labels, p, rngs[group.start : group.stop], cfg, n_classes, importance
        )
        for group in _tree_groups(cfg.n_trees, len(labels) + pairs * layout[0].shape[1])
    ]
    return ForestModel(_concat_levels(parts), n_classes, importance)


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

    def predict_probs(self, X: np.ndarray | DistinctRows) -> np.ndarray:
        return predict_stack([self], [X])[0]

    def to_doc(self) -> dict:
        trees = slice(self.root, self.root + self.n_classes)
        return {
            "init_scores": self.init_scores.tolist(),
            "rounds": [_tree_docs(rnd)[trees] for rnd in self.levels],
            "learning_rate": self.learning_rate,
            "importance": self.importance.tolist(),
        }

    @classmethod
    def from_doc(cls, doc: dict, n_classes: int) -> "BoostModel":
        importance = np.asarray(doc["importance"], dtype=np.float64)
        if any(len(rnd) != n_classes for rnd in doc["rounds"]):
            raise ValueError(f"a boosting round holds other than {n_classes} trees")
        return cls(
            np.asarray(doc["init_scores"], dtype=np.float64),
            [_levels_of(rnd, 1, len(importance)) for rnd in doc["rounds"]],
            float(doc["learning_rate"]),
            n_classes,
            importance,
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
    laid out the same way, class-major.  Row r of ``entry_cols`` holds
    row r's ``_entries``, the padding at zero weight.  Every item of row r
    reads that row's entries; only at few entries are the count and W
    entries tiled per item, for one bincount a level.

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

        # Each row's entries; item k * m + r reads row r's.
        active[:, 0] = True
        self.entry_cols, self.entry_real = _entries(active)
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
