import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcptest.data import default_schema, distinct_rows, encode_rows, one_hot_encode
from pcptest.learners import _block, load_model, save_model
from pcptest.network import _softmax, forward_probs
from pcptest import trees
from pcptest.synth import RhoSpec, SyntheticDGP, WeightLaw, sample_dataset
from pcptest.trees import (
    PROB_CLIP,
    BoostConfig,
    BoostModel,
    ForestConfig,
    ForestModel,
    TreeNode,
    _levels_of,
    fit_boosted,
    fit_boosted_many,
    fit_forest,
    predict_stack,
)


# ---------------------------------------------------------------------------
# Reference prediction: every tree walked over every record, node by node.
# The models route distinct design rows through the trees' level arrays
# instead, and must give the same bits.


@dataclass
class TreeRounds:
    """A boosted model as rounds of TreeNode trees, as the walk reads it."""

    init_scores: np.ndarray
    rounds: list
    learning_rate: float
    n_classes: int
    importance: np.ndarray


def _first_leaf(node):
    while not node.is_leaf():
        node = node.left
    return node


def _predict_tree(node, X):
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


def oracle_boosted_probs(model, X):
    scores = np.tile(model.init_scores, (X.shape[0], 1))
    if model.learning_rate != 0.0:
        for round_trees in model.rounds:
            for k, tree in enumerate(round_trees):
                scores[:, k] += model.learning_rate * _predict_tree(tree, X)[:, 0]
    return _softmax(scores)


def oracle_forest_probs(model, X):
    acc = np.zeros((X.shape[0], model.n_classes))
    for tree in model.trees:
        acc += _predict_tree(tree, X)
    return acc / len(model.trees)


def design_problem(n=600, n_cols=6, seed=0, n_classes=4):
    """Dummy-style design: constant column plus binary columns."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.integers(0, 2, (n, n_cols - 1))]).astype(float)
    logits = X @ rng.normal(0, 1.0, (n_cols, n_classes))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(n_classes, p=p) for p in probs])
    w = rng.uniform(0.3, 1.0, n)
    return X, labels, w


def collect_leaves(node, depth=0, sizes=None):
    if sizes is None:
        sizes = []
    if node.is_leaf():
        sizes.append(depth)
    else:
        collect_leaves(node.left, depth + 1, sizes)
        collect_leaves(node.right, depth + 1, sizes)
    return sizes


class TestTreeNode:
    def test_dict_roundtrip(self):
        tree = TreeNode(
            column=2,
            left=TreeNode(value=np.array([0.1, 0.9])),
            right=TreeNode(
                column=1,
                left=TreeNode(value=np.array([0.5, 0.5])),
                right=TreeNode(value=np.array([0.8, 0.2])),
            ),
        )
        restored = TreeNode.from_dict(tree.to_dict())
        X = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        np.testing.assert_array_equal(_predict_tree(tree, X), _predict_tree(restored, X))

    def test_predict_routes_on_column(self):
        tree = TreeNode(
            column=1,
            left=TreeNode(value=np.array([1.0, 0.0])),
            right=TreeNode(value=np.array([0.0, 1.0])),
        )
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        out = _predict_tree(tree, X)
        np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 1.0]])


class TestForest:
    def test_predictions_on_simplex(self):
        X, labels, w = design_problem()
        model = fit_forest(X, labels, w, ForestConfig(n_trees=20, seed=1))
        probs = model.predict_probs(X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_deterministic(self):
        X, labels, w = design_problem()
        cfg = ForestConfig(n_trees=10, seed=3)
        p1 = fit_forest(X, labels, w, cfg).predict_probs(X)
        p2 = fit_forest(X, labels, w, cfg).predict_probs(X)
        np.testing.assert_array_equal(p1, p2)

    def test_separable_data_learned(self):
        """Labels fully determined by two binary columns."""
        rng = np.random.default_rng(5)
        n = 800
        X = np.column_stack([np.ones(n), rng.integers(0, 2, (n, 2))]).astype(float)
        labels = (2 * X[:, 1] + X[:, 2]).astype(int)
        w = np.ones(n)
        model = fit_forest(
            X, labels, w, ForestConfig(n_trees=30, max_depth=4, min_leaf=5, max_features=None, seed=2)
        )
        probs = model.predict_probs(X)
        assert np.array_equal(probs.argmax(axis=1), labels)
        assert probs[np.arange(n), labels].min() > 0.9

    def test_max_depth_respected(self):
        X, labels, w = design_problem(n_cols=10)
        model = fit_forest(X, labels, w, ForestConfig(n_trees=5, max_depth=3, seed=4))
        for tree in model.trees:
            assert max(collect_leaves(tree)) <= 3

    def test_importance_skips_constant_column(self):
        X, labels, w = design_problem()
        model = fit_forest(X, labels, w, ForestConfig(n_trees=10, seed=6))
        assert model.importance[0] == 0.0
        assert model.importance.sum() > 0.0
        assert len(model.importance) == X.shape[1]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ForestConfig(n_trees=0)
        with pytest.raises(ValueError):
            ForestConfig(min_leaf=0)


class TestBoosted:
    def test_zero_learning_rate_gives_class_frequencies(self):
        X, labels, w = design_problem()
        model = fit_boosted(X, labels, w, BoostConfig(n_rounds=5, learning_rate=0.0))
        probs = model.predict_probs(X[:3])
        class_w = np.bincount(labels, weights=w, minlength=4)
        expected = class_w / class_w.sum()
        np.testing.assert_allclose(probs, np.tile(expected, (3, 1)), atol=1e-12)
        assert model.rounds == []

    def test_loss_improves_over_rounds(self):
        X, labels, w = design_problem(seed=7)
        losses = []
        for rounds in (1, 10, 40):
            model = fit_boosted(
                X, labels, w, BoostConfig(n_rounds=rounds, max_depth=3, min_leaf=10)
            )
            probs = model.predict_probs(X)
            picked = probs[np.arange(len(labels)), labels]
            losses.append(-np.sum(w * np.log(picked)) / w.sum())
        assert losses[2] < losses[1] < losses[0]

    def test_newton_leaf_value_single_split(self):
        """One round, depth 1: the leaf value equals sum(grad)/sum(hess)
        within the leaf, where grad = w(y-p) and hess = w p(1-p) at the
        class-frequency initialization."""
        rng = np.random.default_rng(8)
        n = 400
        X = np.column_stack([np.ones(n), rng.integers(0, 2, n)]).astype(float)
        labels = rng.integers(0, 4, n)
        w = rng.uniform(0.5, 1.0, n)
        model = fit_boosted(X, labels, w, BoostConfig(n_rounds=1, max_depth=1, min_leaf=5))
        class_w = np.bincount(labels, weights=w, minlength=4)
        p0 = class_w / class_w.sum()
        tree0 = model.rounds[0][0]
        if tree0.is_leaf():
            idx = np.arange(n)
            grad = w * ((labels == 0) - p0[0])
            hess = w * p0[0] * (1 - p0[0])
            assert tree0.value[0] == pytest.approx(grad.sum() / hess.sum(), abs=1e-12)
        else:
            right = X[:, tree0.column] > 0.5
            for side, mask in ((tree0.left, ~right), (tree0.right, right)):
                grad = w[mask] * ((labels[mask] == 0) - p0[0])
                hess = w[mask] * p0[0] * (1 - p0[0])
                assert side.value[0] == pytest.approx(grad.sum() / hess.sum(), abs=1e-12)

    def test_deterministic(self):
        X, labels, w = design_problem(seed=9)
        cfg = BoostConfig(n_rounds=15, max_depth=3)
        p1 = fit_boosted(X, labels, w, cfg).predict_probs(X)
        p2 = fit_boosted(X, labels, w, cfg).predict_probs(X)
        np.testing.assert_array_equal(p1, p2)

    def test_separable_data_learned(self):
        rng = np.random.default_rng(10)
        n = 800
        X = np.column_stack([np.ones(n), rng.integers(0, 2, (n, 2))]).astype(float)
        labels = (2 * X[:, 1] + X[:, 2]).astype(int)
        model = fit_boosted(
            X, labels, np.ones(n), BoostConfig(n_rounds=100, max_depth=3, min_leaf=5)
        )
        probs = model.predict_probs(X)
        assert np.array_equal(probs.argmax(axis=1), labels)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoostConfig(n_rounds=0)
        with pytest.raises(ValueError):
            BoostConfig(learning_rate=-0.1)


class TestMinLeaf:
    def test_forest_leaf_sizes(self):
        """Every split leaves at least min_leaf in-bag records per side."""
        rng = np.random.default_rng(11)
        n = 300
        X = np.column_stack([np.ones(n), rng.integers(0, 2, (n, 4))]).astype(float)
        labels = rng.integers(0, 4, n)
        w = np.ones(n)
        min_leaf = 40
        model = fit_forest(
            X, labels, w, ForestConfig(n_trees=5, max_depth=6, min_leaf=min_leaf, max_features=None, seed=1)
        )

        def check(node, idx, Xb):
            if node.is_leaf():
                return
            right = Xb[idx, node.column] > 0.5
            assert right.sum() >= 1 and (~right).sum() >= 1
            check(node.left, idx[~right], Xb)
            check(node.right, idx[right], Xb)

        # The in-bag sample differs per tree; verify on the full data the
        # weaker property that no routing produces an empty side.
        for tree in model.trees:
            check(tree, np.arange(n), X)


# ---------------------------------------------------------------------------
# Reference boosting: every node gathers its records' dense design columns
# and grows each class tree on its own, depth first.  fit_boosted must grow
# the same trees from distinct rows and level-wise histograms.


def _dense_regression_tree(X, grad, hess, w, max_depth, min_leaf, importance):
    candidates = np.arange(1, X.shape[1])

    def leaf(idx):
        return TreeNode(value=np.array([grad[idx].sum() / max(hess[idx].sum(), PROB_CLIP)]))

    def grow(idx, depth):
        if depth >= max_depth or len(idx) < 2 * min_leaf:
            return leaf(idx)
        Xc = X[np.ix_(idx, candidates)]
        n_right = Xc.sum(axis=0)
        valid = (n_right >= min_leaf) & (len(idx) - n_right >= min_leaf)
        if not valid.any():
            return leaf(idx)
        W = w[idx].sum()
        S = grad[idx].sum()
        W_r = w[idx] @ Xc
        S_r = grad[idx] @ Xc
        gains = (
            S_r**2 / np.clip(W_r, PROB_CLIP, None)
            + (S - S_r) ** 2 / np.clip(W - W_r, PROB_CLIP, None)
            - S**2 / W
        )
        gains = np.where(valid, gains, -np.inf)
        best = int(np.argmax(gains))
        if gains[best] <= 1e-12:
            return leaf(idx)
        best_col = int(candidates[best])
        importance[best_col] += gains[best]
        right = X[idx, best_col] > 0.5
        return TreeNode(
            column=best_col,
            left=grow(idx[~right], depth + 1),
            right=grow(idx[right], depth + 1),
        )

    return grow(np.arange(X.shape[0]), 0)


def _dense_fit_boosted(X, labels, w, cfg, n_classes=4):
    n = X.shape[0]
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), labels] = 1.0
    class_w = np.bincount(labels, weights=w, minlength=n_classes)
    init = np.log(np.clip(class_w / class_w.sum(), PROB_CLIP, None))
    model = TreeRounds(init, [], cfg.learning_rate, n_classes, np.zeros(X.shape[1]))
    scores = np.tile(init, (n, 1))
    for _ in range(cfg.n_rounds):
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        round_trees = []
        for k in range(n_classes):
            grad = w * (onehot[:, k] - probs[:, k])
            hess = w * probs[:, k] * (1.0 - probs[:, k])
            tree = _dense_regression_tree(
                X, grad, hess, w, cfg.max_depth, cfg.min_leaf, model.importance
            )
            scores[:, k] += cfg.learning_rate * _predict_tree(tree, X)[:, 0]
            round_trees.append(tree)
        model.rounds.append(round_trees)
    return model


def assert_same_tree(tree, ref, X, idx):
    """Same splits and leaf values on the records idx.  The split columns
    must be equal, except where the two columns cut the node's records into
    the same or complementary sides: their gains are then equal in exact
    arithmetic, and rounding decides which one the reference takes; tree
    itself must take the lowest of the columns that cut the node the same
    way.  Leaf values are Newton steps whose hessian sums can be tiny, so
    they are compared relative to their size."""
    if ref.is_leaf():
        assert tree.is_leaf()
        np.testing.assert_allclose(tree.value, ref.value, rtol=1e-9, atol=1e-9)
        return
    assert not tree.is_leaf()
    right = X[idx, ref.column] > 0.5
    tree_right = X[idx, tree.column] > 0.5
    lower = X[np.ix_(idx, np.arange(1, tree.column))] > 0.5
    assert not (lower == tree_right[:, None]).all(axis=0).any()
    if np.array_equal(tree_right, right):
        pairs = ((tree.left, ref.left), (tree.right, ref.right))
    else:
        assert np.array_equal(tree_right, ~right), (tree.column, ref.column)
        pairs = ((tree.right, ref.left), (tree.left, ref.right))
    assert_same_tree(*pairs[0], X, idx[~right])
    assert_same_tree(*pairs[1], X, idx[right])


@st.composite
def boosting_problems(draw):
    """A binary design with duplicated rows, in shuffled record order.
    Weights come from a drawn seed: shrunk hypothesis floats repeat
    values, which makes gains of different splits tie exactly, and
    such ties are broken by rounding in both growers."""
    n_cols = draw(st.integers(2, 7))
    n_distinct = draw(st.integers(1, 16))
    bits = st.lists(st.booleans(), min_size=n_cols - 1, max_size=n_cols - 1)
    patterns = np.array(draw(st.lists(bits, min_size=n_distinct, max_size=n_distinct)), dtype=float)
    reps = draw(st.lists(st.integers(1, 12), min_size=n_distinct, max_size=n_distinct))
    rows = np.repeat(patterns.reshape(n_distinct, n_cols - 1), reps, axis=0)
    n = len(rows)
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.uniform(0.2, 1.0, n)
    perm = rng.permutation(n)
    X = np.column_stack([np.ones(n), rows])[perm]
    cfg = BoostConfig(
        n_rounds=draw(st.integers(1, 5)),
        max_depth=draw(st.integers(1, 4)),
        min_leaf=draw(st.integers(1, 30)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
    )
    return X, labels[perm], w, cfg


class TestBoostedMatchesDenseGrower:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(boosting_problems())
    def test_same_trees_and_predictions(self, problem):
        X, labels, w, cfg = problem
        model = fit_boosted(X, labels, w, cfg)
        ref = _dense_fit_boosted(X, labels, w, cfg)
        assert len(model.rounds) == len(ref.rounds)
        for round_trees, ref_trees in zip(model.rounds, ref.rounds):
            for tree, ref_tree in zip(round_trees, ref_trees):
                assert_same_tree(tree, ref_tree, X, np.arange(len(X)))
        np.testing.assert_allclose(
            model.predict_probs(X), oracle_boosted_probs(ref, X), rtol=0.0, atol=1e-9
        )

    def test_same_importance_on_dummy_design(self):
        X, labels, w = design_problem(seed=12)
        cfg = BoostConfig(n_rounds=10, max_depth=3, min_leaf=10)
        np.testing.assert_allclose(
            fit_boosted(X, labels, w, cfg).importance,
            _dense_fit_boosted(X, labels, w, cfg).importance,
            rtol=1e-9,
        )


# ---------------------------------------------------------------------------
# Routing through level arrays against the node-by-node walk, bit for bit.


@st.composite
def prediction_designs(draw):
    """A binary design with a constant column, in shuffled record order:
    either every row distinct or rows repeated, from one record up."""
    n_cols = draw(st.integers(2, 8))
    distinct = draw(st.booleans())
    patterns = np.array(
        draw(
            st.lists(
                st.integers(0, 2 ** (n_cols - 1) - 1), min_size=1, max_size=24, unique=distinct
            )
        )
    )
    reps = 1 if distinct else draw(st.integers(1, 6))
    bits = (patterns[:, None] >> np.arange(n_cols - 1)) & 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.permutation(np.repeat(bits, reps, axis=0))
    return np.column_stack([np.ones(len(rows)), rows]).astype(float), rng


def random_tree(rng, depth, n_cols, value_dim):
    """A tree of at most the given depth; depth 0 is a lone leaf."""
    if depth == 0 or rng.random() < 0.2:
        return TreeNode(value=rng.normal(size=value_dim))
    return TreeNode(
        column=int(rng.integers(1, n_cols)),
        left=random_tree(rng, depth - 1, n_cols, value_dim),
        right=random_tree(rng, depth - 1, n_cols, value_dim),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 80), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_distinct_rows_in_lexicographic_order(n_cols, n, seed):
    """The same rows, order and record mapping as np.unique over the rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 2, (n, n_cols)).astype(float)
    X[rng.integers(n)] = X[rng.integers(n)]
    rows, inverse, counts = distinct_rows(X)
    ref, ref_inverse, ref_counts = np.unique(
        X > 0.5, axis=0, return_inverse=True, return_counts=True
    )
    np.testing.assert_array_equal(rows, ref)
    np.testing.assert_array_equal(inverse, ref_inverse.reshape(-1))
    np.testing.assert_array_equal(counts, ref_counts)


class TestFlatEvaluatorMatchesWalk:
    @settings(max_examples=100, deadline=None)
    @given(
        prediction_designs(),
        st.integers(0, 6),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.1, 1.0]),
    )
    def test_random_trees(self, design, max_depth, n_trees, learning_rate):
        X, rng = design
        n_cols = X.shape[1]
        rounds = [
            [random_tree(rng, max_depth, n_cols, 1) for _ in range(4)] for _ in range(n_trees)
        ]
        walked = TreeRounds(rng.normal(size=4), rounds, learning_rate, 4, np.zeros(n_cols))
        boosted = BoostModel(
            walked.init_scores, [_levels_of(r) for r in rounds], learning_rate, 4, walked.importance
        )
        forest = ForestModel(
            [random_tree(rng, max_depth, n_cols, 4) for _ in range(n_trees)], 4, np.zeros(n_cols)
        )
        np.testing.assert_array_equal(boosted.predict_probs(X), oracle_boosted_probs(walked, X))
        np.testing.assert_array_equal(forest.predict_probs(X), oracle_forest_probs(forest, X))
        # The rounds view gives back the trees the levels were read from.
        assert [[t.to_dict() for t in r] for r in boosted.rounds] == [
            [t.to_dict() for t in r] for r in rounds
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        prediction_designs(),
        st.integers(1, 6),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.1, 1.0]),
    )
    def test_fitted_models(self, design, max_depth, min_leaf, learning_rate):
        """A min_leaf above half the records leaves every tree a lone leaf."""
        X, rng = design
        labels = rng.integers(0, 4, len(X))
        w = rng.uniform(0.2, 1.0, len(X))
        boosted = fit_boosted(
            X, labels, w, BoostConfig(3, max_depth, min_leaf, learning_rate)
        )
        forest = fit_forest(X, labels, w, ForestConfig(3, max_depth, min_leaf, None, seed=1))
        for Z in (X, X[:1]):
            np.testing.assert_array_equal(boosted.predict_probs(Z), oracle_boosted_probs(boosted, Z))
            np.testing.assert_array_equal(forest.predict_probs(Z), oracle_forest_probs(forest, Z))

    @settings(max_examples=40, deadline=None)
    @given(prediction_designs(), st.integers(1, 5), st.integers(1, 20))
    def test_rounds_view_round_trips(self, design, max_depth, min_leaf):
        """A fitted model's rounds view, written out and read back, gives the
        grower's level arrays and predicts the same bits."""
        X, rng = design
        labels = rng.integers(0, 4, len(X))
        w = rng.uniform(0.2, 1.0, len(X))
        model = fit_boosted(X, labels, w, BoostConfig(4, max_depth, min_leaf, 0.5))
        restored = BoostModel.from_doc(json.loads(json.dumps(model.to_doc())), 4)
        assert restored.to_doc() == model.to_doc()
        for grown, read in zip(model.levels, restored.levels, strict=True):
            assert len(grown.splits) == len(read.splits)
            for arrays, read_arrays in zip(grown.splits, read.splits):
                for a, b in zip(arrays, read_arrays, strict=True):
                    np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(grown.value, read.value)
        for Z in (X, X[:1]):
            np.testing.assert_array_equal(restored.predict_probs(Z), model.predict_probs(Z))

    def test_constant_column_never_splits(self):
        leaf = TreeNode(value=np.array([0.5]))
        with pytest.raises(ValueError, match="column 0"):
            _levels_of([TreeNode(column=0, left=leaf, right=leaf)])

    @pytest.mark.parametrize("kind", ["boosted", "forest", "network"])
    def test_stored_model_file(self, kind, small_dataset, tmp_path):
        """A stored model.json of each family loads, predicts the bits of the
        reference evaluation (tree walks; the forward pass over the stored
        layers), and is written back byte for byte."""
        path = Path(__file__).parent / "data" / f"{kind}_model.json"
        model = load_model(str(path), small_dataset.schema)
        assert model.kind == kind
        X = one_hot_encode(small_dataset)
        oracle = {
            "boosted": oracle_boosted_probs,
            "forest": oracle_forest_probs,
            "network": lambda net, X: forward_probs(net.layers, X),
        }[kind]
        np.testing.assert_array_equal(
            model.predict_quads(small_dataset), oracle(model.predictor, X)
        )
        save_model(model, str(tmp_path / "model.json"))
        assert (tmp_path / "model.json").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# Fitted bits, pinned.  The digests were recorded from the grower that
# searched splits on fixed-point sums, by histogram subtraction at many
# entries; any change to a split, a leaf value's summation order or an
# importance gain shows up here.


def _default8_sample(n: int):
    """A sample of the 8-feature default schema's DGP (acceptance criterion
    10's), whose design rows are nearly all distinct."""
    schema = default_schema()
    rng = np.random.default_rng(0)
    ncols = schema.n_design_columns
    dgp = SyntheticDGP(
        schema,
        tuple(tuple(1.0 / len(codes) for _ in codes) for _, codes in schema.features),
        np.concatenate([[-0.4], rng.uniform(-0.3, 0.3, ncols - 1)]),
        np.concatenate([[-1.5], rng.uniform(-0.3, 0.3, ncols - 1)]),
        RhoSpec("constant", value=0.0),
        WeightLaw(),
    )
    return sample_dataset(dgp, n, seed=3)[0]


PINNED_FITS = {
    # case: (sample, config, labels, (model digest, importance digest)); the
    # labels are the 4-way (c, r) class, or c alone for a 2-class fit.
    "default8": (
        "default8",
        BoostConfig(n_rounds=12, max_depth=3),
        "cr",
        (
            "a9eb71d706b22b09388af215c075e044f7777879b1b716dcecf420f8ee247aa0",
            "64679ede8bac54f2daa9aab9ba57f03efddd83255c6a64e51f51980ba6092153",
        ),
    ),
    "12-cell": (
        "12-cell",
        BoostConfig(n_rounds=80, max_depth=4, min_leaf=10, learning_rate=0.5),
        "cr",
        (
            "af422ffaade553cdddbf4649e03efbe6920bd80eff64d27662987c12857a1999",
            "34f979882fed772bf7ce455da4b85a7d5ec6eb46d166c598d09beed338be9106",
        ),
    ),
    "early-leaves": (  # leaves at depths 3 to 6
        "default8",
        BoostConfig(n_rounds=4, max_depth=6, min_leaf=5),
        "cr",
        (
            "773d7e8e6ea62565d52bad72dfed9c457c432db45469093439e7b06a99294ad2",
            "1029d81016a27fdbd63cc7fdfebc696c7d368400790d4e1a13150f418f509e20",
        ),
    ),
    "stumps": (
        "default8",
        BoostConfig(n_rounds=10, max_depth=1),
        "cr",
        (
            "0eacf34a0289401ed10c24cdbf01dfa4677b32da322d87812e1fb47871c4eda0",
            "f4fdab08d30f8861acd4bb7419b601f0fb4aec71ada1ef5cb726fd2b9d1c9b36",
        ),
    ),
    "target-c": (
        "default8",
        BoostConfig(n_rounds=8, max_depth=3),
        "c",
        (
            "797a252042f4380bd840cd46f25e8ee0dd510cf3e14d242551b2bebe63e1f214",
            "3540a25ea6a90ac916bda143d9d076bee13252d786366037f4976c54ea7c5661",
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_FITS))
def test_fit_boosted_bits_are_pinned(case, small_dataset):
    sample, cfg, labels, digests = PINNED_FITS[case]
    d = _default8_sample(2000) if sample == "default8" else small_dataset
    if labels == "cr":
        model = fit_boosted(*_block(d), cfg)
    else:
        X, _, w = _block(d)
        model = fit_boosted(X, d.c, w, cfg, n_classes=2)
    doc = json.dumps(model.to_doc(), sort_keys=True).encode()
    got = (hashlib.sha256(doc).hexdigest(), hashlib.sha256(model.importance.tobytes()).hexdigest())
    assert got == digests


# ---------------------------------------------------------------------------
# Stacked fits: several blocks grown by one fit_boosted_many call, each bit
# for bit its lone fit_boosted.


@st.composite
def stacked_problems(draw):
    """1 to 6 training blocks on shared design columns, with one config and
    class count.  Rows repeat within and across blocks; a block may hold a
    single distinct row, or too few records to split, so its trees stop at
    the root while the others grow on."""
    n_cols = draw(st.integers(2, 7))
    n_classes = draw(st.sampled_from([2, 4]))
    cfg = BoostConfig(
        n_rounds=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(1, 4)),
        min_leaf=draw(st.integers(1, 20)),
        learning_rate=draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
    )
    shared = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 2, (8, n_cols - 1))
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        patterns = shared[: draw(st.integers(1, 8))]  # rows shared with the other blocks
        reps = rng.integers(1, draw(st.integers(1, 12)) + 1, len(patterns))
        rows = np.repeat(patterns, reps, axis=0)
        n = len(rows)
        perm = rng.permutation(n)
        X = np.column_stack([np.ones(n), rows])[perm].astype(float)
        blocks.append((X, rng.integers(0, n_classes, n), rng.uniform(0.2, 1.0, n)))
    return blocks, cfg, n_classes


def assert_same_model(model, lone, designs):
    """The same stored trees, importance bytes and predicted bits."""
    doc = json.dumps(model.to_doc(), sort_keys=True)
    assert doc == json.dumps(lone.to_doc(), sort_keys=True)
    assert model.importance.tobytes() == lone.importance.tobytes()
    for X in designs:
        assert model.predict_probs(X).tobytes() == lone.predict_probs(X).tobytes()


class TestStackedFits:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stacked_problems())
    def test_each_block_is_its_lone_fit(self, problem):
        blocks, cfg, n_classes = problem
        models = fit_boosted_many(blocks, cfg, n_classes)
        assert len(models) == len(blocks)
        designs = [X for X, _, _ in blocks]
        for model, block in zip(models, blocks):
            assert_same_model(model, fit_boosted(*block, cfg, n_classes), designs)

    def test_blocks_stop_at_different_depths(self, small_dataset):
        """A block of one distinct row stops at the root, a small one
        early and a large one at max_depth, within one stack."""
        X, labels, w = _block(small_dataset)
        one_row = np.flatnonzero((X == X[0]).all(axis=1))
        subsets = (one_row, np.arange(30), np.arange(3000))
        blocks = [(X[idx], labels[idx], w[idx]) for idx in subsets]
        cfg = BoostConfig(n_rounds=6, max_depth=4, min_leaf=10, learning_rate=0.5)
        models = fit_boosted_many(blocks, cfg)
        lone = [fit_boosted(*block, cfg) for block in blocks]
        depths = [max(len(rnd.splits) for rnd in model.levels) for model in lone]
        assert depths[0] == 0 and 0 < depths[1] < depths[2] == 4
        for model, lone_model in zip(models, lone):
            assert_same_model(model, lone_model, [X])


# ---------------------------------------------------------------------------
# Histogram subtraction: below the root, a large problem sums only the
# right children's histograms and takes each left child's as its parent's
# less its sibling's.  Small problems sum every node directly; the bound is
# lowered here so that the subtraction runs on them too.


def _direct_sums(rows, node_of, item_grad, n_nodes):
    """Each node's count, W and S histograms, summed over its items in
    reverse item order, through the dense design rows; item k * m + r
    has row r's count and W."""
    weights = (
        np.tile(rows.entry_count[:, 0], rows.n_classes),
        np.tile(rows.entry_W[:, 0], rows.n_classes),
        item_grad,
    )
    sums = np.zeros((3, n_nodes, rows.n_cols))
    for node in range(n_nodes):
        items = np.flatnonzero(node_of == node)[::-1]
        design = rows.design[items % rows.m]
        for i, w in enumerate(weights):
            sums[i, node] = (w[items][:, None] * design).sum(axis=0)
    return sums


class TestHistogramSubtraction:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stacked_problems())
    def test_subtracted_bins_are_direct_sums(self, problem):
        """Every bin of every node below the root, the left children's
        taken by subtraction included, is bit for bit the direct sum of the
        gridded values in another order."""
        blocks, cfg, n_classes = problem
        levels = []

        def recorded(rows, parent, split, first, node_of, item_grad):
            hist = subtracted(rows, parent, split, first, node_of, item_grad)
            levels.append((rows, node_of, item_grad, hist))
            return hist

        subtracted = trees._subtracted
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "SUBTRACT_MIN_ENTRIES", 0)
            mp.setattr(trees, "_subtracted", recorded)
            fit_boosted_many(blocks, cfg, n_classes)
        for rows, node_of, item_grad, hist in levels:
            np.testing.assert_array_equal(
                hist, _direct_sums(rows, node_of, item_grad, hist.shape[1])
            )

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stacked_problems())
    def test_each_block_is_its_lone_fit_either_way(self, problem):
        """With subtraction on, each block of a stack is its lone fit, and
        both are the fits that sum every node directly."""
        blocks, cfg, n_classes = problem
        designs = [X for X, _, _ in blocks]
        direct = fit_boosted_many(blocks, cfg, n_classes)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees, "SUBTRACT_MIN_ENTRIES", 0)
            models = fit_boosted_many(blocks, cfg, n_classes)
            lone = [fit_boosted(*block, cfg, n_classes) for block in blocks]
        for model, lone_model, direct_model in zip(models, lone, direct):
            assert_same_model(model, lone_model, designs)
            assert_same_model(model, direct_model, designs)


# ---------------------------------------------------------------------------
# Stacked prediction: the models of one stack route all their rows at once,
# and each model's probabilities are bit for bit its own predict_probs.


@st.composite
def stacked_predictions(draw):
    """A stacked problem and one design per block to predict: random rows
    on the same columns, most of them absent from every training block."""
    blocks, cfg, n_classes = draw(stacked_problems())
    n_cols = blocks[0][0].shape[1]
    designs = []
    for _ in blocks:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(1, 40))
        designs.append(np.column_stack([np.ones(n), rng.integers(0, 2, (n, n_cols - 1))]))
    return blocks, cfg, n_classes, designs


class TestStackedPrediction:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stacked_predictions())
    def test_each_model_predicts_its_own_bits(self, problem):
        blocks, cfg, n_classes, designs = problem
        models = fit_boosted_many(blocks, cfg, n_classes)
        stacked = predict_stack(models, designs)
        assert len(stacked) == len(models)
        for model, X, probs in zip(models, designs, stacked):
            lone = model.predict_probs(X)
            assert probs.shape == lone.shape == (len(X), n_classes)
            assert probs.tobytes() == lone.tobytes()
        # Any subset of a stack, in any order, is a stack too.
        reverse = predict_stack(models[::-1], designs[::-1])
        assert [p.tobytes() for p in reverse] == [p.tobytes() for p in stacked[::-1]]

    def test_models_of_different_stacks_are_refused(self, small_dataset):
        block = _block(small_dataset)
        cfg = BoostConfig(n_rounds=2, max_depth=2)
        (a, b), (c,) = fit_boosted_many([block, block], cfg), fit_boosted_many([block], cfg)
        assert len(predict_stack([a, b], [block[0], block[0]])) == 2
        with pytest.raises(ValueError, match="one stack"):
            predict_stack([a, c], [block[0], block[0]])


# ---------------------------------------------------------------------------
# Shared compression: a dataset's blocks read their distinct rows from the
# root's one compression.  Fits and predictions from that form are bit for
# bit those from each block's own dense design.


class TestSharedCompression:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(["small", "default8"]), st.integers(0, 2**32 - 1))
    def test_fits_and_predictions_read_either_form(self, small_dataset, sample, seed):
        """Nested subsets of a 12-cell dataset (few rows: every node
        summed) and of a default8 sample (nearly all rows distinct:
        histogram subtraction): stacked and lone boosted fits, forest fits
        and every prediction are the same bits from the shared rows as from
        the dense designs."""
        d = small_dataset if sample == "small" else _default8_sample(1500)
        rng = np.random.default_rng(seed)
        outer = d.take(rng.choice(d.n, d.n * 3 // 4, replace=False))
        subsets = [d, outer, outer.take(rng.choice(outer.n, outer.n // 2, replace=False))]
        dense = [(encode_rows(s.schema, s.covariates), s.class_labels(), s.w) for s in subsets]
        shared = [(s.distinct_rows(), labels, w) for s, (_, labels, w) in zip(subsets, dense)]
        cfg = BoostConfig(n_rounds=3, max_depth=3, min_leaf=5, learning_rate=0.5)
        stacks = fit_boosted_many(dense, cfg), fit_boosted_many(shared, cfg)
        for f, (from_dense, from_shared) in enumerate(zip(*stacks)):
            assert_same_model(from_shared, from_dense, [])
            assert_same_model(fit_boosted(*shared[f], cfg), from_dense, [])
        for models in stacks:
            probs = [predict_stack(models, [X for X, _, _ in blocks]) for blocks in (dense, shared)]
            assert [p.tobytes() for p in probs[0]] == [p.tobytes() for p in probs[1]]
        forest = fit_forest(*dense[1], ForestConfig(n_trees=3, max_depth=3, min_leaf=5, seed=seed))
        for (X, _, _), (rows, _, _) in zip(dense, shared):
            assert forest.predict_probs(rows).tobytes() == forest.predict_probs(X).tobytes()
