import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcptest.trees import (
    PROB_CLIP,
    BoostConfig,
    BoostModel,
    ForestConfig,
    TreeNode,
    _predict_tree,
    fit_boosted,
    fit_forest,
)


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
    model = BoostModel(init, [], cfg.learning_rate, n_classes, np.zeros(X.shape[1]))
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
            model.predict_probs(X), ref.predict_probs(X), rtol=0.0, atol=1e-9
        )

    def test_same_importance_on_dummy_design(self):
        X, labels, w = design_problem(seed=12)
        cfg = BoostConfig(n_rounds=10, max_depth=3, min_leaf=10)
        np.testing.assert_allclose(
            fit_boosted(X, labels, w, cfg).importance,
            _dense_fit_boosted(X, labels, w, cfg).importance,
            rtol=1e-9,
        )
