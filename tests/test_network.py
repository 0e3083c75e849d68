import math
import multiprocessing
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcptest import network
from pcptest.network import (
    NetworkConfig,
    NetworkTrainingError,
    PROB_CLIP,
    TrainingReport,
    count_parameters,
    fit_softmax_network,
    fit_softmax_networks,
    forward_probs,
    init_params,
    loss_and_gradient,
    param_views,
    weighted_cross_entropy,
    _softmax,
)


def toy_problem(n=200, n_inputs=5, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.integers(0, 2, (n, n_inputs - 1))]).astype(float)
    logits = X @ rng.normal(0, 0.8, (n_inputs, 4))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    labels = np.array([rng.choice(4, p=p) for p in probs])
    w = rng.uniform(0.2, 1.0, n)
    return X, labels, w


def flat_of(params) -> np.ndarray:
    return np.concatenate([a.ravel() for layer in params for a in layer if a is not None])


def views_of(cfg, n_inputs, seed, n_outputs=4):
    flat = init_params(cfg, n_inputs, n_outputs, np.random.default_rng(seed))
    return param_views(flat, cfg, n_inputs, n_outputs)


# ---------------------------------------------------------------------------
# Oracle: the one-config training loop the stacked trainer replaced.  Each
# layer is its own array, the passes run layer by layer on one model, and
# Adam steps layer by layer.  The steps run in ``dtype``; the validation
# loss is taken in float64, as the trainer takes it.


def oracle_init(cfg, n_inputs, n_outputs, rng):
    def glorot(fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    if cfg.depth == 0:
        return [(glorot(n_inputs, n_outputs), None)]
    params = [(glorot(n_inputs, cfg.width), np.zeros(cfg.width))]
    for _ in range(cfg.depth - 1):
        params.append((glorot(cfg.width, cfg.width), np.zeros(cfg.width)))
    params.append((glorot(cfg.width, n_outputs), np.zeros(n_outputs)))
    return params


def oracle_forward(params, X, masks=None):
    h = X
    hiddens = [h]
    for i, (W, b) in enumerate(params[:-1]):
        z = h @ W + b
        h = np.maximum(z, 0.0)
        if masks is not None:
            h = h * masks[i]
        hiddens.append(h)
    W, b = params[-1]
    scores = h @ W if b is None else h @ W + b
    return scores, hiddens


def oracle_softmax(scores):
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_backward(params, hiddens, dscores, masks=None):
    grads = [None] * len(params)
    W, b = params[-1]
    grads[-1] = (hiddens[-1].T @ dscores, None if b is None else dscores.sum(axis=0))
    dh = dscores @ W.T
    for i in range(len(params) - 2, -1, -1):
        if masks is not None:
            dh = dh * masks[i]
        dz = dh * (hiddens[i + 1] > 0.0)
        W, _ = params[i]
        grads[i] = (hiddens[i].T @ dz, dz.sum(axis=0))
        dh = dz @ W.T
    return grads


def oracle_fit(
    X_train, labels_train, w_train, X_val, labels_val, w_val, cfg, n_classes, dtype=np.float32
):
    rng = np.random.default_rng(cfg.seed)
    X_train, w_train = X_train.astype(dtype), w_train.astype(dtype)
    params = [
        (W.astype(dtype), None if b is None else b.astype(dtype))
        for W, b in oracle_init(cfg, X_train.shape[1], n_classes, rng)
    ]
    m = [(np.zeros_like(W), None if b is None else np.zeros_like(b)) for W, b in params]
    v = [(np.zeros_like(W), None if b is None else np.zeros_like(b)) for W, b in params]
    t = 0

    def wide(ps):
        return [(W.astype(np.float64), None if b is None else b.astype(np.float64)) for W, b in ps]

    def adam_step(grads):
        nonlocal t
        t += 1
        bc1 = 1.0 - cfg.beta1**t
        bc2 = 1.0 - cfg.beta2**t
        for i, ((W, b), (gW, gb)) in enumerate(zip(params, grads)):
            for P, g, mm, vv in ((W, gW, m[i][0], v[i][0]), (b, gb, m[i][1], v[i][1])):
                if P is None:
                    continue
                mm *= cfg.beta1
                mm += (1 - cfg.beta1) * g
                vv *= cfg.beta2
                vv += (1 - cfg.beta2) * g**2
                P -= cfg.learning_rate * (mm / bc1) / (np.sqrt(vv / bc2) + cfg.adam_eps)

    report = TrainingReport()
    best_val, best_params, since_best = math.inf, wide(params), 0
    use_dropout = cfg.depth > 0 and cfg.dropout > 0.0
    keep = 1.0 - cfg.dropout
    n_train = len(labels_train)
    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n_train)
        for start in range(0, n_train, cfg.batch_size):
            batch = perm[start : start + cfg.batch_size]
            masks = None
            if use_dropout:
                masks = [
                    ((rng.random((len(batch), cfg.width)) < keep) / keep).astype(dtype)
                    for _ in range(cfg.depth)
                ]
            y, w = labels_train[batch], w_train[batch]
            scores, hiddens = oracle_forward(params, X_train[batch], masks)
            probs = oracle_softmax(scores)
            onehot = np.zeros_like(probs)
            onehot[np.arange(len(y)), y] = 1.0
            dscores = (probs - onehot) * (w / np.sum(w))[:, None]
            adam_step(oracle_backward(params, hiddens, dscores, masks))
        va = weighted_cross_entropy(
            oracle_softmax(oracle_forward(wide(params), X_val)[0]), labels_val, w_val
        )
        if not math.isfinite(va):
            raise NetworkTrainingError(f"non-finite loss at epoch {epoch + 1}")
        report.validation_losses.append(va)
        report.epochs_run = epoch + 1
        if va < best_val:
            best_val, best_params, since_best = va, wide(params), 0
            report.best_epoch = epoch
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return best_params, report


@st.composite
def network_grids(draw):
    """A small design whose train size is not a multiple of the batch size,
    and configs over depths 0-3 and two seeds with mixed dropouts (0
    included, repeats allowed) and small patience, so members stop at
    different epochs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_inputs = draw(st.integers(1, 6))
    batch_size = draw(st.integers(2, 16))
    n_train = draw(st.integers(3, 60).filter(lambda n: n % batch_size != 0))
    n_val = draw(st.integers(1, 20))
    n = n_train + n_val
    X = np.column_stack([np.ones(n), rng.integers(0, 2, (n, n_inputs - 1))]).astype(float)
    labels = rng.integers(0, 4, n)
    w = rng.uniform(0.2, 1.0, n)
    shared = dict(
        batch_size=batch_size,
        max_epochs=draw(st.integers(1, 25)),
        patience=draw(st.integers(1, 3)),
        learning_rate=draw(st.sampled_from([1e-3, 1e-2, 0.1])),
    )
    dropouts = st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.8])
    cfgs = draw(
        st.lists(
            st.builds(
                lambda depth, width, dropout, seed: NetworkConfig(
                    depth=depth, width=width, dropout=dropout, seed=seed, **shared
                ),
                st.integers(0, 3),
                st.integers(1, 5),
                dropouts,
                st.integers(0, 1),
            ),
            min_size=1,
            max_size=8,
        )
    )
    split = (X[:n_train], labels[:n_train], w[:n_train], X[n_train:], labels[n_train:], w[n_train:])
    return split, cfgs


class TestStackedMatchesOracle:
    @given(network_grids())
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bit_identical(self, problem):
        split, cfgs = problem
        params, reports = fit_softmax_networks(*split, cfgs, 4)
        assert len(params) == len(reports) == len(cfgs)
        for cfg, p, r in zip(cfgs, params, reports):
            p_ref, r_ref = oracle_fit(*split, cfg, 4)
            assert len(p) == len(p_ref)
            for (W, b), (W_ref, b_ref) in zip(p, p_ref):
                assert np.array_equal(W, W_ref)
                assert (b is None) == (b_ref is None)
                assert b is None or np.array_equal(b, b_ref)
            assert r.validation_losses == r_ref.validation_losses
            assert r.best_epoch == r_ref.best_epoch
            assert r.epochs_run == r_ref.epochs_run

    def test_members_stop_on_their_own(self):
        X, labels, w = toy_problem(n=130, seed=14)
        split = (X[:100], labels[:100], w[:100], X[100:], labels[100:], w[100:])
        cfgs = [
            NetworkConfig(
                depth=2, width=6, dropout=d / 10, patience=2, max_epochs=80,
                learning_rate=0.02, seed=3,
            )
            for d in range(9)
        ]
        params, reports = fit_softmax_networks(*split, cfgs, 4)
        assert len({r.epochs_run for r in reports}) > 1
        for cfg, p, r in zip(cfgs, params, reports):
            p_ref, r_ref = oracle_fit(*split, cfg, 4)
            assert np.array_equal(flat_of(p), flat_of(p_ref))
            assert r.validation_losses == r_ref.validation_losses

    def test_depth_zero_configs_share_one_fit(self):
        X, labels, w = toy_problem(n=120, seed=15)
        split = (X[:90], labels[:90], w[:90], X[90:], labels[90:], w[90:])
        cfgs = [
            NetworkConfig(depth=0, width=wd, dropout=d, max_epochs=5)
            for wd in (8, 16)
            for d in (0.0, 0.5)
        ]
        params, reports = fit_softmax_networks(*split, cfgs, 4)
        assert all(p is params[0] for p in params)
        assert all(r is reports[0] for r in reports)
        single, _ = fit_softmax_network(*split, cfgs[-1], 4)
        assert np.array_equal(flat_of(params[0]), flat_of(single))

    def test_non_finite_loss_raises(self):
        """The non-finite loss alone reports a diverged member; numpy warns
        of nothing on the way."""
        X, labels, w = toy_problem(n=100, seed=16)
        cfgs = [
            NetworkConfig(depth=1, width=4, max_epochs=3),
            NetworkConfig(depth=1, width=4, dropout=0.5, max_epochs=3, learning_rate=1e300),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NetworkTrainingError, match="non-finite loss at epoch 1"):
                fit_softmax_networks(X, labels, w, X, labels, w, cfgs, 4)


@pytest.fixture
def problem():
    """A train/validation split whose train size is not a multiple of the
    batch size, and a grid over depths 0-3 with and without dropout."""
    X, labels, w = toy_problem(n=190, n_inputs=6, seed=18)
    split = (X[:150], labels[:150], w[:150], X[150:], labels[150:], w[150:])
    cfgs = [
        NetworkConfig(
            depth=depth, width=6, dropout=dropout, batch_size=16, max_epochs=3,
            learning_rate=0.01, seed=4,
        )
        for depth in range(4)
        for dropout in (0.0, 0.3)
    ]
    return split, cfgs


class TestPrecision:
    """The steps run in float32; the losses that decide and the fitted
    parameters are float64."""

    def test_validation_losses_track_the_float64_oracle(self, problem):
        split, cfgs = problem
        _, reports = fit_softmax_networks(*split, cfgs, 4)
        for cfg, r in zip(cfgs, reports):
            _, r_ref = oracle_fit(*split, cfg, 4, dtype=np.float64)
            assert r.epochs_run == r_ref.epochs_run == 3
            np.testing.assert_allclose(r.validation_losses, r_ref.validation_losses, rtol=1e-5)

    def test_steps_are_float32_and_validation_float64(self, problem, monkeypatch, workers):
        workers(1)
        split, cfgs = problem
        n_val = len(split[3])
        seen = []
        forward = network._forward

        def recorded(params, X, dropout_masks=None, **kwargs):
            dtypes = {X.dtype} | {a.dtype for layer in params for a in layer if a is not None}
            if dropout_masks is not None:
                dtypes.add(dropout_masks.dtype)
            scores, hiddens = forward(params, X, dropout_masks, **kwargs)
            seen.append((X.shape[-2] == n_val, dtypes, scores.dtype))
            return scores, hiddens

        monkeypatch.setattr(network, "_forward", recorded)
        params, _ = fit_softmax_networks(*split, cfgs, 4)
        steps = [(d, s) for val, d, s in seen if not val]
        validations = [(d, s) for val, d, s in seen if val]
        # Four stacks, three epochs each, 10 minibatches an epoch.
        assert len(steps) == 4 * 3 * 10 and len(validations) == 4 * 3
        assert all(d == {np.dtype(np.float32)} and s == np.float32 for d, s in steps)
        assert all(d == {np.dtype(np.float64)} and s == np.float64 for d, s in validations)
        for p in params:
            assert all(a.dtype == np.float64 for layer in p for a in layer if a is not None)


class TestPooledGrid:
    """The stacks of a grid are fitted as one worker batch, largest first;
    results do not depend on the grid order or on the worker count."""

    GRID = [
        NetworkConfig(depth=depth, width=width, dropout=dropout, max_epochs=4, seed=2)
        for depth in (0, 1, 2)
        for width in (3, 5)
        for dropout in (0.0, 0.3)
    ]

    def test_grid_order_and_worker_count_do_not_matter(self, workers):
        X, labels, w = toy_problem(n=150, seed=17)
        split = (X[:110], labels[:110], w[:110], X[110:], labels[110:], w[110:])
        fits = []
        for n in (1, 2):
            workers(n)
            for grid in (self.GRID, self.GRID[::-1]):
                params, reports = fit_softmax_networks(*split, grid, 4)
                assert multiprocessing.active_children() == []
                by_config = dict(zip(grid, zip(params, reports)))
                fits.append([by_config[c] for c in self.GRID])
        for fit in fits[1:]:
            for (p, r), (p_ref, r_ref) in zip(fit, fits[0]):
                assert np.array_equal(flat_of(p), flat_of(p_ref))
                assert r == r_ref

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_first_failing_config_in_grid_order_raises(self, workers, n_workers):
        """Every stack diverges; the error names the grid's first config,
        although its stack is the smallest and so submitted last."""
        workers(n_workers)
        X, labels, w = toy_problem(n=100, seed=16)
        grid = [replace(c, learning_rate=math.inf) for c in self.GRID]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NetworkTrainingError,
                match=r"^non-finite loss at epoch 1 \(depth 0\)$",
            ):
                fit_softmax_networks(X, labels, w, X, labels, w, grid, 4)
        assert multiprocessing.active_children() == []


class TestParameterCount:
    def test_depth_zero(self):
        assert count_parameters(NetworkConfig(depth=0), 49) == 49 * 4

    def test_depth_two_width_16(self):
        # 49*16+16 (input) + 16*16+16 (hidden) + 16*4+4 (output) = 1140
        assert count_parameters(NetworkConfig(depth=2, width=16), 49) == 1140

    def test_count_matches_actual_tensors(self):
        for depth, width in [(0, 8), (1, 8), (3, 16)]:
            cfg = NetworkConfig(depth=depth, width=width)
            params = views_of(cfg, 11, 0)
            total = sum(W.size + (0 if b is None else b.size) for W, b in params)
            assert total == count_parameters(cfg, 11)


class TestForward:
    def test_probs_on_simplex(self):
        X, _, _ = toy_problem()
        cfg = NetworkConfig(depth=2, width=8)
        probs = forward_probs(views_of(cfg, X.shape[1], 1), X)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs > 0)

    def test_depth_zero_is_linear_softmax(self):
        X, _, _ = toy_problem(n=50)
        cfg = NetworkConfig(depth=0)
        params = views_of(cfg, X.shape[1], 2)
        probs = forward_probs(params, X)
        scores = X @ params[0][0]
        manual = np.exp(scores - scores.max(axis=1, keepdims=True))
        manual /= manual.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs, manual, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_probs_match_the_kept_pass(self, depth, dtype):
        """Dropping the activations as the pass goes changes no bit: lone
        and stacked parameters, as the validation pass and the steps run."""
        X, _, _ = toy_problem(n=120)
        cfg = NetworkConfig(depth=depth, width=6)
        stacked = np.stack([init_params(cfg, X.shape[1], 4, np.random.default_rng(s)) for s in range(3)])
        X = X.astype(dtype)
        for flat in (stacked[0], stacked):
            params = param_views(flat.astype(dtype), cfg, X.shape[1], 4)
            probs = forward_probs(params, X)
            assert probs.dtype == dtype
            np.testing.assert_array_equal(probs, _softmax(network._forward(params, X)[0]))

    def test_views_alias_the_flat_buffer(self):
        cfg = NetworkConfig(depth=2, width=3)
        flat = init_params(cfg, 5, 4, np.random.default_rng(0))
        params = param_views(flat, cfg, 5, 4)
        assert np.array_equal(flat_of(params), flat)
        assert all(np.shares_memory(a, flat) for layer in params for a in layer)


class TestSoftmax:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        st.sampled_from([(), (1,), (7,), (64,), (300,), (1, 5), (9, 64), (3, 2, 5)]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.1, 5.0, 60.0]),
        st.booleans(),
    )
    def test_bits_match_the_reductions(self, n_classes, lead, seed, scale, ties):
        """Column-by-column max and sum give the reductions' bits, over the
        last axis of 1-D, 2-D and stacked inputs, and over axis 0 of the
        class-major transpose; rounded scores tie for the max."""
        scores = np.random.default_rng(seed).normal(0.0, scale, (*lead, n_classes))
        if ties:
            scores = np.round(scores)
        expected = oracle_softmax(scores)
        np.testing.assert_array_equal(_softmax(scores), expected)
        class_major = np.ascontiguousarray(np.moveaxis(scores, -1, 0))
        np.testing.assert_array_equal(np.moveaxis(_softmax(class_major, axis=0), 0, -1), expected)


class TestLoss:
    def test_weighted_cross_entropy_manual(self):
        probs = np.array([[0.7, 0.1, 0.1, 0.1], [0.25, 0.25, 0.25, 0.25]])
        labels = np.array([0, 3])
        w = np.array([1.0, 0.5])
        expected = -(1.0 * np.log(0.7) + 0.5 * np.log(0.25)) / 1.5
        assert weighted_cross_entropy(probs, labels, w) == pytest.approx(expected, abs=1e-12)

    def test_clip_guards_zero_probability(self):
        probs = np.array([[1.0, 0.0, 0.0, 0.0]])
        v = weighted_cross_entropy(probs, np.array([1]), np.array([1.0]))
        assert v == pytest.approx(-np.log(PROB_CLIP), abs=1e-6)

    def test_weight_scaling_invariance(self):
        X, labels, w = toy_problem(n=60)
        probs = forward_probs(views_of(NetworkConfig(depth=0), X.shape[1], 3), X)
        a = weighted_cross_entropy(probs, labels, w)
        b = weighted_cross_entropy(probs, labels, 7.0 * w)
        assert a == pytest.approx(b, abs=1e-12)


class TestGradient:
    @pytest.mark.parametrize("depth,width,n_inputs", [(0, 16, 3), (1, 2, 2)])
    def test_backprop_matches_finite_differences(self, depth, width, n_inputs):
        """Small instances, at most 20 parameters."""
        cfg = NetworkConfig(depth=depth, width=width)
        rng = np.random.default_rng(4)
        n = 40
        X = np.column_stack([np.ones(n), rng.normal(size=(n, n_inputs - 1))])
        labels = rng.integers(0, 4, n)
        w = rng.uniform(0.2, 1.0, n)
        flat = init_params(cfg, n_inputs, 4, rng)
        assert flat.size <= 20 or depth == 0

        _, g_flat = loss_and_gradient(flat, cfg, X, labels, w)
        h = 1e-6
        fd = np.zeros_like(flat)
        for j in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[j] += h
            dn[j] -= h
            lu, _ = loss_and_gradient(up, cfg, X, labels, w)
            ld, _ = loss_and_gradient(dn, cfg, X, labels, w)
            fd[j] = (lu - ld) / (2 * h)
        rel = np.abs(g_flat - fd) / np.maximum(np.abs(fd), 1e-8)
        assert rel.max() < 1e-4


class TestTraining:
    def test_deterministic(self):
        X, labels, w = toy_problem(n=300)
        cfg = NetworkConfig(depth=1, width=8, dropout=0.2, seed=5, max_epochs=30)
        Xv, lv, wv = X[:60], labels[:60], w[:60]
        p1, r1 = fit_softmax_network(X, labels, w, Xv, lv, wv, cfg, 4)
        p2, r2 = fit_softmax_network(X, labels, w, Xv, lv, wv, cfg, 4)
        assert np.array_equal(flat_of(p1), flat_of(p2))
        assert r1.validation_losses == r2.validation_losses

    def test_seed_changes_result(self):
        X, labels, w = toy_problem(n=300)
        Xv, lv, wv = X[:60], labels[:60], w[:60]
        p1, _ = fit_softmax_network(
            X, labels, w, Xv, lv, wv, NetworkConfig(depth=1, width=8, seed=1, max_epochs=10), 4
        )
        p2, _ = fit_softmax_network(
            X, labels, w, Xv, lv, wv, NetworkConfig(depth=1, width=8, seed=2, max_epochs=10), 4
        )
        assert not np.array_equal(flat_of(p1), flat_of(p2))

    def test_loss_decreases(self):
        X, labels, w = toy_problem(n=500, seed=7)
        cfg = NetworkConfig(depth=0, seed=3, max_epochs=200)
        params, report = fit_softmax_network(X, labels, w, X, labels, w, cfg, 4)
        assert report.validation_losses[report.best_epoch] < report.validation_losses[0]

    def test_early_stopping(self):
        X, labels, w = toy_problem(n=300, seed=8)
        cfg = NetworkConfig(depth=0, seed=3, max_epochs=500, patience=3)
        _, report = fit_softmax_network(X, labels, w, X[:50], labels[:50], w[:50], cfg, 4)
        if report.epochs_run < cfg.max_epochs:
            # Stopped early: no improvement in the last `patience` epochs.
            tail = report.validation_losses[report.best_epoch + 1 :]
            assert len(tail) >= cfg.patience

    def test_best_params_snapshot(self):
        """Returned parameters evaluate to the best recorded validation loss."""
        X, labels, w = toy_problem(n=300, seed=9)
        Xv, lv, wv = X[:80], labels[:80], w[:80]
        cfg = NetworkConfig(depth=1, width=4, seed=6, max_epochs=60)
        params, report = fit_softmax_network(X, labels, w, Xv, lv, wv, cfg, 4)
        val = weighted_cross_entropy(forward_probs(params, Xv), lv, wv)
        assert val == pytest.approx(min(report.validation_losses), abs=1e-10)


class TestValidation:
    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError):
            NetworkConfig(dropout=1.0)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            NetworkConfig(depth=-1)


@given(
    depth=st.integers(min_value=0, max_value=3),
    width=st.integers(min_value=1, max_value=32),
    n_inputs=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=50, deadline=None)
def test_parameter_count_formula_property(depth, width, n_inputs):
    cfg = NetworkConfig(depth=depth, width=width)
    flat = init_params(cfg, n_inputs, 4, np.random.default_rng(0))
    params = param_views(flat, cfg, n_inputs, 4)
    total = sum(W.size + (0 if b is None else b.size) for W, b in params)
    assert total == flat.size == count_parameters(cfg, n_inputs)
