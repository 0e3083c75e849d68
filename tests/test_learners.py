import re
from pathlib import Path

import numpy as np
import pytest

from conftest import constant_model_loss, groupings
from pcptest import learners as L
from pcptest.data import (
    CategoricalSchema,
    DataError,
    Dataset,
    FoldAssignment,
    SplitPlan,
    make_folds,
    split,
)
from pcptest.learners import (
    KINDS,
    ClassifierModel,
    HyperoptReport,
    cross_entropy_loss,
    cross_fit_predict,
    cross_fit_units,
    default_grid,
    feature_group_importance,
    hyperopt,
    impurity_importance,
    load_model,
    predict_many,
    save_model,
    stacks,
    train_any,
    train_many,
)
from pcptest.network import NetworkConfig
from pcptest.trees import BoostConfig, ForestConfig

FAST_NET = NetworkConfig(depth=0, max_epochs=30, seed=0)
FAST_FOREST = ForestConfig(n_trees=10, max_depth=3, seed=0)
FAST_BOOST = BoostConfig(n_rounds=10, max_depth=2, seed=0)
PLAN = SplitPlan((0.7, 0.15, 0.15))

# Per family, two candidates (a, b) of the selection contract.  The network
# pair trains identically at depth 0, so its losses tie and the tie key
# (less dropout) must pick b; the tree pairs differ in loss.
CONTRACT_PAIRS = {
    "network": (
        NetworkConfig(depth=0, dropout=0.5, max_epochs=10, seed=0),
        NetworkConfig(depth=0, max_epochs=10, seed=0),
    ),
    "forest": (ForestConfig(n_trees=5, max_depth=2, seed=0), FAST_FOREST),
    "boosted": (BoostConfig(n_rounds=5, max_depth=1, seed=0), FAST_BOOST),
}


class TestTraining:
    def test_network_predicts_simplex(self, small_dataset):
        tr, va, te = split(small_dataset, SplitPlan((0.7, 0.15, 0.15)))
        model = train_any(tr, FAST_NET, va)
        probs = model.predict_quads(te)
        assert probs.shape == (te.n, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)

    def test_networks_beat_constant_model(self, small_dataset):
        tr, va, te = split(small_dataset, SplitPlan((0.7, 0.15, 0.15)))
        model = train_any(tr, NetworkConfig(depth=0, max_epochs=200, seed=1), va)
        assert cross_entropy_loss(model, te) < constant_model_loss(te)

    def test_train_any_dispatch(self, small_dataset):
        assert train_any(small_dataset, FAST_NET).kind == "network"
        assert train_any(small_dataset, FAST_FOREST).kind == "forest"
        assert train_any(small_dataset, FAST_BOOST).kind == "boosted"
        with pytest.raises(DataError):
            train_any(small_dataset, object())

    def test_schema_mismatch_rejected(self, small_dataset, small_schema):
        from pcptest.data import CategoricalSchema, Dataset

        model = train_any(small_dataset, FAST_FOREST)
        other_schema = CategoricalSchema((("a", (0, 1, 2, 3)), ("z", (0, 1, 2))))
        other = Dataset(
            other_schema,
            small_dataset.covariates.copy(),
            small_dataset.c.copy(),
            small_dataset.r.copy(),
            small_dataset.w.copy(),
        )
        with pytest.raises(DataError):
            model.predict_quads(other)

    def test_constant_model_loss_is_entropy(self, small_dataset):
        labels = small_dataset.class_labels()
        w = small_dataset.w
        p = np.bincount(labels, weights=w, minlength=4) / w.sum()
        assert constant_model_loss(small_dataset) == pytest.approx(
            -(p * np.log(p)).sum(), abs=1e-12
        )


class TestCrossFit:
    def test_shape_and_simplex(self, small_dataset):
        folds = make_folds(small_dataset, 3, seed=0)
        probs = cross_fit_predict(small_dataset, FAST_BOOST, folds)
        assert probs.shape == (small_dataset.n, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)

    def test_held_out_fold_unused(self, small_dataset):
        """Predictions for fold k must not change when fold k's labels do."""
        folds = make_folds(small_dataset, 3, seed=1)
        probs = cross_fit_predict(small_dataset, FAST_FOREST, folds)
        held = folds.fold_indices(0)
        from pcptest.data import Dataset

        c2 = small_dataset.c.copy()
        c2[held] = 1 - c2[held]
        flipped = Dataset(
            small_dataset.schema,
            small_dataset.covariates.copy(),
            c2,
            small_dataset.r.copy(),
            small_dataset.w.copy(),
        )
        probs2 = cross_fit_predict(flipped, FAST_FOREST, folds)
        np.testing.assert_array_equal(probs[held], probs2[held])

    def test_deterministic(self, small_dataset):
        folds = make_folds(small_dataset, 3, seed=2)
        p1 = cross_fit_predict(small_dataset, FAST_NET, folds)
        p2 = cross_fit_predict(small_dataset, FAST_NET, folds)
        np.testing.assert_array_equal(p1, p2)


class TestHyperopt:
    def test_network_selection_and_ties(self, small_dataset):
        grid = [
            NetworkConfig(depth=0, max_epochs=20, seed=0),
            NetworkConfig(depth=1, width=4, max_epochs=20, seed=0),
        ]
        report = hyperopt(small_dataset, grid, PLAN)
        assert report.selected_index == int(np.argmin(report.test_losses))
        assert report.selected is grid[report.selected_index]
        assert report.selected_loss == min(report.test_losses)

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_selection_contract(self, small_dataset, kind):
        """One protocol for every family: a repeated candidate repeats its
        loss, and the least (loss, tie key, position) wins, so the repeats
        never do.  Every candidate trains on the plan's train block and is
        scored on its test block."""
        family = KINDS[kind]
        a, b = CONTRACT_PAIRS[kind]
        grid = [a, b, a, b]
        report = hyperopt(small_dataset, grid, PLAN)
        losses = report.test_losses
        assert losses[:2] == losses[2:]
        n_inputs = small_dataset.schema.n_design_columns
        keys = [
            (loss, *family.tie_key(cfg, n_inputs), i)
            for i, (cfg, loss) in enumerate(zip(grid, losses))
        ]
        assert report.selected_index == min(keys)[-1] < 2
        if kind == "network":  # equal losses: the tie key picks b, with less dropout
            assert losses[0] == losses[1] and report.selected_index == 1
        d_train, d_val, d_test = split(small_dataset, PLAN)
        for cfg, loss in zip(grid, losses):
            assert loss == cross_entropy_loss(train_any(d_train, cfg, d_val), d_test)

    def test_mixed_families_rejected(self, small_dataset):
        """A grid searches one family: a mix is an input error, whichever
        family comes first."""
        for grid in ([FAST_NET, FAST_BOOST], [FAST_BOOST, FAST_NET], [FAST_FOREST, FAST_BOOST]):
            with pytest.raises(DataError, match="one learner family"):
                hyperopt(small_dataset, grid, PLAN)

    def test_empty_grid_rejected(self, small_dataset):
        with pytest.raises(DataError):
            hyperopt(small_dataset, [], PLAN)

    def test_default_grids_sizes(self):
        """Each default grid is the nested loop over its axes, in loop order,
        which fixes the tie-breaks and the rows of candidates.csv."""
        network = [
            NetworkConfig(depth=depth, width=width, dropout=tenths / 10.0, seed=3)
            for depth in (0, 1, 2, 3)
            for width in (8, 16, 24)
            for tenths in range(0, 9)
        ]
        forest = [
            ForestConfig(n_trees=500, max_depth=depth, min_leaf=leaf, max_features=feats, seed=3)
            for depth in (3, 5, 7)
            for leaf in (5, 10, 20)
            for feats in (3, 5, 10)
        ]
        boosted = [
            BoostConfig(n_rounds=500, max_depth=depth, min_leaf=leaf, learning_rate=rate, seed=3)
            for depth in (2, 4, 6)
            for leaf in (10, 20, 50)
            for rate in (0.01, 0.1, 0.3)
        ]
        assert len(network) == 108 and len(forest) == len(boosted) == 27
        assert default_grid(NetworkConfig, seed=3) == network
        assert default_grid(ForestConfig, seed=3) == forest
        assert default_grid(BoostConfig, seed=3) == boosted
        # overrides reach every candidate
        fast = default_grid(NetworkConfig, max_epochs=7)
        assert all(cfg.max_epochs == 7 for cfg in fast)
        assert all(cfg.n_rounds == 2 for cfg in default_grid(BoostConfig, n_rounds=2))
        with pytest.raises(DataError, match="^the default grid searches max_depth, which"):
            default_grid(BoostConfig, max_depth=3)
        with pytest.raises(DataError, match="searches max_depth, learning_rate, which"):
            default_grid(BoostConfig, learning_rate=0.5, max_depth=3)


class TestImportance:
    def test_retrain_importance(self, small_dataset):
        deltas, full = feature_group_importance(small_dataset, FAST_BOOST, PLAN)
        assert deltas["None"] == 0.0
        assert set(deltas) == {"None", "a", "b"}
        # The full-feature model is the one fitted on the plan's train block.
        d_train, _, d_test = split(small_dataset, PLAN)
        refit = train_any(d_train, FAST_BOOST)
        np.testing.assert_array_equal(full.predict_quads(d_test), refit.predict_quads(d_test))

    def test_impurity_importance_sums_to_one(self, small_dataset):
        model = train_any(small_dataset, FAST_FOREST)
        imp = impurity_importance(model, small_dataset.schema)
        assert set(imp) == {"a", "b"}
        assert sum(imp.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(v >= 0.0 for v in imp.values())

    def test_impurity_importance_rejects_network(self, small_dataset):
        model = train_any(small_dataset, FAST_NET)
        with pytest.raises(DataError):
            impurity_importance(model, small_dataset.schema)


class TestPersistence:
    @pytest.mark.parametrize("cfg", [FAST_NET, FAST_FOREST, FAST_BOOST])
    def test_roundtrip_exact(self, cfg, small_dataset, tmp_path):
        model = train_any(small_dataset, cfg)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        restored = load_model(path, small_dataset.schema)
        np.testing.assert_array_equal(
            model.predict_quads(small_dataset), restored.predict_quads(small_dataset)
        )
        assert restored.config == model.config
        assert restored.kind == model.kind

    def test_load_rejects_wrong_schema(self, small_dataset, tmp_path):
        from pcptest.data import CategoricalSchema

        model = train_any(small_dataset, FAST_FOREST)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        other = CategoricalSchema((("x", (0, 1)),))
        with pytest.raises(DataError):
            load_model(path, other)

    @pytest.mark.parametrize("key, value", [("target", "c"), ("n_classes", 2)])
    def test_load_rejects_other_class_sets(self, small_dataset, tmp_path, key, value):
        """Every model is of the 4-way (c, r) class; a file that says
        otherwise is an input error."""
        import json

        path = str(tmp_path / "model.json")
        save_model(train_any(small_dataset, FAST_FOREST), path)
        with open(path) as fh:
            doc = json.load(fh)
        doc[key] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(DataError, match="4-way"):
            load_model(path, small_dataset.schema)

    def test_load_rejects_wrong_version(self, small_dataset, tmp_path):
        import json

        model = train_any(small_dataset, FAST_FOREST)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with open(path) as fh:
            doc = json.load(fh)
        doc["format_version"] = 999
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with pytest.raises(DataError):
            load_model(path, small_dataset.schema)

    @pytest.mark.parametrize("kind", ["boosted", "forest"])
    @pytest.mark.parametrize(
        "break_tree",
        [
            lambda root, leaf: root.update(column=6),  # the design has 6 columns
            lambda root, leaf: root.update(column=0),
            lambda root, leaf: root.update(column=-1),
            lambda root, leaf: leaf["value"].append(0.5),
            lambda root, leaf: leaf.pop("value"),
        ],
        ids=["past-the-design", "constant-column", "negative-column", "long-leaf", "empty-node"],
    )
    def test_load_rejects_unroutable_trees(self, small_dataset, tmp_path, kind, break_tree):
        """A stored tree that prediction could not route is an input error
        that names the file, not a misroute or a traceback."""
        import json

        doc = json.loads((Path(__file__).parent / "data" / f"{kind}_model.json").read_text())
        params = doc["parameters"]
        root = params["rounds"][0][0] if kind == "boosted" else params["trees"][0]
        leaf = root
        while "value" not in leaf:
            leaf = leaf["left"]
        break_tree(root, leaf)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        match = f"^{re.escape(str(path))}: malformed model file: "
        with pytest.raises(DataError, match=match) as err:
            load_model(str(path), small_dataset.schema)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc.update(kind="tree"),
            lambda doc: doc["config"].update(depth=3),
            lambda doc: doc["config"].update(n_trees=0),
            lambda doc: doc["parameters"].update(importance=[0.0] * 7),
        ],
        ids=["unknown-kind", "unknown-field", "out-of-range-field", "long-importance"],
    )
    def test_load_rejects_malformed_headers(self, small_dataset, tmp_path, edit):
        import json

        doc = json.loads((Path(__file__).parent / "data" / "forest_model.json").read_text())
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: malformed model file: "):
            load_model(str(path), small_dataset.schema)


# ---------------------------------------------------------------------------
# Stacked units: grouping the folds into stacks changes no bit.


class TestStackedFolds:
    def test_stacks_follow_the_family_rows_and_workers(self, small_dataset, workers):
        """Boosted fits of a 12-cell design form one stack per worker; the
        other families, and a design above STACK_MAX_ROWS rows, keep one
        fit per stack."""
        workers(1)
        assert stacks(small_dataset, FAST_BOOST, 5) == [range(0, 5)]
        assert stacks(small_dataset, FAST_FOREST, 3) == [range(i, i + 1) for i in range(3)]
        assert stacks(small_dataset, FAST_NET, 2) == [range(0, 1), range(1, 2)]
        workers(2)
        assert stacks(small_dataset, FAST_BOOST, 5) == [range(0, 3), range(3, 5)]
        assert stacks(small_dataset, FAST_BOOST, 1) == [range(0, 1)]

    @pytest.mark.parametrize(
        "n_workers, kinds, expected",
        [
            (1, 1, [(0, 6)]),
            (1, 2, [(0, 6)]),
            (2, 1, [(0, 3), (3, 6)]),
            (2, 2, [(0, 6)]),
            (4, 1, [(0, 2), (2, 3), (3, 5), (5, 6)]),
            (4, 2, [(0, 3), (3, 6)]),
        ],
    )
    def test_stacks_share_the_workers_among_the_kinds(
        self, small_dataset, workers, n_workers, kinds, expected
    ):
        """Each kind of stacking fit in a batch gets max(1, workers //
        kinds) stacks of its 6 fits; a lone fit is one stack whatever the
        share, and a family that does not stack keeps one fit per stack."""
        workers(n_workers)
        assert stacks(small_dataset, FAST_BOOST, 6, kinds) == [range(a, b) for a, b in expected]
        assert stacks(small_dataset, FAST_BOOST, 1, kinds) == [range(0, 1)]
        assert stacks(small_dataset, FAST_FOREST, 3, kinds) == [range(i, i + 1) for i in range(3)]

    def test_a_stack_fits_one_config(self, small_dataset):
        """Boosted configs may differ in their seeds only, and a stack
        holds one family."""
        d = small_dataset
        reseeded = BoostConfig(n_rounds=10, max_depth=2, seed=7)
        models = L.train_many([d, d], [FAST_BOOST, reseeded])
        assert [model.config for model in models] == [FAST_BOOST, reseeded]
        with pytest.raises(DataError, match="one config"):
            L.train_many([d, d], [FAST_BOOST, BoostConfig(n_rounds=10, max_depth=3)])
        with pytest.raises(DataError, match="one learner family"):
            L.train_many([d, d], [FAST_BOOST, FAST_FOREST])

    def test_many_rows_are_not_stacked(self, small_dataset, monkeypatch, workers):
        workers(1)
        monkeypatch.setattr(L, "STACK_MAX_ROWS", 11)
        assert stacks(small_dataset, FAST_BOOST, 3) == [range(i, i + 1) for i in range(3)]

    @pytest.mark.parametrize("cfg", [FAST_BOOST, FAST_FOREST], ids=["boosted", "forest"])
    def test_every_grouping_gives_the_lone_fits(self, small_dataset, cfg, monkeypatch, workers):
        """Under every grouping, each fold's predictions are those of its
        own train_any fit on the other folds, bit for bit."""
        workers(1)
        d = small_dataset
        folds = make_folds(d, 4, seed=2)
        lone = np.empty((d.n, 4))
        for k in range(folds.K):
            model = train_any(d.take(folds.complement_indices(k)), cfg, fold=k)
            lone[folds.fold_indices(k)] = model.predict_quads(d.take(folds.fold_indices(k)))
        for grouping in groupings(folds.K):
            monkeypatch.setattr(L, "stacks", lambda *args, g=grouping: g)
            assert cross_fit_predict(d, cfg, folds).tobytes() == lone.tobytes()

    @pytest.mark.parametrize("cfg", [FAST_BOOST, FAST_FOREST], ids=["boosted", "forest"])
    def test_the_raw_fit_joins_the_folds(self, small_dataset, cfg, monkeypatch, workers):
        """With the raw fit, the units' predictions are the raw train_any
        fit's of every record, then each fold's of its fold, under every
        grouping of the five fits."""
        workers(1)
        d = small_dataset
        folds = make_folds(d, 4, seed=2)
        lone = [train_any(d, cfg).predict_quads(d)]
        for k in range(folds.K):
            model = train_any(d.take(folds.complement_indices(k)), cfg, fold=k)
            lone.append(model.predict_quads(d.take(folds.fold_indices(k))))
        for grouping in groupings(folds.K + 1):
            monkeypatch.setattr(L, "stacks", lambda *args, g=grouping: g)
            units = cross_fit_units(d, cfg, folds, raw=True)
            got = [probs for unit in units for probs in unit()]
            assert [p.tobytes() for p in got] == [p.tobytes() for p in lone]

    @pytest.mark.parametrize("cfg", [FAST_BOOST, FAST_FOREST], ids=["boosted", "forest"])
    def test_predict_many_gives_each_models_bits(self, small_dataset, cfg):
        """The models of one train_many call predict their datasets as each
        alone would; a dataset of another schema is refused."""
        d = small_dataset
        subsets = [d.take(np.arange(a, a + 900)) for a in (0, 700, 2100)]
        models = train_many(subsets, [cfg] * 3)
        tests = [d.take(np.arange(a, a + 50)) for a in (2900, 0, 1000)]
        got = predict_many(models, tests)
        for model, test, probs in zip(models, tests, got):
            assert probs.tobytes() == model.predict_quads(test).tobytes()
        other = Dataset(
            CategoricalSchema((("x", (0, 1)),)), np.zeros((1, 1), int), d.c[:1], d.r[:1], d.w[:1]
        )
        with pytest.raises(DataError, match="schema does not match"):
            predict_many(models[:1], [other])

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_too_few_records_raise_first_in_input_order(
        self, small_dataset, monkeypatch, workers, n_workers
    ):
        """Folds 2 and 3 leave 7 records to train on; fold 2 raises under
        every grouping, before any fit of its stack."""
        workers(n_workers)
        d = small_dataset.take(np.arange(12))
        folds = FoldAssignment(4, np.array([0, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3]), 0)
        for grouping in groupings(folds.K):
            monkeypatch.setattr(L, "stacks", lambda *args, g=grouping: g)
            with pytest.raises(DataError, match=r"^fold 2: too few records to train on$"):
                cross_fit_predict(d, FAST_BOOST, folds)
