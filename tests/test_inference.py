import multiprocessing
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from conftest import analytic_k0, groupings
from pcptest import inference
from pcptest import learners as L
from pcptest.data import DataError
from pcptest.functionals import group_estimates, per_obs_stats
from pcptest.inference import (
    IntersectionInput,
    SortedGroupsConfig,
    SplitResult,
    gamma_n,
    gaussian_group_draw,
    intersection_test,
    intersection_tests,
    mc_size_power,
    merge_sorted_splits,
    sorted_groups_run,
    sorted_quantile,
)
from pcptest.network import NetworkConfig
from pcptest.synth import sample_dataset
from pcptest.trees import BoostConfig, ForestConfig


class TestGammaN:
    def test_reference_value(self):
        # 1 - 0.1/ln(6333) = 0.98858...
        assert gamma_n(6333) == pytest.approx(0.98858, abs=5e-6)

    def test_monotone_in_n(self):
        vals = [gamma_n(n) for n in (10, 100, 1000, 10_000, 100_000)]
        assert vals == sorted(vals)
        assert all(0.0 < v < 1.0 for v in vals)

    def test_rejects_tiny_n(self):
        with pytest.raises(DataError):
            gamma_n(1)


class TestAnalyticK0:
    def test_single_group_is_normal_quantile(self):
        assert analytic_k0(1, 0.95) == pytest.approx(norm.ppf(0.95), abs=1e-12)
        assert analytic_k0(1, 0.95) == pytest.approx(1.6449, abs=1e-4)

    def test_reference_values(self):
        gam = gamma_n(6333)
        assert analytic_k0(4, gam) == pytest.approx(2.762, abs=0.05)
        assert analytic_k0(12, gam) == pytest.approx(3.103, abs=0.05)
        assert analytic_k0(2, gam) == pytest.approx(2.528, abs=0.05)

    def test_monotone_in_L(self):
        vals = [analytic_k0(L, 0.98) for L in range(1, 15)]
        assert vals == sorted(vals)

    def test_validation(self):
        with pytest.raises(DataError):
            analytic_k0(0, 0.95)
        with pytest.raises(DataError):
            analytic_k0(3, 1.0)


class TestIntersectionTest:
    def inp(self, est, ses, **kw):
        kw.setdefault("n", 6333)
        return IntersectionInput(np.asarray(est, float), np.asarray(ses, float), **kw)

    def test_mc_k0_matches_analytic(self):
        res = intersection_test(self.inp([0.1] * 12, [0.01] * 12, mc_draws=200_000))
        assert res.k0 == pytest.approx(analytic_k0(12, gamma_n(6333)), abs=0.02)
        assert res.gamma_n == pytest.approx(gamma_n(6333), abs=1e-12)

    def test_clearly_positive_not_rejected(self):
        res = intersection_test(self.inp([0.3, 0.4, 0.5], [0.01, 0.01, 0.01]))
        assert not res.rejected
        assert res.statistic > 0.0

    def test_clearly_negative_rejected(self):
        res = intersection_test(self.inp([-0.3, 0.4, 0.5], [0.01, 0.01, 0.01]))
        assert res.rejected
        assert res.statistic < 0.0

    def test_selection_contains_argmin(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            est = rng.normal(0, 1, 6)
            ses = rng.uniform(0.05, 0.5, 6)
            res = intersection_test(self.inp(est, ses, seed=int(rng.integers(1 << 30))))
            assert int(np.argmin(est)) in res.selected
            assert len(res.selected) >= 1

    def test_all_equal_k_is_max_quantile(self):
        """With identical estimates and SEs every group is kept, so k is the
        (1-alpha)-quantile of the max of L standard normals."""
        L = 5
        res = intersection_test(self.inp([0.0] * L, [0.1] * L, mc_draws=200_000))
        assert res.selected == tuple(range(L))
        assert res.k == pytest.approx(analytic_k0(L, 0.95), abs=0.05)

    def test_deterministic(self):
        a = intersection_test(self.inp([0.1, -0.05], [0.04, 0.06], seed=7))
        b = intersection_test(self.inp([0.1, -0.05], [0.04, 0.06], seed=7))
        assert a == b

    def test_ci_ordering_and_clamp(self):
        # Wildly separated estimates: b = max(T - k se) > a.
        res = intersection_test(self.inp([0.0, 1.0], [0.01, 0.01]))
        assert res.ci[0] <= res.ci[1]
        assert not res.ci_clamped
        # Tight identical estimates: raw b < a, clamped to a point.
        res2 = intersection_test(self.inp([0.0, 0.0], [0.5, 0.5]))
        assert res2.ci_clamped
        assert res2.ci[0] == res2.ci[1]

    def test_statistic_is_min_over_selected(self):
        res = intersection_test(self.inp([0.1, -0.2, 0.05], [0.1, 0.1, 0.1]))
        est = np.array([0.1, -0.2, 0.05])
        ses = np.array([0.1, 0.1, 0.1])
        sel = list(res.selected)
        assert res.statistic == pytest.approx(
            float(np.min(est[sel] + res.k * ses[sel])), abs=1e-12
        )

    def test_input_validation(self):
        with pytest.raises(DataError):
            self.inp([0.1], [0.0])
        with pytest.raises(DataError):
            self.inp([0.1], [0.1, 0.2])
        with pytest.raises(DataError):
            self.inp([np.inf], [0.1])
        with pytest.raises(DataError):
            self.inp([0.1], [0.1], alpha=1.5)
        with pytest.raises(DataError):
            self.inp([0.1], [0.1], mc_draws=10)
        with pytest.raises(DataError, match="mc_draws must be at most 1000000"):
            self.inp([0.1], [0.1], mc_draws=inference.MAX_MC_DRAWS + 1)

    @given(shift=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=25, deadline=None)
    def test_shifting_up_never_creates_rejection(self, shift):
        """Raising every estimate can only make rejection less likely."""
        est = np.array([-0.1, 0.05, 0.2])
        ses = np.array([0.08, 0.05, 0.1])
        base = intersection_test(self.inp(est, ses, mc_draws=5_000, seed=3))
        up = intersection_test(self.inp(est + shift, ses, mc_draws=5_000, seed=3))
        if not base.rejected:
            assert not up.rejected


def oracle_intersection_test(inp):
    """The test with its own draw and no shared row maxima."""
    est, ses = inp.estimates, inp.ses
    gam = gamma_n(inp.n)
    xi = np.random.default_rng(inp.seed).standard_normal((inp.mc_draws, inp.L))
    k0 = float(np.quantile(xi.max(axis=1), gam))
    keep = est <= np.min(est + k0 * ses) + 2.0 * k0 * ses
    k = float(np.quantile(xi[:, keep].max(axis=1), 1.0 - inp.alpha))
    statistic = float(np.min(est[keep] + k * ses[keep]))
    a, b = float(np.min(est + k * ses)), float(np.max(est - k * ses))
    return inference.IntersectionResult(
        gam,
        k0,
        tuple(int(i) for i in np.nonzero(keep)[0]),
        k,
        statistic,
        statistic < 0.0,
        (a, max(a, b)),
        b < a,
    )


@st.composite
def intersection_batches(draw):
    """Inputs whose (mc_draws, L, seed) repeat in runs and apart; equal
    estimates keep every group, a far larger one drops it."""
    keys = [(200, 2, 0), (200, 3, 0), (500, 3, 0), (200, 3, 1), (300, 5, 7)]
    batch = []
    for _ in range(draw(st.integers(1, 10))):
        mc_draws, L, seed = draw(st.sampled_from(keys))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        est = np.zeros(L) if draw(st.booleans()) else rng.normal(0.0, 0.1, L)
        if draw(st.booleans()):
            est[rng.integers(L)] = 5.0
        ses = rng.uniform(0.01, 0.2, L)
        alpha = draw(st.sampled_from([0.01, 0.05, 0.10]))
        n = draw(st.sampled_from([50, 6333]))
        batch.append(IntersectionInput(est, ses, n, alpha, mc_draws, seed))
    return batch


class TestSharedDraws:
    @settings(max_examples=60, deadline=None)
    @given(intersection_batches())
    def test_batch_matches_one_at_a_time(self, batch):
        results = intersection_tests(batch)
        assert len(results) == len(batch)
        for inp, res in zip(batch, results):
            assert res == intersection_test(inp)
            assert res == oracle_intersection_test(inp)

    def test_mixed_batch_keeps_all_and_subsets(self):
        ses = np.full(3, 0.05)
        batch = [
            IntersectionInput(np.zeros(3), ses, 6333, 0.05, 1_000, 4),
            IntersectionInput(np.array([0.0, 0.0, 5.0]), ses, 6333, 0.05, 1_000, 4),
            IntersectionInput(np.array([0.0, 0.0, 5.0]), ses, 100, 0.05, 1_000, 4),
            IntersectionInput(np.array([0.0, 5.0]), ses[:2], 6333, 0.10, 1_000, 4),
            IntersectionInput(np.zeros(3), ses, 6333, 0.01, 2_000, 4),
            IntersectionInput(np.zeros(3), ses, 100, 0.01, 1_000, 5),
        ]
        results = intersection_tests(batch)
        assert [len(r.selected) for r in results] == [3, 2, 2, 1, 3, 3]
        assert results[1].k0 != results[2].k0  # same draw, another n
        for inp, res in zip(batch, results):
            assert res == intersection_test(inp)
            assert res == oracle_intersection_test(inp)


    def test_one_draw_per_key_wherever_the_inputs_sit(self, monkeypatch):
        """Inputs with two values of L, two draw counts and two seeds,
        interleaved: one stream per (mc_draws, seed), read by every L of the
        key, and the results of testing each input alone, in input order."""
        rng = np.random.default_rng(11)
        batch = [
            IntersectionInput(
                rng.normal(0.0, 0.1, L), rng.uniform(0.01, 0.2, L), 6333, alpha, mc_draws, seed
            )
            for L in (7, 3, 7, 3, 3, 7)
            for alpha in (0.05, 0.10)
            for mc_draws, seed in ((1_000, 3), (2_000, 3), (1_000, 4))
        ]
        draws = []
        one_draw = inference._tests_on_one_draw

        def counted(xi, inputs):
            draws.append((xi, len(inputs)))
            return one_draw(xi, inputs)

        monkeypatch.setattr(inference, "_tests_on_one_draw", counted)
        results = intersection_tests(batch)
        monkeypatch.undo()
        assert [(xi.shape, n) for xi, n in draws] == [
            ((mc_draws, L), 6) for mc_draws in (1_000, 2_000, 1_000) for L in (7, 3)
        ]
        for a, (xi, _) in enumerate(draws):
            for b, (other, _) in enumerate(draws):
                assert np.shares_memory(xi, other) == (a // 2 == b // 2)
        assert results == [intersection_test(inp) for inp in batch]
        assert results == [oracle_intersection_test(inp) for inp in batch]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3000),
    st.integers(1, 50),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_quantiles_of_the_sorted_vector_are_the_quantiles(n, n_values, levels, seed):
    """``_tests_on_one_draw`` reads its quantiles from a sorted copy of each
    max vector by ``sorted_quantile``: over random lengths, ties (n draws
    of n_values values) and levels, with 0, 1 and a gamma_n among them,
    they are the bits of ``np.quantile`` of the vector unsorted, as a
    vector and one by one."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n_values)[rng.integers(0, n_values, n)]
    levels = levels + [1.0 - levels[0], 0.0, 1.0, gamma_n(n + 1)]
    ordered = np.sort(values)
    assert sorted_quantile(ordered, levels).tobytes() == np.quantile(values, levels).tobytes()
    for q in levels:
        assert sorted_quantile(ordered, q).tobytes() == np.quantile(values, q).tobytes()


def lone_split(d, cfg, child):
    """A split of a one-learner grid as ``sorted_groups_run`` makes it, on
    its own: each draw's learner is a ``train_any`` fit of its aux half,
    and a draw whose groups fail is drawn again.  Its result and redraw
    count."""
    rng = np.random.default_rng(child)
    learner = replace(cfg.grid[0], seed=int(rng.integers(2**31 - 1)))
    n_main = d.n // 2
    for redraws in range(inference.MAX_RETRIES):
        perm = rng.permutation(d.n)
        model = L.train_any(d.take(perm[n_main:]), learner)
        try:
            main = d.take(perm[:n_main])
            probs = model.predict_quads(main)
            return inference._split_result(probs, main, cfg, perm[:n_main]), redraws
        except DataError:
            pass
    raise AssertionError("no usable draw")


class TestSortedGroups:
    def run(self, d, **kw):
        kw.setdefault("grid", (BoostConfig(n_rounds=10, max_depth=2),))
        kw.setdefault("n_splits", 3)
        kw.setdefault("seed", 5)
        return sorted_groups_run(d, SortedGroupsConfig(**kw))

    def test_basic_shapes_and_ordering(self, small_dataset):
        res = self.run(small_dataset)
        assert len(res.splits) == 3
        for s in res.splits:
            assert s.group_stats.shape == s.group_ses.shape == (4,)
            # Groups are sorted by the predicted statistic.
            assert np.all(np.diff(s.predicted_means) >= -1e-12)
            assert 0.0 <= s.p_value <= 1.0
            assert s.statistic == pytest.approx(s.group_stats[0])
            assert s.tstat == pytest.approx(s.statistic / s.se)

    @pytest.mark.parametrize("statistic", ["covariance", "correlation"])
    def test_groups_read_the_shared_estimator(
        self, small_dataset, statistic, monkeypatch, workers
    ):
        """Each split's group statistics and SEs are ``group_estimates`` on
        its group rows, at the predictions of the split's own model: the
        group mean of the one-step score, as in the intersection test's
        groups.  The splits' models are trained by ``train_many``, as one
        stack on this 12-cell design."""
        workers(1)
        d = small_dataset
        models = []
        train_many = L.train_many

        def recorded(*args, **kw):
            models.extend(train_many(*args, **kw))
            return models[-len(args[0]) :]

        monkeypatch.setattr(L, "train_many", recorded)
        res = self.run(d, statistic=statistic)
        assert res.redraws == 0 and len(models) == len(res.splits)
        for s, model in zip(res.splits, models):
            stats = per_obs_stats(model.predict_quads(d))
            est, ses = group_estimates(statistic, stats, d.c, d.r, d.w, s.group_rows)
            np.testing.assert_array_equal(s.group_stats, est)
            np.testing.assert_array_equal(s.group_ses, ses)

    def test_fixed_forest_takes_each_splits_seed(self, small_dataset, monkeypatch, workers):
        workers(1)
        seeds = []
        train_any = L.train_any

        def recorded(d, cfg, *args, **kw):
            seeds.append(cfg.seed)
            return train_any(d, cfg, *args, **kw)

        monkeypatch.setattr(L, "train_any", recorded)
        self.run(small_dataset, grid=(ForestConfig(n_trees=3, max_depth=2),))
        assert len(set(seeds)) == 3

    def test_medians_are_componentwise(self, small_dataset):
        res = self.run(small_dataset)
        assert res.median_statistic == pytest.approx(
            float(np.median([s.statistic for s in res.splits]))
        )
        np.testing.assert_allclose(
            res.median_group_stats,
            np.median([s.group_stats for s in res.splits], axis=0),
        )

    def test_deterministic(self, small_dataset):
        r1 = self.run(small_dataset)
        r2 = self.run(small_dataset)
        assert r1.median_statistic == r2.median_statistic
        for s1, s2 in zip(r1.splits, r2.splits):
            np.testing.assert_array_equal(s1.group_stats, s2.group_stats)

    def test_redraws_are_counted(self, small_dgp):
        """On 30 records a quartile group of the 15-record main half holds
        about 4 records, so some draws leave one with fewer than the 3
        usable records a debiased correlation needs; those splits are drawn
        again and counted."""
        d, _ = sample_dataset(small_dgp, 30, seed=3)
        res = self.run(d)
        assert len(res.splits) == 3
        assert res.redraws > 0

    def test_each_redraw_counts_once(self, small_dataset, monkeypatch, workers):
        workers(1)
        split_result = inference._split_result
        calls = []

        def fail_first(*args):
            calls.append(args)
            if len(calls) == 1:
                raise DataError("degenerate split")
            return split_result(*args)

        monkeypatch.setattr(inference, "_split_result", fail_first)
        res = self.run(small_dataset)
        assert len(calls) == 4
        assert res.redraws == 1
        monkeypatch.undo()
        assert self.run(small_dataset).redraws == 0

    @pytest.mark.parametrize("n", [30, 3000], ids=["redrawn", "3000"])
    def test_every_grouping_gives_the_same_splits(self, small_dgp, monkeypatch, workers, n):
        """All-singleton units, one stack and the groupings between give
        the same splits, medians and redraw count.  On 30 records some
        first draws are drawn again, from the split's own generator."""
        workers(1)
        d, _ = sample_dataset(small_dgp, n, seed=3)
        cfg = SortedGroupsConfig(grid=(BoostConfig(n_rounds=10, max_depth=2),), n_splits=3, seed=5)
        lone = [lone_split(d, cfg, child) for child in np.random.SeedSequence(5).spawn(3)]
        assert (sum(redraws for _, redraws in lone) > 0) == (n == 30)
        for grouping in groupings(3):
            monkeypatch.setattr(L, "stacks", lambda *args, g=grouping: g)
            res = sorted_groups_run(d, cfg)
            assert res.redraws == sum(redraws for _, redraws in lone)
            for s, (s_ref, _) in zip(res.splits, lone, strict=True):
                for name in ("group_stats", "group_ses", "predicted_means"):
                    assert getattr(s, name).tobytes() == getattr(s_ref, name).tobytes()
                assert [r.tolist() for r in s.group_rows] == [r.tolist() for r in s_ref.group_rows]
                assert (s.statistic, s.se, s.tstat, s.p_value) == (
                    s_ref.statistic,
                    s_ref.se,
                    s_ref.tstat,
                    s_ref.p_value,
                )

    def test_network_learner(self, small_dataset):
        res = self.run(
            small_dataset,
            grid=(NetworkConfig(depth=0, max_epochs=20),),
            n_splits=1,
            statistic="covariance",
        )
        assert np.isfinite(res.median_statistic)

    def test_config_validation(self):
        with pytest.raises(DataError):
            SortedGroupsConfig(n_groups=1)
        with pytest.raises(DataError):
            SortedGroupsConfig(n_splits=0)
        with pytest.raises(DataError):
            SortedGroupsConfig(main_fraction=1.0)
        with pytest.raises(DataError):
            SortedGroupsConfig(statistic="median")
        with pytest.raises(DataError):
            SortedGroupsConfig(grid=())


class TestSortedGroupsMedians:
    """Split medians as Chernozhukov, Demirer, Duflo and Fernandez-Val
    (arXiv:1712.04802) read them, on hand-built splits."""

    @staticmethod
    def merged(stats, ses):
        splits = [
            SplitResult(
                np.array([t, 0.1, 0.2, 0.3]),
                np.array([se, 1.0, 1.0, 1.0]),
                np.zeros(4),
                (),
                t,
                se,
                t / se,
                float(norm.cdf(t / se)),
            )
            for t, se in zip(stats, ses)
        ]
        cfg = SortedGroupsConfig(n_splits=len(splits), grid=(BoostConfig(),))
        return merge_sorted_splits(cfg, [(s, 0) for s in splits])

    def test_adjusted_p_value_doubles_the_median(self):
        alpha = 0.05
        z = norm.ppf(0.04)  # median p 0.04, in (alpha/2, alpha]
        res = self.merged([z - 1.0, z, z + 0.5], [1.0, 1.0, 1.0])
        assert alpha / 2 < res.median_p_value <= alpha
        assert res.adjusted_p_value > alpha
        assert res.adjusted_p_value == pytest.approx(2 * res.median_p_value)
        assert self.merged([1.0], [1.0]).adjusted_p_value == 1.0

    def test_interval_is_the_median_of_split_bounds(self):
        stats = np.array([-0.3, 0.1, 0.0, 0.4, -0.1])
        ses = np.array([0.05, 0.4, 0.1, 0.2, 0.3])
        res = self.merged(stats, ses)
        for alpha in (0.01, 0.05, 0.10):
            z = NormalDist().inv_cdf(1 - alpha / 2)
            lower, upper = np.median(stats - z * ses), np.median(stats + z * ses)
            assert res.interval(alpha) == (lower, upper)
            # Not the median statistic -/+ z times the median SE.
            assert lower != np.median(stats) - z * np.median(ses)

    @given(alpha=st.floats(2e-12, 1.0, exclude_max=True))
    @example(alpha=2e-12)
    @settings(max_examples=300, deadline=None)
    def test_interval_quantile_matches_scipy(self, alpha):
        """A unit split's interval is -/+ z_(1-alpha/2), within a few ulps of
        scipy's quantile over p = 1 - alpha/2 in (0.5, 1 - 1e-12)."""
        lower, upper = self.merged([0.0], [1.0]).interval(alpha)
        assert lower == -upper
        assert upper == pytest.approx(norm.ppf(1 - alpha / 2), abs=2e-15, rel=1.5e-15)

    @given(t=st.floats(-37.0, 37.0))
    @example(t=-37.0)
    @example(t=37.0)
    @settings(max_examples=300, deadline=None)
    def test_split_p_value_cdf_matches_scipy(self, t):
        """The split p-value's normal CDF keeps its relative accuracy, and
        stays positive, far into the lower tail."""
        p = inference.normal_cdf(t)
        assert p > 0.0
        assert p == pytest.approx(norm.cdf(t), rel=1e-12, abs=0.0)


class TestMCSizePower:
    def test_size_near_alpha_single_group(self):
        """One group at the boundary (mean 0): rejection rate close to alpha."""
        draw = gaussian_group_draw([0.0], dispersion=1.0, n_per_group=200)
        report = mc_size_power(draw, alpha=0.05, reps=300, seed=1, mc_draws=4_000)
        assert report.rate <= 0.05 + 3 * report.binomial_se + 0.02
        assert report.rate > 0.0

    def test_power_under_clear_violation(self):
        draw = gaussian_group_draw([-1.0, 0.5, 0.5], dispersion=1.0, n_per_group=200)
        report = mc_size_power(draw, alpha=0.05, reps=100, seed=2, mc_draws=4_000)
        assert report.rate > 0.9

    def test_null_well_inside_rarely_rejects(self):
        draw = gaussian_group_draw([1.0, 1.0], dispersion=1.0, n_per_group=100)
        report = mc_size_power(draw, alpha=0.05, reps=100, seed=3, mc_draws=4_000)
        assert report.rate < 0.02

    def test_deterministic(self):
        draw = gaussian_group_draw([0.0, -0.2], dispersion=1.0, n_per_group=50)
        a = mc_size_power(draw, reps=100, seed=4, mc_draws=2_000)
        b = mc_size_power(draw, reps=100, seed=4, mc_draws=2_000)
        assert a == b

    def test_one_and_two_workers_agree(self, workers):
        """Each replicate draws from its own child seed, so the pool does
        not change the count."""
        draw = gaussian_group_draw([0.0, -0.1, 0.1], dispersion=1.0, n_per_group=50)
        reports = []
        for n in (1, 2):
            workers(n)
            reports.append(mc_size_power(draw, reps=200, seed=5, mc_draws=2_000))
            assert multiprocessing.active_children() == []
        assert reports[0] == reports[1]
        assert 0 < reports[0].rejections < reports[0].reps

    def test_reps_validation(self):
        draw = gaussian_group_draw([0.0], 1.0, 10)
        with pytest.raises(DataError):
            mc_size_power(draw, reps=50)

    def test_weight_sampler_used(self):
        calls = []

        def sampler(rng, n):
            calls.append(n)
            return rng.uniform(0.5, 1.0, n)

        draw = gaussian_group_draw([0.0], 1.0, 30, weight_sampler=sampler)
        draw(np.random.default_rng(0))
        assert calls == [30]
