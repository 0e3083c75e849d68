import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from pcptest.data import DataError
from pcptest.inference import (
    IntersectionInput,
    SortedGroupsConfig,
    analytic_k0,
    delta_method_se,
    gamma_n,
    gaussian_group_draw,
    intersection_test,
    mc_size_power,
    sorted_groups_run,
)
from pcptest.network import NetworkConfig
from pcptest.trees import BoostConfig


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


class TestDeltaMethodSE:
    def quad(self):
        return np.array([0.5, 0.15, 0.25, 0.10])

    def stat(self, quad, kind):
        from pcptest.functionals import correlation_from_quad, covariance_from_quad

        return covariance_from_quad(quad) if kind == "covariance" else correlation_from_quad(quad)

    @pytest.mark.parametrize("kind", ["covariance", "correlation"])
    def test_matches_finite_difference_gradient(self, kind):
        quad = self.quad()
        rng = np.random.default_rng(1)
        A = rng.normal(size=(4, 4))
        sigma = A @ A.T * 1e-4
        h = 1e-7
        g = np.zeros(4)
        for j in range(4):
            up, dn = quad.copy(), quad.copy()
            up[j] += h
            dn[j] -= h
            g[j] = (self.stat(up, kind) - self.stat(dn, kind)) / (2 * h)
        expected = math.sqrt(g @ sigma @ g)
        assert delta_method_se(quad, sigma, kind) == pytest.approx(expected, rel=1e-5)

    def test_zero_sigma_gives_zero(self):
        assert delta_method_se(self.quad(), np.zeros((4, 4)), "correlation") == 0.0

    def test_validation(self):
        with pytest.raises(DataError):
            delta_method_se(self.quad(), np.zeros((3, 3)), "covariance")
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(DataError):
            delta_method_se(self.quad(), bad, "covariance")
        with pytest.raises(DataError):
            delta_method_se(self.quad(), np.zeros((4, 4)), "median")


class TestSortedGroups:
    def run(self, d, **kw):
        kw.setdefault("learner", BoostConfig(n_rounds=10, max_depth=2))
        kw.setdefault("n_splits", 3)
        kw.setdefault("seed", 5)
        return sorted_groups_run(d, SortedGroupsConfig(**kw))

    def test_basic_shapes_and_ordering(self, small_dataset):
        res = self.run(small_dataset)
        assert len(res.splits) == 3
        for s in res.splits:
            assert s.group_quads.shape == (4, 4)
            np.testing.assert_allclose(s.group_quads.sum(axis=1), 1.0, atol=1e-10)
            # Groups are sorted by the predicted statistic.
            assert np.all(np.diff(s.predicted_means) >= -1e-12)
            assert 0.0 <= s.p_value <= 1.0
            assert s.statistic == pytest.approx(s.group_stats[0])
            assert s.tstat == pytest.approx(s.statistic / s.se)

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
        np.testing.assert_array_equal(
            r1.splits[0].group_quads, r2.splits[0].group_quads
        )

    def test_network_learner(self, small_dataset):
        res = self.run(
            small_dataset,
            learner=NetworkConfig(depth=0, max_epochs=20),
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
            SortedGroupsConfig(network={"patience": 0})


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
