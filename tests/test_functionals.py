
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DegenerateMarginalError,
    correlation_from_quad,
    covariance_from_quad,
    make_dgp,
    oracle_correlation,
    oracle_group_estimate,
    oracle_marginals,
    oracle_quad_gradient,
)
from pcptest.data import DataError, Dataset
from pcptest.functionals import (
    DEGENERATE_TOL,
    correlation_score,
    covariance_score,
    MIN_USABLE,
    group_estimates,
    group_means,
    orthogonality_check,
    per_obs_stats,
    summarize,
)
from pcptest.synth import RhoSpec


def quad_strategy(lo=0.02):
    """Random quads with all four entries at least lo (nondegenerate)."""

    @st.composite
    def build(draw):
        raw = np.array([draw(st.floats(lo, 1.0)) for _ in range(4)])
        quad = raw / raw.sum()
        if quad.min() < lo / 4:
            quad = (quad + lo) / (1 + 4 * lo)
        return quad

    return build()


# Table-ready 4-way counts: (n00, n01, n10, n11) = (3696, 302, 2203, 132)
TABLE1_QUAD = np.array([3696, 302, 2203, 132]) / 6333.0


class TestQuadFunctionals:
    def test_independence_quad(self):
        quad = np.full(4, 0.25)
        assert covariance_from_quad(quad) == 0.0
        assert correlation_from_quad(quad) == 0.0

    def test_comonotone_quad(self):
        quad = np.array([0.5, 0.0, 0.0, 0.5])
        assert covariance_from_quad(quad) == pytest.approx(0.25, abs=1e-15)
        assert correlation_from_quad(quad) == pytest.approx(1.0, abs=1e-12)

    def test_table1_values(self):
        # Exact arithmetic gives C = -0.00442403; the quoted -0.004425 is
        # the rounded correlation re-multiplied by the marginal scale, so
        # the comparison tolerance allows for that rounding.
        assert covariance_from_quad(TABLE1_QUAD) == pytest.approx(-0.004425, abs=1.5e-6)
        assert correlation_from_quad(TABLE1_QUAD) == pytest.approx(-0.0363, abs=5e-5)

    def test_degenerate_marginal_raises(self):
        with pytest.raises(DegenerateMarginalError):
            correlation_from_quad(np.array([0.6, 0.4, 0.0, 0.0]))

    def test_covariance_correlation_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            raw = rng.uniform(0.05, 1.0, 4)
            quad = raw / raw.sum()
            p = quad[2] + quad[3]
            q = quad[1] + quad[3]
            s = np.sqrt(p * (1 - p) * q * (1 - q))
            assert correlation_from_quad(quad) * s == pytest.approx(
                covariance_from_quad(quad), abs=1e-12
            )


class TestGradientRegressors:
    def test_centered_marginals_vanish(self):
        stats = per_obs_stats(np.array([0.3, 0.2, 0.2, 0.3]))  # p = q = 0.5
        assert stats.grad1 == pytest.approx(0.0, abs=1e-14)
        assert stats.grad2 == pytest.approx(0.0, abs=1e-14)

    def test_hand_value(self):
        # rho = 0.1, q = 0.25 -> grad1 = 0.1 * (0.25 - 0.5) / (0.25 * 0.75)
        p, q, rho = 0.5, 0.25, 0.1
        c = rho * np.sqrt(p * (1 - p) * q * (1 - q))
        p11 = p * q + c
        stats = per_obs_stats(np.array([1 - p - q + p11, q - p11, p - p11, p11]))
        assert stats.grad1 == pytest.approx(-0.13333, abs=1e-5)
        assert stats.grad2 == pytest.approx(0.0, abs=1e-12)

    def test_zero_rho_vanishes(self):
        stats = per_obs_stats(np.array([0.48, 0.12, 0.32, 0.08]))  # p = 0.4, q = 0.2, rho = 0
        assert stats.correlation == pytest.approx(0.0, abs=1e-14)
        assert (stats.grad1, stats.grad2) == (
            pytest.approx(0.0, abs=1e-13),
            pytest.approx(0.0, abs=1e-13),
        )


# ---------------------------------------------------------------------------
# The scalar formulas the vectorized kernel replaced, kept as its oracle;
# the marginals, correlation and quad gradient are in conftest.


def oracle_covariance(quad):
    p, q = oracle_marginals(quad)
    return float(np.asarray(quad)[..., 3] - p * q)


def oracle_gradient_regressors(quad, rho):
    p, q = oracle_marginals(quad)
    if min(p, 1 - p, q, 1 - q) < DEGENERATE_TOL:
        raise DegenerateMarginalError(f"gradient regressors undefined at p={p}, q={q}")
    g1 = rho * (q - 0.5) / (q * (1 - q))
    g2 = rho * (p - 0.5) / (p * (1 - p))
    return float(g1), float(g2)


def assert_bits(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


# Marginals on and next to the degeneracy boundary, and generic ones.
EDGE_MARGINALS = [0.0, 1.0, 5e-10, 1 - 5e-10, 1e-9, 1 - 1e-9, 2e-9, 1 - 2e-9, 1e-6, 0.5]


@st.composite
def edge_quad(draw):
    """A quad built from marginals (p, q) and the joint mass p11, which
    lies anywhere in its feasible range [max(0, p + q - 1), min(p, q)]."""
    marginal = st.one_of(st.sampled_from(EDGE_MARGINALS), st.floats(0.0, 1.0))
    p, q = draw(marginal), draw(marginal)
    lo, hi = max(0.0, p + q - 1.0), min(p, q)
    p11 = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    return np.array([1.0 - p - q + p11, q - p11, p - p11, p11])


@given(quads=st.lists(st.one_of(edge_quad(), quad_strategy()), min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_scalar_oracle(quads):
    quads = np.array(quads)
    stats = per_obs_stats(quads)
    # Any leading shape gives the same numbers as the flat batch.
    stacked = per_obs_stats(np.stack([quads, quads[::-1]]))
    assert_bits(stacked.correlation[0], stats.correlation)
    assert_bits(stacked.grad1[1], stats.grad1[::-1])
    for i, quad in enumerate(quads):
        p, q = oracle_marginals(quad)
        assert_bits(stats.p[i], p)
        assert_bits(stats.q[i], q)
        assert_bits(stats.covariance[i], oracle_covariance(quad))
        try:
            rho = oracle_correlation(quad)
        except DegenerateMarginalError:
            assert stats.degenerate[i]
            for field in (stats.correlation, stats.grad1, stats.grad2):
                assert_bits(field[i], 0.0)
            continue
        assert not stats.degenerate[i]
        assert_bits(stats.correlation[i], rho)
        g1, g2 = oracle_gradient_regressors(quad, rho)
        assert_bits(stats.grad1[i], g1)
        assert_bits(stats.grad2[i], g2)


class TestBruteForceOracle:
    """Plug-in functionals on empirical cell quads must agree with direct
    weighted cell-frequency computation on any dataset with few cells."""

    def _empirical_check(self, d: Dataset):
        labels = d.class_labels()
        cells, inverse = np.unique(d.covariates, axis=0, return_inverse=True)
        for ci in range(len(cells)):
            mask = inverse == ci
            w = d.w[mask]
            quad = np.array(
                [w[labels[mask] == k].sum() for k in range(4)]
            ) / w.sum()
            # Oracle: weighted frequencies directly.
            p = quad[2] + quad[3]
            q = quad[1] + quad[3]
            c_oracle = quad[3] - p * q
            assert covariance_from_quad(quad) == pytest.approx(c_oracle, abs=1e-12)
            denom = p * (1 - p) * q * (1 - q)
            if denom > 1e-12:
                assert correlation_from_quad(quad) == pytest.approx(
                    c_oracle / np.sqrt(denom), abs=1e-12
                )

    def test_on_random_datasets(self, small_schema):
        rng = np.random.default_rng(4)
        for seed in range(5):
            n = 400
            cov = np.column_stack(
                [rng.choice(codes, size=n) for _, codes in small_schema.features]
            ).astype(np.int64)
            d = Dataset(
                small_schema,
                cov,
                rng.integers(0, 2, n),
                rng.integers(0, 2, n),
                rng.uniform(0.1, 1.0, n),
            )
            self._empirical_check(d)


class TestPerObsStats:
    def test_composition(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.05, 1.0, (30, 4))
        quads = raw / raw.sum(axis=1, keepdims=True)
        stats = per_obs_stats(quads)
        for i in range(30):
            assert stats.covariance[i] == pytest.approx(
                covariance_from_quad(quads[i]), abs=1e-14
            )
            assert stats.correlation[i] == pytest.approx(
                correlation_from_quad(quads[i]), abs=1e-14
            )

    def test_degenerate_rows_flagged(self):
        quads = np.array([[0.25, 0.25, 0.25, 0.25], [0.5, 0.5, 0.0, 0.0]])
        stats = per_obs_stats(quads)
        assert not stats.degenerate[0]
        assert stats.degenerate[1]
        assert stats.correlation[1] == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(2)
        raw = rng.uniform(0.01, 1.0, (200, 4))
        quads = raw / raw.sum(axis=1, keepdims=True)
        stats = per_obs_stats(quads)
        assert np.all(np.abs(stats.covariance) <= 0.25 + 1e-12)
        assert np.all(np.abs(stats.correlation) <= 1.0 + 1e-12)
        assert np.all(np.sign(stats.correlation) == np.sign(stats.covariance))


def one_group_mean(values, weights, group=None):
    """``group_means`` of a single group, every record by default."""
    group = np.arange(len(values)) if group is None else group
    means, ses = group_means(values, weights, [group])
    return means[0], ses[0]


class TestGroupMean:
    def test_constant_values(self):
        est, se = one_group_mean(np.full(10, 0.3), np.random.default_rng(0).uniform(0.1, 1, 10))
        assert est == pytest.approx(0.3, abs=1e-14)
        assert se == pytest.approx(0.0, abs=1e-14)

    def test_two_records(self):
        est, _ = one_group_mean(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert est == pytest.approx(0.5)

    def test_se_formula(self):
        rng = np.random.default_rng(3)
        v, w = rng.normal(size=40), rng.uniform(0.2, 1.0, 40)
        est, se = one_group_mean(v, w)
        m = np.average(v, weights=w)
        assert se == pytest.approx(np.sqrt(np.sum(w**2 * (v - m) ** 2)) / w.sum(), abs=1e-14)

    def test_weight_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        v, w = rng.normal(size=30), rng.uniform(0.2, 1.0, 30)
        a = one_group_mean(v, w)
        b = one_group_mean(v, 0.37 * w)
        assert b == pytest.approx(a, abs=1e-13)

    def test_empty_group_is_nan(self):
        v, w = np.array([1.0, 2.0]), np.array([0.5, 1.0])
        means, ses = group_means(v, w, [np.array([], dtype=np.int64), np.array([1])])
        assert np.isnan(means[0]) and np.isnan(ses[0])
        assert (means[1], ses[1]) == (2.0, 0.0)

    def test_group_subsetting(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.ones(4)
        means, _ = group_means(v, w, [np.array([1, 3]), np.array([0, 1, 3]), np.arange(4)])
        assert means == pytest.approx([3.0, 7.0 / 3.0, 2.5])

    def test_monte_carlo_convergence(self, small_dgp):
        from pcptest.synth import sample_dataset

        d, gt = sample_dataset(small_dgp, 50_000, seed=6)
        truth = gt.record_values(d.covariates, which="covariance")
        target = np.average(truth, weights=d.w)
        labels = d.class_labels()
        # Empirical per-record covariance from empirical cell quads.
        cells, inverse = np.unique(d.covariates, axis=0, return_inverse=True)
        quads = np.zeros((len(cells), 4))
        for ci in range(len(cells)):
            mask = inverse == ci
            quads[ci] = np.bincount(labels[mask], weights=d.w[mask], minlength=4)
            quads[ci] /= quads[ci].sum()
        stats = per_obs_stats(quads[inverse])
        est, se = one_group_mean(stats.covariance, d.w)
        assert abs(est - target) < 3 * max(se, 1e-4)


@given(
    records=st.lists(
        st.tuples(st.one_of(edge_quad(), quad_strategy()), st.integers(0, 1), st.integers(0, 1)),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=300, deadline=None)
def test_scores_match_one_step_oracle(records):
    """Each closed-form score is the one-step expansion
    s(quad) + grad s(quad) . (onehot(y) - quad) built from the oracle's
    delta-method gradients, 0 for rho where degenerate; for C it is exactly
    the residual product."""
    quads = np.array([quad for quad, _, _ in records])
    c = np.array([rec[1] for rec in records])
    r = np.array([rec[2] for rec in records])
    stats = per_obs_stats(quads)
    p, q = oracle_marginals(quads)
    assert_bits(covariance_score(stats, c, r), (c - p) * (r - q))
    step = np.eye(4)[2 * c + r] - quads
    grad_c = np.array([oracle_quad_gradient(quad, "covariance") for quad in quads])
    grad_rho = np.array(
        [
            np.zeros(4) if degenerate else oracle_quad_gradient(quad, "correlation")
            for quad, degenerate in zip(quads, stats.degenerate)
        ]
    )
    for score, value, grad in (
        (covariance_score(stats, c, r), stats.covariance, grad_c),
        (correlation_score(stats, c, r), stats.correlation, grad_rho),
    ):
        terms = grad * step
        one_step = value + terms.sum(axis=-1)
        # Rounding in the quad's entries and marginals, magnified by the
        # gradient, which grows like 1/s next to the boundary.
        tol = 1e-12 * (1.0 + np.abs(value) + np.abs(terms).sum(axis=-1))
        tol += 1e-14 * np.abs(grad).sum(axis=-1)
        assert np.all(np.abs(score - one_step) <= tol), (score, one_step)
    assert np.all(correlation_score(stats, c, r)[stats.degenerate] == 0.0)


class TestDebiased:
    def _stats(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.05, 1.0, (n, 4))
        quads = raw / raw.sum(axis=1, keepdims=True)
        c, r = rng.integers(0, 2, n), rng.integers(0, 2, n)
        return per_obs_stats(quads), c, r, rng.uniform(0.1, 1.0, n)

    def test_vanishing_regressors_give_weighted_mean(self):
        # p = q = 1/2 everywhere: rho varies, gradients vanish, and the
        # score is the residual product over s = 1/4.
        rho = np.array([-0.2, 0.0, 0.3, 0.1])
        quads = np.column_stack(
            [0.25 + rho / 4, 0.25 - rho / 4, 0.25 - rho / 4, 0.25 + rho / 4]
        )
        stats = per_obs_stats(quads)
        c, r = np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1])
        w = np.array([0.5, 1.0, 0.7, 0.9])
        (est,), (se,) = group_estimates("correlation", stats, c, r, w, [np.arange(4)])
        (expected_est,), (expected_se,) = group_means((2 * c - 1) * (2 * r - 1), w, [np.arange(4)])
        assert est == pytest.approx(expected_est, abs=1e-12)
        assert se == pytest.approx(expected_se, abs=1e-12)

    def test_small_group_rejected(self):
        stats, c, r, w = self._stats(seed=8, n=2)
        for statistic in ("covariance", "correlation"):
            est, se = group_estimates(statistic, stats, c, r, w, [np.arange(2)])
            assert np.isnan(est[0]) and np.isnan(se[0])

    def test_plugin_truth_recovers_group_mean(self, small_schema):
        """With true quads plugged in and rho constant in the group, the
        mean score estimates the group mean of rho*."""
        from pcptest.synth import sample_dataset

        dgp = make_dgp(
            small_schema,
            coef_p=[-0.3, 0.4, -0.2, 0.5, 0.3, -0.4],
            coef_q=[-1.5, 0.3, 0.5, -0.3, 0.2, 0.4],
            rho=RhoSpec("constant", value=0.08),
        )
        d, gt = sample_dataset(dgp, 100_000, seed=12)
        quads = np.array([gt.quads[gt.lookup()[tuple(c)]] for c in np.unique(d.covariates, axis=0)])
        cells, inverse = np.unique(d.covariates, axis=0, return_inverse=True)
        stats = per_obs_stats(quads[inverse])
        (est,), (se,) = group_estimates("correlation", stats, d.c, d.r, d.w, [np.arange(d.n)])
        assert abs(est - 0.08) < max(3 * se, 1e-3)

    def test_group_estimate_reads_each_statistic_by_name(self):
        stats, c, r, w = self._stats(seed=4)
        groups = [np.arange(0, 400, 3), np.arange(1, 400, 2)]
        assert_pairs_equal(
            group_estimates("covariance", stats, c, r, w, groups),
            group_means(covariance_score(stats, c, r), w, groups),
        )
        assert_pairs_equal(
            group_estimates("correlation", stats, c, r, w, groups),
            group_means(correlation_score(stats, c, r), w, groups),
        )
        with pytest.raises(DataError, match="unknown statistic 'median'"):
            group_estimates("median", stats, c, r, w, groups)

    def test_usable_record_rule(self):
        """A group needs MIN_USABLE usable records: any record for the
        covariance, a non-degenerate one for the correlation."""
        fine = np.array([0.1, 0.2, 0.3, 0.4])
        flat = np.array([0.5, 0.5, 0.0, 0.0])  # p = 0: degenerate
        quads = np.array([fine] * 3 + [flat] * 3)
        stats = per_obs_stats(quads)
        c, r, w = np.array([0, 1, 0, 1, 0, 0]), np.array([1, 1, 0, 0, 1, 0]), np.ones(6)
        groups = [np.array([3, 4, 5] + list(range(k))) for k in range(4)]
        cov, _ = group_estimates("covariance", stats, c, r, w, groups)
        rho, _ = group_estimates("correlation", stats, c, r, w, groups)
        assert not np.isnan(cov).any()
        assert np.isnan(rho[:MIN_USABLE]).all() and not np.isnan(rho[MIN_USABLE:]).any()
        cov, _ = group_estimates("covariance", stats, c, r, w, [g[:k] for k, g in enumerate(groups)])
        assert np.isnan(cov[:MIN_USABLE]).all() and not np.isnan(cov[MIN_USABLE:]).any()


def assert_pairs_equal(actual, expected):
    for a, b in zip(actual, expected, strict=True):
        np.testing.assert_array_equal(a, b)


@st.composite
def grouped_records(draw):
    """Records (quad, c, r, w), edge and degenerate quads among them, and
    index sets over them: a disjoint partition into five groups, any of
    which may be empty, then up to four arbitrary, overlapping subsets."""
    records = draw(
        st.lists(
            st.tuples(
                st.one_of(edge_quad(), quad_strategy()),
                st.integers(0, 1),
                st.integers(0, 1),
                st.floats(1e-3, 1.0),
            ),
            min_size=1,
            max_size=16,
        )
    )
    n = len(records)
    labels = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    groups = [np.nonzero(labels == g)[0] for g in range(5)]
    subsets = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    groups += [np.array(s, dtype=np.int64) for s in draw(st.lists(subsets, max_size=4))]
    quads, c, r, w = (np.array(column) for column in zip(*records))
    return per_obs_stats(quads), c, r, w, groups


@given(grouped_records())
@settings(max_examples=300, deadline=None)
def test_group_estimates_match_per_group_oracle(case):
    """Each group's estimate and SE, NaN below MIN_USABLE usable records,
    are the per-group oracle's to the bit."""
    stats, c, r, w, groups = case
    for statistic in ("covariance", "correlation"):
        est, ses = group_estimates(statistic, stats, c, r, w, groups)
        expected = [oracle_group_estimate(statistic, stats, c, r, w, g) for g in groups]
        assert_bits(est, [e for e, _ in expected])
        assert_bits(ses, [se for _, se in expected])


class TestSummarize:
    def test_constant(self):
        s = summarize(np.full(5, 0.2), np.ones(5))
        assert s.mean == pytest.approx(0.2)
        assert s.dispersion == pytest.approx(0.0, abs=1e-15)
        assert s.range == (pytest.approx(0.2), pytest.approx(0.2))

    def test_symmetric_pair(self):
        s = summarize(np.array([-1.0, 1.0]), np.ones(2))
        assert s.mean == pytest.approx(0.0)
        assert s.range == (-1.0, 1.0)

    def test_dispersion_weight_invariance(self):
        rng = np.random.default_rng(9)
        v, w = rng.normal(size=30), rng.uniform(0.1, 1.0, 30)
        a = summarize(v, w)
        b = summarize(v, 5.0 * w)
        assert b.dispersion == pytest.approx(a.dispersion, abs=1e-13)

    def test_range_contains_mean(self):
        rng = np.random.default_rng(10)
        v, w = rng.normal(size=30), rng.uniform(0.1, 1.0, 30)
        s = summarize(v, w)
        assert s.range[0] <= s.mean <= s.range[1]


class TestOrthogonality:
    @pytest.fixture()
    def generic_dgp(self, small_schema):
        return make_dgp(
            small_schema,
            coef_p=[-0.4, 0.5, -0.3, 0.6, 0.4, -0.5],
            coef_q=[-1.2, 0.4, 0.6, -0.4, 0.3, 0.5],
            rho=RhoSpec("tanh", scale=0.15, coefs=(0.2, 0.8, -0.6, 0.4, -0.3, 0.7)),
        )

    def test_covariance_is_orthogonal(self, generic_dgp):
        report = orthogonality_check("covariance", generic_dgp, seed=0)
        assert report.max_derivative <= 1e-6

    def test_naive_correlation_is_not(self, generic_dgp):
        report = orthogonality_check("naive correlation", generic_dgp, seed=0)
        assert report.max_derivative > 1e-3

    def test_debiased_correlation_is_orthogonal(self, generic_dgp):
        report = orthogonality_check("debiased correlation", generic_dgp, seed=0)
        assert report.max_derivative <= 1e-4


@given(quad=quad_strategy())
@settings(max_examples=60, deadline=None)
def test_functional_bounds_property(quad):
    c = covariance_from_quad(quad)
    rho = correlation_from_quad(quad)
    assert -0.25 - 1e-12 <= c <= 0.25 + 1e-12
    assert -1.0 - 1e-12 <= rho <= 1.0 + 1e-12
    assert np.sign(rho) == np.sign(c) or c == 0.0
