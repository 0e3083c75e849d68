import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_dgp, uniform_marginals
from pcptest.data import CategoricalSchema, encode_rows
from pcptest.synth import (
    InfeasibleCellError,
    RhoSpec,
    SyntheticDGP,
    WeightLaw,
    _quads_for_rows,
    compute_ground_truth,
    sample_dataset,
)


def logistic(z):
    return 1.0 / (1.0 + np.exp(-z))


def true_prob_quad(dgp: SyntheticDGP, x: tuple[int, ...]) -> np.ndarray:
    """Exact (p00, p01, p10, p11) for covariate cell ``x``, one cell at a time."""
    cells = np.asarray(x).reshape(1, -1)
    return _quads_for_rows(dgp, encode_rows(dgp.schema, cells), cells)[0]


def record_values_by_lookup(gt, covariates, which="correlation"):
    """The truth of each record's cell through a dict lookup per record."""
    table = {"correlation": gt.correlation, "covariance": gt.covariance}[which]
    lut = gt.lookup()
    return np.array([table[lut[tuple(int(v) for v in cov)]] for cov in covariates])


class TestTrueQuad:
    def test_matches_hand_computation(self, small_schema, small_dgp):
        cell = (2, 1)
        row = encode_rows(small_schema, np.array([cell]))[0]
        p = logistic(row @ np.asarray(small_dgp.coef_p))
        q = logistic(row @ np.asarray(small_dgp.coef_q))
        rho = 0.2 * np.tanh(row @ np.asarray(small_dgp.rho.coefs))
        c = rho * np.sqrt(p * (1 - p) * q * (1 - q))
        quad = true_prob_quad(small_dgp, cell)
        assert quad[3] == pytest.approx(p * q + c, abs=1e-12)
        assert quad.sum() == pytest.approx(1.0, abs=1e-12)
        assert quad[2] + quad[3] == pytest.approx(p, abs=1e-12)
        assert quad[1] + quad[3] == pytest.approx(q, abs=1e-12)

    def test_infeasible_rho_detected_eagerly(self, small_schema):
        # Both marginals near 1 with strongly negative rho force p00 < 0.
        with pytest.raises(InfeasibleCellError):
            make_dgp(
                small_schema,
                coef_p=[4.0, 0, 0, 0, 0, 0],
                coef_q=[4.0, 0, 0, 0, 0, 0],
                rho=RhoSpec("constant", value=-0.95),
            )

    def test_zero_rho_factorizes(self, small_schema):
        dgp = make_dgp(
            small_schema,
            coef_p=[0.3, 0.1, 0.2, -0.1, 0.0, 0.2],
            coef_q=[-1.0, 0.2, -0.2, 0.1, 0.3, 0.0],
        )
        quad = true_prob_quad(dgp, (1, 2))
        p = quad[2] + quad[3]
        q = quad[1] + quad[3]
        assert quad[3] == pytest.approx(p * q, abs=1e-12)


class TestGroundTruth:
    def test_covers_all_cells_in_schema_order(self, small_dgp, small_schema):
        gt = compute_ground_truth(small_dgp)
        assert gt.cells == tuple(small_schema.cells())
        assert gt.quads.shape == (12, 4)

    def test_cell_probabilities_sum_to_one(self, small_dgp):
        gt = compute_ground_truth(small_dgp)
        assert gt.cell_prob.sum() == pytest.approx(1.0, abs=1e-12)

    def test_correlation_consistent_with_quads(self, small_dgp):
        gt = compute_ground_truth(small_dgp)
        p = gt.quads[:, 2] + gt.quads[:, 3]
        q = gt.quads[:, 1] + gt.quads[:, 3]
        expected = gt.covariance / np.sqrt(p * (1 - p) * q * (1 - q))
        np.testing.assert_allclose(gt.correlation, expected, atol=1e-12)

    def test_record_values_lookup(self, small_dgp):
        gt = compute_ground_truth(small_dgp)
        cov = np.array([[0, 0], [3, 2]], dtype=np.int64)
        vals = gt.record_values(cov, which="correlation")
        lut = gt.lookup()
        assert vals[0] == gt.correlation[lut[(0, 0)]]
        assert vals[1] == gt.correlation[lut[(3, 2)]]

    @pytest.mark.parametrize("which", ["correlation", "covariance"])
    @pytest.mark.parametrize("codes", [(0, 1, 2, 3), (7, -2, 40, 3)], ids=["plain", "unsorted"])
    def test_record_values_match_lookup(self, codes, which):
        """Bit for bit the per-record dict lookup, on a sample's own truth
        (the cells it drew, in sorted order) and on schema codes that are
        neither sorted nor contiguous."""
        schema = CategoricalSchema((("a", codes), ("b", (5, 1, 2)), ("c", (0, 1))))
        dgp = make_dgp(schema, coef_p=[0.1, 0.2, -0.3, 0.1, 0.2, 0.0, 0.3], coef_q=[-1.0] + [0.2] * 6)
        d, gt = sample_dataset(dgp, 500, seed=2)
        got = gt.record_values(d.covariates, which=which)
        assert got.tobytes() == record_values_by_lookup(gt, d.covariates, which).tobytes()
        full = compute_ground_truth(dgp)
        assert (
            full.record_values(d.covariates, which).tobytes()
            == record_values_by_lookup(full, d.covariates, which).tobytes()
        )

    def test_record_values_of_a_cell_without_truth(self, small_dgp):
        d, gt = sample_dataset(small_dgp, 5, seed=1)
        absent = next(c for c in compute_ground_truth(small_dgp).cells if c not in gt.lookup())
        with pytest.raises(KeyError):
            gt.record_values(np.array([absent]))

    def test_nonuniform_marginals(self, small_schema):
        marg = ((0.7, 0.1, 0.1, 0.1), (0.5, 0.25, 0.25))
        dgp = make_dgp(
            small_schema,
            coef_p=[0.0] * 6,
            coef_q=[-1.0] + [0.0] * 5,
            marginals=marg,
        )
        gt = compute_ground_truth(dgp)
        assert gt.cell_prob[gt.lookup()[(0, 0)]] == pytest.approx(0.35, abs=1e-12)

    def test_save_csv(self, small_dgp, tmp_path):
        gt = compute_ground_truth(small_dgp)
        p = tmp_path / "gt.csv"
        gt.save_csv(str(p))
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 13
        assert lines[0].startswith("a,b,p00,p01,p10,p11")


class TestSampling:
    def test_deterministic(self, small_dgp):
        d1, _ = sample_dataset(small_dgp, 500, seed=9)
        d2, _ = sample_dataset(small_dgp, 500, seed=9)
        assert np.array_equal(d1.covariates, d2.covariates)
        assert np.array_equal(d1.c, d2.c)
        assert np.array_equal(d1.w, d2.w)

    def test_seed_changes_sample(self, small_dgp):
        d1, _ = sample_dataset(small_dgp, 500, seed=9)
        d2, _ = sample_dataset(small_dgp, 500, seed=10)
        assert not np.array_equal(d1.w, d2.w)

    def test_class_frequencies_match_truth(self, small_dgp):
        n = 200_000
        d, gt = sample_dataset(small_dgp, n, seed=3)
        lut = gt.lookup()
        labels = d.class_labels()
        for cell in [(0, 0), (2, 1), (3, 2)]:
            mask = np.all(d.covariates == np.array(cell), axis=1)
            n_cell = mask.sum()
            freq = np.bincount(labels[mask], minlength=4) / n_cell
            quad = gt.quads[lut[cell]]
            # 4 sigma binomial tolerance
            tol = 4.0 * np.sqrt(quad * (1 - quad) / n_cell)
            assert np.all(np.abs(freq - quad) <= tol + 1e-9)

    def test_cell_frequencies_match_marginals(self, small_dgp):
        n = 100_000
        d, gt = sample_dataset(small_dgp, n, seed=5)
        lut = gt.lookup()
        for cell in [(0, 0), (1, 2)]:
            mask = np.all(d.covariates == np.array(cell), axis=1)
            p0 = gt.cell_prob[lut[cell]]
            assert mask.mean() == pytest.approx(p0, abs=4 * np.sqrt(p0 / n))

    def test_weights_in_unit_interval(self, small_dgp):
        d, _ = sample_dataset(small_dgp, 5000, seed=1)
        assert np.all(d.w > 0) and np.all(d.w <= 1.0)

    def test_weight_mass_at_one(self, small_dgp):
        d, _ = sample_dataset(small_dgp, 50_000, seed=2)
        assert (d.w == 1.0).mean() == pytest.approx(0.4, abs=0.02)

    def test_rejects_nonpositive_n(self, small_dgp):
        with pytest.raises(Exception):
            sample_dataset(small_dgp, 0, seed=0)


class TestWeightLaw:
    def test_beta_part_moments(self):
        law = WeightLaw(pi_one=0.0, alpha=2.0, beta=2.0)
        w = law.sample(np.random.default_rng(0), 100_000)
        assert w.mean() == pytest.approx(0.5, abs=0.01)
        assert w.var() == pytest.approx(0.05, abs=0.005)

    def test_point_mass_only(self):
        law = WeightLaw(pi_one=1.0)
        w = law.sample(np.random.default_rng(0), 100)
        assert np.all(w == 1.0)


class TestYaml:
    def test_round_trip(self, small_dgp, tmp_path):
        p = str(tmp_path / "dgp.yaml")
        small_dgp.to_yaml(p)
        back = SyntheticDGP.from_yaml(p)
        assert back.schema == small_dgp.schema
        np.testing.assert_array_equal(back.coef_p, small_dgp.coef_p)
        assert back.rho.kind == "tanh"
        assert back.weights == small_dgp.weights
        d1, _ = sample_dataset(small_dgp, 100, seed=0)
        d2, _ = sample_dataset(back, 100, seed=0)
        assert np.array_equal(d1.covariates, d2.covariates)

    def test_custom_rho_not_serializable(self, small_schema, tmp_path):
        dgp = make_dgp(
            small_schema,
            coef_p=[0.0] * 6,
            coef_q=[-1.0] + [0.0] * 5,
            rho=RhoSpec("custom", fn=lambda row: 0.0),
        )
        with pytest.raises(Exception):
            dgp.to_yaml(str(tmp_path / "dgp.yaml"))


class TestValidation:
    def test_wrong_marginal_length(self, small_schema):
        with pytest.raises(Exception, match="marginal"):
            make_dgp(
                small_schema,
                coef_p=[0.0] * 6,
                coef_q=[0.0] * 6,
                marginals=((0.5, 0.5), (1.0, 0.0, 0.0)),
            )

    def test_wrong_coef_length(self, small_schema):
        with pytest.raises(Exception, match="coef_p"):
            make_dgp(small_schema, coef_p=[0.0] * 5, coef_q=[0.0] * 6)


@given(
    scale=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=25, deadline=None)
def test_sampled_quads_always_feasible(small_schema, scale, seed):
    rng = np.random.default_rng(seed)
    try:
        dgp = make_dgp(
            small_schema,
            coef_p=rng.normal(0, 0.3, 6),
            coef_q=np.concatenate([[-1.5], rng.normal(0, 0.2, 5)]),
            rho=RhoSpec("constant", value=scale),
        )
    except InfeasibleCellError:
        # eager validation rejected a genuinely infeasible (p, q, rho)
        # combination; the property concerns the feasible ones
        assume(False)
    d, gt = sample_dataset(dgp, 200, seed=seed)
    assert np.all(gt.quads >= 0) and np.all(gt.quads <= 1)
    np.testing.assert_allclose(gt.quads.sum(axis=1), 1.0, atol=1e-9)
