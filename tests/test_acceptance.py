"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible with
``pytest -s`` and in the captured output of failures) and asserts the
criterion at its stated tolerance.
"""

import hashlib
import math
import os
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from scipy.special import logit

from conftest import analytic_k0, correlation_from_quad, covariance_from_quad
from pcptest import parallel
from pcptest.cli import main as cli_main
from pcptest.data import (
    CategoricalSchema,
    SplitPlan,
    default_schema,
    make_folds,
    one_hot_encode,
    split,
)
from pcptest.functionals import group_estimates, orthogonality_check, per_obs_stats
from pcptest.inference import (
    IntersectionInput,
    SortedGroupsConfig,
    gamma_n,
    gaussian_group_draw,
    intersection_test,
    mc_size_power,
    sorted_groups_run,
)
from pcptest.learners import (
    cross_entropy_loss,
    cross_fit_predict,
    default_grid,
    hyperopt,
    train_any,
)
from pcptest.network import (
    NetworkConfig,
    init_params,
    loss_and_gradient,
    weighted_cross_entropy,
)
from pcptest.synth import (
    RhoSpec,
    SyntheticDGP,
    WeightLaw,
    compute_ground_truth,
    sample_dataset,
)
from pcptest.trees import BoostConfig

pytestmark = pytest.mark.acceptance


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}", flush=True)
    assert ok, f"criterion {num} ({name}) failed: {detail}"


TWO_FEATURE_SCHEMA = CategoricalSchema((("a", tuple(range(4))), ("b", tuple(range(3)))))


def two_feature_dgp() -> SyntheticDGP:
    return SyntheticDGP(
        TWO_FEATURE_SCHEMA,
        (tuple([0.25] * 4), tuple([1 / 3] * 3)),
        np.array([-0.3, 0.4, -0.2, 0.5, 0.3, -0.4]),
        np.array([-1.8, 0.3, 0.5, -0.3, 0.2, 0.4]),
        RhoSpec("tanh", scale=0.2, coefs=(0.0, 1.0, -1.0, 0.5, -0.5, 1.0)),
        WeightLaw(),
    )


# ---------------------------------------------------------------------------
# 1. Functional oracle equivalence


def test_criterion_01_functional_oracle():
    t0 = time.monotonic()
    max_err = 0.0
    for seed in (0, 1, 2):
        d, _ = sample_dataset(two_feature_dgp(), 4000, seed=seed)  # 12 cells <= 64
        labels = d.class_labels()
        cells = np.unique(d.covariates, axis=0)
        for cell in cells:
            mask = np.all(d.covariates == cell, axis=1)
            w, c, r = d.w[mask], d.c[mask].astype(float), d.r[mask].astype(float)
            quad = np.bincount(labels[mask], weights=w, minlength=4) / w.sum()
            # independent oracle straight from the indicators
            mc = np.average(c, weights=w)
            mr = np.average(r, weights=w)
            cov_oracle = np.average(c * r, weights=w) - mc * mr
            var_c = np.average(c**2, weights=w) - mc**2
            var_r = np.average(r**2, weights=w) - mr**2
            corr_oracle = cov_oracle / math.sqrt(var_c * var_r)
            max_err = max(
                max_err,
                abs(covariance_from_quad(quad) - cov_oracle),
                abs(correlation_from_quad(quad) - corr_oracle),
            )
    table1 = np.array([3696, 302, 2203, 132]) / 6333.0
    t1_ok = abs(covariance_from_quad(table1) - (-0.004425)) <= 1.5e-6 and abs(
        correlation_from_quad(table1) - (-0.0363)
    ) <= 5e-5
    elapsed = time.monotonic() - t0
    ok = max_err <= 1e-12 and t1_ok and elapsed < 1.0
    _verdict(1, "functional oracle", ok, f"max err {max_err:.2e}, table-1 {'ok' if t1_ok else 'BAD'}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Convex-MLE equivalence


def _irls_multinomial(X, labels, w, n_classes=4, iters=60):
    """Newton-Raphson weighted multinomial logit, class 0 as baseline."""
    n, dim = X.shape
    K = n_classes - 1
    beta = np.zeros(dim * K)
    Y = np.column_stack([(labels == k + 1).astype(float) for k in range(K)])
    for _ in range(iters):
        scores = X @ beta.reshape(dim, K, order="F")
        full = np.column_stack([np.zeros(n), scores])
        full -= full.max(axis=1, keepdims=True)
        P = np.exp(full)
        P /= P.sum(axis=1, keepdims=True)
        Pk = P[:, 1:]
        grad = (X.T @ ((Y - Pk) * w[:, None])).ravel(order="F")
        H = np.zeros((dim * K, dim * K))
        for a in range(K):
            for b in range(K):
                m = w * Pk[:, a] * ((a == b) - Pk[:, b])
                H[a * dim : (a + 1) * dim, b * dim : (b + 1) * dim] = X.T @ (X * m[:, None])
        step = np.linalg.solve(H + 1e-10 * np.eye(dim * K), grad)
        beta = beta + step
        if np.abs(step).max() < 1e-10:
            break

    def predict(Xn):
        s = Xn @ beta.reshape(dim, K, order="F")
        f = np.column_stack([np.zeros(len(Xn)), s])
        f -= f.max(axis=1, keepdims=True)
        P = np.exp(f)
        return P / P.sum(axis=1, keepdims=True)

    return predict


def test_criterion_02_convex_mle_equivalence():
    t0 = time.monotonic()
    d, _ = sample_dataset(two_feature_dgp(), 5000, seed=21)
    d_fit, _, d_test = split(d, SplitPlan((0.7, 0.1, 0.2)))

    oracle = _irls_multinomial(
        one_hot_encode(d_fit), d_fit.class_labels(), d_fit.w
    )
    ce_oracle = weighted_cross_entropy(
        oracle(one_hot_encode(d_test)), d_test.class_labels(), d_test.w
    )
    # Validating on the training set makes early stopping non-binding, so
    # the convex depth-0 problem is trained to its optimum.
    cfg = NetworkConfig(depth=0, learning_rate=5e-3, max_epochs=500, patience=500, seed=0)
    model = train_any(d_fit, cfg, d_fit)
    ce_net = cross_entropy_loss(model, d_test)

    diff = abs(ce_net - ce_oracle)
    elapsed = time.monotonic() - t0
    ok = diff <= 1e-3 and elapsed < 30.0
    _verdict(2, "convex-MLE equivalence", ok, f"|CE diff| {diff:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Gradient check


def test_criterion_03_gradient_check():
    t0 = time.monotonic()
    cfg = NetworkConfig(depth=1, width=2)  # (2*2+2) + (2*4+4) = 18 <= 20 params
    rng = np.random.default_rng(4)
    n = 50
    X = np.column_stack([np.ones(n), rng.normal(size=n)])
    labels = rng.integers(0, 4, n)
    w = rng.uniform(0.2, 1.0, n)
    flat = init_params(cfg, 2, 4, rng)
    assert flat.size <= 20

    _, g = loss_and_gradient(flat, cfg, X, labels, w)
    h = 1e-6
    fd = np.zeros_like(flat)
    for j in range(flat.size):
        up, dn = flat.copy(), flat.copy()
        up[j] += h
        dn[j] -= h
        lu, _ = loss_and_gradient(up, cfg, X, labels, w)
        ld, _ = loss_and_gradient(dn, cfg, X, labels, w)
        fd[j] = (lu - ld) / (2 * h)
    rel = float((np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)).max())
    elapsed = time.monotonic() - t0
    ok = rel <= 1e-4 and elapsed < 5.0
    _verdict(3, "gradient check", ok, f"max rel err {rel:.2e} over {flat.size} params, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Orthogonality suite


def test_criterion_04_orthogonality():
    t0 = time.monotonic()
    dgp = two_feature_dgp()
    cov = orthogonality_check("covariance", dgp, step=1e-4, seed=0).max_derivative
    naive = orthogonality_check("naive correlation", dgp, step=1e-4, seed=0).max_derivative
    deb = orthogonality_check("debiased correlation", dgp, step=1e-4, seed=0).max_derivative
    elapsed = time.monotonic() - t0
    ok = cov <= 1e-6 and naive > 1e-3 and deb <= 1e-4 and elapsed < 30.0
    _verdict(
        4,
        "orthogonality",
        ok,
        f"covariance {cov:.1e} (<=1e-6), naive {naive:.1e} (>1e-3), debiased {deb:.1e} (<=1e-4), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 5. Critical-value reproduction


def test_criterion_05_critical_values():
    t0 = time.monotonic()
    gam = gamma_n(6333)
    deltas, k4 = {}, None
    k12 = None
    for L in (1, 2, 4, 12):
        res = intersection_test(
            IntersectionInput(np.zeros(L), np.ones(L), 6333, mc_draws=100_000, seed=L)
        )
        deltas[L] = abs(res.k0 - analytic_k0(L, gam))
        if L == 4:
            k4 = res.k0
        if L == 12:
            k12 = res.k0
    elapsed = time.monotonic() - t0
    ok = (
        abs(gam - 0.98858) <= 5e-6
        and all(dv <= 0.05 for dv in deltas.values())
        and 2.65 <= k4 <= 2.85
        and 3.00 <= k12 <= 3.25
        and elapsed < 10.0
    )
    _verdict(
        5,
        "critical values",
        ok,
        f"gamma_n {gam:.5f}, max |MC-analytic| {max(deltas.values()):.3f}, k0(4)={k4:.3f}, k0(12)={k12:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Intersection-test size and power


def test_criterion_06_size_and_power():
    t0 = time.monotonic()
    size = mc_size_power(
        gaussian_group_draw([0.0] * 12, dispersion=1.0, n_per_group=100),
        alpha=0.05,
        reps=500,
        seed=60,
    )
    power = mc_size_power(
        gaussian_group_draw([-0.5] * 12, dispersion=1.0, n_per_group=100),
        alpha=0.05,
        reps=500,
        seed=61,
    )
    elapsed = time.monotonic() - t0
    size_ok = size.rate <= 0.05 + 2 * size.binomial_se
    power_ok = power.rate >= 0.95
    ok = size_ok and power_ok and elapsed < 600.0
    _verdict(
        6,
        "intersection size/power",
        ok,
        f"size {size.rate:.3f} (<= {0.05 + 2 * size.binomial_se:.3f}), power {power.rate:.3f} (>= 0.95), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Ground-truth recovery

C7_CELLS = 12
C7_SCHEMA = CategoricalSchema((("cell", tuple(range(C7_CELLS))),))
C7_P = np.tile([0.30, 0.52, 0.72], 4)  # strong marginal signal within groups
C7_Q = np.tile([0.66, 0.45, 0.28], 4)
C7_GROUPS = [np.arange(3 * g, 3 * g + 3) for g in range(4)]
C7_LEARNER = BoostConfig(n_rounds=80, max_depth=4, min_leaf=10, learning_rate=0.5)


def _c7_dgp(rho_cells) -> SyntheticDGP:
    rho_cells = np.asarray(rho_cells, dtype=np.float64)

    def fn(row):
        j = int(np.argmax(row[1:]) + 1) if row[1:].max() > 0.5 else 0
        return float(rho_cells[j])

    coef_p = np.concatenate([[logit(C7_P[0])], logit(C7_P[1:]) - logit(C7_P[0])])
    coef_q = np.concatenate([[logit(C7_Q[0])], logit(C7_Q[1:]) - logit(C7_Q[0])])
    return SyntheticDGP(
        C7_SCHEMA,
        (tuple([1.0 / C7_CELLS] * C7_CELLS),),
        coef_p,
        coef_q,
        RhoSpec("custom", fn=fn),
        WeightLaw(),
    )


# The replicates of criteria 7 and 8 are the pool's units; the cross-fits
# inside them run serially in their worker.


def _c7_rep(dgp: SyntheticDGP, seed: int):
    d, _ = sample_dataset(dgp, 6333, seed=seed)
    stats = per_obs_stats(cross_fit_predict(d, C7_LEARNER, make_folds(d, 2, seed)))
    rows = [np.nonzero(np.isin(d.covariates[:, 0], cells))[0] for cells in C7_GROUPS]
    return group_estimates("correlation", stats, d.c, d.r, d.w, rows)


def _c7_rejection_rate(dgp: SyntheticDGP, reps: int, base_seed: int) -> float:
    def rejected(seed: int) -> bool:
        est, ses = _c7_rep(dgp, seed)
        return intersection_test(IntersectionInput(est, ses, 6333, 0.05, 20_000, seed)).rejected

    return sum(parallel.map_units(rejected, range(base_seed, base_seed + reps))) / reps


def test_criterion_07_ground_truth_recovery():
    t0 = time.monotonic()

    # Recovery: group-constant rho* in {-0.15, 0, +0.15}; estimates within
    # 3 Monte Carlo standard errors of the true group values.
    dgp_rec = _c7_dgp(np.repeat([-0.15, 0.0, 0.0, 0.15], 3))
    truth = compute_ground_truth(dgp_rec)
    lut = truth.lookup()
    true_groups = np.array(
        [np.mean([truth.correlation[lut[(int(c),)]] for c in cells]) for cells in C7_GROUPS]
    )
    reps = 200
    est = np.array(
        list(
            parallel.map_units(
                lambda seed: _c7_rep(dgp_rec, seed)[0], range(70_000, 70_000 + reps)
            )
        )
    )
    mc_se = est.std(axis=0, ddof=1)
    covered = np.abs(est - true_groups) <= 3.0 * mc_se
    recovery = float(covered.all(axis=1).mean())

    power = _c7_rejection_rate(_c7_dgp(np.full(C7_CELLS, -0.15)), 100, 71_000)
    size = _c7_rejection_rate(_c7_dgp(np.full(C7_CELLS, 0.15)), 100, 72_000)
    size_bound = 0.05 + 2 * math.sqrt(0.05 * 0.95 / 100)

    elapsed = time.monotonic() - t0
    ok = recovery >= 0.90 and power >= 0.8 and size <= size_bound and elapsed < 3600.0
    _verdict(
        7,
        "ground-truth recovery",
        ok,
        f"recovery {recovery:.3f} (>=0.90), power {power:.2f} (>=0.8), size {size:.2f} (<= {size_bound:.3f}), {elapsed:.0f}s",
    )


def test_criterion_07_boundary_size():
    """Size at the boundary of the null: rho* = 0 in every cell.  Criterion
    7's own size check runs at rho* = +0.15, deep inside the null, where
    standard errors that are too small still reject rarely."""
    t0 = time.monotonic()
    size = _c7_rejection_rate(_c7_dgp(np.zeros(C7_CELLS)), 100, 73_000)
    size_bound = 0.05 + 2 * math.sqrt(0.05 * 0.95 / 100)
    elapsed = time.monotonic() - t0
    ok = size <= size_bound and elapsed < 1800.0
    _verdict(7, "boundary size", ok, f"size {size:.2f} (<= {size_bound:.3f}), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. Sorted-groups coverage


def _group1_truth(d, rho: np.ndarray, split) -> float:
    """Weighted mean of the true per-record rho over a split's group 1, the
    quantity its group-1 statistic estimates."""
    rows = split.group_rows[0]
    return float(np.average(rho[rows], weights=d.w[rows]))


def test_criterion_08_sorted_groups_coverage():
    t0 = time.monotonic()
    dgp = two_feature_dgp()
    learner = NetworkConfig(depth=0, learning_rate=1e-2, max_epochs=100, patience=10)
    reps = 500

    def hit(seed: int) -> bool:
        d, truth = sample_dataset(dgp, 2000, seed=seed)
        res = sorted_groups_run(d, SortedGroupsConfig(n_splits=1, grid=(learner,), seed=seed))
        s = res.splits[0]
        target = _group1_truth(d, truth.record_values(d.covariates), s)
        return s.statistic - 1.96 * s.se <= target <= s.statistic + 1.96 * s.se

    coverage = sum(parallel.map_units(hit, range(80_000, 80_000 + reps))) / reps
    elapsed = time.monotonic() - t0
    ok = coverage >= 0.92 and elapsed < 1800.0
    _verdict(8, "sorted-groups coverage", ok, f"coverage {coverage:.3f} (>= 0.92), {elapsed:.0f}s")


@pytest.mark.parametrize("statistic", ["correlation", "covariance"])
def test_criterion_08_boundary_size(statistic):
    """Size of the sorted-groups test at the boundary of the null: criterion
    7's DGP with rho* = 0 in every cell.  Within each of its groups of 3
    cells p rises while q falls, so the statistic of a group's pooled 2x2
    table is negative although every cell's is 0."""
    t0 = time.monotonic()
    dgp = _c7_dgp(np.zeros(C7_CELLS))
    reps = 100

    def rejected(seed: int) -> bool:
        d, _ = sample_dataset(dgp, 6333, seed=seed)
        cfg = SortedGroupsConfig(n_splits=3, statistic=statistic, grid=(C7_LEARNER,), seed=seed)
        return sorted_groups_run(d, cfg).adjusted_p_value < 0.05

    size = sum(parallel.map_units(rejected, range(81_000, 81_000 + reps))) / reps
    size_bound = 0.05 + 2 * math.sqrt(0.05 * 0.95 / reps)
    elapsed = time.monotonic() - t0
    ok = size <= size_bound and elapsed < 1800.0
    _verdict(
        8,
        f"sorted-groups boundary size, {statistic}",
        ok,
        f"size {size:.2f} (<= {size_bound:.3f}), {elapsed:.0f}s",
    )


def test_criterion_08_interval_coverage():
    """CDDF's split-median interval covers the median over splits of group
    1's mean conditional rho with probability at least 1 - 2 alpha."""
    t0 = time.monotonic()
    dgp = two_feature_dgp()
    learner = BoostConfig(n_rounds=40, max_depth=3)
    alphas = (0.05, 0.10)
    reps = 200

    def hits(seed: int) -> list[bool]:
        d, truth = sample_dataset(dgp, 2000, seed=seed)
        res = sorted_groups_run(d, SortedGroupsConfig(n_splits=5, grid=(learner,), seed=seed))
        rho = truth.record_values(d.covariates)
        target = float(np.median([_group1_truth(d, rho, s) for s in res.splits]))
        return [lower <= target <= upper for lower, upper in map(res.interval, alphas)]

    coverage = np.mean(list(parallel.map_units(hits, range(82_000, 82_000 + reps))), axis=0)
    elapsed = time.monotonic() - t0
    ok = all(cov >= 1 - 2 * a for cov, a in zip(coverage, alphas)) and elapsed < 1800.0
    detail = ", ".join(f"{cov:.3f} (>= {1 - 2 * a:.2f}) at alpha {a}" for cov, a in zip(coverage, alphas))
    _verdict(8, "split-median interval", ok, f"coverage {detail}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. Determinism of every command


def test_criterion_09_determinism(tmp_path):
    t0 = time.monotonic()
    runner = CliRunner()
    dgp_path = tmp_path / "dgp.yaml"
    two_feature_dgp().to_yaml(str(dgp_path))

    def run_twice(command: str, out: str, extra: dict):
        """Run the identical invocation twice into the same directory and
        return the two file-hash snapshots."""
        doc = {"out": out, "seed": 7, **extra}
        cfg_path = tmp_path / f"{os.path.basename(out)}_{command}.yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(doc, fh)
        snapshots = []
        for _ in range(2):
            res = runner.invoke(cli_main, ["--config", str(cfg_path), command])
            assert res.exit_code == 0, f"{command}: {res.output}"
            snapshots.append(
                {
                    name: hashlib.sha256(
                        open(os.path.join(out, name), "rb").read()
                    ).hexdigest()
                    for name in sorted(os.listdir(out))
                }
            )
        return snapshots

    sim_extra = {"dgp": str(dgp_path), "n": 600}
    first, second = run_twice("simulate", str(tmp_path / "sim"), sim_extra)
    mismatches = [] if first == second else ["simulate"]

    data_extra = {
        "dataset": str(tmp_path / "sim" / "dataset.csv"),
        "schema": str(tmp_path / "sim" / "schema.yaml"),
        "learner": "boosted",
        "boosted": {"n_rounds": 8, "max_depth": 2},
        "folds": 2,
        "mc_draws": 2000,
        "sorted_splits": 1,
        "hyperopt_grid": "singleton",
    }
    for command in (
        "fit",
        "hyperopt",
        "estimate",
        "test-intersection",
        "test-sorted",
        "importance",
        "report",
    ):
        a, b = run_twice(command, str(tmp_path / command), data_extra)
        if a != b:
            mismatches.append(command)
    elapsed = time.monotonic() - t0
    ok = not mismatches
    _verdict(
        9,
        "determinism",
        ok,
        f"8 commands byte-identical{'' if ok else ' except ' + ', '.join(mismatches)}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. Runtime budget for the full hyperparameter grid


def test_criterion_10_hyperopt_runtime():
    schema = default_schema()
    rng = np.random.default_rng(0)
    ncols = schema.n_design_columns
    marginals = tuple(tuple(1.0 / len(codes) for _ in codes) for _, codes in schema.features)
    dgp = SyntheticDGP(
        schema,
        marginals,
        np.concatenate([[-0.4], rng.uniform(-0.3, 0.3, ncols - 1)]),
        np.concatenate([[-1.5], rng.uniform(-0.3, 0.3, ncols - 1)]),
        RhoSpec("constant", value=0.0),
        WeightLaw(),
    )
    d, _ = sample_dataset(dgp, 6333, seed=10)
    grid = default_grid(NetworkConfig, seed=0)
    assert len(grid) == 108
    t0 = time.monotonic()
    report = hyperopt(d, grid, SplitPlan((0.70, 0.15, 0.15)))
    elapsed = time.monotonic() - t0
    ok = elapsed <= 900.0 and np.isfinite(report.selected_loss)
    _verdict(
        10,
        "hyperopt runtime",
        ok,
        f"108 candidates in {elapsed:.0f}s (<= 900s), selected loss {report.selected_loss:.4f}",
    )
