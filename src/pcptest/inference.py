"""The two PCP testing procedures.

The intersection test asks whether the smallest group-averaged statistic
is negative, with Monte Carlo calibrated critical values (a selection
value k0 and a decision value k).  The sorted-groups test repeatedly
splits the sample, trains on one half, sorts the other half into quartiles
of the predicted statistic, and tests the lowest quartile directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.stats import norm

from . import learners as L
from .data import (
    DataError,
    Dataset,
    SplitPlan,
    quantile_group_indices,
)
from .functionals import (
    DegenerateMarginalError,
    GroupEstimate,
    correlation_from_quad,
    covariance_from_quad,
    group_mean,
    per_obs_stats,
)
from .network import NetworkConfig

__all__ = [
    "IntersectionInput",
    "IntersectionResult",
    "intersection_test",
    "analytic_k0",
    "gamma_n",
    "SortedGroupsConfig",
    "SplitResult",
    "SortedGroupsResult",
    "sorted_groups_run",
    "delta_method_se",
    "RejectionReport",
    "mc_size_power",
    "gaussian_group_draw",
]


def gamma_n(n: int) -> float:
    """Selection confidence level 1 - 0.1/log(n), natural log."""
    if n < 2:
        raise DataError("gamma_n needs n >= 2")
    return 1.0 - 0.1 / math.log(n)


@dataclass(frozen=True)
class IntersectionInput:
    estimates: np.ndarray  # (L,) group estimates T_l
    ses: np.ndarray  # (L,) their standard errors
    n: int  # full sample size (enters gamma_n)
    alpha: float = 0.05
    mc_draws: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        est = np.asarray(self.estimates, dtype=np.float64)
        ses = np.asarray(self.ses, dtype=np.float64)
        object.__setattr__(self, "estimates", est)
        object.__setattr__(self, "ses", ses)
        if est.ndim != 1 or est.size < 1:
            raise DataError("estimates must be a nonempty vector")
        if ses.shape != est.shape:
            raise DataError("ses must match estimates in shape")
        if not np.all(ses > 0.0):
            raise DataError("all standard errors must be positive")
        if not np.all(np.isfinite(est)) or not np.all(np.isfinite(ses)):
            raise DataError("estimates and ses must be finite")
        if not (0.0 < self.alpha < 1.0):
            raise DataError("alpha must lie in (0, 1)")
        if self.n < 2:
            raise DataError("n must be at least 2")
        if self.mc_draws < 100:
            raise DataError("mc_draws must be at least 100")

    @property
    def L(self) -> int:
        return self.estimates.size


@dataclass(frozen=True)
class IntersectionResult:
    gamma_n: float
    k0: float
    selected: tuple[int, ...]  # 0-based indices into the group list
    k: float
    statistic: float  # inf over the selected set of T_l + k*se_l
    rejected: bool
    ci: tuple[float, float]
    ci_clamped: bool = False


def intersection_test(inp: IntersectionInput) -> IntersectionResult:
    """Monte Carlo calibrated test of H0: min_l T_l >= 0.

    Steps: draw xi_r ~ N(0, I_L); k0 is the gamma_n-quantile of max_l
    xi_rl; keep groups with T_l <= min_m(T_m + k0 se_m) + 2 k0 se_l; k is
    the (1-alpha)-quantile of the max over the kept groups; reject iff
    min over kept groups of T_l + k se_l is negative.  Deterministic
    given the seed; quantiles are type-7 (linear interpolation).
    """
    est, ses = inp.estimates, inp.ses
    gam = gamma_n(inp.n)
    rng = np.random.default_rng(inp.seed)
    xi = rng.standard_normal((inp.mc_draws, inp.L))
    k0 = float(np.quantile(xi.max(axis=1), gam))

    threshold = np.min(est + k0 * ses)
    keep = est <= threshold + 2.0 * k0 * ses
    selected = tuple(int(i) for i in np.nonzero(keep)[0])
    k = float(np.quantile(xi[:, keep].max(axis=1), 1.0 - inp.alpha))

    statistic = float(np.min(est[keep] + k * ses[keep]))
    a = float(np.min(est + k * ses))
    b = float(np.max(est - k * ses))
    clamped = b < a
    if clamped:
        b = a
    return IntersectionResult(
        gam, k0, selected, k, statistic, statistic < 0.0, (a, b), clamped
    )


def analytic_k0(L: int, gamma: float) -> float:
    """Quantile of the max of L independent standard normals: Phi^-1(gamma^(1/L))."""
    if L < 1:
        raise DataError("L must be at least 1")
    if not (0.0 < gamma < 1.0):
        raise DataError("gamma must lie in (0, 1)")
    return float(norm.ppf(gamma ** (1.0 / L)))


# ---------------------------------------------------------------------------
# Delta-method standard errors for statistics of a group-mean quad


def _quad_gradient(quad: np.ndarray, kind: str) -> np.ndarray:
    """Analytic gradient of the statistic in (p00, p01, p10, p11)."""
    quad = np.asarray(quad, dtype=np.float64)
    p = quad[2] + quad[3]
    q = quad[1] + quad[3]
    grad_c = np.array([0.0, -p, -q, 1.0 - p - q])
    if kind == "covariance":
        return grad_c
    if kind != "correlation":
        raise DataError(f"unknown statistic kind {kind!r}")
    rho = correlation_from_quad(quad)  # raises on degenerate marginals
    s = math.sqrt(p * (1 - p) * q * (1 - q))
    # d rho = (1/s) dC - rho * (dlog s); log s depends on the quad only
    # through p (entries p10, p11) and q (entries p01, p11).
    dlogs_dp = (1 - 2 * p) / (2 * p * (1 - p))
    dlogs_dq = (1 - 2 * q) / (2 * q * (1 - q))
    grad_p = np.array([0.0, 0.0, 1.0, 1.0])
    grad_q = np.array([0.0, 1.0, 0.0, 1.0])
    return grad_c / s - rho * (dlogs_dp * grad_p + dlogs_dq * grad_q)


def delta_method_se(quad: np.ndarray, sigma: np.ndarray, kind: str) -> float:
    """sqrt(grad' Sigma grad) for the statistic of a mean quad."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (4, 4):
        raise DataError("sigma must be a 4x4 covariance matrix")
    if not np.allclose(sigma, sigma.T, atol=1e-10):
        raise DataError("sigma must be symmetric")
    g = _quad_gradient(quad, kind)
    var = float(g @ sigma @ g)
    # Clip tiny negative values from floating-point PSD violations.
    return math.sqrt(max(var, 0.0))


# ---------------------------------------------------------------------------
# Sorted-groups test


@dataclass(frozen=True)
class SortedGroupsConfig:
    n_groups: int = 4
    n_splits: int = 101
    main_fraction: float = 0.5
    statistic: str = "correlation"  # or "covariance"
    learner: L.LearnerConfig | None = None  # fixed config, skips the search
    grid: tuple | None = None  # None with learner None = default network grid
    network: dict = field(default_factory=dict)  # NetworkConfig settings for that grid
    seed: int = 0
    max_retries: int = 20
    hyperopt_plan: SplitPlan = field(default_factory=lambda: SplitPlan((0.70, 0.15, 0.15)))

    def __post_init__(self) -> None:
        if self.n_groups < 2:
            raise DataError("need at least 2 groups")
        if self.n_splits < 1:
            raise DataError("need at least 1 split")
        if not (0.0 < self.main_fraction < 1.0):
            raise DataError("main_fraction must lie in (0, 1)")
        if self.statistic not in ("covariance", "correlation"):
            raise DataError(f"unknown statistic {self.statistic!r}")
        try:
            NetworkConfig(**self.network)
        except ValueError as err:
            raise DataError(f"invalid network settings: {err}") from err


@dataclass(frozen=True)
class SplitResult:
    group_quads: np.ndarray  # (n_groups, 4) weighted mean quads, sorted by prediction
    group_stats: np.ndarray  # (n_groups,) statistic of each mean quad
    group_ses: np.ndarray  # delta-method SEs
    predicted_means: np.ndarray  # group means of the predicted statistic
    group_rows: tuple[np.ndarray, ...]  # row indices into the full dataset
    statistic: float  # group 1 (lowest quartile)
    se: float
    tstat: float
    p_value: float


@dataclass(frozen=True)
class SortedGroupsResult:
    config: SortedGroupsConfig
    splits: tuple[SplitResult, ...]
    median_group_stats: np.ndarray
    median_statistic: float
    median_tstat: float
    median_p_value: float

    @property
    def rejected(self) -> bool:
        return self.median_p_value < 0.05


def _group_quad_and_cov(
    labels: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean of the class one-hot plus its sandwich covariance."""
    y = np.zeros((len(labels), 4))
    y[np.arange(len(labels)), labels] = 1.0
    sw = w.sum()
    mean = w @ y / sw
    resid = y - mean
    cov = (resid * (w**2)[:, None]).T @ resid / sw**2
    return mean, cov


def _one_split(
    d: Dataset, cfg: SortedGroupsConfig, rng: np.random.Generator, inner_seed: int
) -> SplitResult:
    last_err: Exception | None = None
    for _ in range(cfg.max_retries):
        perm = rng.permutation(d.n)
        n_main = int(math.floor(d.n * cfg.main_fraction))
        if n_main < cfg.n_groups or d.n - n_main < 10:
            raise DataError("sample too small for the sorted-groups split")
        main, aux = d.take(perm[:n_main]), d.take(perm[n_main:])
        try:
            return _split_result(main, aux, cfg, inner_seed, perm[:n_main])
        except DataError as err:
            last_err = err  # empty group or degenerate split; redraw
    raise DataError(
        f"sorted-groups split failed after {cfg.max_retries} retries: {last_err}"
    )


def _split_result(
    main: Dataset,
    aux: Dataset,
    cfg: SortedGroupsConfig,
    inner_seed: int,
    main_rows: np.ndarray,
) -> SplitResult:
    if cfg.learner is not None:
        learner_cfg = cfg.learner
        if isinstance(learner_cfg, NetworkConfig):
            learner_cfg = replace(learner_cfg, seed=inner_seed)
    else:
        grid = cfg.grid if cfg.grid is not None else tuple(
            L.default_network_grid(seed=inner_seed, **cfg.network)
        )
        report = L.hyperopt_network(aux, grid, replace(cfg.hyperopt_plan, seed=inner_seed))
        learner_cfg = report.selected
    model = L.train_any(aux, learner_cfg)

    quads = model.predict_quads(main)
    stats = per_obs_stats(quads)
    values = stats.covariance if cfg.statistic == "covariance" else stats.correlation
    groups = quantile_group_indices(values, main.w, cfg.n_groups)

    labels = main.class_labels()
    group_quads = np.empty((cfg.n_groups, 4))
    group_stats = np.empty(cfg.n_groups)
    group_ses = np.empty(cfg.n_groups)
    predicted_means = np.empty(cfg.n_groups)
    stat_fn = covariance_from_quad if cfg.statistic == "covariance" else correlation_from_quad
    for g, idx in enumerate(groups):
        quad, cov = _group_quad_and_cov(labels[idx], main.w[idx])
        try:
            group_stats[g] = stat_fn(quad)
        except DegenerateMarginalError as err:
            raise DataError(f"group {g + 1}: {err}") from err
        group_quads[g] = quad
        group_ses[g] = delta_method_se(quad, cov, cfg.statistic)
        predicted_means[g] = float(np.average(values[idx], weights=main.w[idx]))

    se1 = group_ses[0]
    if se1 <= 0.0:
        raise DataError("group 1 standard error is zero; cannot test")
    tstat = group_stats[0] / se1
    return SplitResult(
        group_quads,
        group_stats,
        group_ses,
        predicted_means,
        tuple(main_rows[idx] for idx in groups),
        float(group_stats[0]),
        float(se1),
        float(tstat),
        float(norm.cdf(tstat)),
    )


def sorted_groups_run(d: Dataset, cfg: SortedGroupsConfig) -> SortedGroupsResult:
    """Run the sorted-groups procedure over cfg.n_splits random splits and
    report componentwise medians.  All randomness flows from cfg.seed."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_splits)
    results = []
    for child in children:
        rng = np.random.default_rng(child)
        inner_seed = int(rng.integers(2**31 - 1))
        results.append(_one_split(d, cfg, rng, inner_seed))
    stats = np.array([r.group_stats for r in results])
    return SortedGroupsResult(
        cfg,
        tuple(results),
        np.median(stats, axis=0),
        float(np.median([r.statistic for r in results])),
        float(np.median([r.tstat for r in results])),
        float(np.median([r.p_value for r in results])),
    )


# ---------------------------------------------------------------------------
# Monte Carlo size and power harness


@dataclass(frozen=True)
class RejectionReport:
    reps: int
    rejections: int
    alpha: float

    @property
    def rate(self) -> float:
        return self.rejections / self.reps

    @property
    def binomial_se(self) -> float:
        return math.sqrt(self.alpha * (1.0 - self.alpha) / self.reps)


def mc_size_power(
    draw: Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray, int]],
    alpha: float = 0.05,
    reps: int = 500,
    seed: int = 0,
    mc_draws: int = 10_000,
) -> RejectionReport:
    """Rejection frequency of the intersection test over fresh draws.

    ``draw(rng)`` returns (group estimates, group SEs, sample size n) for
    one replication; everything downstream is seeded from ``seed``.
    """
    if reps < 100:
        raise DataError("reps must be at least 100")
    rejections = 0
    for child in np.random.SeedSequence(seed).spawn(reps):
        rng = np.random.default_rng(child)
        est, ses, n = draw(rng)
        test_seed = int(rng.integers(2**31 - 1))
        res = intersection_test(
            IntersectionInput(est, ses, n, alpha, mc_draws, test_seed)
        )
        rejections += int(res.rejected)
    return RejectionReport(reps, rejections, alpha)


def gaussian_group_draw(
    group_means: Sequence[float],
    dispersion: float,
    n_per_group: int,
    weight_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
) -> Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray, int]]:
    """Per-observation draw: each group holds n_per_group values
    mu_g + dispersion * eps with weights from ``weight_sampler`` (ones by
    default); the group estimate and SE come from the weighted group mean."""
    mus = np.asarray(group_means, dtype=np.float64)
    n_total = n_per_group * mus.size

    def draw(rng: np.random.Generator):
        ests = np.empty(mus.size)
        ses = np.empty(mus.size)
        for g, mu in enumerate(mus):
            v = mu + dispersion * rng.standard_normal(n_per_group)
            w = (
                np.ones(n_per_group)
                if weight_sampler is None
                else weight_sampler(rng, n_per_group)
            )
            ge: GroupEstimate = group_mean(v, w, group_id=str(g + 1))
            ests[g], ses[g] = ge.estimate, ge.se
        return ests, ses, n_total

    return draw
