"""Shared fixtures: small schemas and synthetic DGPs used across suites,
the scalar oracles several suites compare the package against, and the
groupings of fits into stacks."""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from pcptest import parallel
from pcptest.data import CategoricalSchema, DataError, Dataset
from pcptest.functionals import (
    DEGENERATE_TOL,
    correlation_score,
    covariance_score,
    per_obs_stats,
)
from pcptest.network import PROB_CLIP
from pcptest.synth import RhoSpec, SyntheticDGP, WeightLaw, sample_dataset


@pytest.fixture(scope="session")
def small_schema() -> CategoricalSchema:
    return CategoricalSchema((("a", tuple(range(4))), ("b", tuple(range(3)))))


def uniform_marginals(schema: CategoricalSchema):
    return tuple(tuple(1.0 / len(codes) for _ in codes) for _, codes in schema.features)


def make_dgp(schema, coef_p, coef_q, rho=None, weights=None, marginals=None):
    return SyntheticDGP(
        schema,
        marginals if marginals is not None else uniform_marginals(schema),
        np.asarray(coef_p, dtype=np.float64),
        np.asarray(coef_q, dtype=np.float64),
        rho if rho is not None else RhoSpec("constant", value=0.0),
        weights if weights is not None else WeightLaw(),
    )


@pytest.fixture(scope="session")
def small_dgp(small_schema) -> SyntheticDGP:
    """Generic DGP on the 4x3 schema: varying p, q, and a tanh rho."""
    return make_dgp(
        small_schema,
        coef_p=[-0.3, 0.4, -0.2, 0.5, 0.3, -0.4],
        coef_q=[-1.8, 0.3, 0.5, -0.3, 0.2, 0.4],
        rho=RhoSpec("tanh", scale=0.2, coefs=(0.0, 1.0, -1.0, 0.5, -0.5, 1.0)),
    )


@pytest.fixture(scope="session")
def small_dataset(small_dgp):
    dataset, _ = sample_dataset(small_dgp, 3000, seed=11)
    return dataset


@pytest.fixture
def workers(monkeypatch):
    """``workers(n)`` runs every parallel batch of the test on n workers.
    With 1 the units run in this process, so calls a test records in a
    list here are all seen."""
    return lambda n: monkeypatch.setattr(parallel, "worker_count", lambda: n)


def groupings(n):
    """Every grouping of fits 0 .. n - 1 into contiguous stacks, from all
    singletons to one stack, as ``learners.stacks`` returns them."""
    for cuts in itertools.product([False, True], repeat=n - 1):
        edges = [0, *(i + 1 for i, cut in enumerate(cuts) if cut), n]
        yield [range(a, b) for a, b in zip(edges, edges[1:])]


class DegenerateMarginalError(ValueError):
    """A marginal probability sits at 0 or 1, so the correlation is undefined."""


def covariance_from_quad(quad: np.ndarray) -> float:
    return float(per_obs_stats(quad).covariance)


def correlation_from_quad(quad: np.ndarray) -> float:
    stats = per_obs_stats(quad)
    if stats.degenerate:
        raise DegenerateMarginalError(
            f"correlation undefined at p={float(stats.p)}, q={float(stats.q)}"
        )
    return float(stats.correlation)


# The scalar formulas the vectorized kernel replaced, kept as its oracle.


def oracle_marginals(quad):
    quad = np.asarray(quad, dtype=np.float64)
    return quad[..., 2] + quad[..., 3], quad[..., 1] + quad[..., 3]


def oracle_correlation(quad):
    p, q = oracle_marginals(quad)
    if min(p, 1 - p, q, 1 - q) < DEGENERATE_TOL:
        raise DegenerateMarginalError(f"correlation undefined at p={float(p)}, q={float(q)}")
    cov = float(np.asarray(quad)[..., 3] - p * q)
    return cov / math.sqrt(p * (1 - p) * q * (1 - q))


def oracle_quad_gradient(quad, kind):
    quad = np.asarray(quad, dtype=np.float64)
    p = quad[2] + quad[3]
    q = quad[1] + quad[3]
    grad_c = np.array([0.0, -p, -q, 1.0 - p - q])
    if kind == "covariance":
        return grad_c
    rho = oracle_correlation(quad)
    s = math.sqrt(p * (1 - p) * q * (1 - q))
    dlogs_dp = (1 - 2 * p) / (2 * p * (1 - p))
    dlogs_dq = (1 - 2 * q) / (2 * q * (1 - q))
    grad_p = np.array([0.0, 0.0, 1.0, 1.0])
    grad_q = np.array([0.0, 1.0, 0.0, 1.0])
    return grad_c / s - rho * (dlogs_dp * grad_p + dlogs_dq * grad_q)


# The per-group estimator ``group_estimates`` replaced, kept as its oracle:
# each group scores every record, then indexes its own.


def oracle_group_mean(values, weights, group):
    """One group's weighted mean and sandwich standard error
    sqrt(sum w_i^2 (v_i - mean)^2) / sum w_i; NaN for an empty group."""
    values = np.asarray(values, dtype=np.float64)[group]
    weights = np.asarray(weights, dtype=np.float64)[group]
    if values.size == 0:
        return math.nan, math.nan
    est = float(np.sum(weights * values) / np.sum(weights))
    return est, math.sqrt(np.sum(weights**2 * (values - est) ** 2)) / np.sum(weights)


def oracle_group_estimate(statistic, stats, c, r, weights, group):
    """One group's statistic over its usable records, every record for the
    covariance and the non-degenerate ones for the correlation; NaN with
    fewer than 3 of them."""
    group = np.asarray(group, dtype=np.int64)
    if statistic == "covariance":
        psi = covariance_score(stats, c, r)
    else:
        psi = correlation_score(stats, c, r)
        group = group[~stats.degenerate[group]]
    if len(group) < 3:
        return math.nan, math.nan
    return oracle_group_mean(psi, weights, group)


def constant_model_loss(d: Dataset) -> float:
    """Loss of the best constant prediction: the weighted class entropy."""
    class_w = np.bincount(d.class_labels(), weights=d.w, minlength=4)
    p = class_w / class_w.sum()
    p = np.clip(p, PROB_CLIP, None)
    return float(-(class_w / class_w.sum() * np.log(p)).sum())


def analytic_k0(L: int, gamma: float) -> float:
    """Quantile of the max of L independent standard normals: Phi^-1(gamma^(1/L)),
    the closed form the intersection test's Monte Carlo k0 approaches."""
    if L < 1:
        raise DataError("L must be at least 1")
    if not (0.0 < gamma < 1.0):
        raise DataError("gamma must lie in (0, 1)")
    return float(norm.ppf(gamma ** (1.0 / L)))
