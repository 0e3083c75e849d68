"""Covariance and correlation functionals of predicted class probabilities.

One vectorized kernel, ``per_obs_stats``, maps predicted quads (p00, p01,
p10, p11) of any leading shape (..., 4) to the marginals p = p10 + p11 and
q = p01 + p11, the conditional covariance C = p11 - p*q, the correlation
rho = C / sqrt(p(1-p) q(1-q)) and the coefficients grad1 and grad2 of its
one-step score.  A marginal within DEGENERATE_TOL of 0 or 1 flags the
record, whose correlation terms are zeroed.  Every other statistic in the
package is read from this kernel.

Both group statistics are weighted group means of a per-record one-step
orthogonal score, s(quad) + grad s(quad) . (y - quad) with y the one-hot
of the record's (c, r) class (Chernozhukov et al., "Double/debiased
machine learning", Econometrics Journal 2018).  For C the score is the
residual product (c - p)(r - q); for rho it adds the grad1 and grad2 terms
to the residual product scaled by 1/sqrt(p(1-p) q(1-q)).

``group_estimates`` scores the records once and hands every group's usable
records to ``group_means``, the one sandwich-SE kernel, which returns the
estimates and SEs of all the groups as two arrays.  Both tests read their
group estimates there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DataError, weighted_mean

__all__ = [
    "PerObsStats",
    "FunctionSummary",
    "per_obs_stats",
    "covariance_score",
    "correlation_score",
    "group_means",
    "group_estimates",
    "summarize",
    "OrthogonalityReport",
    "orthogonality_check",
]

DEGENERATE_TOL = 1e-9
# Fewer usable records than this leave a group's estimate undefined (NaN).
MIN_USABLE = 3


@dataclass(frozen=True)
class PerObsStats:
    """Per-record plug-in statistics over any leading shape (...); degenerate
    marginals are flagged and their correlation terms zeroed, not used."""

    p: np.ndarray  # (...,) P(c = 1)
    q: np.ndarray  # (...,) P(r = 1)
    covariance: np.ndarray  # (...,)
    correlation: np.ndarray  # (...,), 0 where degenerate
    grad1: np.ndarray  # (...,) rho (q - 1/2) / (q (1 - q)), 0 where degenerate
    grad2: np.ndarray  # (...,) rho (p - 1/2) / (p (1 - p)), 0 where degenerate
    degenerate: np.ndarray  # (...,) bool

    def __len__(self) -> int:
        return len(self.covariance)


def _safe_marginals(
    p: np.ndarray, q: np.ndarray, degenerate: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p and q with 1/2 on degenerate records, and sqrt(p(1-p) q(1-q)) at them."""
    safe_p, safe_q = np.where(degenerate, 0.5, p), np.where(degenerate, 0.5, q)
    return safe_p, safe_q, np.sqrt(safe_p * (1 - safe_p) * safe_q * (1 - safe_q))


def _stats_from_marginals(p: np.ndarray, q: np.ndarray, cov: np.ndarray) -> PerObsStats:
    """The kernel's core.  It takes the covariance rather than the quad so
    that the orthogonality diagnostic can pass one at perturbed marginals."""
    degenerate = np.minimum(p, 1 - p) < DEGENERATE_TOL
    degenerate |= np.minimum(q, 1 - q) < DEGENERATE_TOL
    safe_p, safe_q, s = _safe_marginals(p, q, degenerate)
    rho = np.where(degenerate, 0.0, cov / s)
    g1 = np.where(degenerate, 0.0, rho * (safe_q - 0.5) / (safe_q * (1 - safe_q)))
    g2 = np.where(degenerate, 0.0, rho * (safe_p - 0.5) / (safe_p * (1 - safe_p)))
    return PerObsStats(p, q, cov, rho, g1, g2, degenerate)


def per_obs_stats(quads: np.ndarray) -> PerObsStats:
    """Every statistic of the quads (..., 4), in one vectorized pass."""
    quads = np.asarray(quads, dtype=np.float64)
    p = quads[..., 2] + quads[..., 3]
    q = quads[..., 1] + quads[..., 3]
    return _stats_from_marginals(p, q, quads[..., 3] - p * q)


def covariance_score(stats: PerObsStats, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One-step score C + grad C . (y - quad) of records with
    outcomes (c, r), which is exactly the residual product (c - p)(r - q)."""
    return (c - stats.p) * (r - stats.q)


def correlation_score(stats: PerObsStats, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """One-step score rho + grad rho . (y - quad) of records with
    outcomes (c, r): (c - p)(r - q) / sqrt(p(1-p) q(1-q)) + grad2 (c - p)
    + grad1 (r - q); 0 where degenerate."""
    _, _, s = _safe_marginals(stats.p, stats.q, stats.degenerate)
    dc, dr = c - stats.p, r - stats.q
    return np.where(stats.degenerate, 0.0, dc * dr / s + stats.grad2 * dc + stats.grad1 * dr)


def group_means(
    values: np.ndarray, weights: np.ndarray, groups: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean of ``values`` over each index set in ``groups``, with
    its sandwich standard error se^2 = sum w_i^2 (v_i - mean)^2 / (sum w_i)^2.
    An empty group gets NaN for both."""
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    means = np.full(len(groups), np.nan)
    ses = np.full(len(groups), np.nan)
    for g, idx in enumerate(groups):
        v, w = values[idx], weights[idx]
        if v.size:
            total = np.sum(w)
            means[g] = mean = np.sum(w * v) / total
            ses[g] = math.sqrt(np.sum(w**2 * (v - mean) ** 2)) / total
    return means, ses


def group_estimates(
    statistic: str,
    stats: PerObsStats,
    c: np.ndarray,
    r: np.ndarray,
    weights: np.ndarray,
    groups: Sequence[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """The group statistic named ``statistic``, "covariance" or
    "correlation", of every index set in ``groups``: the ``group_means`` of
    its one-step score at the predictions ``stats`` of records with
    outcomes (c, r), over each group's usable records.  Every record is
    usable for the covariance, the non-degenerate ones for the
    correlation; a group with fewer than MIN_USABLE of them gets NaN.
    Every group estimate of both tests is read here."""
    if statistic == "covariance":
        scores, usable = covariance_score(stats, c, r), groups
    elif statistic == "correlation":
        scores = correlation_score(stats, c, r)
        usable = [idx[~stats.degenerate[idx]] for idx in groups]
    else:
        raise DataError(f"unknown statistic {statistic!r}")
    return group_means(
        scores, weights, [idx if len(idx) >= MIN_USABLE else idx[:0] for idx in usable]
    )


@dataclass(frozen=True)
class FunctionSummary:
    mean: float
    dispersion: float
    range: tuple[float, float]


def summarize(values: np.ndarray, weights: np.ndarray) -> FunctionSummary:
    values = np.asarray(values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    mean = weighted_mean(values, weights)
    var = float(np.sum(weights * (values - mean) ** 2) / np.sum(weights))
    return FunctionSummary(mean, math.sqrt(max(var, 0.0)), (float(values.min()), float(values.max())))


# ---------------------------------------------------------------------------
# Neyman-orthogonality diagnostics


def _population_statistic(
    kind: str,
    quads0: np.ndarray,
    mu: np.ndarray,
    dp: np.ndarray,
    dq: np.ndarray,
    eps: float,
) -> float:
    """Population value of the group-mean functional when the estimated
    marginals are (p0 + eps*dp, q0 + eps*dq) but outcomes follow the truth.

    The residual product's cell mean E[(c - p)(r - q) | cell] stands in for
    the covariance; the debiased correlation is the cell mean of its
    one-step score, the residual product scaled by 1/s plus
    grad2 (p0 - p) + grad1 (q0 - q).
    """
    truth = per_obs_stats(quads0)
    p = truth.p + eps * dp
    q = truth.q + eps * dq
    # E[(c - p)(r - q)] = C0 + (p0 - p)(q0 - q)
    cov = truth.covariance + (truth.p - p) * (truth.q - q)
    est = _stats_from_marginals(p, q, cov)
    if kind == "covariance":
        values = cov
    elif kind == "naive correlation":
        values = est.correlation
    elif kind == "debiased correlation":
        values = est.correlation + est.grad2 * (truth.p - p) + est.grad1 * (truth.q - q)
    else:
        raise DataError(f"unknown statistic kind {kind!r}")
    return float(np.sum(mu * values) / np.sum(mu))


@dataclass(frozen=True)
class OrthogonalityReport:
    kind: str
    step: float
    derivatives: tuple[float, ...]
    max_derivative: float


def orthogonality_check(
    kind: str,
    dgp,
    n_directions: int = 8,
    step: float = 1e-4,
    seed: int = 0,
) -> OrthogonalityReport:
    """Central-difference directional derivative of the group-mean estimating
    equation in the nuisance probabilities at the truth.

    The derivative is evaluated in population form (exact expectations over
    the DGP's covariate cells), so the report isolates the analytic gradient
    from Monte Carlo noise.  Each direction perturbs p and q independently
    in every cell, drawn from a standard normal and scaled to unit norm.
    The report holds the per-direction derivatives and their max magnitude.
    """
    from .synth import compute_ground_truth

    truth = compute_ground_truth(dgp)
    quads0 = truth.quads
    mu = truth.cell_prob
    n_cells = len(mu)
    rng = np.random.default_rng(seed)

    derivs = []
    for _ in range(n_directions):
        dp = rng.standard_normal(n_cells)
        dq = rng.standard_normal(n_cells)
        norm = math.sqrt(float(dp @ dp + dq @ dq))
        dp /= norm
        dq /= norm
        up = _population_statistic(kind, quads0, mu, dp, dq, step)
        dn = _population_statistic(kind, quads0, mu, dp, dq, -step)
        derivs.append((up - dn) / (2 * step))

    derivs = np.asarray(derivs)
    return OrthogonalityReport(
        kind, step, tuple(float(v) for v in derivs), float(np.max(np.abs(derivs)))
    )
