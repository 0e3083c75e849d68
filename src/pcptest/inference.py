"""The two PCP testing procedures.

The intersection test asks whether the smallest group-averaged statistic
is negative, with Monte Carlo calibrated critical values (a selection
value k0 and a decision value k).  It runs in two phases.  The first,
``full_set_quantiles``, depends only on (mc_draws, seed), the widths and
the levels: it fills a given buffer with the normals and reads k0 and the
k of every full set.  The second, ``kept_set_tests``, finds each input's
kept set and reads the k of each strict subset from the same buffer.
``intersection_tests`` runs both back to back; the CLI runs the first as a
unit of its fit batch, on a buffer shared with the pool's workers, so
that a worker draws while this process fits.

The sorted-groups test repeatedly splits the sample, trains on one half,
sorts the other half into quartiles of the predicted statistic, tests the
lowest quartile's mean conditional statistic, E[C(X) | G] or E[rho(X) | G],
and reads the split medians as Chernozhukov et al. (arXiv:1712.04802)
specify.  Both tests take every group's estimate and SE from one
``functionals.group_estimates`` call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist
from typing import Callable, Iterable, Sequence

import numpy as np

from . import learners as L
from .data import (
    DataError,
    Dataset,
    SplitPlan,
    quantile_group_indices,
)
from .functionals import MIN_USABLE, group_estimates, group_means, per_obs_stats
from .network import NetworkConfig
from .parallel import call, map_units

__all__ = [
    "IntersectionInput",
    "IntersectionResult",
    "intersection_test",
    "intersection_tests",
    "FullSetQuantiles",
    "full_set_quantiles",
    "kept_set_tests",
    "gamma_n",
    "sorted_quantile",
    "SortedGroupsConfig",
    "SplitResult",
    "SortedGroupsResult",
    "sorted_split_units",
    "merge_sorted_splits",
    "sorted_groups_run",
    "RejectionReport",
    "mc_size_power",
    "gaussian_group_draw",
]


def gamma_n(n: int) -> float:
    """Selection confidence level 1 - 0.1/log(n), natural log."""
    if n < 2:
        raise DataError("gamma_n needs n >= 2")
    return 1.0 - 0.1 / math.log(n)


MIN_MC_DRAWS = 100
# A draw holds 8 * mc_draws * L bytes, L the widest grouping feature's
# modality count: 96 MB at this bound on the default schema (L = 12).
MAX_MC_DRAWS = 1_000_000


def check_mc_draws(mc_draws: int) -> None:
    """Raise ``DataError`` unless MIN_MC_DRAWS <= mc_draws <= MAX_MC_DRAWS."""
    if mc_draws < MIN_MC_DRAWS:
        raise DataError(f"mc_draws must be at least {MIN_MC_DRAWS}")
    if mc_draws > MAX_MC_DRAWS:
        raise DataError(f"mc_draws must be at most {MAX_MC_DRAWS}, got {mc_draws}")


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
        check_mc_draws(self.mc_draws)

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
    return intersection_tests([inp])[0]


def intersection_tests(inputs: Sequence[IntersectionInput]) -> list[IntersectionResult]:
    """``intersection_test`` of every input, in input order.  The normals
    depend only on (mc_draws, seed), so all inputs that share that key,
    wherever they sit in the list, are tested on one stream: both phases,
    ``full_set_quantiles`` and then ``kept_set_tests``, read one buffer."""
    by_key: dict[tuple[int, int], list[int]] = {}
    for i, inp in enumerate(inputs):
        by_key.setdefault((inp.mc_draws, inp.seed), []).append(i)
    results: dict[int, IntersectionResult] = {}
    for (mc_draws, seed), positions in by_key.items():
        group = [inputs[i] for i in positions]
        widths = {inp.L for inp in group}
        normals = np.empty(mc_draws * max(widths))
        full = full_set_quantiles(
            normals,
            mc_draws,
            seed,
            widths,
            {gamma_n(inp.n) for inp in group},
            {inp.alpha for inp in group},
        )
        results.update(zip(positions, kept_set_tests(normals, mc_draws, full, group)))
    return [results[i] for i in range(len(inputs))]


@dataclass(frozen=True)
class FullSetQuantiles:
    """The critical values that one Monte Carlo stream gives every group
    kept: k0 by (L, gamma_n) and k by (L, alpha)."""

    k0: dict[tuple[int, float], float]
    k: dict[tuple[int, float], float]


def full_set_quantiles(
    normals: np.ndarray,
    mc_draws: int,
    seed: int,
    widths: Iterable[int],
    gammas: Iterable[float],
    levels: Iterable[float],
) -> FullSetQuantiles:
    """The test's data-independent phase.  Fills the first mc_draws *
    max(widths) entries of the flat buffer ``normals`` with the stream of
    ``seed``, and reads, for each width L, k0 at each gamma and the k of
    the full set at each level from the sorted row maxima of the draw
    ``xi``, its first mc_draws * L normals shaped (mc_draws, L).  The
    generator fills in C order, so ``xi`` has the bits of a (mc_draws, L)
    draw.  Only these few floats are returned: a pool unit that runs this
    on a shared buffer sends no normals back."""
    widths, gammas, alphas = sorted(set(widths)), sorted(set(gammas)), sorted(set(levels))
    qs = [1.0 - a for a in alphas]
    stream = normals[: mc_draws * widths[-1]]
    np.random.default_rng(seed).standard_normal(out=stream)
    k0, k = {}, {}
    for width in widths:
        xi = stream[: mc_draws * width].reshape(mc_draws, width)
        row_max = _sorted_row_max(xi, range(width), min(gammas + qs))
        k0.update(zip(((width, g) for g in gammas), sorted_quantile(row_max, gammas).tolist()))
        k.update(zip(((width, a) for a in alphas), sorted_quantile(row_max, qs).tolist()))
    return FullSetQuantiles(k0, k)


def kept_set_tests(
    normals: np.ndarray,
    mc_draws: int,
    full: FullSetQuantiles,
    inputs: Sequence[IntersectionInput],
) -> list[IntersectionResult]:
    """The test's data-dependent phase: the tests of ``inputs``, all of
    this (mc_draws, seed), on the buffer that ``full_set_quantiles`` filled
    and the values it read.  An input's k is its full set's when it keeps
    every group; each strict-subset kept set of a width sorts its row
    maxima once and reads the k of every level it is tested at."""
    selections = []
    # A kept set's key is its mask's bytes, one per group, so the masks of
    # two widths never share one.
    subsets: dict[bytes, tuple[np.ndarray, list[float]]] = {}
    for inp in inputs:
        gam = gamma_n(inp.n)
        k0 = full.k0[inp.L, gam]
        threshold = np.min(inp.estimates + k0 * inp.ses)
        keep = inp.estimates <= threshold + 2.0 * k0 * inp.ses
        key = keep.tobytes()
        if not keep.all():
            subsets.setdefault(key, (keep, []))[1].append(inp.alpha)
        selections.append((gam, k0, keep, key))

    k_of: dict[tuple[bytes, float], float] = {}
    for key, (keep, levels) in subsets.items():
        xi = normals[: mc_draws * keep.size].reshape(mc_draws, keep.size)
        qs = [1.0 - a for a in levels]
        ks = sorted_quantile(_sorted_row_max(xi, np.nonzero(keep)[0], min(qs)), qs)
        k_of.update(((key, a), float(k)) for a, k in zip(levels, ks))

    results = []
    for inp, (gam, k0, keep, key) in zip(inputs, selections):
        est, ses = inp.estimates, inp.ses
        k = k_of[key, inp.alpha] if key in subsets else full.k[inp.L, inp.alpha]
        selected = tuple(int(i) for i in np.nonzero(keep)[0])
        statistic = float(np.min(est[keep] + k * ses[keep]))
        a = float(np.min(est + k * ses))
        b = float(np.max(est - k * ses))
        clamped = b < a
        if clamped:
            b = a
        results.append(
            IntersectionResult(gam, k0, selected, k, statistic, statistic < 0.0, (a, b), clamped)
        )
    return results


# Rows of a draw that ``_sorted_row_max`` reduces at a time: a block of a
# 12-column draw, 384 kB, stays in cache while its columns are read.
ROW_BLOCK = 4096


def _sorted_row_max(xi: np.ndarray, columns: Sequence[int], lowest: float) -> np.ndarray:
    """The max of each row of ``xi`` over ``columns``, sorted from the
    order statistic on which ``sorted_quantile`` reads its quantile at
    ``lowest``: the quantiles at ``lowest`` and above read the bits of the
    whole vector sorted.  The maxima are taken column by column, in order,
    into one vector, a block of rows at a time: a max over the short last
    axis costs several times as much, a whole column at a time reads the
    draw once per column, and a max is exact in any order."""
    first, *rest = columns
    out = np.empty(len(xi))
    for start in range(0, len(xi), ROW_BLOCK):
        block, maxima = xi[start : start + ROW_BLOCK], out[start : start + ROW_BLOCK]
        np.copyto(maxima, block[:, first])
        for j in rest:
            np.maximum(maxima, block[:, j], out=maxima)
    # sorted_quantile's lower neighbour of (n - 1) lowest, the least it reads.
    below = int((len(out) - 1) * lowest)
    out.partition(below)
    out[below:].sort()
    return out


def sorted_quantile(values: np.ndarray, q) -> np.ndarray:
    """``np.quantile(values, q)`` (type 7, linear) of sorted ``values``, bit
    for bit, read from the order statistics without a copy or a partition:
    numpy's virtual index (n - 1) q, its clamping of the two neighbours at
    the ends and its ``_lerp``, which interpolates from the nearer side."""
    n = len(values)
    index = np.asarray((n - 1) * np.asarray(q, dtype=np.float64))
    below = np.floor(index, out=...)
    above = np.add(below, 1, out=...)
    below[index >= n - 1] = above[index >= n - 1] = -1
    below[index < 0] = above[index < 0] = 0
    below, above = below.astype(np.intp), above.astype(np.intp)
    gamma = index - below
    a, b = values[below], values[above]
    diff = b - a
    out = np.add(a, diff * gamma, out=...)
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


# ---------------------------------------------------------------------------
# Sorted-groups test


def normal_cdf(t: float) -> float:
    """Standard normal CDF through erfc, which keeps its relative accuracy
    in the far lower tail, where ``NormalDist().cdf`` underflows to 0."""
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


# Draws of one split before a degenerate split is an error.
MAX_RETRIES = 20


@dataclass(frozen=True)
class SortedGroupsConfig:
    n_groups: int = 4
    n_splits: int = 101
    main_fraction: float = 0.5
    statistic: str = "correlation"  # or "covariance"
    # One family's candidates: one is the split's learner, more are searched.
    grid: tuple[L.LearnerConfig, ...] = field(
        default_factory=lambda: tuple(L.default_grid(NetworkConfig))
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_groups < 2:
            raise DataError("need at least 2 groups")
        if self.n_splits < 1:
            raise DataError("need at least 1 split")
        if not (0.0 < self.main_fraction < 1.0):
            raise DataError("main_fraction must lie in (0, 1)")
        if self.statistic not in ("covariance", "correlation"):
            raise DataError(f"unknown statistic {self.statistic!r}")
        if not self.grid:
            raise DataError("empty learner grid")

    @property
    def searches(self) -> bool:
        """Whether each split searches the grid, rather than fit its one config."""
        return len(self.grid) > 1


@dataclass(frozen=True)
class SplitResult:
    group_stats: np.ndarray  # (n_groups,) group estimates, sorted by prediction
    group_ses: np.ndarray  # their sandwich SEs
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
    redraws: int  # splits drawn again after a degenerate draw, over all splits

    @property
    def adjusted_p_value(self) -> float:
        """The median p-value doubled, the split-median p-value that is
        valid at its level."""
        return min(1.0, 2.0 * self.median_p_value)

    def interval(self, alpha: float) -> tuple[float, float]:
        """Medians over splits of group 1's per-split bounds statistic -/+
        z_(1-alpha/2) se.  The interval covers the median over splits of
        group 1's mean conditional statistic with probability >= 1 - 2 alpha."""
        z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
        lower = np.median([s.statistic - z * s.se for s in self.splits])
        upper = np.median([s.statistic + z * s.se for s in self.splits])
        return float(lower), float(upper)


def _split_draw(d: Dataset, cfg: SortedGroupsConfig, rng: np.random.Generator):
    """One draw of a split: the rows of its main half and of its aux half."""
    perm = rng.permutation(d.n)
    n_main = int(math.floor(d.n * cfg.main_fraction))
    if n_main < cfg.n_groups or d.n - n_main < 10:
        raise DataError("sample too small for the sorted-groups split")
    return perm[:n_main], perm[n_main:]


def _split_learner(aux: Dataset, cfg: SortedGroupsConfig, inner_seed: int) -> L.ClassifierModel:
    """The split's learner, trained on ``aux``: the grid's one config, or
    the one that a search on ``aux`` selects, with the split's seed."""
    grid = [replace(c, seed=inner_seed) for c in cfg.grid]
    if cfg.searches:
        grid = [L.hyperopt(aux, grid, SplitPlan(seed=inner_seed)).selected]
    return L.train_any(aux, grid[0])


def _one_split(
    d: Dataset,
    cfg: SortedGroupsConfig,
    rng: np.random.Generator,
    inner_seed: int,
    draw: tuple[np.ndarray, np.ndarray],
    probs: np.ndarray | None,
) -> tuple[SplitResult, int]:
    """The split's result and the number of redraws it took, from its
    first draw and the predictions of its main half by that draw's
    learner, if they are already made.  A draw whose learner or groups
    fail is drawn again from ``rng``."""
    last_err: Exception | None = None
    for redraws in range(MAX_RETRIES):
        if redraws:
            draw, probs = _split_draw(d, cfg, rng), None
        main_rows, aux_rows = draw
        try:
            main = d.take(main_rows)
            if probs is None:
                probs = _split_learner(d.take(aux_rows), cfg, inner_seed).predict_quads(main)
            return _split_result(probs, main, cfg, main_rows), redraws
        except DataError as err:
            last_err = err  # too few usable records or a zero SE; redraw
    raise DataError(
        f"sorted-groups split failed after {MAX_RETRIES} retries: {last_err}"
    )


def _split_result(
    probs: np.ndarray,
    main: Dataset,
    cfg: SortedGroupsConfig,
    main_rows: np.ndarray,
) -> SplitResult:
    """Test an aux-trained model on ``main``, from its predictions
    ``probs`` of ``main``.  Each group's statistic and SE are the
    ``group_estimates`` of its main-half records at those predictions: the
    group mean of the conditional statistic, CDDF's GATES with C(x) or
    rho(x) in the place of the treatment effect."""
    stats = per_obs_stats(probs)
    values = stats.covariance if cfg.statistic == "covariance" else stats.correlation
    groups = quantile_group_indices(values, main.w, cfg.n_groups)
    group_stats, group_ses = group_estimates(
        cfg.statistic, stats, main.c, main.r, main.w, groups
    )
    if np.isnan(group_stats).any():
        raise DataError(f"a group has fewer than {MIN_USABLE} usable records")
    se1 = group_ses[0]
    if se1 <= 0.0:
        raise DataError("group 1 standard error is zero; cannot test")
    tstat = group_stats[0] / se1
    return SplitResult(
        group_stats,
        group_ses,
        group_means(values, main.w, groups)[0],
        tuple(main_rows[idx] for idx in groups),
        float(group_stats[0]),
        float(se1),
        float(tstat),
        normal_cdf(tstat),
    )


def sorted_split_units(
    d: Dataset, cfg: SortedGroupsConfig, kinds: int = 1
) -> list[Callable[[], list[tuple[SplitResult, int]]]]:
    """The cfg.n_splits splits of ``sorted_groups_run`` as zero-argument
    units, one per stack of splits (``L.stacks``, with the batch's
    ``kinds``; with a searched grid, one per split), each returning its
    splits' SplitResults and redraw counts.  Split s draws from the s-th
    child of SeedSequence(cfg.seed).  A unit's first draws are trained by
    one ``L.train_many`` call and predict their main halves by one
    ``L.predict_many`` call; a split whose first draw fails draws again
    from its own generator."""
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_splits)
    L.encode(d, cfg.grid[0])

    def split_stack(splits: range) -> list[tuple[SplitResult, int]]:
        rngs = [np.random.default_rng(children[s]) for s in splits]
        seeds = [int(rng.integers(2**31 - 1)) for rng in rngs]
        draws = [_split_draw(d, cfg, rng) for rng in rngs]
        probs = [None] * len(rngs)
        if not cfg.searches:
            learners = [replace(cfg.grid[0], seed=seed) for seed in seeds]
            models = L.train_many([d.take(aux) for _, aux in draws], learners)
            probs = L.predict_many(models, [d.take(main) for main, _ in draws])
        return [_one_split(d, cfg, *split) for split in zip(rngs, seeds, draws, probs)]

    if cfg.searches:
        groups = [range(s, s + 1) for s in range(cfg.n_splits)]
    else:
        groups = L.stacks(d, cfg.grid[0], cfg.n_splits, kinds)
    return [functools.partial(split_stack, splits) for splits in groups]


def merge_sorted_splits(
    cfg: SortedGroupsConfig, split_results: Sequence[tuple[SplitResult, int]]
) -> SortedGroupsResult:
    """Componentwise medians over the splits' results, and their total
    redraw count."""
    results, redraws = zip(*split_results)
    stats = np.array([r.group_stats for r in results])
    return SortedGroupsResult(
        cfg,
        results,
        np.median(stats, axis=0),
        float(np.median([r.statistic for r in results])),
        float(np.median([r.tstat for r in results])),
        float(np.median([r.p_value for r in results])),
        sum(redraws),
    )


def sorted_groups_run(d: Dataset, cfg: SortedGroupsConfig) -> SortedGroupsResult:
    """Run the sorted-groups procedure over cfg.n_splits random splits and
    report componentwise medians.  All randomness flows from cfg.seed."""
    results = map_units(call, sorted_split_units(d, cfg))
    return merge_sorted_splits(cfg, list(itertools.chain.from_iterable(results)))


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
    one replication; everything downstream is seeded from ``seed``.  The
    replications run as one ``map_units`` batch.
    """
    if reps < 100:
        raise DataError("reps must be at least 100")

    def rejected(child: np.random.SeedSequence) -> bool:
        rng = np.random.default_rng(child)
        est, ses, n = draw(rng)
        test_seed = int(rng.integers(2**31 - 1))
        inp = IntersectionInput(est, ses, n, alpha, mc_draws, test_seed)
        return intersection_test(inp).rejected

    children = np.random.SeedSequence(seed).spawn(reps)
    return RejectionReport(reps, sum(map_units(rejected, children)), alpha)


def gaussian_group_draw(
    means: Sequence[float],
    dispersion: float,
    n_per_group: int,
    weight_sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
) -> Callable[[np.random.Generator], tuple[np.ndarray, np.ndarray, int]]:
    """Per-observation draw: each group holds n_per_group values
    mu_g + dispersion * eps with weights from ``weight_sampler`` (ones by
    default); the group estimates and SEs are their ``group_means``."""
    mus = np.asarray(means, dtype=np.float64)
    n_total = n_per_group * mus.size
    groups = np.arange(n_total).reshape(mus.size, n_per_group)

    def draw(rng: np.random.Generator):
        values, weights = [], []
        for mu in mus:
            values.append(mu + dispersion * rng.standard_normal(n_per_group))
            weights.append(
                np.ones(n_per_group)
                if weight_sampler is None
                else weight_sampler(rng, n_per_group)
            )
        ests, ses = group_means(np.concatenate(values), np.concatenate(weights), groups)
        return ests, ses, n_total

    return draw
