#!/usr/bin/env python3
"""Ground-truth recovery of debiased group correlations.

Simulates a 12-cell categorical population whose conditional correlation
rho*(x) is constant within each of four groups of three cells, fits the
class probabilities with cross-fitted gradient boosting, and compares the
debiased group correlation estimates to the known group truths across
replications.  Also reports the intersection-test rejection rate, which is
power when all rho* are negative and size when all are nonnegative.
"""

import argparse

import numpy as np

from pcptest.data import CategoricalSchema, make_folds
from pcptest.functionals import group_estimates, per_obs_stats
from pcptest.inference import IntersectionInput, intersection_test
from pcptest.learners import cross_fit_predict
from pcptest.synth import RhoSpec, SyntheticDGP, WeightLaw, compute_ground_truth, sample_dataset
from pcptest.trees import BoostConfig

N_CELLS = 12
SCHEMA = CategoricalSchema((("cell", tuple(range(N_CELLS))),))
P = np.tile([0.30, 0.52, 0.72], 4)
Q = np.tile([0.66, 0.45, 0.28], 4)
GROUPS = [np.arange(3 * g, 3 * g + 3) for g in range(4)]
LEARNER = BoostConfig(n_rounds=80, max_depth=4, min_leaf=10, learning_rate=0.5)


def logit(p: np.ndarray) -> np.ndarray:
    return np.log(p / (1 - p))


def build_dgp(rho_cells: np.ndarray) -> SyntheticDGP:
    rho_cells = np.asarray(rho_cells, dtype=np.float64)

    def fn(row: np.ndarray) -> float:
        j = int(np.argmax(row[1:]) + 1) if row[1:].max() > 0.5 else 0
        return float(rho_cells[j])

    return SyntheticDGP(
        SCHEMA,
        (tuple([1.0 / N_CELLS] * N_CELLS),),
        np.concatenate([[logit(P[0])], logit(P[1:]) - logit(P[0])]),
        np.concatenate([[logit(Q[0])], logit(Q[1:]) - logit(Q[0])]),
        RhoSpec("custom", fn=fn),
        WeightLaw(),
    )


def one_rep(dgp: SyntheticDGP, n: int, seed: int):
    d, _ = sample_dataset(dgp, n, seed=seed)
    stats = per_obs_stats(cross_fit_predict(d, LEARNER, make_folds(d, 2, seed)))
    rows = [np.nonzero(np.isin(d.covariates[:, 0], cells))[0] for cells in GROUPS]
    return group_estimates("correlation", stats, d.c, d.r, d.w, rows)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--rho",
        type=float,
        nargs=4,
        default=[-0.15, 0.0, 0.0, 0.15],
        metavar="RHO_G",
        help="conditional correlation of each group",
    )
    ap.add_argument("--n", type=int, default=6333)
    ap.add_argument("--reps", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    dgp = build_dgp(np.repeat(args.rho, 3))
    truth = compute_ground_truth(dgp)
    lut = truth.lookup()
    true_groups = np.array(
        [np.mean([truth.correlation[lut[(int(c),)]] for c in cells]) for cells in GROUPS]
    )

    est = np.empty((args.reps, 4))
    rejections = 0
    for r in range(args.reps):
        est[r], ses = one_rep(dgp, args.n, args.seed + r)
        res = intersection_test(
            IntersectionInput(est[r], ses, args.n, 0.05, 20_000, args.seed + r)
        )
        rejections += int(res.rejected)

    bias = est.mean(axis=0) - true_groups
    mc_se = est.std(axis=0, ddof=1)
    print(f"reps={args.reps} n={args.n}")
    print(f"{'group':>6} {'truth':>8} {'mean est':>9} {'bias':>8} {'MC sd':>8}")
    for g in range(4):
        print(
            f"{g + 1:>6} {true_groups[g]:>8.4f} {est[:, g].mean():>9.4f} "
            f"{bias[g]:>8.4f} {mc_se[g]:>8.4f}"
        )
    print(f"intersection-test rejection rate: {rejections / args.reps:.3f}")


if __name__ == "__main__":
    main()
