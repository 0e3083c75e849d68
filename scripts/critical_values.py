#!/usr/bin/env python3
"""Monte Carlo vs analytic critical values k0 for the intersection test.

Prints a table of the selection-stage critical value k0 = gamma_n-quantile
of max of L iid standard normals, both simulated and in closed form.
"""

import argparse
from statistics import NormalDist

import numpy as np

from pcptest.inference import IntersectionInput, gamma_n, intersection_test


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6333, help="sample size entering gamma_n")
    ap.add_argument("--draws", type=int, default=100_000, help="Monte Carlo draws")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--levels", type=int, nargs="+", default=[1, 2, 4, 12], help="group counts L"
    )
    args = ap.parse_args()

    gam = gamma_n(args.n)
    print(f"n = {args.n}, gamma_n = {gam:.5f}, draws = {args.draws}")
    print(f"{'L':>4} {'MC k0':>8} {'analytic':>9} {'diff':>8}")
    for L in args.levels:
        res = intersection_test(
            IntersectionInput(
                np.zeros(L), np.ones(L), args.n, mc_draws=args.draws, seed=args.seed + L
            )
        )
        ana = NormalDist().inv_cdf(gam ** (1.0 / L))  # Phi^-1(gamma^(1/L))
        print(f"{L:>4} {res.k0:>8.4f} {ana:>9.4f} {res.k0 - ana:>8.4f}")


if __name__ == "__main__":
    main()
