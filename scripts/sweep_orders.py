#!/usr/bin/env python3
"""Sweep the p-number order on a pure state and on a mixed state.

Prints one table per state showing the strict increase of the value with
p; the mixed-state rows give the convex-roof upper bound, its certified
lower bound ("-" where none applies: the p-number at p > 2) and whether
the solve converged.
"""

import argparse

import numpy as np

from entroof import BipartiteDims, PureState, RoofProblem, solve_roof
from entroof.measures import MeasureSpec, p_number_pure
from entroof.sampling import random_npt_density


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default="1.2:4.0:0.4", help="p grid START:STOP:STEP")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--restarts", type=int, default=16)
    args = ap.parse_args()

    start, stop, step = (float(x) for x in args.grid.split(":"))
    grid = [start + i * step for i in range(int((stop - start) / step + 1e-9) + 1)]
    dims = BipartiteDims(2, 2)
    bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), dims)
    rng = np.random.default_rng(args.seed)
    mixed = random_npt_density(dims, rng)

    print("pure Bell state")
    print(f"{'p':>6}  {'mu_p':>18}")
    for p in grid:
        print(f"{p:6.2f}  {p_number_pure(bell, p):18.12f}")

    print("\nrandom NPT two-qubit state (roof upper bounds)")
    print(f"{'p':>6}  {'roof mu_p':>18}  {'lower bound':>18}  converged")
    for p in grid:
        res = solve_roof(RoofProblem(
            rho=mixed, measure=MeasureSpec("p-number", p=p),
            restarts=args.restarts, seed=args.seed))
        low = "-" if res.lower_bound is None else f"{res.lower_bound:.12f}"
        print(f"{p:6.2f}  {res.value:18.12f}  {low:>18}  {res.converged}")


if __name__ == "__main__":
    main()
