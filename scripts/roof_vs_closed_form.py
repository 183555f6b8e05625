#!/usr/bin/env python3
"""Compare the numerical entropy roof against the two-qubit closed form.

Draws random two-qubit density operators, solves the convex roof of the
entanglement entropy with default optimizer settings, and reports the
deviation from the spin-flip closed form together with timing.
"""

import argparse
import time

import numpy as np

from entroof import BipartiteDims, RoofProblem, entanglement_of_formation, solve_roof
from entroof.measures import MeasureSpec
from entroof.sampling import random_density


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--states", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1,
                    help="passed to solve_roof, which accepts it without effect")
    args = ap.parse_args()

    dims = BipartiteDims(2, 2)
    rng = np.random.default_rng(args.seed)
    errs, times = [], []
    print(f"{'#':>3}  {'roof':>14}  {'closed form':>14}  {'diff':>10}  {'secs':>6}")
    for i in range(args.states):
        rho = random_density(dims, rng)
        t0 = time.perf_counter()
        res = solve_roof(
            RoofProblem(rho=rho, measure=MeasureSpec("entropy"), seed=i),
            workers=args.workers)
        dt = time.perf_counter() - t0
        oracle = entanglement_of_formation(rho)
        errs.append(abs(res.value - oracle))
        times.append(dt)
        print(f"{i:>3}  {res.value:14.10f}  {oracle:14.10f}  {errs[-1]:10.2e}  {dt:6.2f}")
    print(f"\nmax |diff| {max(errs):.2e}   mean time {np.mean(times):.2f}s")


if __name__ == "__main__":
    main()
