#!/usr/bin/env python3
"""Compare the numerical roof against a two-qubit closed form.

Draws random two-qubit density operators, solves the convex roof with
default optimizer settings (ensemble size ``--m``, by default the library's
rule at each state's rank), and reports the deviation from the spin-flip
closed form together with the solve's route and cost: the ensemble size
m, the route (exact: Wootters' decomposition, returned without a descent;
engine: the descent, which runs where that decomposition has more than m
members or misses the bound by more than ``tol``), the time, the
iterations and line-search rungs summed over restarts, how many restarts
stopped at stationarity (floor) and on a failed line search (stall), and
the solve's bracket width, its value minus its certified lower bound. An
exact solve runs no restart, so its iters, rungs, floor and stall read 0.
The closed form is the entanglement of formation for ``--measure
entropy``, C / sqrt(2) from the Wootters concurrence C for ``--measure e``
(the entanglement number). Exits 1 when the largest deviation exceeds
LIMIT.
"""

import argparse
import math
import sys
import time

import numpy as np

from entroof import BipartiteDims, RoofProblem, concurrence, entanglement_of_formation, solve_roof
from entroof.measures import MeasureSpec
from entroof.roof import _ensemble_size, rank_of
from entroof.sampling import random_density

LIMIT = 1e-6
ORACLES = {
    "entropy": (MeasureSpec("entropy"), entanglement_of_formation),
    "e": (MeasureSpec("entanglement-number"), lambda rho: concurrence(rho) / math.sqrt(2.0)),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--measure", choices=sorted(ORACLES), default="entropy")
    ap.add_argument("--states", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--m", type=int, default=None,
                    help="ensemble size (default: the library default at each state's rank)")
    args = ap.parse_args()
    if args.states < 1:
        ap.error("--states must be >= 1")

    spec, oracle = ORACLES[args.measure]
    dims = BipartiteDims(2, 2)
    rng = np.random.default_rng(args.seed)
    errs, times = [], []
    print(f"{'#':>3}  {'m':>3}  {'route':>6}  {'roof':>14}  {'closed form':>14}  {'diff':>10}"
          f"  {'secs':>6}"
          f"  {'iters':>6}  {'rungs':>6}  {'floor':>5}  {'stall':>5}"
          f"  {'bracket':>10}")
    for i in range(args.states):
        rho = random_density(dims, rng)
        t0 = time.perf_counter()
        res = solve_roof(RoofProblem(rho=rho, measure=spec, ensemble_size=args.m, seed=i))
        dt = time.perf_counter() - t0
        want = oracle(rho)
        errs.append(abs(res.value - want))
        times.append(dt)
        iters, rungs = sum(res.restart_iterations), sum(res.restart_rungs)
        floors, stalls = res.restart_stops.count("floor"), res.restart_stops.count("stall")
        m = _ensemble_size(rank_of(rho), args.m)
        route = "engine" if res.restart_stops else "exact"
        print(f"{i:>3}  {m:>3}  {route:>6}  {res.value:14.10f}  {want:14.10f}  {errs[-1]:10.2e}"
              f"  {dt:6.2f}"
              f"  {iters:>6}  {rungs:>6}  {floors:>5}  {stalls:>5}"
              f"  {res.value - res.lower_bound:10.2e}")
    print(f"\nmax |diff| {max(errs):.2e}   mean time {np.mean(times):.2f}s")
    return 0 if max(errs) <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
