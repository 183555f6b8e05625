"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py --runs 10 --first-seed 100 [--workloads roof-2x2 ...]

Runs the benchmark untraced once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``. For each workload and end-to-end
metric it prints the median over the runs and the quartile spread,
(Q3 - Q1) / median with quartiles from ``statistics.quantiles(n=4)``,
next to the metric's bound. A spread above a third of its bound is marked
``WIDE``; ``setup_s`` is gated on its median only, so its spread is not
marked.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median of at least two values."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread_rows(runs: list[dict], end_to_end: list[dict]) -> list[tuple]:
    """(metric, median, spread, bound, verdict) per end-to-end metric.

    ``runs`` holds the ``metrics`` objects of successive runs.
    """
    rows = []
    for spec in end_to_end:
        values = [run[spec["name"]]["value"] for run in runs]
        spread = quartile_spread(values)
        gated = spec["name"] != "setup_s"
        verdict = "WIDE" if gated and spread > spec["bound"] / 3 else "ok"
        rows.append((spec["name"], statistics.median(values), spread, spec["bound"], verdict))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", nargs="*", default=None)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    status = 0
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=False)
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, result {result}")
                status = 1
                continue
            runs.append(result["metrics"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        for metric, median, spread, bound, verdict in spread_rows(runs, bench["end_to_end"]):
            print(f"{name} {metric}: median {median:.6g}, spread {spread:.4f}, "
                  f"bound {bound} {verdict}", flush=True)
            status |= verdict != "ok"
    return status


if __name__ == "__main__":
    sys.exit(main())
