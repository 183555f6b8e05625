"""Benchmark of the entroof convex-roof solver, LOCC audit and CLI.

Usage, from any directory::

    python3 perfbench/run.py --workload roof-2x2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

The program is imported from ``src/`` of the checkout this file sits in;
nothing needs installing. One process, one client, closed loop: each
operation starts when the previous one ends, restarts run serially.

A run sets up (import, oracle self-checks, seeded inputs written to
``.perfbench-out/``, one untimed warm-up operation; repeated, median
reported), then times passes over the workload's fixed operation list,
generating fresh seeded inputs before each pass, until ``--seconds`` of
passes have been timed; the pass under way then completes. Every
operation is checked after its pass.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs each pass
untraced and traced on the same inputs, alternating which goes first, and
reports per-layer metrics from the traced passes and the tracing
overhead; it also prints a layer table and writes the spans to
``.perfbench-out/``. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("roof-2x2", "roof-3x3", "locc-tree")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="timed seconds of passes per run; the last pass completes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "entroof" / "__init__.py").is_file():
        print(f"error: no entroof sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy and entroof
    import_s = time.perf_counter() - started
    try:
        return harness.run(args, import_s, OUT_DIR)
    except harness.OracleFailure as exc:
        print(f"oracle self-check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
