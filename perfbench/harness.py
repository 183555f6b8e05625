"""One benchmark run of one workload: set-up, timed passes, checks, result."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import tracing
import workloads

SETUP_REPEATS = 3
ORACLE_STREAM = 7  # keeps the oracle self-check draws apart from the pass inputs
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "roof_value_mean": "1", "peak_rss_mb": "MB"}


class OracleFailure(RuntimeError):
    pass


@dataclass
class Passes:
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    value_means: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def set_up(workload, seed: int, workdir: Path) -> tuple[float, list]:
    """Oracle self-check, base instances, pass-0 inputs and a warm-up.

    Returns the seconds taken and the pass-0 operations.
    """
    t0 = time.perf_counter()
    problems = oracles.check_oracles(np.random.default_rng([seed % 2**64, ORACLE_STREAM]))
    if problems:
        raise OracleFailure("; ".join(problems))
    workload.build_base()
    ops = workload.pass_ops(workloads.pass_rng(seed, 0), workdir)
    workload.warmup(workdir)
    return time.perf_counter() - t0, ops


def attempt(op):
    """Run one operation; an exception it raises becomes its outcome."""
    try:
        return op.run()
    except Exception as exc:  # counted as a failed operation, not a crashed run
        return exc


def check(op, outcome) -> tuple[list[str], list[float]]:
    if isinstance(outcome, Exception):
        return [f"raised {outcome!r}"], []
    try:
        return op.check(outcome)
    except Exception as exc:  # a malformed report fails the operation
        return [f"check raised {exc!r}"], []


def run_pass(ops, result: Passes, tracer, traced: bool) -> None:
    tracer.recording = traced
    t0 = time.perf_counter()
    outcomes = [attempt(op) for op in ops]
    elapsed = time.perf_counter() - t0
    tracer.recording = False
    values = []
    for op, outcome in zip(ops, outcomes):
        problems, op_values = check(op, outcome)
        result.attempted += 1
        if problems:
            result.failed += 1
            print(f"FAIL {op.label}: " + "; ".join(problems), file=sys.stderr)
        values += op_values
    if traced:
        result.traced_walls.append(elapsed)
    else:
        result.walls.append(elapsed)
        result.value_means.append(statistics.fmean(values) if values else 0.0)


def timed_passes(workload, tracer, ops, seed: int, seconds: float, workdir: Path,
                 trace: bool) -> Passes:
    """Passes until ``seconds`` of them are timed; the last one completes.

    With ``trace``, each pass's inputs run untraced and traced, the order
    alternating from pass to pass.
    """
    result = Passes()
    index = 0
    while True:
        if index:
            ops = workload.pass_ops(workloads.pass_rng(seed, index), workdir)
        for traced in ((False, True) if index % 2 == 0 else (True, False)) if trace else (False,):
            run_pass(ops, result, tracer, traced)
        index += 1
        if sum(result.walls) + sum(result.traced_walls) >= seconds:
            return result


def run(args, import_s: float, out_dir: Path) -> int:
    tracer = tracing.Tracer()
    workload = workloads.WORKLOADS[args.workload](tracer)
    workdir = out_dir / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            seconds, ops = set_up(workload, args.seed, workdir)
            setup_s.append(seconds)
        if args.trace:
            tracer.install()
        try:
            passes = timed_passes(workload, tracer, ops, args.seed, args.seconds, workdir,
                                  bool(args.trace))
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes.walls)}  "
          f"operations {passes.attempted}  failed {passes.failed}")
    print(f"{args.workload} pass_s " + " ".join(f"{w:.3f}" for w in passes.walls))
    print(f"{args.workload} fail_rate {passes.failed / passes.attempted:.6g} "
          f"({passes.failed} of {passes.attempted} operations)")
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, len(passes.traced_walls))
        metrics["trace.overhead_frac"] = statistics.median(
            t / u - 1.0 for t, u in zip(passes.traced_walls, passes.walls))
        print(tracing.layer_table(args.workload, statistics.median(passes.traced_walls),
                                  metrics))
        tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.tsv")
        units = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    else:
        metrics = {
            "setup_s": import_s + statistics.median(setup_s),
            "wall_s": statistics.median(passes.walls),
            "roof_value_mean": statistics.median(passes.value_means),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }), flush=True)
    return 0
