"""Layer trace for the benchmark, recorded from outside the entroof package.

Timing wrappers are installed on the module attributes that callers look
up at call time, so the package itself is unchanged. Each wrapped call
records a span: name, parent span, start, end and one integer (a size or a
flag, depending on the layer). Spans stay in memory while the workload
runs and are written out at the end.

The solver does not count its own steps yet, so objective calls are told
apart by the array rank of the stack ``_Engine`` passes in:

- 5-D (m, r, 2, 2, n): one finite-difference gradient probe, made
  exactly once per iteration;
- 3-D (candidates, m, n): start screening;
- 2-D (m, n): an iterate evaluation (line search, stall, polish check,
  best-tracking or the final ensemble).
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

GRAD_PROBE = "measures.grad_probe"
SCREEN = "measures.screen"
ITERATE = "measures.iterate"
OTHER_OBJECTIVE = "measures.other"
OBJECTIVE_SPANS = (GRAD_PROBE, SCREEN, ITERATE, OTHER_OBJECTIVE)

# name -> (unit, better). Counts and seconds are per timed pass.
LAYER_METRICS = {
    "measures.grad_probe_calls": ("count", "lower"),
    "measures.grad_probe_states": ("count", "lower"),
    "measures.grad_probe_s": ("s", "lower"),
    "measures.iterate_calls": ("count", "lower"),
    "measures.iterate_s": ("s", "lower"),
    "measures.screen_calls": ("count", "lower"),
    "measures.screen_s": ("s", "lower"),
    "measures.states_per_s": ("1/s", "higher"),
    "measures.pure_calls": ("count", "lower"),
    "measures.pure_s": ("s", "lower"),
    "roof.solves": ("count", "lower"),
    "roof.solve_s": ("s", "lower"),
    "roof.self_s": ("s", "lower"),
    "roof.iterations": ("count", "lower"),
    "roof.s_per_iteration": ("s", "lower"),
    "roof.evals_per_iteration": ("count", "lower"),
    "roof.converged_frac": ("ratio", "higher"),
    "roof.reconstruct_s": ("s", "lower"),
    "locc.nodes": ("count", "higher"),
    "locc.validate_s": ("s", "lower"),
    "locc.run_tree_s": ("s", "lower"),
    "locc.successor_scan_s": ("s", "lower"),
    "locc.audit_self_s": ("s", "lower"),
    "locc.roof_calls": ("count", "lower"),
    "linalg.lift_calls": ("count", "lower"),
    "linalg.lift_s": ("s", "lower"),
    "io.load_s": ("s", "lower"),
    "io.bytes_read": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("B", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def classify_objective_call(ndim: int) -> str:
    """Solver step behind an objective call, from its input's array rank."""
    return {5: GRAD_PROBE, 3: SCREEN, 2: ITERATE}.get(ndim, OTHER_OBJECTIVE)


class Tracer:
    """In-memory span recorder; records only while ``recording`` is set.

    A span is the list ``[name, parent_index, start, end, count]``; the
    parent index is -1 for spans opened outside any other span.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def run(self, name: str, fn, args=(), kwargs=None):
        """Call ``fn`` and return ``(result, span)``; span is None when idle."""
        if not self.recording:
            return fn(*args, **(kwargs or {})), None
        span = [name, self._stack[-1], time.perf_counter(), 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()
        return out, span

    def timed(self, name: str, fn, count=None):
        """Wrapper of ``fn`` recording one span per call.

        ``count(args, result)`` fills the span's integer field.
        """
        def wrapper(*args, **kwargs):
            out, span = self.run(name, fn, args, kwargs)
            if span is not None and count is not None:
                span[4] = int(count(args, out))
            return out

        return wrapper

    def traced_objective(self, objective):
        """Wrapper of a roof objective recording the step class and state count."""
        def wrapper(states):
            out, span = self.run(classify_objective_call(states.ndim), objective, (states,))
            if span is not None:
                span[4] = states.size // states.shape[-1]
            return out

        return wrapper

    def _replace(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the entroof entry points each layer is reached through.

        An entry point the package no longer has is skipped, so its layer
        metrics read zero.
        """
        from entroof import cli, locc, roof
        from entroof import io as fileio

        converged = lambda args, out: out.converged  # noqa: E731
        file_size = lambda args, out: os.path.getsize(args[0])  # noqa: E731
        entry_points = [
            (roof, "solve_roof", "roof.solve", converged),
            (cli, "solve_roof", "roof.solve", converged),
            (locc, "solve_roof", "roof.solve", converged),
            (roof.Ensemble, "reconstruction_error", "roof.reconstruct", None),
            (locc, "measure_value", "measures.pure", None),
            (locc, "lift", "linalg.lift", None),
            (locc, "run_tree", "locc.run_tree", None),
            (locc, "successors_from_paths", "locc.successor_scan", None),
            (cli, "validate_tree", "locc.validate", None),
            (cli, "audit_monotonicity", "locc.audit", lambda args, out: len(out.nodes)),
            (fileio, "load_state", "io.load", file_size),
            (fileio, "load_tree", "io.load", file_size),
        ]
        for owner, attr, name, count in entry_points:
            original = getattr(owner, attr, None)
            if original is not None:
                self._replace(owner, attr, self.timed(name, original, count))
        make_objective = getattr(roof, "make_objective", None)
        if make_objective is not None:
            self._replace(roof, "make_objective", lambda spec, dims: self.traced_objective(
                make_objective(spec, dims)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write spans as tab-separated lines, times in seconds from the first."""
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\tcount\n")
            for i, (name, parent, t0, t1, count) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{t0 - origin:.9f}\t{t1 - origin:.9f}\t{count}\n")


def layer_metrics(spans, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from spans recorded over ``passes`` timed passes.

    A span's self time is its duration minus that of its direct children.
    ``trace.overhead_frac`` is not derived from spans and is left out.
    """
    child_s = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    calls: Counter = Counter()
    total_s: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    counts: defaultdict = defaultdict(int)
    locc_roof_calls = 0
    for i, (name, parent, t0, t1, count) in enumerate(spans):
        calls[name] += 1
        total_s[name] += t1 - t0
        self_s[name] += t1 - t0 - child_s[i]
        counts[name] += count
        if name == "roof.solve" and parent >= 0 and spans[parent][0] == "locc.audit":
            locc_roof_calls += 1

    iterations = calls[GRAD_PROBE]
    objective_s = sum(total_s[n] for n in OBJECTIVE_SPANS)
    objective_states = sum(counts[n] for n in OBJECTIVE_SPANS)
    p = float(passes)
    return {
        "measures.grad_probe_calls": calls[GRAD_PROBE] / p,
        "measures.grad_probe_states": counts[GRAD_PROBE] / p,
        "measures.grad_probe_s": total_s[GRAD_PROBE] / p,
        "measures.iterate_calls": calls[ITERATE] / p,
        "measures.iterate_s": total_s[ITERATE] / p,
        "measures.screen_calls": calls[SCREEN] / p,
        "measures.screen_s": total_s[SCREEN] / p,
        "measures.states_per_s": objective_states / objective_s if objective_s else 0.0,
        "measures.pure_calls": calls["measures.pure"] / p,
        "measures.pure_s": total_s["measures.pure"] / p,
        "roof.solves": calls["roof.solve"] / p,
        "roof.solve_s": total_s["roof.solve"] / p,
        "roof.self_s": self_s["roof.solve"] / p,
        "roof.iterations": iterations / p,
        "roof.s_per_iteration": total_s["roof.solve"] / iterations if iterations else 0.0,
        "roof.evals_per_iteration": calls[ITERATE] / iterations if iterations else 0.0,
        "roof.converged_frac": (counts["roof.solve"] / calls["roof.solve"]
                                if calls["roof.solve"] else 0.0),
        "roof.reconstruct_s": total_s["roof.reconstruct"] / p,
        "locc.nodes": counts["locc.audit"] / p,
        "locc.validate_s": total_s["locc.validate"] / p,
        "locc.run_tree_s": total_s["locc.run_tree"] / p,
        "locc.successor_scan_s": total_s["locc.successor_scan"] / p,
        "locc.audit_self_s": self_s["locc.audit"] / p,
        "locc.roof_calls": locc_roof_calls / p,
        "linalg.lift_calls": calls["linalg.lift"] / p,
        "linalg.lift_s": total_s["linalg.lift"] / p,
        "io.load_s": total_s["io.load"] / p,
        "io.bytes_read": counts["io.load"] / p,
        "cli.self_s": self_s["cli.main"] / p,
        "cli.report_bytes": counts["cli.main"] / p,
    }


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:.0f} %" if whole else "-"


def layer_table(workload: str, wall_s: float, m: dict[str, float]) -> str:
    """Markdown table in the shape of the ROADMAP baseline split, per pass."""
    solve = m["roof.solve_s"]
    objective = m["measures.iterate_s"] + m["measures.screen_s"]
    return "\n".join([
        "| Workload | Wall | Solve | Gradient | Objective | Rest of solve | Notes |",
        "|---|---|---|---|---|---|---|",
        f"| {workload} | {wall_s:.2f} s | {solve:.2f} s | {_pct(m['measures.grad_probe_s'], solve)}"
        f" | {_pct(objective, solve)} | {_pct(m['roof.self_s'], solve)}"
        f" | {m['roof.iterations']:.0f} iterations, {m['roof.evals_per_iteration']:.2f}"
        f" iterate evaluations per iteration, converged {m['roof.converged_frac']:.2f} |",
    ])
