"""Command-line surface: measure, roof, sweep, locc.

Every command writes one JSON report to stdout. The report has two
top-level sections: ``deterministic`` (command echo, input digests, fully
materialized configuration including the seed, and results) and
``timings``. Identical inputs and seed reproduce the deterministic section
byte for byte; timings are excluded from that guarantee. Objects are
indented, one key per line, and each array element takes one line.
``--out PATH`` duplicates the report to a file.

Exit codes: 0 success, 2 malformed input file, 3 invalid parameters
(including an ``--out`` path that cannot be written), 4 internal
consistency failure, 5 invalid LOCC tree.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time

from . import io as fileio
from .linalg import schmidt
from .locc import InvalidTree, audit_monotonicity
from .measures import ENTROPY, MEASURES, P_NUMBER, MeasureSpec, measure_value, p_number_pure
from .roof import (STATIONARY, RoofProblem, _check_solver_args, _ensemble_size, rank_of,
                   solve_roof)
from .states import DensityOperator, InvariantViolation, PureState

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_PARAMS = 3
EXIT_INTERNAL = 4
EXIT_BAD_TREE = 5

RECONSTRUCTION_LIMIT = 1e-8
MAX_GRID_POINTS = 10_000

MEASURE_NAMES = {name: kind for kind, m in MEASURES.items() for name in (*m.aliases, kind)}


class ParamError(ValueError):
    pass


def _ranks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be two integers K1,K2, got {text!r}") from None


def _spec_from_args(args) -> MeasureSpec:
    kind = MEASURE_NAMES[args.measure]
    param = MEASURES[kind].param
    kwargs = {}
    if param is not None:
        if getattr(args, param) is None:
            raise ParamError(f"{args.measure} requires --{param}")
        kwargs[param] = getattr(args, param)
    if kind == ENTROPY:
        kwargs["log_base"] = 2.0 if args.log_base == "2" else math.e
    try:
        return MeasureSpec(kind, **kwargs)
    except ValueError as e:
        raise ParamError(str(e)) from None


def _spec_config(spec: MeasureSpec) -> dict:
    return {
        "kind": spec.kind,
        "p": spec.p,
        "k": spec.k,
        "ranks": list(spec.ranks) if spec.ranks else None,
        "log_base": "e" if spec.log_base == math.e else "2",
    }


def _check_roof_flags(args) -> None:
    """Reject out-of-range roof flags, also where no roof is solved."""
    with _solver_errors():
        _check_solver_args("minimize", args.restarts, RoofProblem.max_iters, args.tol)
    if args.m is not None and args.m < 1:
        raise ParamError(f"--m must be >= 1, got {args.m}")


def _roof_options(args, rho: DensityOperator | None) -> tuple[dict, dict]:
    """RoofProblem keywords from the checked roof flags, and their echo for
    the report's config.

    The echoed ``ensemble_size`` is the m that solves ``rho``; with
    ``rho`` None (the LOCC audit, whose solves each use the default at
    their own rank) it is ``--m``, null when unset.
    """
    _check_roof_flags(args)
    opts = {"ensemble_size": args.m, "restarts": args.restarts, "tol": args.tol,
            "seed": args.seed}
    config = {**opts, "max_iters": RoofProblem.max_iters}
    if rho is not None:
        config["ensemble_size"] = _ensemble_size(rank_of(rho), args.m)
    if "direction" in args:  # the LOCC audit always minimizes
        opts["direction"] = "minimize" if args.direction == "min" else "maximize"
        config["direction"] = args.direction
    return opts, config


@contextlib.contextmanager
def _solver_errors():
    """A ValueError from the solver names a roof flag or measure parameter
    that the input rejects: report it as invalid parameters."""
    try:
        yield
    except ValueError as e:
        raise ParamError(str(e)) from None


def _ensemble_doc(ensemble) -> dict:
    return {
        "weights": [float(w) for w in ensemble.weights],
        "states": [fileio.vector_to_pairs(s.amplitudes) for s in ensemble.states],
    }


def _input_doc(path) -> dict:
    return {"path": str(path), "sha256": fileio.sha256_file(path)}


_encode = json.JSONEncoder(sort_keys=True).encode


def _layout(value, indent: str = "") -> str:
    """JSON text of a report: objects indented by two spaces, one key per
    line and keys sorted, as ``json.dumps(indent=2)`` writes them, but each
    array element on one line of the C encoder's compact text."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        opening, closing = "{", "}"
        lines = (f"{_encode(k)}: {_layout(v, inner)}" for k, v in sorted(value.items()))
    elif isinstance(value, (list, tuple)) and value:
        opening, closing = "[", "]"
        lines = map(_encode, value)
    else:
        return _encode(value)
    return f"{opening}\n{inner}" + f",\n{inner}".join(lines) + f"\n{indent}{closing}"


def _emit(report: dict, out_path) -> None:
    text = _layout(report)
    print(text)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ParamError(f"cannot write --out: {e}") from None


def _require_pure(state) -> PureState:
    if not isinstance(state, PureState):
        raise ParamError("this command requires a pure-state file (kind = 'pure')")
    return state


def _require_density(state) -> DensityOperator:
    if not isinstance(state, DensityOperator):
        raise ParamError("this command requires a density file (kind = 'density')")
    return state


def cmd_measure(args) -> tuple[int, dict]:
    psi = _require_pure(fileio.load_state(args.state))
    spec = _spec_from_args(args)
    dec = schmidt(psi)
    with _solver_errors():
        value = measure_value(spec, psi)
    det = {
        "command": "measure",
        "inputs": {"state": _input_doc(args.state)},
        "config": {"measure": _spec_config(spec)},
        "results": {
            "value": value,
            "lambdas": [float(x) for x in dec.lambdas],
        },
    }
    return EXIT_OK, det


def cmd_roof(args) -> tuple[int, dict]:
    rho = _require_density(fileio.load_state(args.state))
    spec = _spec_from_args(args)
    opts, roof_config = _roof_options(args, rho)
    with _solver_errors():
        result = solve_roof(RoofProblem(rho=rho, measure=spec, **opts))
    residual = result.ensemble.reconstruction_error(rho)
    det = {
        "command": "roof",
        "inputs": {"state": _input_doc(args.state)},
        "config": {
            "measure": _spec_config(spec),
            "roof": roof_config,
        },
        "results": {
            "value": result.value,
            "ensemble": _ensemble_doc(result.ensemble),
            "reconstruction_residual": residual,
            "objective_trace": list(result.objective_trace),
            "gap_estimate": result.gap_estimate,
            "lower_bound": result.lower_bound,
            "converged": result.converged,
            "restart_values": list(result.restart_values),
        },
    }
    code = EXIT_OK if residual <= RECONSTRUCTION_LIMIT else EXIT_INTERNAL
    return code, det


def _parse_grid(text: str) -> list[float]:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ParamError(f"--p-grid must be START:STOP:STEP, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParamError(f"--p-grid values must be finite, got {text!r}")
    if start <= 1.0:
        raise ParamError(f"p-grid must lie inside (1, inf); start = {start}")
    if step <= 0 or stop < start:
        raise ParamError(f"bad grid {text!r}: need step > 0 and stop >= start")
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_GRID_POINTS:
        raise ParamError(f"--p-grid {text!r} has more than {MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(steps) + 1)]


def cmd_sweep(args) -> tuple[int, dict]:
    state = fileio.load_state(args.state)
    grid = _parse_grid(args.p_grid)
    if isinstance(state, PureState):
        _check_roof_flags(args)
        mode, roof_config = "pure", None
        values = [p_number_pure(state, p) for p in grid]
        # a pure state's value is exact: its own lower bound, at zero gap
        rows = [{"p": p, "value": v, "gap_estimate": 0.0, "lower_bound": v}
                for p, v in zip(grid, values)]
    else:
        mode, rows = "roof", []
        opts, roof_config = _roof_options(args, state)
        with _solver_errors():
            for p in grid:
                problem = RoofProblem(rho=state, measure=MeasureSpec(P_NUMBER, p=p), **opts)
                result = solve_roof(problem)
                rows.append({"p": p, "value": result.value, "gap_estimate": result.gap_estimate,
                             "lower_bound": result.lower_bound})
    csv = "p,value\n" + "\n".join(f"{r['p']!r},{r['value']!r}" for r in rows)
    det = {
        "command": "sweep",
        "inputs": {"state": _input_doc(args.state)},
        "config": {
            "p_grid": args.p_grid,
            "mode": mode,
            "roof": roof_config,
        },
        "results": {"rows": rows, "csv": csv},
    }
    return EXIT_OK, det


def _issue_doc(issue) -> dict:
    """A validation issue; a non-finite residual is written as null, which
    JSON can hold (the message still names it)."""
    doc = dict(vars(issue))
    if doc["residual"] is not None and not math.isfinite(doc["residual"]):
        doc["residual"] = None
    return doc


def cmd_locc(args) -> tuple[int, dict]:
    tree, tree_dims = fileio.load_tree(args.tree)
    state = fileio.load_state(args.state)
    rho = state if isinstance(state, DensityOperator) else DensityOperator.from_pure(state)
    if rho.dims.as_tuple() != tree_dims.as_tuple():
        raise ParamError(
            f"tree dims {tree_dims.as_tuple()} do not match state dims {rho.dims.as_tuple()}")
    spec = _spec_from_args(args)
    opts, roof_config = _roof_options(args, None)
    det = {
        "command": "locc",
        "inputs": {"tree": _input_doc(args.tree), "state": _input_doc(args.state)},
        "config": {
            "measure": _spec_config(spec),
            "roof": roof_config,
        },
        "results": {"validation": []},
    }
    with _solver_errors():
        try:
            audit = audit_monotonicity(tree, rho, spec, opts)
        except InvalidTree as e:  # the audit validates the tree before any work
            det["results"]["validation"] = [_issue_doc(i) for i in e.report.issues]
            return EXIT_BAD_TREE, det
    det["results"].update({
        "branches": [
            {
                "path": list(n.path),
                "party": n.party,
                "probability": n.probability,
                "value": n.value,
                "method": n.method,
                "gap_estimate": n.gap,
            }
            for n in audit.nodes
        ],
        "inequalities": [dict(vars(q)) for q in audit.inequalities],
        "end_to_end": dict(vars(audit.end_to_end)),
        "pruned": [list(p) for p in audit.pruned],
    })
    return EXIT_OK, det


def _add_measure_flags(p: argparse.ArgumentParser) -> None:
    names = (f"{name} (--{m.param})" if m.param else name
             for kind, m in MEASURES.items() for name in (*m.aliases, kind))
    p.add_argument("--measure", required=True, choices=MEASURE_NAMES, metavar="MEASURE",
                   help="one of: " + ", ".join(names))
    p.add_argument("--p", type=float, default=None, help="order for p-number (p > 1)")
    p.add_argument("--k", type=int, default=None, help="order for concurrence (1 <= k <= d)")
    p.add_argument("--ranks", type=_ranks, default=None,
                   help="projector ranks K1,K2 for geometric")
    p.add_argument("--log-base", choices=["2", "e"], default="2",
                   help="entropy logarithm base (default 2)")


def _add_roof_flags(p: argparse.ArgumentParser, direction: bool = True) -> None:
    p.add_argument("--m", type=int, default=None,
                   help="ensemble size (default min(r^2, 2r) at the state's rank r)")
    p.add_argument("--restarts", type=int, default=RoofProblem.restarts,
                   help="random restarts (default %(default)s)")
    p.add_argument("--seed", type=int, default=RoofProblem.seed,
                   help="optimizer seed (default %(default)s)")
    p.add_argument("--tol", type=float, default=RoofProblem.tol,
                   help="a restart stops when its L-BFGS step predicts a decrease below "
                        f"{STATIONARY:g} times this (default %(default)s)")
    if direction:
        p.add_argument("--direction", choices=["min", "max"], default="min",
                       help="convex (min) or concave (max) roof (default min)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="entroof",
        description="Bipartite entanglement measures, convex roofs, and LOCC audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="evaluate a pure-state measure")
    p_measure.add_argument("state", help="pure state file (JSON)")
    _add_measure_flags(p_measure)
    p_measure.add_argument("--out", default=None, help="duplicate the report to a file")
    p_measure.set_defaults(func=cmd_measure)

    p_roof = sub.add_parser("roof", help="roof-extend a measure to a density operator")
    p_roof.add_argument("state", help="density file (JSON)")
    _add_measure_flags(p_roof)
    _add_roof_flags(p_roof)
    p_roof.add_argument("--out", default=None, help="duplicate the report to a file")
    p_roof.set_defaults(func=cmd_roof)

    p_sweep = sub.add_parser("sweep", help="p-number values over a grid of p")
    p_sweep.add_argument("state", help="pure or density file (JSON)")
    p_sweep.add_argument("--measure", default="p-number", choices=["p-number"],
                         help="swept measure (p-number)")
    p_sweep.add_argument("--p-grid", required=True, help="grid START:STOP:STEP with start > 1")
    _add_roof_flags(p_sweep)
    p_sweep.add_argument("--out", default=None, help="duplicate the report to a file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_locc = sub.add_parser("locc", help="run and audit an LOCC instrument tree")
    p_locc.add_argument("tree", help="tree file (JSON)")
    p_locc.add_argument("state", help="pure or density file (JSON)")
    _add_measure_flags(p_locc)
    _add_roof_flags(p_locc, direction=False)
    p_locc.add_argument("--out", default=None, help="duplicate the report to a file")
    p_locc.set_defaults(func=cmd_locc)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_BAD_PARAMS
    start = time.perf_counter()
    try:
        code, det = args.func(args)
        timings = {"wall_seconds": time.perf_counter() - start}
        _emit({"deterministic": det, "timings": timings}, args.out)
    except InvariantViolation as e:
        print(f"error: invariant '{e.invariant}' violated "
              f"(residual {e.residual!r}): {e}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ParamError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
