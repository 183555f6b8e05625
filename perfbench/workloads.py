"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload has a fixed base instance drawn from ``BASE_SEED``. For every
timed pass the run seed draws local unitaries U_A (x) U_B that rotate each
input, and the solver seeds. Entanglement is invariant under local
unitaries, so every seed poses the same problems in another basis: the
roof values and their oracles stay comparable across seeds, while the
numbers the solver sees, and the path it takes, change with the seed.

Inputs are generated and written before a pass; the pass times only the
operations, and the checks run after it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import entroof.cli
import entroof.roof
from entroof import io as fileio
from entroof.locc import LoccNode
from entroof.measures import MeasureSpec, measure_value
from entroof.roof import RoofProblem
from entroof.sampling import ginibre, random_density, random_npt_density, random_unitary
from entroof.states import BipartiteDims, DensityOperator, PureState
from entroof.twoqubit import concurrence

from oracles import TWO_QUBITS, isotropic_entropy_roof, isotropic_matrix, two_qubit_oracle

BASE_SEED = 201201692
RESIDUAL_LIMIT = 1e-8    # trace-norm distance of the returned ensemble from rho
VALUE_TOL = 1e-9         # reported value vs the ensemble's member average
ORACLE_TOL = 1e-6        # reported value vs a closed-form roof
SLACK_FLOOR = -1e-9      # LOCC node inequality slack


@dataclass
class Op:
    """One operation: ``run()`` is timed; ``check(outcome)`` is not.

    ``check`` returns the problems found and the roof values the
    operation reported.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[float]]]


def pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**64, index])


def solver_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def rotate(rho: DensityOperator, rng: np.random.Generator) -> DensityOperator:
    """rho conjugated by a Haar-random local unitary U_A (x) U_B."""
    da, db = rho.dims.as_tuple()
    u = np.kron(random_unitary(da, rng), random_unitary(db, rng))
    m = u @ rho.matrix @ u.conj().T
    m = (m + m.conj().T) / 2
    return DensityOperator(m / np.trace(m).real, rho.dims)


def oracle_problems(value: float, oracle: float) -> list[str]:
    err = abs(value - oracle)
    return [f"value {value!r} is {err:.2e} from its oracle {oracle!r}"] if err > ORACLE_TOL else []


def ensemble_problems(rho: DensityOperator, spec: MeasureSpec, value: float,
                      weights, vectors) -> list[str]:
    """Check a returned ensemble: it mixes to rho, and it attains ``value``.

    The member values come from ``measure_value`` (the Schmidt/SVD route),
    not from the solver's Gram-spectrum objective.
    """
    weights = np.asarray(weights, dtype=float)
    vectors = np.asarray(vectors, dtype=np.complex128)
    mix = (vectors.T * weights) @ vectors.conj()
    residual = float(np.sum(np.abs(np.linalg.eigvalsh(mix - rho.matrix))))
    attained = sum(float(w) * measure_value(spec, PureState(v, rho.dims))
                   for w, v in zip(weights, vectors))
    problems = []
    if residual > RESIDUAL_LIMIT:
        problems.append(f"reconstruction residual {residual:.2e}")
    if abs(attained - value) > VALUE_TOL:
        problems.append(f"value {value!r} but the ensemble attains {attained!r}")
    return problems


def run_cli(tracer, argv: list[str]) -> tuple[int, str]:
    """``entroof`` in-process; returns the exit code and the report text."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, span = tracer.run("cli.main", entroof.cli.main, (argv,))
    text = buf.getvalue()
    if span is not None:
        span[4] = len(text)  # the report is ASCII JSON
    return code, text


def cli_results(outcome: tuple[int, str]) -> tuple[list[str], dict | None]:
    code, text = outcome
    if code != 0:
        return [f"exit code {code}"], None
    return [], json.loads(text)["deterministic"]["results"]


def _pairs(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


class Roof2x2:
    """``entroof roof`` at CLI defaults on two-qubit densities, plus a sweep."""

    name = "roof-2x2"
    RANKS = (2, 3, 4)
    MEASURES = {"entropy": MeasureSpec("entropy"), "e": MeasureSpec("entanglement-number")}
    MIN_CONCURRENCE = 0.2   # keeps every base value well away from zero
    SWEEP_RANK = 3
    P_GRID = "1.5:2:0.5"    # p = 1.5 and p = 2; the p = 2 row has the C/sqrt(2) oracle

    def __init__(self, tracer):
        self.tracer = tracer
        self.base: dict[int, DensityOperator] = {}

    def build_base(self) -> None:
        rng = np.random.default_rng(BASE_SEED)
        for rank in self.RANKS:
            rho = random_density(TWO_QUBITS, rng, rank)
            while concurrence(rho) < self.MIN_CONCURRENCE:
                rho = random_density(TWO_QUBITS, rng, rank)
            self.base[rank] = rho

    def pass_ops(self, rng: np.random.Generator, workdir: Path) -> list[Op]:
        ops = []
        for rank in self.RANKS:
            rho = rotate(self.base[rank], rng)
            path = workdir / f"rank{rank}.json"
            fileio.save_state(path, rho)
            for measure, spec in self.MEASURES.items():
                argv = ["roof", str(path), "--measure", measure, "--seed", str(solver_seed(rng))]
                ops.append(Op(f"roof {measure} rank {rank}", partial(run_cli, self.tracer, argv),
                              partial(self._check_roof, rho, measure, spec)))
            if rank == self.SWEEP_RANK:
                sweep_rho, sweep_path = rho, path
        argv = ["sweep", str(sweep_path), "--p-grid", self.P_GRID,
                "--seed", str(solver_seed(rng))]
        return ops + [Op(f"sweep rank {self.SWEEP_RANK}", partial(run_cli, self.tracer, argv),
                         partial(self._check_sweep, sweep_rho))]

    def warmup(self, workdir: Path) -> None:
        path = workdir / "warmup.json"
        fileio.save_state(path, self.base[2])
        run_cli(self.tracer, ["roof", str(path), "--measure", "e", "--restarts", "2"])

    @staticmethod
    def _check_roof(rho, measure, spec, outcome):
        problems, res = cli_results(outcome)
        if res is None:
            return problems, []
        ens = res["ensemble"]
        problems += ensemble_problems(rho, spec, res["value"], ens["weights"],
                                      [_pairs(s) for s in ens["states"]])
        problems += oracle_problems(res["value"], two_qubit_oracle(rho, measure))
        return problems, [res["value"]]

    @staticmethod
    def _check_sweep(rho, outcome):
        problems, res = cli_results(outcome)
        if res is None:
            return problems, []
        rows = res["rows"]
        at_two = [r["value"] for r in rows if r["p"] == 2.0]
        if len(rows) != 2 or len(at_two) != 1:
            return problems + [f"unexpected sweep rows {rows!r}"], []
        problems += oracle_problems(at_two[0], two_qubit_oracle(rho, "p2"))
        return problems, [r["value"] for r in rows]


class Roof3x3:
    """Library ``solve_roof`` on 3x3 and 2x4 densities at a reduced budget.

    The CLI fixes max_iters at 2000, so the library is called directly.
    """

    name = "roof-3x3"
    RESTARTS = 2
    MAX_ITERS = 300
    MIN_NEGATIVITY = 0.02   # random bases are drawn entangled (NPT)
    ISO_FIDELITY = 0.6      # inside [1/3, 8/9], where the isotropic oracle is exact

    def __init__(self, tracer):
        self.tracer = tracer
        self.base: list[tuple[str, DensityOperator, MeasureSpec, float | None]] = []

    def build_base(self) -> None:
        rng = np.random.default_rng(BASE_SEED)
        d33, d24 = BipartiteDims(3, 3), BipartiteDims(2, 4)
        self.base = [
            ("3x3 rank 9 entropy", random_npt_density(d33, rng, self.MIN_NEGATIVITY),
             MeasureSpec("entropy"), None),
            ("2x4 rank 8 e", random_npt_density(d24, rng, self.MIN_NEGATIVITY),
             MeasureSpec("entanglement-number"), None),
            ("3x3 isotropic entropy",
             DensityOperator(isotropic_matrix(3, self.ISO_FIDELITY), d33),
             MeasureSpec("entropy"), isotropic_entropy_roof(self.ISO_FIDELITY, 3)),
        ]

    def pass_ops(self, rng: np.random.Generator, workdir: Path) -> list[Op]:
        ops = []
        for label, base, spec, oracle in self.base:
            rho = rotate(base, rng)
            problem = RoofProblem(rho=rho, measure=spec, restarts=self.RESTARTS,
                                  max_iters=self.MAX_ITERS, seed=solver_seed(rng))
            ops.append(Op(label, partial(self._solve, problem),
                          partial(self._check, rho, spec, oracle)))
        return ops

    @staticmethod
    def _solve(problem):
        return entroof.roof.solve_roof(problem)

    def warmup(self, workdir: Path) -> None:
        _, rho, spec, _ = self.base[2]
        self._solve(RoofProblem(rho=rho, measure=spec, restarts=1, max_iters=20))

    @staticmethod
    def _check(rho, spec, oracle, result):
        ens = result.ensemble
        problems = ensemble_problems(rho, spec, result.value, ens.weights,
                                     [s.amplitudes for s in ens.states])
        if oracle is not None:
            problems += oracle_problems(result.value, oracle)
        return problems, [result.value]


def near_identity_unitary(rng: np.random.Generator, dim: int, angle: float) -> np.ndarray:
    """exp(i angle H) for a random Hermitian H of unit spectral norm."""
    g = ginibre(rng, dim, dim)
    h = (g + g.conj().T) / 2
    w, v = np.linalg.eigh(h / np.linalg.norm(h, 2))
    return (v * np.exp(1j * angle * w)) @ v.conj().T


def random_unitary_tree(rng: np.random.Generator, depth: int, party: str,
                        weights, angle: float) -> LoccNode:
    """Complete two-qubit instrument tree whose outcome j applies sqrt(q_j) U_j.

    Parties alternate by level. Every branch stays pure and the channel
    output stays entangled, because each U_j is a small local rotation.
    """
    if depth == 0:
        return LoccNode(party)
    kraus = tuple(math.sqrt(q) * near_identity_unitary(rng, 2, angle) for q in weights)
    nxt = "B" if party == "A" else "A"
    children = tuple(random_unitary_tree(rng, depth - 1, nxt, weights, angle) for _ in kraus)
    return LoccNode(party, kraus=kraus, children=children)


def conjugate_tree(node: LoccNode, u_a: np.ndarray, u_b: np.ndarray) -> LoccNode:
    """The tree applied in the local basis rotated by u_a (x) u_b."""
    u = u_a if node.party == "A" else u_b
    return LoccNode(node.party, kraus=tuple(u @ k @ u.conj().T for k in node.kraus),
                    children=tuple(conjugate_tree(c, u_a, u_b) for c in node.children))


def channel_output(node: LoccNode, mat: np.ndarray) -> np.ndarray:
    """Sum over leaves of the branch states; an independent tree walk."""
    if not node.kraus:
        return mat
    out = np.zeros_like(mat)
    for k, child in zip(node.kraus, node.children):
        op = np.kron(k, np.eye(2)) if node.party == "A" else np.kron(np.eye(2), k)
        out += channel_output(child, op @ mat @ op.conj().T)
    return out


class LoccTree:
    """``entroof locc --measure e --restarts 1`` on a pure state and a large tree."""

    name = "locc-tree"
    DEPTH = 7                          # 3280 nodes with 3 outcomes
    OUTCOME_WEIGHTS = (0.5, 0.3, 0.2)  # smallest branch probability 0.2**7
    ANGLE = 0.2                        # keeps the output concurrence at 0.72
    SCHMIDT = (0.7, 0.3)               # input concurrence 0.92

    def __init__(self, tracer):
        self.tracer = tracer
        self.nodes = sum(len(self.OUTCOME_WEIGHTS)**i for i in range(self.DEPTH + 1))
        self.psi = np.sqrt(np.array([self.SCHMIDT[0], 0, 0, self.SCHMIDT[1]], dtype=np.complex128))
        self.tree: LoccNode | None = None
        self.oracle = 0.0

    def build_base(self) -> None:
        rng = np.random.default_rng(BASE_SEED)
        self.tree = random_unitary_tree(rng, self.DEPTH, "A", self.OUTCOME_WEIGHTS, self.ANGLE)
        output = channel_output(self.tree, np.outer(self.psi, self.psi.conj()))
        self.oracle = two_qubit_oracle(DensityOperator(output, TWO_QUBITS), "e")

    def _write(self, workdir: Path, stem: str, tree: LoccNode, psi: np.ndarray):
        tree_path, state_path = workdir / f"{stem}-tree.json", workdir / f"{stem}-state.json"
        fileio.save_tree(tree_path, tree, TWO_QUBITS)
        fileio.save_state(state_path, PureState(psi, TWO_QUBITS))
        return ["locc", str(tree_path), str(state_path), "--measure", "e", "--restarts", "1"]

    def pass_ops(self, rng: np.random.Generator, workdir: Path) -> list[Op]:
        u_a, u_b = random_unitary(2, rng), random_unitary(2, rng)
        argv = self._write(workdir, "pass", conjugate_tree(self.tree, u_a, u_b),
                           np.kron(u_a, u_b) @ self.psi)
        argv += ["--seed", str(solver_seed(rng))]
        return [Op("locc", partial(run_cli, self.tracer, argv), self._check)]

    def warmup(self, workdir: Path) -> None:
        small = random_unitary_tree(np.random.default_rng(BASE_SEED), 2, "A",
                                    self.OUTCOME_WEIGHTS, self.ANGLE)
        run_cli(self.tracer, self._write(workdir, "warmup", small, self.psi))

    def _check(self, outcome):
        problems, res = cli_results(outcome)
        if res is None:
            return problems, []
        seen = len(res["branches"]) + len(res["pruned"])
        if seen != self.nodes:
            problems.append(f"audit covered {seen} of {self.nodes} nodes")
        mixed = sum(b["method"] != "pure" for b in res["branches"])
        if mixed:
            problems.append(f"{mixed} branches not evaluated as pure")
        worst = min((q["slack"] for q in res["inequalities"]), default=0.0)
        if worst < SLACK_FLOOR:
            problems.append(f"node slack {worst!r}")
        value = res["end_to_end"]["output_value"]
        return problems + oracle_problems(value, self.oracle), [value]


WORKLOADS = {w.name: w for w in (Roof2x2, Roof3x3, LoccTree)}
