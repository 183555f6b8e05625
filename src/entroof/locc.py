"""LOCC channels as trees of party-labeled Kraus instruments.

A protocol is a rooted ordered tree: each internal node holds the Kraus
operators of the instrument applied by one party at that point, with one
child per outcome. Kraus operators act on that party's factor only (as
K x I or I x K, without forming the lifted matrix), so local dimensions may
change between rounds. Every walk over a tree is an explicit-stack
pre-order loop, so tree depth is not bounded by the recursion limit.

Branch states are stored unnormalized with the raw instrument maps composed
down from the root; the trace of a branch is then the joint probability of
reaching it, probabilities of siblings sum to their parent's, and the
channel output is the plain sum over leaves. (Equivalently, each child is
generated from its parent's normalized state and carries its own
probability weight.)

``audit_monotonicity`` checks, node by node, that a measure does not
increase on average down the tree: rank-one branch states are evaluated
exactly through the pure-state formulas, mixed ones through the numerical
convex roof, whose gap estimate accompanies each inequality so that
near-zero violations can be attributed to the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import apply_local, kraus_residual
from .measures import MeasureSpec, measure_value
from .roof import RoofProblem, solve_roof
from .states import KRAUS_ATOL, BipartiteDims, DensityOperator, InvariantViolation, PureState

Path = tuple[int, ...]

PRUNE_TOL = 1e-12        # branches below this probability are skipped in audits
PURE_RANK_ATOL = 1e-10   # second eigenvalue below this means rank one
VIOLATION_MARGIN = 1e-6  # violations are flagged only beyond gap budget + this


def _party(p: str) -> str:
    s = str(p).upper()
    if s in ("A", "ALICE"):
        return "A"
    if s in ("B", "BOB"):
        return "B"
    raise ValueError(f"party must be Alice/A or Bob/B, got {p!r}")


@dataclass(frozen=True)
class LoccNode:
    """One node of an instrument tree.

    ``kraus[i]`` is applied on the branch leading to ``children[i]``; leaves
    carry no operators. The party is free per node (consecutive rounds by
    one party are allowed).
    """

    party: str
    kraus: tuple[np.ndarray, ...] = ()
    children: tuple["LoccNode", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "party", _party(self.party))
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.kraus)
        for k in ops:
            k.setflags(write=False)
        object.__setattr__(self, "kraus", ops)
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children and not self.kraus


@dataclass(frozen=True)
class BranchState:
    """Unnormalized state at one tree node; its trace is the joint
    probability of reaching the node."""

    path: Path
    unnormalized: np.ndarray
    probability: float
    dims: tuple[int, int]


@dataclass(frozen=True)
class TreeIssue:
    path: Path
    code: str
    message: str
    residual: float | None = None


@dataclass(frozen=True)
class TreeValidationReport:
    issues: tuple[TreeIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues


def iter_nodes(tree: LoccNode):
    """Depth-first (path, node) pairs; the root has the empty path."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in reversed(range(len(node.children))):
            stack.append((path + (i,), node.children[i]))


def _child_dims(node: LoccNode, dims: tuple[int, int]) -> tuple[int, int]:
    out = node.kraus[0].shape[0]
    return (out, dims[1]) if node.party == "A" else (dims[0], out)


def validate_tree(tree: LoccNode, dims: BipartiteDims) -> TreeValidationReport:
    """Collect every structural and completeness violation; never raises."""
    issues: list[TreeIssue] = []
    leaf_dims: set[tuple[int, int]] = set()
    stack = [(tree, (), dims.as_tuple())]
    while stack:
        node, path, cur = stack.pop()
        if node.is_leaf:
            leaf_dims.add(cur)
            continue
        if len(node.children) != len(node.kraus):
            issues.append(TreeIssue(
                path, "children-count",
                f"{len(node.kraus)} Kraus operators vs {len(node.children)} children"))
            continue
        shapes = {k.shape for k in node.kraus}
        if len(shapes) != 1 or any(len(s) != 2 for s in shapes):
            issues.append(TreeIssue(
                path, "kraus-shape", f"inconsistent Kraus shapes {sorted(shapes)}"))
            continue
        acting = cur[0] if node.party == "A" else cur[1]
        d_in = node.kraus[0].shape[1]
        if d_in != acting:
            issues.append(TreeIssue(
                path, "kraus-dims",
                f"operators act on dim {d_in}, current {node.party} dim is {acting}"))
            continue
        res = kraus_residual(node.kraus)
        if res > KRAUS_ATOL:
            issues.append(TreeIssue(
                path, "kraus-completeness",
                f"sum K^H K deviates from identity by {res:.3e}", res))
        nxt = _child_dims(node, cur)
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], path + (i,), nxt))

    if len(leaf_dims) > 1:
        issues.append(TreeIssue(
            (), "leaf-dims", f"leaves end on different dimensions {sorted(leaf_dims)}"))
    return TreeValidationReport(tuple(issues))


def run_tree(
    tree: LoccNode, rho: DensityOperator
) -> tuple[list[list[BranchState]], DensityOperator]:
    """Evaluate every branch state and the channel output sum over leaves.

    Raises InvariantViolation if the tree fails validation.
    """
    report = validate_tree(tree, rho.dims)
    if not report.ok:
        worst = report.issues[0]
        raise InvariantViolation(
            "locc-tree", worst.residual or 0.0,
            f"invalid tree at node {worst.path}: {worst.message}")

    levels: list[list[BranchState]] = []
    leaves: list[BranchState] = []
    stack = [(tree, (), rho.matrix, rho.dims.as_tuple())]
    while stack:
        node, path, mat, cur = stack.pop()
        bs = BranchState(path, mat, float(np.trace(mat).real), cur)
        if len(levels) == len(path):
            levels.append([])
        levels[len(path)].append(bs)
        if node.is_leaf:
            leaves.append(bs)
            continue
        nxt = _child_dims(node, cur)
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], path + (i,),
                          apply_local(node.kraus[i], mat, cur, node.party), nxt))
    out = sum(bs.unnormalized for bs in leaves)
    out = (out + out.conj().T) / 2
    out_dims = BipartiteDims(*leaves[0].dims)
    return levels, DensityOperator(out, out_dims)


# ---------------------------------------------------------------------------
# monotonicity audit


@dataclass(frozen=True)
class NodeValue:
    """Measure value of one (normalized) branch state."""

    path: Path
    party: str
    probability: float
    value: float
    method: str          # "pure" (exact) or "roof" (optimizer upper bound)
    gap: float
    is_leaf: bool


@dataclass(frozen=True)
class NodeInequality:
    """Average monotonicity at one non-final node.

    slack = value(parent) - sum_children (p_child/p_parent) * value(child).
    ``flagged`` is set only when the slack is negative beyond the combined
    optimizer gap budget plus a safety margin; apparent violations within
    the budget indict the numerical roof, not the inequality.
    """

    path: Path
    parent_value: float
    children_average: float
    slack: float
    gap_budget: float
    flagged: bool


@dataclass(frozen=True)
class EndToEnd:
    input_value: float
    input_gap: float
    output_value: float
    output_gap: float
    slack: float
    flagged: bool


@dataclass(frozen=True)
class MonotonicityAudit:
    nodes: tuple[NodeValue, ...]
    inequalities: tuple[NodeInequality, ...]
    end_to_end: EndToEnd | None
    pruned: tuple[Path, ...] = field(default=())


def _evaluate_density(
    mat: np.ndarray,
    dims: tuple[int, int],
    spec: MeasureSpec,
    roof_opts: dict,
) -> tuple[float, str, float]:
    """Measure value of a normalized state matrix: exact if rank one."""
    mat = (mat + mat.conj().T) / 2
    bdims = BipartiteDims(*dims)
    w, vecs = np.linalg.eigh(mat)
    rank_one = len(w) == 1 or w[-2] <= PURE_RANK_ATOL
    if rank_one:
        psi = vecs[:, -1]
        psi = psi / np.linalg.norm(psi)
        return measure_value(spec, PureState(psi, bdims)), "pure", 0.0
    rho = DensityOperator(mat / np.trace(mat).real, bdims)
    result = solve_roof(RoofProblem(rho=rho, measure=spec, **roof_opts))
    return result.value, "roof", result.gap_estimate


def audit_monotonicity(
    tree: LoccNode,
    rho: DensityOperator,
    spec: MeasureSpec,
    roof_opts: dict | None = None,
    end_to_end: bool = True,
) -> MonotonicityAudit:
    """Per-node and end-to-end average monotonicity report for a measure.

    ``roof_opts`` are forwarded to :class:`RoofProblem` for branches that
    need a numerical roof (keys: ensemble_size, restarts, max_iters, tol,
    seed). Branches with probability below PRUNE_TOL are skipped and listed
    in ``pruned`` (the measure of a zero-probability branch is undefined).
    ``end_to_end=False`` skips the channel-output comparison, which needs a
    roof solve whenever the output is mixed.
    """
    roof_opts = dict(roof_opts or {})
    levels, output = run_tree(tree, rho)

    values: dict[Path, NodeValue] = {}
    pruned: list[Path] = []
    node_of = dict(iter_nodes(tree))
    for level in levels:
        for bs in level:
            if bs.probability < PRUNE_TOL:
                pruned.append(bs.path)
                continue
            val, method, gap = _evaluate_density(
                bs.unnormalized / bs.probability, bs.dims, spec, roof_opts)
            node = node_of[bs.path]
            values[bs.path] = NodeValue(
                bs.path, node.party, bs.probability, val, method, gap, node.is_leaf)

    inequalities = []
    for path, nv in sorted(values.items()):
        kid_paths = (path + (i,) for i in range(len(node_of[path].children)))
        kids = [values[k] for k in kid_paths if k in values]  # pruned ones are absent
        if not kids:
            continue
        avg = sum(k.probability * k.value for k in kids) / nv.probability
        slack = nv.value - avg
        budget = nv.gap + sum(k.gap for k in kids)
        inequalities.append(NodeInequality(
            path, nv.value, avg, slack, budget,
            flagged=slack < -(budget + VIOLATION_MARGIN)))

    end = None
    if end_to_end:
        in_val, _, in_gap = _evaluate_density(
            rho.matrix, rho.dims.as_tuple(), spec, roof_opts)
        out_val, _, out_gap = _evaluate_density(
            output.matrix, output.dims.as_tuple(), spec, roof_opts)
        slack = in_val - out_val
        end = EndToEnd(
            in_val, in_gap, out_val, out_gap, slack,
            flagged=slack < -(in_gap + out_gap + VIOLATION_MARGIN))
    return MonotonicityAudit(
        nodes=tuple(values[p] for p in sorted(values)),
        inequalities=tuple(inequalities),
        end_to_end=end,
        pruned=tuple(pruned),
    )
