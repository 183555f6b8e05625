"""LOCC channels as trees of party-labeled Kraus instruments.

A protocol is a rooted ordered tree: each internal node holds the Kraus
operators of the instrument applied by one party at that point, with one
child per outcome. Kraus operators act on that party's factor only (as
K x I or I x K, without forming the lifted matrix), so local dimensions may
change between rounds. Every walk over a tree is a level-by-level loop,
so tree depth is not bounded by the recursion limit.

Branch states are stored unnormalized with the raw instrument maps composed
down from the root; the trace of a branch is then the joint probability of
reaching it, probabilities of siblings sum to their parent's, and the
channel output is the plain sum over leaves. (Equivalently, each child is
generated from its parent's normalized state and carries its own
probability weight.)

``validate_tree`` checks a tree one level at a time: the instruments of
a level that share an operator count and shape are checked for
completeness in one stacked call.

``run_tree`` computes the states one tree level at a time: the Kraus
operators of a level that share a party, input dimensions and shape are
applied to their parents' states in one stacked ``apply_local`` call.

``audit_monotonicity`` checks, node by node, that a measure does not
increase on average down the tree. It too works a level at a time: per
level and dimensions, one stacked Hermitian eigendecomposition tests every
branch for rank one, and one stacked ``measure_value`` evaluates all
rank-one branches exactly through the pure-state formulas. Each mixed
branch gets its own numerical convex roof, whose gap estimate accompanies
each inequality so that near-zero violations can be attributed to the
optimizer. Stacking does not change a single bit of the values: every
branch takes the matrix operations its own evaluation would take. The
root branch is the input itself, so the end-to-end comparison reads the
input's value from it and evaluates only the channel output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import apply_local, completeness_issues, kraus_shape_issue
from .measures import MeasureSpec, measure_value
from .roof import RoofProblem, solve_roof
from .states import BipartiteDims, DensityOperator, InvariantViolation

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


def _child_dims(node: LoccNode, dims: tuple[int, int]) -> tuple[int, int]:
    out = node.kraus[0].shape[0]
    return (out, dims[1]) if node.party == "A" else (dims[0], out)


def validate_tree(tree: LoccNode, dims: BipartiteDims) -> TreeValidationReport:
    """Collect every structural and completeness violation; never raises.

    The walk goes a level at a time: the instruments of a level that share
    an operator count and shape are checked for completeness in one
    stacked :func:`completeness_issues` call. Issues come in pre-order of
    their paths, then the leaf-dims issue.
    """
    issues: list[TreeIssue] = []
    leaf_dims: set[tuple[int, int]] = set()
    level = [(tree, (), dims.as_tuple())]
    while level:
        groups: dict[tuple, list] = {}
        for node, path, cur in level:
            if node.is_leaf:
                leaf_dims.add(cur)
                continue
            if len(node.children) != len(node.kraus):
                issues.append(TreeIssue(
                    path, "children-count",
                    f"{len(node.kraus)} Kraus operators vs {len(node.children)} children"))
                continue
            issue = kraus_shape_issue(node.kraus)
            if issue:
                issues.append(TreeIssue(path, *issue))
                continue
            acting = cur[0] if node.party == "A" else cur[1]
            d_in = node.kraus[0].shape[1]
            if d_in != acting:
                issues.append(TreeIssue(
                    path, "kraus-dims",
                    f"operators act on dim {d_in}, current {node.party} dim is {acting}"))
                continue
            groups.setdefault((len(node.kraus), node.kraus[0].shape), []).append(
                (node, path, cur))
        level = []
        for (n_ops, shape), members in groups.items():
            ops = np.stack([k for node, _, _ in members for k in node.kraus])
            found = completeness_issues(ops.reshape((len(members), n_ops) + shape))
            for (node, path, cur), issue in zip(members, found):
                if issue:  # incomplete: reported, and the walk goes on below
                    issues.append(TreeIssue(path, *issue))
                nxt = _child_dims(node, cur)
                level.extend((c, path + (i,), nxt) for i, c in enumerate(node.children))

    issues.sort(key=lambda issue: issue.path)  # tuple order of paths is pre-order
    if len(leaf_dims) > 1:
        issues.append(TreeIssue(
            (), "leaf-dims", f"leaves end on different dimensions {sorted(leaf_dims)}"))
    return TreeValidationReport(tuple(issues))


class InvalidTree(InvariantViolation):
    """A tree failed :func:`validate_tree`; ``report`` holds every issue."""

    def __init__(self, report: TreeValidationReport):
        worst = report.issues[0]
        super().__init__("locc-tree", worst.residual or 0.0,
                         f"invalid tree at node {worst.path}: {worst.message}")
        self.report = report


def run_tree(
    tree: LoccNode, rho: DensityOperator
) -> tuple[list[list[BranchState]], DensityOperator]:
    """Evaluate every branch state and the channel output sum over leaves.

    ``levels[t]`` lists the branches at depth t in path order. Raises
    :class:`InvalidTree` (an InvariantViolation) if the tree fails
    validation.
    """
    report = validate_tree(tree, rho.dims)
    if not report.ok:
        raise InvalidTree(report)
    return _walk(tree, rho)


def _walk(
    tree: LoccNode, rho: DensityOperator
) -> tuple[list[list[BranchState]], DensityOperator]:
    """:func:`run_tree` on a validated tree, one level at a time.

    The (operator, parent state) pairs of a level are grouped by party,
    dimensions and operator shape, and each group is one stacked
    :func:`apply_local` call. Leaves are summed in path order, the order
    of a depth-first walk.
    """
    level = [BranchState((), rho.matrix, float(np.trace(rho.matrix).real),
                         rho.dims.as_tuple())]
    nodes = [tree]
    levels: list[list[BranchState]] = []
    leaves: list[BranchState] = []
    while level:
        levels.append(level)
        groups: dict[tuple, list[int]] = {}
        for i, (node, bs) in enumerate(zip(nodes, level)):
            if node.is_leaf:
                leaves.append(bs)
            else:
                key = (node.party, bs.dims, node.kraus[0].shape)
                groups.setdefault(key, []).append(i)
        kids: list[list[BranchState]] = [[] for _ in level]
        for (party, cur, _), members in groups.items():
            pairs = [(i, c) for i in members for c in range(len(nodes[i].kraus))]
            ops = np.stack([nodes[i].kraus[c] for i, c in pairs])
            mats = np.stack([level[i].unnormalized for i, _ in pairs])
            out = apply_local(ops, mats, cur, party)
            probs = np.trace(out, axis1=-2, axis2=-1).real.tolist()
            nxt = _child_dims(nodes[members[0]], cur)
            for (i, c), mat, prob in zip(pairs, out, probs):
                kids[i].append(BranchState(level[i].path + (c,), mat, prob, nxt))
        level = [bs for row in kids for bs in row]
        nodes = [c for node in nodes for c in node.children]
    leaves.sort(key=lambda bs: bs.path)
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


def _evaluate(
    mats: np.ndarray,
    dims: tuple[int, int],
    spec: MeasureSpec,
    roof_opts: dict,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure values of normalized state matrices (n, D, D) of one dims.

    One stacked eigendecomposition tests every row for rank one; the
    rank-one rows are evaluated exactly by one stacked
    :func:`measure_value` on their top eigenvectors, and every other row
    by its own numerical roof. Returns (values, pure, gaps): ``pure``
    marks the exact rows, whose gap is zero.
    """
    bdims = BipartiteDims(*dims)
    mats = (mats + mats.conj().swapaxes(-1, -2)) / 2
    w, vecs = np.linalg.eigh(mats)
    pure = w[:, -2] <= PURE_RANK_ATOL if w.shape[1] > 1 else np.ones(len(w), dtype=bool)
    values = np.empty(len(mats))
    gaps = np.zeros(len(mats))
    if pure.any():
        psi = vecs[pure, :, -1]
        # each row's two dots are the ones np.linalg.norm takes of a complex
        # vector, so a row's norm is bitwise norm(row), which the stacked
        # norm(psi, axis=1) is not
        re, im = psi.real, psi.imag
        sq = re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None]
        psi = psi / np.sqrt(sq[:, :, 0])
        values[pure] = measure_value(spec, psi, bdims)
    for i in np.flatnonzero(~pure):
        rho = DensityOperator(mats[i] / np.trace(mats[i]).real, bdims)
        result = solve_roof(RoofProblem(rho=rho, measure=spec, **roof_opts))
        values[i], gaps[i] = result.value, result.gap_estimate
    return values, pure, gaps


def audit_monotonicity(
    tree: LoccNode,
    rho: DensityOperator,
    spec: MeasureSpec,
    roof_opts: dict | None = None,
    end_to_end: bool = True,
) -> MonotonicityAudit:
    """Per-node and end-to-end average monotonicity report for a measure.

    The branches are evaluated a level at a time, in one :func:`_evaluate`
    call per level and dimensions. ``roof_opts`` are forwarded to
    :class:`RoofProblem` for branches that need a numerical roof (keys:
    ensemble_size, restarts, max_iters, tol, seed). Branches with
    probability below PRUNE_TOL are skipped and listed in ``pruned`` (the
    measure of a zero-probability branch is undefined). The end-to-end
    input value and gap are the root node's. ``end_to_end=False`` skips
    the channel-output comparison, which needs a roof solve whenever the
    output is mixed. Raises :class:`InvalidTree` if the tree fails
    validation.
    """
    roof_opts = dict(roof_opts or {})
    levels, output = run_tree(tree, rho)

    values: dict[Path, NodeValue] = {}
    pruned: list[Path] = []
    node_of: dict[Path, LoccNode] = {}
    nodes = [tree]
    for level in levels:
        groups: dict[tuple[int, int], list[BranchState]] = {}
        for bs, node in zip(level, nodes):
            node_of[bs.path] = node
            if bs.probability < PRUNE_TOL:
                pruned.append(bs.path)
            else:
                groups.setdefault(bs.dims, []).append(bs)
        for dims, branches in groups.items():
            probs = np.array([bs.probability for bs in branches])
            mats = np.stack([bs.unnormalized for bs in branches]) / probs[:, None, None]
            vals, pure, gaps = _evaluate(mats, dims, spec, roof_opts)
            for bs, val, is_pure, gap in zip(branches, vals.tolist(), pure, gaps.tolist()):
                node = node_of[bs.path]
                values[bs.path] = NodeValue(bs.path, node.party, bs.probability, val,
                                            "pure" if is_pure else "roof", gap, node.is_leaf)
        nodes = [c for node in nodes for c in node.children]

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
        root = values[()]  # the root branch is the input itself
        out = _evaluate(output.matrix[None], output.dims.as_tuple(), spec, roof_opts)
        out_val, out_gap = out[0].item(), out[2].item()
        slack = root.value - out_val
        end = EndToEnd(
            root.value, root.gap, out_val, out_gap, slack,
            flagged=slack < -(root.gap + out_gap + VIOLATION_MARGIN))
    return MonotonicityAudit(
        nodes=tuple(values[p] for p in sorted(values)),
        inequalities=tuple(inequalities),
        end_to_end=end,
        pruned=tuple(pruned),
    )
