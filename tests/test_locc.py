import sys

import numpy as np
import pytest

import entroof.locc as locc
from entroof import (
    DensityOperator,
    InvariantViolation,
    PureState,
    audit_monotonicity,
    channel_entropy,
    measure_value,
    run_tree,
    validate_tree,
)
from entroof.linalg import completeness_issues, instrument_issue
from entroof.locc import LoccNode
from entroof.measures import MeasureSpec
from entroof.sampling import (
    random_density,
    random_instrument,
    random_pure_state,
    random_separable_density,
    random_unitary,
)

from util import (
    DIMS22,
    bell,
    iter_nodes,
    leaf,
    mixed_party_input,
    mixed_party_tree,
    one_round_tree,
    per_branch_audit,
    per_node_walk,
    shape_mismatch_tree,
    two_round_tree,
)

RNG = np.random.default_rng(777)

PROJ0 = np.array([[1, 0], [0, 0]], dtype=complex)
PROJ1 = np.array([[0, 0], [0, 1]], dtype=complex)


def computational_measurement(party="A") -> LoccNode:
    return LoccNode(party, kraus=(PROJ0, PROJ1), children=(leaf(party), leaf(party)))


# --- validation -----------------------------------------------------------------

def test_identity_tree_valid():
    tree = LoccNode("A", kraus=(np.eye(2),), children=(leaf(),))
    assert validate_tree(tree, DIMS22).ok


def test_incomplete_kraus_reported_with_residual():
    tree = LoccNode("A", kraus=(np.eye(2) / 2,), children=(leaf(),))
    report = validate_tree(tree, DIMS22)
    assert not report.ok
    issue = report.issues[0]
    assert issue.code == "kraus-completeness"
    # sum K^H K = I/4, so the max-abs deviation from I is 3/4
    assert abs(issue.residual - 0.75) < 1e-12
    # a NaN entry gives a NaN residual, which must fail the check too
    tree = LoccNode("A", kraus=(np.diag([np.nan, 1.0]),), children=(leaf(),))
    assert [i.code for i in validate_tree(tree, DIMS22).issues] == ["kraus-completeness"]


def test_kraus_tolerance_shared_with_channel_check():
    from entroof.states import KRAUS_ATOL

    rho = DensityOperator.from_pure(bell())
    for excess, ok in ((0.2 * KRAUS_ATOL, True), (5 * KRAUS_ATOL, False)):
        k = np.sqrt(1 + excess) * np.eye(2)  # completeness residual = excess
        tree = LoccNode("A", kraus=(k,), children=(leaf(),))
        report = validate_tree(tree, DIMS22)
        assert report.ok == ok
        if not ok:  # the channel check reports what the tree reports
            with pytest.raises(InvariantViolation) as exc:
                channel_entropy(rho, [np.kron(k, np.eye(2))])
            issue = report.issues[0]
            assert (exc.value.invariant, str(exc.value), exc.value.residual) == (
                issue.code, issue.message, issue.residual)


def test_random_two_round_tree_valid():
    for _ in range(10):
        tree = two_round_tree(RNG, "A", "B", outcomes=int(RNG.integers(2, 4)))
        assert validate_tree(tree, DIMS22).ok


def test_children_count_mismatch():
    tree = LoccNode("A", kraus=(PROJ0, PROJ1), children=(leaf(),))
    report = validate_tree(tree, DIMS22)
    assert any(i.code == "children-count" for i in report.issues)


def test_kraus_dim_mismatch():
    tree = LoccNode("A", kraus=(np.eye(3),), children=(leaf(),))
    report = validate_tree(tree, DIMS22)
    assert any(i.code == "kraus-dims" for i in report.issues)


def test_kraus_shape_mismatch_reported_and_not_descended():
    issues = validate_tree(shape_mismatch_tree(), DIMS22).issues
    assert [(i.path, i.code) for i in issues] == [((0,), "kraus-shape")]
    assert issues[0].message == "inconsistent Kraus shapes [(2, 2), (3, 2)]"
    assert issues[0].residual is None


def test_leaf_dims_must_agree():
    # one branch enlarges Alice's space, the sibling does not
    iso = random_instrument(2, 1, RNG, dim_out=3)[0]
    grow = LoccNode("A", kraus=(iso,), children=(leaf(),))
    stay = leaf()
    tree = LoccNode("A", kraus=(PROJ0, PROJ1), children=(grow, stay))
    report = validate_tree(tree, DIMS22)
    assert any(i.code == "leaf-dims" for i in report.issues)


def test_issues_in_pre_order_across_levels():
    # found level by level, reported in pre-order: a completeness issue two
    # levels down precedes the children-count and kraus-dims issues of its
    # parent's later siblings, and leaf-dims comes last
    inc1 = (PROJ0, PROJ1 * 1.1)
    inc2 = (np.eye(2) * 0.9,)
    grow = random_instrument(2, 1, RNG, dim_out=3)[0]
    first = LoccNode("B", kraus=inc1, children=(
        LoccNode("A", kraus=inc2, children=(leaf(),)),
        LoccNode("A", kraus=(grow,), children=(leaf(),))))
    tree = LoccNode("A", kraus=tuple(random_instrument(2, 3, RNG)), children=(
        first,
        LoccNode("A", kraus=(PROJ0, PROJ1), children=(leaf(),)),
        LoccNode("B", kraus=(np.eye(3),), children=(leaf("B"),))))
    issues = validate_tree(tree, DIMS22).issues
    assert [(i.path, i.code) for i in issues] == [
        ((0,), "kraus-completeness"), ((0, 0), "kraus-completeness"),
        ((1,), "children-count"), ((2,), "kraus-dims"), ((), "leaf-dims")]
    for issue, ops in zip(issues, (inc1, inc2)):
        code, message, residual = instrument_issue(ops)
        assert (issue.code, issue.message) == (code, message)
        # one node's sum, term by term, as an unstacked check computes it
        alone = float(np.max(np.abs(sum(k.conj().T @ k for k in ops) - np.eye(2))))
        for value in (residual, alone):
            assert np.float64(issue.residual).tobytes() == np.float64(value).tobytes()


def test_completeness_checked_once_per_level_group(monkeypatch):
    # three rounds: groups of one operator count and shape share a call
    def node(party, outcomes, dim_out, kids):
        ops = random_instrument(2, outcomes, RNG, dim_out=dim_out)
        return LoccNode(party, kraus=tuple(ops), children=tuple(kids(i) for i in range(outcomes)))

    def third(outcomes):
        return node("A", outcomes, 3, lambda _: leaf())

    tree = node("A", 2, 2, lambda i: node("B", 2 + i, 2, lambda j: third(3 if j == 1 else 2)))
    calls = []

    def spy(ops):
        calls.append(ops.shape)
        return completeness_issues(ops)

    monkeypatch.setattr(locc, "completeness_issues", spy)
    assert validate_tree(tree, DIMS22).ok
    inner = [(len(path), len(n.kraus), n.kraus[0].shape)
             for path, n in iter_nodes(tree) if not n.is_leaf]
    assert len(calls) == len(set(inner)) == 5
    assert sorted(n for n, *_ in calls) == [1, 1, 1, 2, 3]  # each of the 8 instruments once


def test_run_rejects_invalid_tree():
    tree = LoccNode("A", kraus=(np.eye(2) / 2,), children=(leaf(),))
    with pytest.raises(InvariantViolation):
        run_tree(tree, DensityOperator.from_pure(bell()))


# --- running --------------------------------------------------------------------

def test_identity_tree_output_equals_input():
    rho = random_density(DIMS22, RNG)
    tree = LoccNode("B", kraus=(np.eye(2),), children=(leaf("B"),))
    _, out = run_tree(tree, rho)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-15)


def test_bell_measurement_branches_and_output():
    rho = DensityOperator.from_pure(bell())
    levels, out = run_tree(computational_measurement(), rho)
    probs = [b.probability for b in levels[1]]
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    np.testing.assert_allclose(out.matrix, expect, atol=1e-12)


def test_trace_preservation_and_level_sums():
    for _ in range(20):
        rounds = int(RNG.integers(1, 3))
        if rounds == 1:
            tree = one_round_tree(RNG, "A" if RNG.random() < 0.5 else "B",
                                  outcomes=int(RNG.integers(2, 4)))
        else:
            tree = two_round_tree(RNG, "B", "A", outcomes=int(RNG.integers(2, 4)))
        rho = random_density(DIMS22, RNG)
        levels, out = run_tree(tree, rho)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-9
        for level in levels:
            assert abs(sum(b.probability for b in level) - 1.0) <= 1e-9


def test_branch_probabilities_sum_to_parent():
    tree = two_round_tree(RNG, "A", "B", outcomes=3)
    rho = random_density(DIMS22, RNG)
    levels, _ = run_tree(tree, rho)
    by_path = {b.path: b for level in levels for b in level}
    for path, b in by_path.items():
        kids = [q for q in by_path.values() if q.path[:-1] == path and len(q.path) == len(path) + 1]
        if kids:
            assert abs(sum(k.probability for k in kids) - b.probability) < 1e-10


def test_deep_chain_walks_without_recursion():
    rng = np.random.default_rng(41)
    depth = sys.getrecursionlimit() + 200
    tree = leaf()
    for _ in range(depth):
        tree = LoccNode("A", kraus=(np.eye(2),), children=(tree,))
    assert validate_tree(tree, DIMS22).ok
    rho = DensityOperator.from_pure(random_pure_state(DIMS22, rng))
    levels, out = run_tree(tree, rho)
    assert len(levels) == depth + 1
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)
    audit = audit_monotonicity(tree, rho, MeasureSpec("entanglement-number"), end_to_end=False)
    assert len(audit.nodes) == depth + 1
    assert len(audit.inequalities) == depth
    assert all(abs(q.slack) < 1e-9 for q in audit.inequalities)


def test_dimension_changing_kraus():
    # Alice compresses her qubit into a qutrit embedding and back
    iso = random_instrument(2, 1, RNG, dim_out=3)[0]
    back = random_instrument(3, 2, RNG, dim_out=2)
    inner = LoccNode("A", kraus=tuple(back), children=(leaf(), leaf()))
    tree = LoccNode("A", kraus=(iso,), children=(inner,))
    assert validate_tree(tree, DIMS22).ok
    rho = random_density(DIMS22, RNG)
    _, out = run_tree(tree, rho)
    assert out.dims.as_tuple() == (2, 2)
    assert abs(np.trace(out.matrix).real - 1.0) <= 1e-9


def test_run_tree_matches_per_node_walk():
    rng = np.random.default_rng(90)
    cases = [(mixed_party_tree(rng), mixed_party_input(rng)),
             (two_round_tree(rng, "A", "B", outcomes=3), random_density(DIMS22, rng))]
    for tree, rho in cases:
        levels, out = run_tree(tree, rho)
        ref_levels, ref_out, ref_dims = per_node_walk(tree, rho)
        assert len(levels) == len(ref_levels)
        for level, ref in zip(levels, ref_levels):
            assert [b.path for b in level] == [path for path, *_ in ref]
            for b, (_, mat, prob, dims) in zip(level, ref):
                assert np.array_equal(b.unnormalized, mat)
                assert b.probability == prob and b.dims == dims
        assert np.array_equal(out.matrix, ref_out)
        assert out.dims.as_tuple() == ref_dims


# --- monotonicity audit -------------------------------------------------------------

AUDIT_SPECS = [MeasureSpec("entanglement-number"), MeasureSpec("p-number", p=2.5),
               MeasureSpec("entropy"), MeasureSpec("negativity"),
               MeasureSpec("concurrence", k=2), MeasureSpec("geometric", ranks=(1, 1)),
               MeasureSpec("geometric", ranks=(1, 2))]


@pytest.mark.parametrize("spec", AUDIT_SPECS, ids=lambda s: f"{s.kind}-{s.ranks or ''}")
def test_audit_matches_per_branch_reference(spec):
    rng = np.random.default_rng(91)
    tree = mixed_party_tree(rng)
    rho = mixed_party_input(rng)
    mixed = spec.ranks is None or spec.ranks[0] == spec.ranks[1]
    if not mixed:
        # no roof for unequal ranks: every branch of a pure input is pure
        rho = DensityOperator.from_pure(random_pure_state(rho.dims, rng))
    opts = {"restarts": 2, "max_iters": 60, "seed": 5}
    audit = audit_monotonicity(tree, rho, spec, roof_opts=opts, end_to_end=mixed)
    values, pruned, end = per_branch_audit(tree, rho, spec, opts, end_to_end=mixed)

    assert list(audit.pruned) == pruned == [(3,), (3, 0)]
    assert {n.path: (n.probability, n.value, n.method, n.lower_bound)
            for n in audit.nodes} == values
    methods = {n.method for n in audit.nodes}
    assert methods == ({"pure", "roof"} if mixed else {"pure"})
    # a node is flagged only against its children's averaged lower bounds
    for q in audit.inequalities:
        prob, value = values[q.path][:2]
        kids = [values[path] for path in values if path[:-1] == q.path and path != q.path]
        low = sum(p * lower for p, _, _, lower in kids) / prob
        assert q.flagged == (value < low - locc.VIOLATION_MARGIN)
    if mixed:
        e = audit.end_to_end
        assert (e.input_value, e.output_value, e.output_lower_bound) == end


def test_audit_input_value_is_the_root_node(monkeypatch):
    # the root branch is the input: a mixed input costs one roof solve,
    # shared by its node and the end-to-end comparison, so the audit solves
    # once per mixed branch and once more for the mixed channel output
    rng = np.random.default_rng(91)
    tree, rho = mixed_party_tree(rng), mixed_party_input(rng)
    solve, calls = locc.solve_roof, []

    def counting(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(locc, "solve_roof", counting)
    opts = {"restarts": 2, "max_iters": 60, "seed": 5}
    audit = audit_monotonicity(tree, rho, MeasureSpec("entanglement-number"), roof_opts=opts)
    root = audit.nodes[0]
    assert root.path == () and root.method == "roof"
    output = run_tree(tree, rho)[1].matrix
    assert np.linalg.eigvalsh(output)[-2] > locc.PURE_RANK_ATOL
    assert len(calls) == sum(n.method == "roof" for n in audit.nodes) + 1
    end = audit.end_to_end
    assert np.float64(end.input_value).tobytes() == np.float64(root.value).tobytes()


def test_audit_bell_computational_measurement():
    rho = DensityOperator.from_pure(bell())
    audit = audit_monotonicity(
        computational_measurement(), rho, MeasureSpec("entanglement-number"),
        roof_opts={"restarts": 8, "seed": 1})
    root = audit.inequalities[0]
    assert abs(root.parent_value - 0.7071067811865475) < 1e-9
    assert abs(root.children_average) < 1e-9
    assert abs(root.slack - 0.7071067811865475) < 1e-9
    assert not root.flagged
    assert audit.end_to_end.slack > 0.7


def test_audit_flags_a_certified_violation():
    # the geometric measure with ranks (1, 1) is the top Schmidt weight, which
    # rises from 1/2 on a Bell state to 1 on the product branches of a
    # computational-basis measurement: every branch is pure, so the slack
    # -1/2 is certified
    rho = DensityOperator.from_pure(bell())
    audit = audit_monotonicity(computational_measurement(), rho,
                               MeasureSpec("geometric", ranks=(1, 1)),
                               roof_opts={"restarts": 2, "seed": 1})
    assert all(n.method == "pure" and n.lower_bound == n.value for n in audit.nodes)
    (root,) = audit.inequalities
    assert abs(root.slack + 0.5) < 1e-12
    assert root.flagged
    # the mixed channel output has no certified bound, so the end-to-end
    # comparison cannot flag
    assert audit.end_to_end.output_lower_bound == 0.0
    assert not audit.end_to_end.flagged


def test_audit_pure_input_uses_exact_path():
    psi = random_pure_state(DIMS22, RNG)
    rho = DensityOperator.from_pure(psi)
    tree = two_round_tree(RNG, "A", "B")
    audit = audit_monotonicity(tree, rho, MeasureSpec("concurrence", k=2))
    assert all(n.method == "pure" for n in audit.nodes)
    assert all(q.slack >= -1e-9 for q in audit.inequalities)
    assert not any(q.flagged for q in audit.inequalities)


def test_audit_separable_input_all_zero():
    rho = random_separable_density(DIMS22, RNG)
    tree = one_round_tree(RNG, "A")
    audit = audit_monotonicity(
        tree, rho, MeasureSpec("entanglement-number"),
        roof_opts={"restarts": 8, "seed": 3})
    for node in audit.nodes:
        assert node.value <= 1e-5
    assert not any(q.flagged for q in audit.inequalities)
    assert not audit.end_to_end.flagged


def test_audit_prunes_zero_probability_branches():
    zero = PureState(np.array([1, 0, 0, 0], dtype=complex), DIMS22)
    rho = DensityOperator.from_pure(zero)
    audit = audit_monotonicity(
        computational_measurement(), rho, MeasureSpec("entanglement-number"))
    assert (1,) in audit.pruned
    assert all(n.path != (1,) for n in audit.nodes)


def test_audit_reads_children_from_tree():
    # outcome 2 of the first round and outcome 2 below branch 0 have K = 0,
    # so those branches (and the subtree under (2,)) have zero probability
    rng = np.random.default_rng(42)
    zero = np.zeros((2, 2), dtype=complex)
    kids = []
    for j in range(3):
        sub = random_instrument(2, 2, rng) + [zero] if j == 0 else random_instrument(2, 3, rng)
        kids.append(LoccNode("B", kraus=tuple(sub), children=tuple(leaf("B") for _ in sub)))
    tree = LoccNode("A", kraus=tuple(random_instrument(2, 2, rng) + [zero]),
                    children=tuple(kids))
    rho = DensityOperator.from_pure(random_pure_state(DIMS22, rng))
    audit = audit_monotonicity(tree, rho, MeasureSpec("entanglement-number"))

    by_path = {n.path: n for n in audit.nodes}
    structure = dict(iter_nodes(tree))
    assert set(audit.pruned) == {(0, 2), (2,), (2, 0), (2, 1), (2, 2)}
    assert set(by_path) == set(structure) - set(audit.pruned)

    def unpruned_children(path):
        kid_paths = (path + (i,) for i in range(len(structure[path].children)))
        return [by_path[k] for k in kid_paths if k in by_path]

    expected = sorted(p for p in by_path if unpruned_children(p))
    assert [q.path for q in audit.inequalities] == expected
    for q in audit.inequalities:
        kids = unpruned_children(q.path)
        avg = sum(k.probability * k.value for k in kids) / by_path[q.path].probability
        assert abs(q.children_average - avg) < 1e-14
        assert abs(q.slack - (by_path[q.path].value - avg)) < 1e-14


def test_local_unitary_tree_preserves_measures():
    psi = random_pure_state(DIMS22, RNG)
    rho = DensityOperator.from_pure(psi)
    u = random_unitary(2, RNG)
    v = random_unitary(2, RNG)
    tree = LoccNode("A", kraus=(u,), children=(
        LoccNode("B", kraus=(v,), children=(leaf("B"),)),))
    _, out = run_tree(tree, rho)
    rotated = PureState(np.kron(u, v) @ psi.amplitudes, DIMS22)
    np.testing.assert_allclose(out.matrix, rotated.projector(), atol=1e-12)
    for spec in (MeasureSpec("entanglement-number"), MeasureSpec("entropy"),
                 MeasureSpec("p-number", p=2.5), MeasureSpec("concurrence", k=2)):
        assert abs(measure_value(spec, psi) - measure_value(spec, rotated)) < 1e-9
