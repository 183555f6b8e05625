"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines (they also appear in captured output on failure). Numerical
tolerances and runtime limits are asserted as stated; the optimizer-based
criteria use the library defaults unless the criterion leaves the options
free, in which case the choices are noted inline.
"""

import json
import math
import time

import numpy as np

import entroof.cli as cli
from entroof import (
    BipartiteDims,
    DensityOperator,
    RoofProblem,
    concave_roof,
    concurrence_pure,
    entanglement_entropy_pure,
    entanglement_number_pure,
    entanglement_of_formation,
    geometric_measure_alternating,
    negativity_pure,
    p_number_pure,
    partial_trace,
    purity_deficit,
    schmidt_lambdas,
    solve_roof,
    solve_roof_custom,
)
from entroof.locc import audit_monotonicity, run_tree
from entroof.measures import MeasureSpec, decreasing_counterpart
from entroof.sampling import (
    ginibre,
    random_density,
    random_npt_density,
    random_pure_state,
    random_separable_density,
)

from util import DIMS22, bell, one_round_tree, two_round_tree


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_gram_fourth_moment_identity():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        rows, cols = rng.integers(1, 9, size=2)
        c = ginibre(rng, int(rows), int(cols))
        s = np.linalg.svd(c, compute_uv=False)
        trace_fourth = float(np.sum(s**4))
        gram_sum = float(np.sum(np.abs(c.conj().T @ c) ** 2))
        scale = float(np.sum(np.abs(c) ** 2)) ** 2  # ||C||_2^4 (Frobenius)
        worst = max(worst, abs(trace_fourth - gram_sum) / max(scale, 1e-300))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 5.0
    report(1, ok, f"column-Gram fourth-moment identity: worst relative "
                  f"residual {worst:.2e} over 500 matrices ({dt:.2f}s)")


def test_criterion_02_three_route_agreement():
    rng = np.random.default_rng(102)
    dims_pool = [DIMS22, BipartiteDims(2, 3), BipartiteDims(3, 3), BipartiteDims(4, 4)]
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(200):
        dims = dims_pool[i % len(dims_pool)]
        psi = random_pure_state(dims, rng)
        a = entanglement_number_pure(psi)
        lams = schmidt_lambdas(psi)
        b = math.sqrt(max(1.0 - float(np.sum(lams**2)), 0.0))
        c = purity_deficit(partial_trace(DensityOperator.from_pure(psi), "A"))
        worst = max(worst, abs(a - b), abs(a - c), abs(b - c))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 5.0
    report(2, ok, f"coefficient/Schmidt/reduced routes for e: max pairwise "
                  f"deviation {worst:.2e} over 200 states ({dt:.2f}s)")


def test_criterion_03_canonical_values():
    b = bell()
    checks = [
        ("e(Bell)", entanglement_number_pure(b), 0.7071067811865475, 1e-12),
        ("mu_3(Bell)", p_number_pure(b, 3.0), 0.75 ** (1.0 / 3.0), 1e-12),
        ("N(Bell)", negativity_pure(b), 1.0, 1e-10),
        ("C_2(Bell)", concurrence_pure(b, 2), 1.0, 1e-10),
        ("E_11(Bell)", geometric_measure_alternating(b, (1, 1)), 0.5, 1e-8),
    ]
    worst = max(abs(got - want) / tol for _, got, want, tol in checks)
    ok = worst <= 1.0
    detail = "; ".join(f"{name}={got:.12f}" for name, got, _, _ in checks)
    report(3, ok, f"canonical values within stated tolerances: {detail}")


def test_criterion_04_p_ordering():
    rng = np.random.default_rng(104)
    t0 = time.perf_counter()
    min_margin = math.inf
    for _ in range(100):
        psi = random_pure_state(DIMS22, rng)  # Haar states are entangled a.s.
        for _ in range(5):
            while True:
                p, q = np.sort(1.0 + 3.0 * rng.random(2))
                if q - p >= 0.05:
                    break
            margin = p_number_pure(psi, float(q)) - p_number_pure(psi, float(p))
            min_margin = min(min_margin, margin)
    dt = time.perf_counter() - t0
    ok = min_margin > 1e-12 and dt < 2.0
    report(4, ok, f"strict p-ordering: min margin {min_margin:.2e} over "
                  f"100 states x 5 pairs ({dt:.2f}s)")


def test_criterion_05_entropy_limit():
    rng = np.random.default_rng(105)
    h = 1e-4
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        psi = random_pure_state(DIMS22, rng)
        lams = schmidt_lambdas(psi)
        nu = lambda p: 1.0 - float(np.sum(lams**p))  # noqa: E731
        diff = (nu(1.0 + h) - nu(1.0 - h)) / (2.0 * h)
        worst = max(worst, abs(diff - entanglement_entropy_pure(psi, math.e)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 2.0
    report(5, ok, f"d/dp of the p-power deficit at p=1 equals the natural-log "
                  f"entropy: max error {worst:.2e} over 50 states ({dt:.2f}s); "
                  f"note: the log-derivative form diverges as p->1+ on "
                  f"entangled states, so the finite power-deficit form is tested")


def test_criterion_06_formation_oracle():
    rng = np.random.default_rng(106)
    t0 = time.perf_counter()
    # oracle validation first: closed form vs pure-state entropy
    worst_pure = 0.0
    for _ in range(50):
        psi = random_pure_state(DIMS22, rng)
        worst_pure = max(worst_pure, abs(
            entanglement_of_formation(DensityOperator.from_pure(psi))
            - entanglement_entropy_pure(psi)))
    assert worst_pure <= 1e-10, f"oracle validation failed: {worst_pure:.2e}"

    worst = 0.0
    for i in range(50):
        rho = random_density(DIMS22, rng)
        res = solve_roof(RoofProblem(rho=rho, measure=MeasureSpec("entropy"), seed=i))
        worst = max(worst, abs(res.value - entanglement_of_formation(rho)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 300.0
    report(6, ok, f"roof(entropy) vs two-qubit closed form, default settings: "
                  f"max |diff| {worst:.2e} over 50 states; oracle-vs-entropy "
                  f"validation {worst_pure:.2e} over 50 pure states ({dt:.1f}s)")


def test_criterion_07_faithfulness():
    from entroof.roof import rank_of

    rng = np.random.default_rng(107)
    t0 = time.perf_counter()
    # separable side: the criterion leaves optimizer options free; the
    # smallest sufficient ensemble (m = rank) reaches the all-product
    # decompositions most reliably, with 16 restarts
    worst_sep = 0.0
    for i in range(30):
        rho = random_separable_density(DIMS22, rng)
        res = solve_roof(RoofProblem(rho=rho, measure=MeasureSpec("entanglement-number"),
                                     ensemble_size=rank_of(rho), restarts=16, seed=i))
        worst_sep = max(worst_sep, res.value)
    # NPT side: the roof value is an upper bound, so clearing 1e-3 is the
    # informative direction; restarts=8 suffices
    worst_npt = math.inf
    for i in range(30):
        rho = random_npt_density(DIMS22, rng, min_negativity=1e-2)
        res = solve_roof(RoofProblem(rho=rho, measure=MeasureSpec("entanglement-number"),
                                     restarts=8, seed=i))
        worst_npt = min(worst_npt, res.value)
    dt = time.perf_counter() - t0
    ok = worst_sep <= 1e-6 and worst_npt >= 1e-3 and dt < 300.0
    report(7, ok, f"faithfulness of roof(e): max over 30 separable mixtures "
                  f"{worst_sep:.2e} (<= 1e-6), min over 30 NPT states "
                  f"{worst_npt:.2e} (>= 1e-3) ({dt:.1f}s)")


def test_criterion_08_locc_per_node_monotonicity():
    rng = np.random.default_rng(108)
    specs = [
        MeasureSpec("entanglement-number"),
        MeasureSpec("p-number", p=2.5),
        MeasureSpec("entropy"),
        MeasureSpec("concurrence", k=2),
    ]
    t0 = time.perf_counter()
    min_slack = math.inf
    n_inequalities = 0
    for i in range(100):
        parties = ("A", "B") if rng.random() < 0.5 else ("B", "A")
        outcomes = int(rng.integers(2, 4))
        if i % 2 == 0:
            tree = one_round_tree(rng, parties[0], outcomes)
        else:
            tree = two_round_tree(rng, parties[0], parties[1], outcomes)
        rho = DensityOperator.from_pure(random_pure_state(DIMS22, rng))
        for spec in specs:
            audit = audit_monotonicity(tree, rho, spec, end_to_end=False)
            assert all(n.method == "pure" for n in audit.nodes)
            for q in audit.inequalities:
                min_slack = min(min_slack, q.slack)
                n_inequalities += 1
    dt = time.perf_counter() - t0
    ok = min_slack >= -1e-9 and dt < 120.0
    report(8, ok, f"per-node average monotonicity on pure inputs: min slack "
                  f"{min_slack:.2e} over {n_inequalities} node inequalities, "
                  f"100 trees x 4 measures, exact evaluation ({dt:.1f}s)")


def test_criterion_09_channel_properties():
    rng = np.random.default_rng(109)
    t0 = time.perf_counter()
    worst_trace = 0.0
    worst_level = 0.0
    for i in range(100):
        outcomes = int(rng.integers(2, 4))
        if i % 2 == 0:
            tree = one_round_tree(rng, "A" if rng.random() < 0.5 else "B", outcomes)
        else:
            parties = ("A", "B") if rng.random() < 0.5 else ("B", "A")
            tree = two_round_tree(rng, parties[0], parties[1], outcomes)
        rho = random_density(DIMS22, rng)
        levels, out = run_tree(tree, rho)
        worst_trace = max(worst_trace, abs(np.trace(out.matrix).real - 1.0))
        for level in levels:
            worst_level = max(
                worst_level, abs(sum(b.probability for b in level) - 1.0))
    dt = time.perf_counter() - t0
    ok = worst_trace <= 1e-9 and worst_level <= 1e-9 and dt < 30.0
    report(9, ok, f"channel trace preservation {worst_trace:.2e} and "
                  f"level-probability sums {worst_level:.2e} over 100 trees ({dt:.1f}s)")


def test_criterion_10_partial_trace_cyclicity():
    rng = np.random.default_rng(110)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        da, db = (int(x) for x in rng.integers(2, 5, size=2))
        rho = random_density(BipartiteDims(da, db), rng).matrix
        a = ginibre(rng, da, da)
        lifted = np.kron(a, np.eye(db))
        from entroof import trace_out

        lhs = trace_out(lifted @ rho @ lifted.conj().T, (da, db), "A")
        rhs = trace_out(np.kron(a.conj().T @ a, np.eye(db)) @ rho, (da, db), "A")
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 5.0
    report(10, ok, f"partial-trace cyclicity: max residual {worst:.2e} "
                   f"over 200 (A, rho) pairs ({dt:.2f}s)")


def test_criterion_11_cli_determinism(tmp_path, capsys):
    import entroof.io as fileio

    rng = np.random.default_rng(111)
    fileio.save_state(tmp_path / "rho.json", random_density(DIMS22, rng))
    argv = ["roof", str(tmp_path / "rho.json"), "--measure", "e",
            "--restarts", "6", "--seed", "5"]

    sections = []
    for _ in range(3):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        sections.append(json.dumps(
            json.loads(out)["deterministic"], sort_keys=True))
    ok = sections[0] == sections[1] == sections[2]
    report(11, ok, "cmd_roof deterministic sections byte-identical across "
                   "three repeat runs")


def test_criterion_12_concave_convex_bijection():
    rng = np.random.default_rng(112)
    spec = MeasureSpec("entanglement-number")
    sup, shifted = decreasing_counterpart(spec, DIMS22)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(20):
        rho = random_density(DIMS22, rng)
        cc = concave_roof(RoofProblem(rho=rho, measure=spec, seed=i))
        cv = solve_roof_custom(rho, shifted, direction="minimize", seed=i)
        worst = max(worst, abs(cc.value - (sup - cv.value)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 300.0
    report(12, ok, f"concave roof vs sup-shifted convex roof: max |diff| "
                   f"{worst:.2e} over 20 states ({dt:.1f}s)")
