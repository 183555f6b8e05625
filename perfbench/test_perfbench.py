"""Tests of the benchmark's own helpers: oracles, trace classification and
metric summaries."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import oracles
import steadiness
import tracing
import workloads
from entroof import roof
from entroof.measures import MeasureSpec, entanglement_entropy_pure, entanglement_number_pure
from entroof.sampling import random_density, random_pure_state
from entroof.states import BipartiteDims, DensityOperator, PureState

HERE = steadiness.HERE
D22 = BipartiteDims(2, 2)


@pytest.mark.parametrize("ndim, name", [
    (5, tracing.GRAD_PROBE), (3, tracing.SCREEN), (2, tracing.ITERATE),
    (4, tracing.OTHER_OBJECTIVE), (1, tracing.OTHER_OBJECTIVE),
])
def test_classify_objective_call(ndim, name):
    assert tracing.classify_objective_call(ndim) == name


def test_classifier_matches_engine_calls():
    # max_iters < WINDOW, so every restart runs exactly max_iters iterations;
    # restart 1 (odd) screens its start, restart 0 does not
    rho = random_density(D22, np.random.default_rng(1), 2)
    tracer = tracing.Tracer()
    original = roof.make_objective
    tracer.install()
    try:
        tracer.recording = True
        roof.solve_roof(roof.RoofProblem(rho=rho, measure=MeasureSpec("entropy"),
                                         restarts=2, max_iters=5))
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert roof.make_objective is original
    m = tracing.layer_metrics(tracer.spans, passes=1)
    assert m["roof.iterations"] == 10
    assert m["measures.grad_probe_states"] == 10 * 4 * 2 * 4  # m * r * 2 parts * 2 signs
    assert m["measures.screen_calls"] == 1
    assert m["roof.solves"] == 1
    assert m["measures.iterate_calls"] >= 10


def test_tracer_idle_records_nothing():
    tracer = tracing.Tracer()
    wrapped = tracer.timed("x", lambda a: a + 1)
    assert wrapped(1) == 2
    assert tracer.spans == []


def test_two_qubit_oracle_on_pure_states():
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = random_pure_state(D22, rng)
        rho = DensityOperator.from_pure(psi)
        assert oracles.two_qubit_oracle(rho, "entropy") == pytest.approx(
            entanglement_entropy_pure(psi), abs=1e-10)
        assert oracles.two_qubit_oracle(rho, "e") == pytest.approx(
            entanglement_number_pure(psi), abs=1e-10)
    with pytest.raises(ValueError):
        oracles.two_qubit_oracle(rho, "negativity")


@pytest.mark.parametrize("d", [2, 3, 5])
def test_isotropic_formula_end_values(d):
    assert oracles.isotropic_entropy_roof(1.0 / d, d) == pytest.approx(0.0, abs=1e-12)
    assert oracles.isotropic_entropy_roof(1.0, d) == pytest.approx(math.log2(d), abs=1e-12)


@pytest.mark.parametrize("fidelity", [0.55, 0.7, 0.9, 0.99])
def test_isotropic_formula_matches_wootters_on_qubits(fidelity):
    rho = DensityOperator(oracles.isotropic_matrix(2, fidelity), D22)
    assert oracles.isotropic_entropy_roof(fidelity, 2) == pytest.approx(
        oracles.two_qubit_oracle(rho, "entropy"), abs=1e-10)


def test_isotropic_formula_rejects_fidelity_below_one_over_d():
    with pytest.raises(ValueError):
        oracles.isotropic_entropy_roof(0.2, 3)


def test_check_oracles_passes():
    assert oracles.check_oracles(np.random.default_rng(0)) == []


def test_rotation_keeps_the_oracle_value():
    rho = random_density(D22, np.random.default_rng(4), 3)
    turned = workloads.rotate(rho, np.random.default_rng(5))
    assert not np.allclose(turned.matrix, rho.matrix)
    for measure in ("entropy", "e"):
        assert oracles.two_qubit_oracle(turned, measure) == pytest.approx(
            oracles.two_qubit_oracle(rho, measure), abs=1e-10)


def test_ensemble_problems_flags_value_and_residual():
    rho = random_density(D22, np.random.default_rng(6), 2)
    w, v = np.linalg.eigh(rho.matrix)
    weights, vectors = w[2:], v[:, 2:].T
    spec = MeasureSpec("entanglement-number")
    attained = sum(wi * entanglement_number_pure(
        PureState(vi, D22)) for wi, vi in zip(weights, vectors))
    assert workloads.ensemble_problems(rho, spec, attained, weights, vectors) == []
    assert len(workloads.ensemble_problems(rho, spec, attained + 1e-6, weights, vectors)) == 1
    assert len(workloads.ensemble_problems(rho, spec, attained, weights[::-1], vectors)) >= 1


def test_layer_metrics_self_time_and_parents():
    spans = [
        ["cli.main", -1, 0.0, 10.0, 500],
        ["locc.audit", 0, 1.0, 9.0, 7],
        ["locc.run_tree", 1, 1.0, 2.0, 0],
        ["linalg.lift", 2, 1.0, 1.5, 0],
        ["roof.solve", 1, 3.0, 7.0, 1],
        [tracing.GRAD_PROBE, 4, 3.0, 4.0, 64],
        [tracing.ITERATE, 4, 4.0, 5.0, 16],
        [tracing.ITERATE, 4, 5.0, 5.5, 16],
        ["roof.solve", -1, 20.0, 22.0, 0],
        [tracing.GRAD_PROBE, 8, 20.0, 21.0, 64],
    ]
    m = tracing.layer_metrics(spans, passes=2)
    assert set(m) == set(tracing.LAYER_METRICS) - {"trace.overhead_frac"}
    assert m["cli.self_s"] == pytest.approx(1.0)           # 10 - 8 over 2 passes
    assert m["cli.report_bytes"] == 250
    assert m["locc.audit_self_s"] == pytest.approx(1.5)    # 8 - 1 - 4 over 2 passes
    assert m["locc.nodes"] == 3.5
    assert m["locc.roof_calls"] == 0.5
    assert m["roof.solves"] == 1
    assert m["roof.solve_s"] == pytest.approx(3.0)
    assert m["roof.self_s"] == pytest.approx(1.25)         # (4 - 2.5) + (2 - 1), halved
    assert m["roof.iterations"] == 1
    assert m["roof.evals_per_iteration"] == pytest.approx(1.0)
    assert m["roof.s_per_iteration"] == pytest.approx(3.0)
    assert m["roof.converged_frac"] == 0.5
    assert m["measures.states_per_s"] == pytest.approx(160 / 3.5)
    assert m["linalg.lift_calls"] == 0.5


def test_quartile_spread():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, _, q3 = (2.75, 5.5, 8.25)
    assert steadiness.quartile_spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert steadiness.quartile_spread([2.0, 2.0, 2.0]) == 0.0


def test_spread_rows_marks_wide_metrics_but_not_setup():
    runs = [{"wall_s": {"value": v}, "setup_s": {"value": v}} for v in (1.0, 1.5, 2.0, 2.5)]
    specs = [{"name": "wall_s", "bound": 0.25}, {"name": "setup_s", "bound": 0.25}]
    rows = {row[0]: row for row in steadiness.spread_rows(runs, specs)}
    assert rows["wall_s"][4] == "WIDE"
    assert rows["setup_s"][4] == "ok"


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == \
        tracing.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roof-2x2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_install_skips_missing_entry_points(monkeypatch):
    from entroof import locc

    monkeypatch.delattr(locc, "successors_from_paths")
    lift = locc.lift
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not hasattr(locc, "successors_from_paths")
        assert locc.lift is not lift
    finally:
        tracer.uninstall()
    assert locc.lift is lift
