import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import entroof.roof as roof_module
from entroof import (
    BipartiteDims,
    DensityOperator,
    Ensemble,
    InvariantViolation,
    RoofProblem,
    channel_entropy,
    concave_roof,
    ensemble_from_isometry,
    entanglement_number_pure,
    measure_value,
    solve_roof,
    solve_roof_custom,
    von_neumann_entropy,
)
from entroof.linalg import _qr_fix, schmidt_lambdas
from entroof.measures import (
    MEASURES,
    SMOOTHING_STAGES,
    MeasureSpec,
    decreasing_counterpart,
    make_gradient,
    make_objective,
)
from entroof.roof import (
    LBFGS_MEMORY,
    LINE_SEARCH_RUNGS,
    MAX_WORK_ENTRIES,
    _eigen_factor,
    _Engine,
    _ensemble_size,
    _Rows,
    rank_of,
)
from entroof.sampling import (
    random_density,
    random_instrument,
    random_isometry,
    random_npt_density,
    random_product_state,
    random_pure_state,
    random_separable_density,
)
from entroof.states import PureState
from entroof.twoqubit import (
    concurrence,
    entanglement_of_formation,
    roof_lower_bound,
    wootters_isometry,
)

from util import (
    CERTIFIED_SPECS,
    DIMS22,
    bell,
    edge_rank_density,
    eigh_gradient,
    fd_gradient,
    sampling_oracle_roof,
    sequential_restart,
    sequential_start,
    spec_id,
    svd_member_e,
)

RNG = np.random.default_rng(31337)

E_SPEC = MeasureSpec("entanglement-number")
S_SPEC = MeasureSpec("entropy")


# --- ensembles -----------------------------------------------------------------

def test_identity_isometry_gives_eigen_ensemble():
    rho = random_density(DIMS22, RNG)
    w, v = np.linalg.eigh(rho.matrix)
    w, v = w[::-1], v[:, ::-1]
    ens = ensemble_from_isometry(rho, np.eye(4))
    np.testing.assert_allclose(ens.weights, w, atol=1e-12)
    for weight, psi, col in zip(ens.weights, ens.states, v.T):
        overlap = abs(np.vdot(psi.amplitudes, col))
        assert abs(overlap - 1.0) < 1e-10


def test_ensemble_reconstructs_source():
    for _ in range(10):
        rho = random_density(DIMS22, RNG)
        m = int(RNG.integers(4, 9))
        ens = ensemble_from_isometry(rho, random_isometry(m, rank_of(rho), RNG))
        assert ens.reconstruction_error(rho) < 1e-10
        assert abs(ens.weights.sum() - 1.0) < 1e-10


def test_pure_rho_members_equal_source():
    psi = random_pure_state(DIMS22, RNG)
    rho = DensityOperator.from_pure(psi)
    v = random_isometry(3, 1, RNG)
    ens = ensemble_from_isometry(rho, v)
    for member in ens.states:
        assert abs(abs(np.vdot(member.amplitudes, psi.amplitudes)) - 1.0) < 1e-10


def test_isometry_validation():
    rho = random_density(DIMS22, RNG)
    with pytest.raises(InvariantViolation):
        ensemble_from_isometry(rho, np.ones((4, 4)))
    with pytest.raises(InvariantViolation):
        ensemble_from_isometry(rho, random_isometry(4, 2, RNG))  # wrong cols
    with pytest.raises(InvariantViolation):
        ensemble_from_isometry(rho, np.eye(4)[:, :2].T @ np.eye(4))  # m < rank


def test_ensemble_invariants():
    psi = bell()
    with pytest.raises(InvariantViolation):
        Ensemble(np.array([0.5, 0.6]), (psi, psi), DIMS22)
    with pytest.raises(InvariantViolation):
        Ensemble(np.array([1.0]), (psi, psi), DIMS22)


def test_ensemble_rejects_nan_weights():
    with pytest.raises(InvariantViolation) as exc:
        Ensemble(np.array([np.nan]), (bell(),), DIMS22)
    assert exc.value.invariant == "weights-sum"


# --- solve_roof on known cases -----------------------------------------------

def test_pure_state_any_ensemble_size():
    psi = random_pure_state(DIMS22, RNG)
    rho = DensityOperator.from_pure(psi)
    for spec in (E_SPEC, S_SPEC):
        want = measure_value(spec, psi)
        for m in (1, 2, 4):
            res = solve_roof(RoofProblem(
                rho=rho, measure=spec, ensemble_size=m, restarts=2, seed=1))
            assert abs(res.value - want) < 1e-9


def test_bell_projector_roof():
    rho = DensityOperator.from_pure(bell())
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, ensemble_size=2, restarts=4))
    assert abs(res.value - 0.7071067811865475) < 1e-9


def test_maximally_mixed_is_separable():
    rho = DensityOperator(np.eye(4) / 4, DIMS22)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=8, seed=3))
    assert res.value <= 1e-6


def test_value_matches_returned_ensemble():
    rho = random_density(DIMS22, RNG)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=4, seed=5))
    recomputed = sum(
        w * entanglement_number_pure(s) for w, s in zip(res.ensemble.weights, res.ensemble.states))
    assert abs(res.value - recomputed) < 1e-12


def test_value_is_the_members_measure_value():
    # near-product members, where the solver's Gram-route spectra lose the
    # small Schmidt values: the value is the weighted measure_value (SVD
    # route) of the returned members
    sep = random_separable_density(DIMS22, np.random.default_rng(107))
    res = solve_roof(RoofProblem(
        rho=sep, measure=E_SPEC, ensemble_size=rank_of(sep), restarts=4, seed=0))
    states = np.array([s.amplitudes for s in res.ensemble.states])
    members = measure_value(E_SPEC, states, DIMS22)
    assert members.max() < 1e-6
    assert abs(res.value - float(np.sum(res.ensemble.weights * members))) <= 1e-12


def test_mixed_bell_plus_01_matches_independent_oracle():
    # 0.5 |Bell><Bell| + 0.5 |01><01| has a closed two-qubit value
    # 0.5/sqrt(2) (spin-flip route), reproduced here by a dense sampling +
    # polish oracle that shares nothing with the optimizer.
    m = 0.5 * bell().projector()
    m[1, 1] += 0.5
    rho = DensityOperator(m, DIMS22)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=8, seed=7))
    oracle = sampling_oracle_roof(rho, svd_member_e, samples=100_000, seed=11)
    assert abs(res.value - oracle) < 1e-4
    assert abs(res.value - 0.35355339059327373) < 1e-4


def test_faithfulness_two_sided():
    sep = random_separable_density(DIMS22, RNG)
    res = solve_roof(RoofProblem(
        rho=sep, measure=E_SPEC, ensemble_size=rank_of(sep), restarts=16, seed=2))
    assert res.value <= 1e-6
    npt = random_npt_density(DIMS22, RNG)
    assert solve_roof(RoofProblem(rho=npt, measure=E_SPEC, restarts=8, seed=2)).value >= 1e-3


# --- optimizer contract --------------------------------------------------------

def test_determinism_bitwise():
    # through the engine: a minimized two-qubit e roof is exact, without it
    rho = random_density(DIMS22, RNG)
    objective = make_objective(E_SPEC, DIMS22)
    a = solve_roof_custom(rho, objective, restarts=6, seed=77)
    b = solve_roof_custom(rho, objective, restarts=6, seed=77)
    assert len(a.objective_trace) > 0
    assert a.value == b.value
    assert a.objective_trace == b.objective_trace
    assert a.restart_values == b.restart_values
    for x, y in zip(a.ensemble.states, b.ensemble.states):
        np.testing.assert_array_equal(x.amplitudes, y.amplitudes)


def test_serial_parallel_identical(monkeypatch):
    # restarts descended one per batch come out as in one lockstep batch;
    # through solve_roof_custom, since solve_roof on a minimized two-qubit
    # entropy roof returns Wootters' decomposition and never descends
    rho = random_density(DIMS22, RNG)
    objective = make_objective(S_SPEC, DIMS22)
    a = solve_roof_custom(rho, objective, restarts=6, seed=13)
    run = _Engine.run

    def serial(self):
        self.chunk = 1
        return run(self)

    monkeypatch.setattr(_Engine, "run", serial)
    b = solve_roof_custom(rho, objective, restarts=6, seed=13)
    assert a.value == b.value
    assert a.objective_trace == b.objective_trace
    assert a.restart_values == b.restart_values
    np.testing.assert_array_equal(a.ensemble.weights, b.ensemble.weights)


@pytest.mark.parametrize("chunk", [None, 2])
def test_result_describes_its_best_restart(monkeypatch, chunk):
    # the trace of a result belongs to its best restart, and every
    # per-restart tuple has one entry per restart, in one lockstep batch and
    # in chunks of two, minimizing and maximizing
    if chunk is not None:
        run = _Engine.run

        def chunked(self):
            self.chunk = chunk
            return run(self)

        monkeypatch.setattr(_Engine, "run", chunked)
    # the minimizing solve runs through solve_roof_custom: solve_roof on a
    # minimized two-qubit e roof returns Wootters' decomposition and never
    # descends
    rho = random_density(DIMS22, np.random.default_rng(23), 3)
    opts = dict(restarts=5, max_iters=300, seed=4)
    for res in (solve_roof_custom(rho, make_objective(E_SPEC, DIMS22), **opts),
                concave_roof(RoofProblem(rho=rho, measure=E_SPEC, **opts))):
        for entries in (res.restart_values, res.restart_iterations, res.restart_stops,
                        res.restart_rungs):
            assert len(entries) == 5
        best = res.best_restart
        assert len(res.objective_trace) == res.restart_iterations[best]
        assert res.objective_trace[-1] == res.restart_values[best]


def test_trace_monotone():
    # the minimizing engine through solve_roof_custom: a minimized two-qubit
    # e roof is exact, without a trace
    rho = random_density(DIMS22, RNG)
    res = solve_roof_custom(rho, make_objective(E_SPEC, DIMS22), restarts=2, seed=9)
    tr = np.array(res.objective_trace)
    assert len(tr) > 1
    assert np.all(np.diff(tr) <= 0)
    res = concave_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=2, seed=9))
    tr = np.array(res.objective_trace)
    assert len(tr) > 1
    assert np.all(np.diff(tr) >= 0)


def test_upper_bound_soundness():
    rho = random_density(DIMS22, RNG)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=8, seed=21))
    obj = make_objective(E_SPEC, DIMS22)

    def average(v):
        ens = ensemble_from_isometry(rho, v)
        vals = obj(np.stack([s.amplitudes for s in ens.states]))
        return float(np.dot(ens.weights, vals))

    r = rank_of(rho)
    assert res.value <= average(np.eye(r)) + 1e-12
    for _ in range(100):
        m = int(RNG.integers(r, 2 * r * r))
        assert res.value <= average(random_isometry(m, r, RNG)) + 1e-12


def test_roof_convexity():
    r1 = random_density(DIMS22, RNG)
    r2 = random_density(DIMS22, RNG)
    t = 0.35
    mix = DensityOperator(t * r1.matrix + (1 - t) * r2.matrix, DIMS22)
    opts = dict(restarts=8, seed=4)
    vm = solve_roof(RoofProblem(rho=mix, measure=E_SPEC, **opts))
    v1 = solve_roof(RoofProblem(rho=r1, measure=E_SPEC, **opts))
    v2 = solve_roof(RoofProblem(rho=r2, measure=E_SPEC, **opts))
    assert vm.value <= t * v1.value + (1 - t) * v2.value + 1e-6


def test_ensemble_size_sufficiency():
    # through the engine: a minimized two-qubit entropy roof is exact
    rho = random_density(DIMS22, RNG)
    r = rank_of(rho)
    objective = make_objective(S_SPEC, DIMS22)
    small = solve_roof_custom(rho, objective, ensemble_size=r, restarts=8, seed=6)
    large = solve_roof_custom(rho, objective, ensemble_size=r * r, restarts=8, seed=6)
    assert len(small.objective_trace) > 0 and len(large.objective_trace) > 0
    assert large.value <= small.value + 1e-6


def test_default_ensemble_size_rule():
    # one owner: the default m is min(r^2, 2r), and a default solve is the
    # solve at that explicit m, bit for bit
    assert [_ensemble_size(r, None) for r in range(1, 10)] == [
        min(r * r, 2 * r) for r in range(1, 10)]
    # (on 2x3: a minimized two-qubit entropy roof is exact, without the engine)
    rho = random_density(BipartiteDims(2, 3), np.random.default_rng(29), 3)
    opts = dict(rho=rho, measure=S_SPEC, restarts=3, max_iters=200, seed=5)
    a = solve_roof(RoofProblem(**opts))
    b = solve_roof(RoofProblem(**opts, ensemble_size=6))
    assert len(a.objective_trace) > 0
    assert a.value == b.value
    assert a.objective_trace == b.objective_trace
    assert a.restart_values == b.restart_values
    np.testing.assert_array_equal(a.ensemble.weights, b.ensemble.weights)
    for x, y in zip(a.ensemble.states, b.ensemble.states, strict=True):
        np.testing.assert_array_equal(x.amplitudes, y.amplitudes)
    pure = DensityOperator.from_pure(random_pure_state(DIMS22, np.random.default_rng(31)))
    assert _Engine(pure, make_objective(E_SPEC, DIMS22), "minimize", None, 1, 1, 1e-9, 0).m == 1
    assert len(solve_roof(RoofProblem(rho=pure, measure=E_SPEC, restarts=2)).ensemble.states) == 1


# --- concave roof ----------------------------------------------------------------

def test_concave_pure_and_dominates_eigen_ensemble():
    psi = random_pure_state(DIMS22, RNG)
    rho_pure = DensityOperator.from_pure(psi)
    res = concave_roof(RoofProblem(
        rho=rho_pure, measure=E_SPEC, ensemble_size=2, restarts=2, seed=1))
    assert abs(res.value - entanglement_number_pure(psi)) < 1e-9

    rho = random_density(DIMS22, RNG)
    res = concave_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=8, seed=1))
    obj = make_objective(E_SPEC, DIMS22)
    ens = ensemble_from_isometry(rho, np.eye(rank_of(rho)))
    eigen_avg = float(np.dot(ens.weights, obj(np.stack([s.amplitudes for s in ens.states]))))
    assert eigen_avg <= res.value + 1e-9


def test_concave_convex_bijection():
    rho = random_density(DIMS22, RNG)
    sup, shifted = decreasing_counterpart(E_SPEC, DIMS22)
    cc = concave_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=8, seed=2))
    cv = solve_roof_custom(rho, shifted, direction="minimize", restarts=8, seed=2)
    assert abs(cc.value - (sup - cv.value)) < 1e-3


# --- channel entropy --------------------------------------------------------------

def test_channel_entropy_identity():
    psi = random_pure_state(DIMS22, RNG)
    pure = DensityOperator.from_pure(psi)
    assert abs(channel_entropy(pure, [np.eye(4)], restarts=2)) < 1e-9

    rho = random_density(DIMS22, RNG)
    got = channel_entropy(rho, [np.eye(4)], restarts=4)
    assert abs(got - von_neumann_entropy(rho.matrix)) < 1e-6


def test_channel_entropy_depolarizing():
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]])]
    kraus = [np.kron(a, b) / 4 for a in paulis for b in paulis]
    rho = random_density(DIMS22, RNG)
    assert abs(channel_entropy(rho, kraus, restarts=2)) < 1e-9


def test_channel_entropy_invalid_kraus():
    rho = random_density(DIMS22, RNG)
    for kraus, invariant in (([np.eye(4) / 2], "kraus-completeness"),
                             ([np.diag([np.nan, 1, 1, 1])], "kraus-completeness"),
                             ([np.eye(2)], "kraus-dims"),
                             ([], "kraus-shape"),
                             ([np.eye(4), np.eye(5, 4)], "kraus-shape"),
                             ([np.ones(4)], "kraus-shape")):
        with pytest.raises(InvariantViolation) as exc:
            channel_entropy(rho, kraus)
        assert exc.value.invariant == invariant


def test_channel_entropy_rectangular_isometry():
    # one Kraus operator 4 -> 6: the environment is trivial, and the
    # output keeps the spectrum of rho
    rng = np.random.default_rng(71)
    rho = random_density(DIMS22, rng)
    got = channel_entropy(rho, [random_isometry(6, 4, rng)], restarts=2)
    assert abs(got - von_neumann_entropy(rho.matrix)) < 1e-6


def test_channel_entropy_instrument_bounds():
    # the minimum over decompositions is at most the eigen-ensemble's
    # average output entropy, and the output lives in dimension 3
    rng = np.random.default_rng(73)
    rho = random_density(DIMS22, rng)
    kraus = random_instrument(4, 3, rng, dim_out=3)

    def channel(m):
        return sum(k @ m @ k.conj().T for k in kraus)

    w, e = np.linalg.eigh(rho.matrix)
    eigen_avg = sum(p * von_neumann_entropy(channel(np.outer(v, v.conj())))
                    for p, v in zip(w, e.T))
    got = channel_entropy(rho, kraus, restarts=4)
    assert -1e-9 <= got <= np.log2(3)
    assert got >= von_neumann_entropy(channel(rho.matrix)) - eigen_avg - 1e-9


def test_channel_entropy_log_base():
    rng = np.random.default_rng(79)
    rho = random_density(DIMS22, rng)
    kraus = random_instrument(4, 2, rng)
    base2 = channel_entropy(rho, kraus, restarts=4, seed=3)
    base_e = channel_entropy(rho, kraus, log_base=np.e, restarts=4, seed=3)
    assert abs(base_e - np.log(2) * base2) < 1e-6
    with pytest.raises(ValueError):
        channel_entropy(rho, kraus, log_base=10.0)


# --- problem validation ------------------------------------------------------------

def test_problem_validation():
    rho = random_density(DIMS22, RNG)
    objective = make_objective(E_SPEC, DIMS22)
    for bad in ({"direction": "sideways"}, {"restarts": 0}, {"max_iters": 0}, {"tol": 0.0},
                {"tol": math.inf}, {"tol": math.nan}):
        with pytest.raises(ValueError) as problem_error:
            RoofProblem(rho=rho, measure=E_SPEC, **bad)
        with pytest.raises(ValueError) as custom_error:
            solve_roof_custom(rho, objective, **bad)
        assert str(custom_error.value) == str(problem_error.value)
    with pytest.raises(ValueError):
        solve_roof(RoofProblem(rho=rho, measure=E_SPEC, ensemble_size=2))
    with pytest.raises(ValueError):
        RoofProblem(
            rho=random_density(BipartiteDims(1, 2), RNG),
            measure=MeasureSpec("negativity"))


def test_ensemble_size_bound_checked_before_allocation():
    rng = np.random.default_rng(43)
    rho = random_density(DIMS22, rng)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="limit"):
            solve_roof(RoofProblem(rho=rho, measure=E_SPEC, ensemble_size=10**12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    # the default m and m = r^2 of a full-rank 8x8 state are still admitted
    big = random_density(BipartiteDims(8, 8), rng)
    objective = make_objective(E_SPEC, big.dims)
    for m, want in ((None, _ensemble_size(64, None)), (64 * 64, 64 * 64)):
        assert _Engine(big, objective, "minimize", m, 1, 1, 1e-9, 0).m == want
    # the largest m whose one restart's line-search stack fits is admitted
    # and the next is rejected, both before any allocation
    objective = make_objective(E_SPEC, DIMS22)
    top = MAX_WORK_ENTRIES // (LINE_SEARCH_RUNGS * DIMS22.total)
    tracemalloc.start()
    try:
        engine = _Engine(rho, objective, "minimize", top, 32, 1, 1e-9, 0)
        with pytest.raises(ValueError, match="limit"):
            _Engine(rho, objective, "minimize", top + 1, 32, 1, 1e-9, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert engine.m == top and engine.chunk == 1


def test_stall_metadata_recorded():
    # a constant objective with a gradient whose tangent part is large and
    # no descent direction: every line search stalls, which ends each
    # smoothing stage after one iteration, and the run terminates cleanly
    rho = random_density(DIMS22, RNG)

    def constant(s):
        return np.full(s.shape[:-1], 0.25)

    # the 1e3j chi term adds 2e3j V diag(p) to the gradient at every V: a
    # tangent direction (it rotates the phases of V's columns)
    constant.grad = lambda chi: (constant(chi), 0.25 * chi + 1e3j * chi)
    res = solve_roof_custom(rho, constant, restarts=1, seed=0)
    assert not res.converged
    assert res.restart_stops == ("stall",)
    assert res.restart_iterations == (len(SMOOTHING_STAGES),)
    assert abs(res.value - 0.25) < 1e-12


def test_restart_stop_reasons():
    # d(|chi|^2 * 0.25)/d chi^* = 0.25 chi, whose tangent component is
    # rounding noise: both stages stop at the rounding floor within a few
    # iterations
    rho = random_density(DIMS22, RNG)

    def constant(s):
        return np.full(s.shape[:-1], 0.25)

    constant.grad = lambda chi: (constant(chi), 0.25 * chi)
    res = solve_roof_custom(rho, constant, restarts=3, seed=0)
    assert res.restart_stops == ("floor",) * 3
    assert max(res.restart_iterations) < 20
    assert res.converged
    assert abs(res.value - 0.25) < 1e-12
    # "budget" exactly when a restart spends max_iters without converging
    rho = random_density(BipartiteDims(2, 3), np.random.default_rng(10), 4)
    problem = RoofProblem(rho=rho, measure=S_SPEC, restarts=5, max_iters=150, seed=1)
    res = solve_roof(problem)
    engine = _Engine(rho, make_objective(S_SPEC, rho.dims), "minimize", None, 5, 150,
                     problem.tol, 1, stages=MEASURES["entropy"].smoothing)
    outcomes = engine.run()
    assert tuple(o.stop for o in outcomes) == res.restart_stops
    assert {"budget", "floor"} <= set(res.restart_stops)
    for o in outcomes:
        assert o.stop != "budget" or o.iterations == problem.max_iters
    assert res.converged == (res.restart_stops[res.best_restart] == "floor")


def test_converged_means_the_best_restart_is_stationary():
    # the p-number at p > 2 has no certificate; here the best restart
    # stalls while another reaches the floor, and the solve is not converged
    rho = random_density(DIMS22, np.random.default_rng(12))
    res = solve_roof(RoofProblem(rho=rho, measure=MeasureSpec("p-number", p=2.5),
                                 restarts=8, seed=2))
    assert res.lower_bound is None
    assert "floor" in res.restart_stops
    assert res.restart_stops[res.best_restart] == "stall"
    assert not res.converged


def test_custom_objective_needs_gradient():
    rho = random_density(DIMS22, RNG)
    with pytest.raises(ValueError, match="objective.grad"):
        solve_roof_custom(rho, lambda s: np.full(s.shape[:-1], 0.25))


def test_solve_roof_reads_gradient_from_spec(monkeypatch):
    # the layer trace (perfbench/tracing.py) replaces roof.make_objective by
    # lambda spec, dims: wrapper(make_objective(spec, dims)), a plain
    # function without the grad attribute; solve_roof must run through it
    # and give the same result, bitwise
    # (on 2x3: a minimized two-qubit e roof is exact, without the engine)
    rho = random_density(BipartiteDims(2, 3), RNG)
    problem = RoofProblem(rho=rho, measure=E_SPEC, restarts=2, max_iters=50, seed=3)
    want = solve_roof(problem)
    original, calls = roof_module.make_objective, []

    def traced(objective):
        def wrapper(states):
            calls.append(states.shape)
            return objective(states)

        return wrapper

    monkeypatch.setattr(roof_module, "make_objective",
                        lambda spec, dims: traced(original(spec, dims)))
    assert not hasattr(roof_module.make_objective(E_SPEC, rho.dims), "grad")
    got = solve_roof(problem)
    assert calls
    for field in ("value", "restart_values", "restart_iterations", "restart_stops",
                  "restart_rungs", "objective_trace"):
        assert getattr(got, field) == getattr(want, field), field


def _ginibre_density(dims: BipartiteDims, r: int, seed: int) -> DensityOperator:
    """g g^H / Tr for g = normal + 1j normal of shape (n, r) from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dims.total, r)) + 1j * rng.normal(size=(dims.total, r))
    mat = g @ g.conj().T
    return DensityOperator(mat / np.trace(mat).real, dims)


def test_default_3x3_entropy_solve_converges():
    # a full-rank 3x3 state at default settings converges within max_iters,
    # at or below the best value the solver reached before L-BFGS
    rho = _ginibre_density(BipartiteDims(3, 3), 9, 2)
    res = solve_roof(RoofProblem(rho=rho, measure=S_SPEC, restarts=4, seed=0))
    assert res.converged
    assert res.value <= 0.10407296


def test_3x3_entropy_restarts_stop_on_stationarity():
    # a stage ends only on the first iteration without a step, so both
    # restarts run on to the stationarity test, to no more than
    # 0.211482333709, where a stop on 20 iterations of progress below tol
    # left them
    rho = random_density(BipartiteDims(3, 3), np.random.default_rng(3), 6)
    res = solve_roof(RoofProblem(rho=rho, measure=S_SPEC, restarts=2))
    assert res.restart_stops == ("floor", "floor")
    assert res.value <= 0.211482333709


def test_default_2x4_e_solve_reaches_best_known():
    # the 2x4 `e` default solve converges to within 1e-4 of the best value
    # known before L-BFGS (0.08635, from the smoothing ladder 1e-2 ... 1e-5, 0)
    rho = _ginibre_density(BipartiteDims(2, 4), 8, 3)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC))
    assert res.converged
    assert res.value <= 0.08635 + 1e-4


@pytest.mark.parametrize("rank, seed", [(2, 2), (4, 0)])
def test_default_2x2_e_solve_keeps_its_unit_steps(rank, seed):
    # curvature pairs outlive the stage advance and the polish, so
    # the step after each of them is the L-BFGS unit step and not 1 / |xi|,
    # which near convergence backtracks for 16-22 rungs (through
    # solve_roof_custom: a minimized two-qubit e roof is exact, without steps)
    rho = random_density(DIMS22, np.random.default_rng(seed), rank)
    res = solve_roof_custom(rho, make_objective(E_SPEC, DIMS22))
    assert len(res.objective_trace) > 0
    assert sum(res.restart_rungs) <= 1.1 * sum(res.restart_iterations)


def test_default_2x2_e_solve_stops_on_stationarity():
    # every restart ends its last stage on the L-BFGS stationarity test, at
    # C / sqrt(2); through solve_roof_custom, since solve_roof on a minimized
    # two-qubit e roof returns Wootters' decomposition and never descends
    rho = random_density(DIMS22, np.random.default_rng(0), 4)
    res = solve_roof_custom(rho, make_objective(E_SPEC, DIMS22))
    assert res.restart_stops == ("floor",) * RoofProblem.restarts
    assert abs(res.value - concurrence(rho) / np.sqrt(2)) <= 1e-10


def test_entropy_descends_one_unsmoothed_stage(monkeypatch):
    # entropy's kink at zero is not conic, so it skips the smoothing stage
    # every other measure keeps; a custom objective runs the default ladder
    assert MEASURES["entropy"].smoothing == (0.0,)
    assert all(m.smoothing == SMOOTHING_STAGES for k, m in MEASURES.items() if k != "entropy")
    seen = []
    contrib = _Engine.member_contrib

    def spy(self, chi, eps=0.0, vals=None):
        seen.append(float(np.max(eps)))
        return contrib(self, chi, eps, vals)

    monkeypatch.setattr(_Engine, "member_contrib", spy)
    # on 2x3: a minimized two-qubit entropy roof is exact, without the engine
    rho = random_density(BipartiteDims(2, 3), np.random.default_rng(1), 3)
    solve_roof(RoofProblem(rho=rho, measure=S_SPEC, restarts=2, seed=0))
    assert seen and max(seen) == 0.0
    seen.clear()
    solve_roof_custom(rho, make_objective(S_SPEC, rho.dims), restarts=2, seed=0)
    assert max(seen) == SMOOTHING_STAGES[0]


def test_restart_depends_only_on_seed_and_index():
    # a 2x3 entropy solve, and a two-qubit e solve below the size of
    # Wootters' decomposition, which runs the engine
    rho = random_density(BipartiteDims(2, 3), np.random.default_rng(47))
    cases = [dict(rho=rho, measure=S_SPEC, max_iters=60, seed=19),
             dict(rho=_rank3_separable(), measure=E_SPEC, ensemble_size=3, seed=2)]
    for base in cases:
        four = solve_roof(RoofProblem(restarts=4, **base))
        two = solve_roof(RoofProblem(restarts=2, **base))
        assert two.restart_values == four.restart_values[:2]
        assert two.restart_iterations == four.restart_iterations[:2]
        assert two.restart_stops == four.restart_stops[:2]


def test_batch_composition_cannot_change_a_restart(monkeypatch):
    # a separable input, where the product polish fires and restarts
    # finish at different iterations, and two entangled 2x3 inputs with a
    # minimal ensemble under the geometric measure, the last of whose
    # restarts stalls at its top-1 ties: restart k must come out the same
    # whichever restarts share its lockstep batch (through solve_roof_custom:
    # solve_roof on the minimized two-qubit e roof of the separable input
    # returns Wootters' decomposition and never descends)
    polished = []
    polish = _Engine.product_polish

    def counting_polish(self, v, iters=60):
        polished.append(len(v))
        return polish(self, v, iters)

    monkeypatch.setattr(_Engine, "product_polish", counting_polish)
    separable = random_separable_density(DIMS22, np.random.default_rng(107))
    entangled = random_density(BipartiteDims(2, 3), np.random.default_rng(25), 3)
    tied = random_density(BipartiteDims(2, 3), np.random.default_rng(5), 2)
    geometric = MeasureSpec("geometric", ranks=(1, 1))
    cases = [
        dict(rho=separable, measure=E_SPEC, ensemble_size=rank_of(separable), seed=0),
        dict(rho=entangled, measure=geometric, ensemble_size=3, max_iters=200, seed=0),
        dict(rho=tied, measure=geometric, ensemble_size=2, max_iters=200, seed=1),
    ]

    def solve(restarts, rho, measure, **opts):
        return solve_roof_custom(rho, make_objective(measure, rho.dims), restarts=restarts,
                                 **opts)

    for base in cases:
        five = solve(5, **base)
        assert len(set(five.restart_iterations)) > 1
        for k in range(5):
            fewer = solve(k + 1, **base)
            assert fewer.restart_values[k] == five.restart_values[k]
            assert fewer.restart_iterations[k] == five.restart_iterations[k]
            assert fewer.restart_rungs[k] == five.restart_rungs[k]
            assert 0 < five.restart_iterations[k] <= RoofProblem(**base).max_iters
        # restarts split over chunks of two come out as in one batch
        problem = RoofProblem(restarts=5, **base)
        engine = _Engine(problem.rho, make_objective(problem.measure, problem.rho.dims),
                         "minimize", problem.ensemble_size, 5, problem.max_iters,
                         problem.tol, problem.seed,
                         stages=MEASURES[problem.measure.kind].smoothing)
        engine.chunk = 2
        chunked = engine.run()
        assert tuple(o.best_f for o in chunked) == five.restart_values
        assert tuple(o.iterations for o in chunked) == five.restart_iterations
        assert tuple(o.rungs for o in chunked) == five.restart_rungs
    assert polished
    # the tied input's last restart stalls at a top-1 tie and stops there,
    # after few line-search rungs
    assert chunked[4].stop == "stall"
    assert chunked[4].rungs < 200
    assert chunked[4].best_f <= 0.7294595901243481


def test_lockstep_batch_matches_sequential_restarts():
    # every restart of the lockstep batch equals, bit for bit, the same
    # restart descended alone one iterate at a time: one and two smoothing
    # stages, L-BFGS steps, backtracking, polish, and every stop: floor,
    # stall and budget
    def constant(s):
        return np.full(s.shape[:-1], 0.25)

    constant.grad = lambda chi: (constant(chi), 0.25 * chi)
    rng = np.random.default_rng(71)
    separable = random_separable_density(DIMS22, np.random.default_rng(107))
    mixed = random_density(DIMS22, rng, 3)
    entangled = random_density(BipartiteDims(2, 3), rng, 3)
    full33 = random_density(BipartiteDims(3, 3), rng)
    one = MEASURES["entropy"].smoothing
    cases = [
        (mixed, make_objective(S_SPEC, DIMS22), "minimize", None, 6, 2000, one),
        (mixed, make_objective(E_SPEC, DIMS22), "maximize", None, 3, 2000, SMOOTHING_STAGES),
        (separable, make_objective(E_SPEC, DIMS22), "minimize", rank_of(separable), 4, 2000,
         SMOOTHING_STAGES),
        (entangled, make_objective(S_SPEC, entangled.dims), "minimize", None, 3, 27, one),
        (mixed, constant, "minimize", None, 2, 2000, SMOOTHING_STAGES),
        # the eigh gradient, and iterations where every row takes its
        # first rung, so the batch updates whole arrays
        (full33, make_objective(S_SPEC, full33.dims), "minimize", None, 3, 12, one),
    ]
    stops = set()
    whole = []
    line_search = _Engine._line_search

    def recording_line_search(self, v, *args):
        out = line_search(self, v, *args)
        whole.append(len(v) == self.restarts and out[-1][0].all())
        return out

    for rho, objective, direction, m, restarts, max_iters, stages in cases:
        engine = _Engine(rho, objective, direction, m, restarts, max_iters, 1e-9, 5,
                         stages=stages)
        whole.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Engine, "_line_search", recording_line_search)
            outcomes = engine.run()
        if rho is full33:  # d = 3: the gradient takes a batched eigh
            assert sum(whole) >= 5
        for k, got in enumerate(outcomes):
            want = sequential_restart(engine, k)
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2:] == want[2:]
            stops.add(got.stop)
    assert stops == {"floor", "stall", "budget"}


def _two_loop(pairs, q):
    """H q by the two-loop recursion over (s, y) pairs, newest first, from
    H0 = gamma I with the newest pair's gamma = <s, y> / <y, y>; no pairs
    give H = 0."""
    if not pairs:
        return np.zeros_like(q)
    alpha = []
    q = q.copy()
    for s, y in pairs:
        alpha.append(np.dot(s, q) / np.dot(s, y))
        q -= alpha[-1] * y
    s, y = pairs[0]
    q *= np.dot(s, y) / np.dot(y, y)
    for (s, y), a in reversed(list(zip(pairs, alpha))):
        q += (a - np.dot(y, q) / np.dot(s, y)) * s
    return q


def test_compact_lbfgs_product_matches_two_loop():
    # rows that push 0 to 8 pairs (their memory keeps the newest
    # LBFGS_MEMORY), one of them with <s, y> < 0, which is skipped; the
    # pairs are curvature pairs y = A s of a row's SPD matrix A
    rng = np.random.default_rng(83)
    size = 36
    counts = {1: [6], 2: [0, 4], 32: [i % 9 for i in range(32)]}
    stored = set()
    for n, pushes in counts.items():
        rows = _Rows(prev=np.zeros((n, 2, size)), moved=np.zeros(n, dtype=bool),
                     pairs=np.zeros((n, 2, LBFGS_MEMORY, size)),
                     rho=np.zeros((n, LBFGS_MEMORY)), gamma=np.zeros(n))
        g = rng.normal(size=(n, size, size))
        spd = g @ g.swapaxes(-1, -2) / size + np.eye(size)
        kept: list[list] = [[] for _ in range(n)]
        for step in range(max(pushes)):
            s = rng.normal(size=(n, size))
            y = np.einsum("nij,nj->ni", spd, s) * (-1.0 if step == 2 else 1.0)
            rows.moved = step < np.array(pushes)
            rows.push(np.stack((s, y), axis=1))
            for i in np.flatnonzero(rows.moved & (np.sum(s * y, axis=-1) > 0)):
                kept[i] = [(s[i], y[i])] + kept[i][:LBFGS_MEMORY - 1]
        q = rng.normal(size=(n, size))
        got = rows.inverse_hessian(q)
        for i in range(n):
            want = _two_loop(kept[i], q[i])
            stored.add(len(kept[i]))
            if not kept[i]:
                assert np.all(got[i] == 0.0)
            else:
                assert np.linalg.norm(got[i] - want) <= 1e-12 * np.linalg.norm(want)
    assert stored == set(range(LBFGS_MEMORY + 1))


def test_restart_chunk_bounded_before_allocation():
    # a full-rank 8x8 state with 32 restarts, at the default m and at
    # m = r^2: the engine picks its chunk of lockstep restarts without
    # allocating, and the line search's stacked member vectors fit the
    # work limit
    big = random_density(BipartiteDims(8, 8), np.random.default_rng(53))
    objective = make_objective(E_SPEC, big.dims)
    for m in (None, 64 * 64):
        tracemalloc.start()
        try:
            engine = _Engine(big, objective, "minimize", m, 32, 2000, 1e-9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert engine.m == _ensemble_size(64, m)
        # r^2 members fit only by splitting the restarts into chunks
        assert 1 <= engine.chunk < 32 if m else engine.chunk == 32
        assert LINE_SEARCH_RUNGS * engine.chunk * engine.m * engine.n <= MAX_WORK_ENTRIES
        assert peak < 1_000_000


def test_product_polish_allocates_about_its_member_vectors():
    # one polish call on 32 isometries of a 2x100 rank-4 state: its
    # right singular vectors must not grow with dim_b^2
    rho = random_density(BipartiteDims(2, 100), np.random.default_rng(59), 4)
    engine = _Engine(rho, make_objective(E_SPEC, rho.dims), "minimize", None, 32, 1, 1e-9, 0)
    rng = np.random.default_rng(61)
    v = np.stack([random_isometry(engine.m, engine.r, rng) for _ in range(32)])
    members = v.shape[0] * engine.m * engine.n * 16  # bytes of the complex member vectors
    tracemalloc.start()
    try:
        engine.product_polish(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * members


# --- exact gradient --------------------------------------------------------------

GRAD_DIMS = [DIMS22, BipartiteDims(2, 3), BipartiteDims(3, 2), BipartiteDims(3, 3),
             BipartiteDims(2, 4), BipartiteDims(4, 2), BipartiteDims(4, 3)]
QUBIT_DIMS = [d for d in GRAD_DIMS if d.d == 2]


def _gradient_specs(d):
    """Every MEASURES kind, at every parameter the checks below cover."""
    specs = [S_SPEC, MeasureSpec("entropy", log_base=np.e), E_SPEC, MeasureSpec("negativity")]
    specs += [MeasureSpec("p-number", p=p) for p in (1.5, 2.0, 3.0)]
    specs += [MeasureSpec("concurrence", k=k) for k in range(1, d + 1)]
    specs += [MeasureSpec("geometric", ranks=(k, k)) for k in range(1, d + 1)]
    assert {s.kind for s in specs} == set(MEASURES)
    return specs


def _separated_members(rho, m, rng):
    """Members chi = V B^T of a random isometry V whose normalized Schmidt
    values are all at least 1e-3 and pairwise at least 1e-3 apart."""
    b = _eigen_factor(rho)
    while True:
        chi = random_isometry(m, b.shape[1], rng) @ b.T
        lams = np.array([schmidt_lambdas(PureState(c / np.linalg.norm(c), rho.dims))
                         for c in chi])
        gaps = -np.diff(lams, axis=-1)
        if lams.min() >= 1e-3 and (gaps.size == 0 or gaps.min() >= 1e-3):
            return chi


def _check_against_fd(rho, objective, chi):
    for direction in ("minimize", "maximize"):
        engine = _Engine(rho, objective, direction, chi.shape[0], 1, 1, 1e-9, 0)
        for eps in (1e-3, 0.0):
            exact = engine._gradient(chi, eps)
            probe = fd_gradient(lambda x: engine.member_contrib(x, eps)[0], chi, engine.b)
            err = np.linalg.norm(exact - probe) / np.linalg.norm(probe)
            assert err <= 1e-6, (direction, eps, err)


def _dims_id(dims):
    return f"{dims.dim_a}x{dims.dim_b}"


@pytest.mark.parametrize("dims", GRAD_DIMS, ids=_dims_id)
def test_gradient_matches_finite_differences(dims):
    rng = np.random.default_rng(61)
    rho = random_density(dims, rng, 3)
    chi = _separated_members(rho, 6, rng)
    for spec in _gradient_specs(dims.d):
        _check_against_fd(rho, make_objective(spec, dims), chi)
        # C_1 and the (d, d) geometric measure are constant, so their
        # counterparts vanish identically and have no relative error
        if spec.k != 1 and spec.ranks != (dims.d, dims.d):
            _check_against_fd(rho, decreasing_counterpart(spec, dims)[1], chi)


@pytest.mark.parametrize("dims", GRAD_DIMS, ids=_dims_id)
def test_gradient_finite_at_kinks(dims):
    # exact products, maximally entangled members (tied Schmidt values),
    # rank-deficient spectra and the zero vector: F' is unbounded or
    # undefined there, and the clamped gradient must stay finite
    rng = np.random.default_rng(67)
    d = dims.d
    maximal = np.zeros((dims.dim_a, dims.dim_b), dtype=complex)
    maximal[range(d), range(d)] = 1.0 / np.sqrt(d)
    deficient = np.zeros((dims.dim_a, dims.dim_b), dtype=complex)
    deficient[range(d - 1), range(d - 1)] = np.sqrt(np.arange(1, d) / (d * (d - 1) / 2))
    chi = np.stack([random_product_state(dims, rng).amplitudes,
                    np.eye(dims.total)[0],
                    maximal.ravel(),
                    deficient.ravel(),
                    0.5 * random_product_state(dims, rng).amplitudes,
                    np.zeros(dims.total)])
    for spec in _gradient_specs(d):
        f, g = make_gradient(spec, dims)(chi)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g)), spec
        engine = _Engine(DensityOperator.from_pure(random_pure_state(dims, rng)),
                         make_objective(spec, dims), "minimize", len(chi), 1, 1, 1e-9, 0)
        for eps in (1e-3, 0.0):
            assert np.all(np.isfinite(engine._gradient(chi, eps))), (spec, eps)


@pytest.mark.parametrize("dims", QUBIT_DIMS, ids=_dims_id)
def test_closed_form_d2_gradient_matches_eigh(dims):
    # the d = 2 kernel against the eigh route on random members (every
    # kind, both orientations), and its values against make_objective
    rng = np.random.default_rng(79)
    chi = rng.normal(size=(3, 4, dims.total)) + 1j * rng.normal(size=(3, 4, dims.total))
    chi = np.concatenate([chi, np.eye(dims.total)[None, :4]])  # exact products
    for spec in _gradient_specs(2):
        f, g = make_gradient(spec, dims)(chi)
        f_ref, g_ref = eigh_gradient(spec, dims)(chi)
        np.testing.assert_array_equal(f, make_objective(spec, dims)(chi))
        np.testing.assert_allclose(f, f_ref, rtol=1e-12, atol=1e-14)
        err = np.max(np.abs(g - g_ref)) / np.max(np.abs(g_ref))
        assert err <= 1e-12, (spec, err)


@pytest.mark.parametrize("dims", QUBIT_DIMS, ids=_dims_id)
def test_closed_form_d2_gradient_at_ties(dims):
    # tied Schmidt values (maximally entangled members, the zero vector)
    # take the mean coefficient times the identity, which for the top-one
    # geometric measure is the subgradient C / 2 of lambda_max(C C^dagger);
    # exact products have no tie and match the eigh route
    c = np.zeros((dims.dim_a, dims.dim_b), dtype=complex)
    c[[0, 1], [0, 1]] = [0.6, 0.6j]
    tied = np.stack([c.ravel(), np.zeros(dims.total)])
    products = np.eye(dims.total)[:3] * np.array([[1.0], [0.5j], [2.0]])
    for spec in _gradient_specs(2):
        f, g = make_gradient(spec, dims)(tied)
        assert np.all(np.isfinite(f)) and np.all(np.isfinite(g)), spec
        np.testing.assert_array_equal(f, make_objective(spec, dims)(tied))
        np.testing.assert_array_equal(g[1], 0.0)
        f_ref, g_ref = eigh_gradient(spec, dims)(products)
        f, g = make_gradient(spec, dims)(products)
        np.testing.assert_allclose(f, f_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(g, g_ref, rtol=1e-12, atol=1e-15)
    f, g = make_gradient(MeasureSpec("geometric", ranks=(1, 1)), dims)(tied[:1])
    assert f[0] == pytest.approx(0.5, abs=1e-15)
    np.testing.assert_allclose(g[0], 0.5 * tied[0], rtol=0, atol=1e-15)


def test_smoothing_stage_evaluates_each_iterate_once(monkeypatch):
    # an iteration (from one engine gradient to the next) passes each
    # isometry's members to the objective, or to its gradient in the line
    # search, at most once: the raw value of an accepted iterate comes from
    # the line-search call that accepted it, not from a second evaluation
    rho = random_density(DIMS22, np.random.default_rng(73), 3)
    base = make_objective(S_SPEC, DIMS22)
    calls: list[list[bytes]] = []
    engine_gradient = _Engine._gradient

    def iteration(self, chi, eps, fg=None):
        calls.append([])
        return engine_gradient(self, chi, eps, fg)

    monkeypatch.setattr(_Engine, "_gradient", iteration)

    def record(states):
        calls[-1] += [b.tobytes() for b in states.reshape(-1, *states.shape[-2:])]

    def objective(states):
        if states.ndim >= 3 and calls:  # isometry stacks, after start-up
            record(states)
        return base(states)

    def gradient(chi):
        if chi.ndim >= 4:  # line-search rungs; iterates come as (R, m, n)
            record(chi)
        return base.grad(chi)

    objective.grad = gradient
    # within 20 iterations no restart leaves the smoothing stage
    res = solve_roof_custom(rho, objective, restarts=3, max_iters=20, seed=5)
    assert res.restart_iterations == (20,) * 3
    assert len(calls) == 20
    for evaluated in calls:
        assert evaluated
        assert len(set(evaluated)) == len(evaluated)


@pytest.mark.parametrize("dims, spec, rank, max_iters", [
    (DIMS22, E_SPEC, 3, 2000),  # two smoothing stages
    (BipartiteDims(3, 3), S_SPEC, None, 60),  # the eigh gradient
])
def test_engine_evaluates_each_iterate_once(monkeypatch, dims, spec, rank, max_iters):
    # over a whole solve, no gradient call receives a member stack (m, n)
    # already evaluated, and the objective sees only the line search's
    # later rungs (rows, rungs, m, n) and product-polish candidates: a start
    # and a stage advance read the gradient's member values, and a row that
    # takes no step keeps its gradient
    rho = random_density(dims, np.random.default_rng(43), rank)
    base = make_objective(spec, dims)
    graded, evaluated, polished = [], [], set()
    polish = _Engine.product_polish

    def recording_polish(self, v, iters=60):
        out = polish(self, v, iters)
        polished.update(c.tobytes() for c in out @ self.b.T)
        return out

    monkeypatch.setattr(_Engine, "product_polish", recording_polish)

    def objective(states):
        if states.ndim == 3:
            evaluated.extend(c.tobytes() for c in states)
        return base(states)

    def gradient(chi):
        graded.extend(c.tobytes() for c in chi.reshape(-1, *chi.shape[-2:]))
        return base.grad(chi)

    objective.grad = gradient
    stages = MEASURES[spec.kind].smoothing
    engine = _Engine(rho, objective, "minimize", None, 4, max_iters, 1e-9, 3, stages=stages)
    outcomes = engine.run()
    assert len(set(graded)) == len(graded)
    assert set(evaluated) <= polished
    if len(stages) > 1:  # every restart advanced to its last stage
        assert all(o.stop != "budget" for o in outcomes)


@pytest.mark.parametrize("m, r", [(3, 3), (4, 2), (6, 3), (8, 4), (18, 9)])
def test_stacked_starts_are_each_restarts_random_isometry(monkeypatch, m, r):
    # the batch's starts come from one stacked QR, bit for bit the
    # random_isometry of each restart's (seed, k) generator
    dims = DIMS22 if r <= 4 else BipartiteDims(3, 3)
    rho = random_density(dims, np.random.default_rng(r), r)
    for seed in (0, 7, 2**40 + 3):
        retracted = []

        def recording_qr_fix(x):
            out = _qr_fix(x)
            retracted.append(out.copy())  # the descent updates its iterates in place
            return out

        monkeypatch.setattr("entroof.roof._qr_fix", recording_qr_fix)
        engine = _Engine(rho, make_objective(S_SPEC, dims), "minimize", m, 32, 1, 1e-9, seed,
                         stages=(0.0,))
        engine.run()
        want = np.stack([random_isometry(m, r, np.random.default_rng(
            np.random.SeedSequence([seed, k]))) for k in range(32)])
        np.testing.assert_array_equal(retracted[0], want)


def test_rank_of_is_the_engine_rank_on_edge_spectra():
    # an eigenvalue at the RANK_RTOL cutoff, where the rounding of two
    # eigensolvers can put it on either side
    rng = np.random.default_rng(0)
    for _ in range(50):
        rho = edge_rank_density(rng)
        assert rank_of(rho) == _eigen_factor(rho).shape[1]


def test_solve_roof_custom_defaults_are_roof_problem_defaults():
    params = inspect.signature(solve_roof_custom).parameters
    shared = [f for f in dataclasses.fields(RoofProblem)
              if f.name in params and f.default is not dataclasses.MISSING]
    assert {f.name for f in shared} == {
        "direction", "ensemble_size", "restarts", "max_iters", "tol", "seed"}
    for f in shared:
        assert params[f.name].default == f.default, f.name


# --- two-qubit certificate -------------------------------------------------------

def test_sequential_restart_starts_are_the_engines(monkeypatch):
    # the mirror evaluates a start as the engine does, bit for bit: its
    # isometry and its first-stage and raw objectives, which at d = 3 come
    # from the gradient's eigh, not from the objective's eigvalsh
    rng = np.random.default_rng(83)
    starts = []
    totals = _Engine.totals

    def first_totals(self, v, eps=0.0, vals=None):
        out = totals(self, v, eps, vals)
        if not starts:  # the descent updates its iterates in place
            starts.append([x.copy() for x in (v, *out)])
        return out

    monkeypatch.setattr(_Engine, "totals", first_totals)
    for dims, spec in (((3, 3), S_SPEC), ((3, 3), E_SPEC), ((2, 2), E_SPEC), ((2, 4), S_SPEC)):
        rho = random_density(BipartiteDims(*dims), rng)
        engine = _Engine(rho, make_objective(spec, rho.dims), "minimize", None, 16, 1, 1e-9, 3,
                         stages=MEASURES[spec.kind].smoothing)
        starts.clear()
        engine.run()
        v, f, raw = starts[0]
        for k in range(16):
            want_v, want_f, want_raw = sequential_start(engine, k)
            np.testing.assert_array_equal(v[k], want_v)
            assert f[k] == want_f
            assert raw[k] == want_raw


@pytest.mark.parametrize("spec", CERTIFIED_SPECS, ids=spec_id)
def test_lower_bound_certifies_two_qubit_roofs(spec):
    # the bound is the exact roof f(C(rho)): never above an attained value,
    # the entanglement of formation for the entropy; a certified solve
    # converges, and Wootters' decomposition attains the bound
    for rank in (1, 2, 3, 4):
        for seed in range(5):
            rho = random_density(DIMS22, np.random.default_rng([rank, seed]), rank)
            res = solve_roof(RoofProblem(rho=rho, measure=spec, restarts=8, seed=seed))
            assert res.converged
            assert res.lower_bound <= res.value + 1e-12
            assert res.ensemble.reconstruction_error(rho) <= 1e-8
            assert abs(res.value - res.lower_bound) <= 1e-12
            if spec.kind == "entropy":
                eof = entanglement_of_formation(rho, spec.log_base)
                assert abs(res.lower_bound - eof) <= 1e-14


@pytest.mark.parametrize("spec", CERTIFIED_SPECS, ids=spec_id)
def test_two_qubit_roofs_of_separable_states_are_non_negative(spec):
    # Wootters' decomposition of a separable state has exact product
    # members, whose one Schmidt weight can round above 1
    rng = np.random.default_rng(53)
    states = [random_separable_density(DIMS22, rng) for _ in range(10)]
    states += [DensityOperator.from_pure(random_product_state(DIMS22, rng)) for _ in range(10)]
    states.append(DensityOperator(np.eye(4) / 4, DIMS22))
    for rho in states:
        assert solve_roof(RoofProblem(rho=rho, measure=spec)).value >= 0.0


def test_no_lower_bound_without_certificate():
    # beyond two qubits, maximizing, and for measures not convex in the
    # concurrence, nothing certifies a solve
    rng = np.random.default_rng(19)
    opts = dict(restarts=2, max_iters=20)
    solves = [solve_roof(RoofProblem(rho=random_density(BipartiteDims(*dims), rng, 3),
                                     measure=E_SPEC, **opts))
              for dims in ((2, 3), (3, 3), (2, 4))]
    rho = random_density(DIMS22, rng, 3)
    solves.append(concave_roof(RoofProblem(rho=rho, measure=E_SPEC, **opts)))
    for spec in (MeasureSpec("p-number", p=2.5), MeasureSpec("geometric", ranks=(1, 1))):
        solves.append(solve_roof(RoofProblem(rho=rho, measure=spec, **opts)))
    for res in solves:
        assert res.lower_bound is None
        # the engine ran every restart
        assert len(res.objective_trace) == res.restart_iterations[res.best_restart]
        for name in ("restart_values", "restart_iterations", "restart_stops", "restart_rungs"):
            assert len(getattr(res, name)) == opts["restarts"], name


def test_exact_two_qubit_roofs_skip_the_engine(monkeypatch):
    # where Wootters' decomposition fits the ensemble size, a certified
    # solve returns it without a descent: no restart ran, and the bracket
    # is closed
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(roof_module, "_Engine", no_engine)
    rng = np.random.default_rng(29)
    for rank in (1, 2, 3, 4):
        rho = random_density(DIMS22, rng, rank)
        for spec in CERTIFIED_SPECS:
            res = solve_roof(RoofProblem(rho=rho, measure=spec))
            assert res.converged
            assert res.lower_bound == roof_lower_bound(rho, spec)
            assert res.value - res.lower_bound <= 1e-12
            assert res.objective_trace == ()
            assert res.restart_values == res.restart_iterations == res.restart_stops == ()
            assert res.restart_rungs == ()
            assert len(res.ensemble.states) <= _ensemble_size(rank, None)
            assert res.ensemble.reconstruction_error(rho) <= 1e-8


def _rank3_separable() -> DensityOperator:
    """A rank-3 separable two-qubit state, three product states mixed with
    weights (0.5, 0.3, 0.2): Wootters' decomposition has 4 members."""
    rng = np.random.default_rng(37)
    products = [random_product_state(DIMS22, rng).amplitudes for _ in range(3)]
    mix = sum(w * np.outer(psi, psi.conj()) for w, psi in zip((0.5, 0.3, 0.2), products))
    return DensityOperator(mix, DIMS22)


def test_ensemble_size_below_the_decomposition_runs_the_engine():
    # at m = 3 Wootters' decomposition does not fit: the plain engine runs
    # every restart, and the bound stays the bracket's lower end
    rho = _rank3_separable()
    assert rank_of(rho) == 3 and concurrence(rho) == 0.0
    assert len(wootters_isometry(_eigen_factor(rho))) == 4
    restarts = 4
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, ensemble_size=3, restarts=restarts,
                                 seed=2))
    for name in ("restart_values", "restart_iterations", "restart_stops", "restart_rungs"):
        assert len(getattr(res, name)) == restarts, name
    assert "certified" not in res.restart_stops
    assert res.converged
    assert len(res.ensemble.states) <= 3
    assert res.lower_bound == 0.0
    # not within tol: measures._gram2's lo cancels at product members, so
    # every restart_values entry, the engine's Gram-route objective, reads
    # 0.0, while the returned SVD-route value reads 1.1e-9
    assert res.value <= 1e-8
    assert res.ensemble.reconstruction_error(rho) <= 1e-8


def test_certified_gap_is_the_bracket_width(monkeypatch):
    # on the engine route of an entangled two-qubit state the descent
    # reaches the exact roof: the bracket width value - lower_bound is
    # within tol
    monkeypatch.setattr(roof_module, "_exact", lambda *args: None)
    rho = random_density(DIMS22, np.random.default_rng(8), 3)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=5, seed=8))
    assert "certified" not in res.restart_stops
    assert -1e-12 <= res.value - res.lower_bound <= RoofProblem.tol + 1e-12
