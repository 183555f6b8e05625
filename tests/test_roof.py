import tracemalloc

import numpy as np
import pytest

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
from entroof.linalg import schmidt_lambdas
from entroof.measures import (
    MEASURES,
    MeasureSpec,
    decreasing_counterpart,
    make_gradient,
    make_objective,
)
from entroof.roof import (
    LINE_SEARCH_RUNGS,
    MAX_WORK_ENTRIES,
    WINDOW,
    _channel_output_entropy,
    _eigen_factor,
    _Engine,
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

from util import (
    DIMS22,
    bell,
    eigh_gradient,
    fd_gradient,
    sampling_oracle_roof,
    sequential_restart,
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
    rho = random_density(DIMS22, RNG)
    prob = RoofProblem(rho=rho, measure=E_SPEC, restarts=6, seed=77)
    a = solve_roof(prob)
    b = solve_roof(prob)
    assert a.value == b.value
    assert a.objective_trace == b.objective_trace
    assert a.restart_values == b.restart_values
    for x, y in zip(a.ensemble.states, b.ensemble.states):
        np.testing.assert_array_equal(x.amplitudes, y.amplitudes)


def test_serial_parallel_identical(monkeypatch):
    # restarts descended one per batch come out as in one lockstep batch
    rho = random_density(DIMS22, RNG)
    prob = RoofProblem(rho=rho, measure=S_SPEC, restarts=6, seed=13)
    a = solve_roof(prob)
    run = _Engine.run

    def serial(self):
        self.chunk = 1
        return run(self)

    monkeypatch.setattr(_Engine, "run", serial)
    b = solve_roof(prob)
    assert a.value == b.value
    assert a.objective_trace == b.objective_trace
    assert a.restart_values == b.restart_values
    np.testing.assert_array_equal(a.ensemble.weights, b.ensemble.weights)


@pytest.mark.parametrize("chunk", [None, 2])
def test_result_describes_its_best_restart(monkeypatch, chunk):
    # the trace and stalls of a result belong to its best restart, and every
    # per-restart tuple has one entry per restart, in one lockstep batch and
    # in chunks of two, minimizing and maximizing
    if chunk is not None:
        run = _Engine.run

        def chunked(self):
            self.chunk = chunk
            return run(self)

        monkeypatch.setattr(_Engine, "run", chunked)
    rho = random_density(DIMS22, np.random.default_rng(23), 3)
    for solve in (solve_roof, concave_roof):
        res = solve(RoofProblem(rho=rho, measure=E_SPEC, restarts=5, max_iters=300, seed=4))
        for entries in (res.restart_values, res.restart_iterations, res.restart_stops,
                        res.restart_rungs):
            assert len(entries) == 5
        best = res.best_restart
        assert len(res.objective_trace) == res.restart_iterations[best]
        assert res.objective_trace[-1] == res.restart_values[best]
        assert all(it < res.restart_iterations[best] for it in res.stall_iterations)


def test_trace_monotone():
    rho = random_density(DIMS22, RNG)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=2, seed=9))
    tr = np.array(res.objective_trace)
    assert np.all(np.diff(tr) <= 0)
    res = concave_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=2, seed=9))
    tr = np.array(res.objective_trace)
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
    budget = 2 * max(vm.gap_estimate, v1.gap_estimate, v2.gap_estimate) + 1e-6
    assert vm.value <= t * v1.value + (1 - t) * v2.value + budget


def test_ensemble_size_sufficiency():
    rho = random_density(DIMS22, RNG)
    r = rank_of(rho)
    small = solve_roof(RoofProblem(
        rho=rho, measure=S_SPEC, ensemble_size=r, restarts=8, seed=6))
    large = solve_roof(RoofProblem(
        rho=rho, measure=S_SPEC, ensemble_size=r * r, restarts=8, seed=6))
    assert large.value <= small.value + 1e-6


def test_gap_estimate_is_restart_spread():
    rho = random_density(DIMS22, RNG)
    res = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=5, seed=8))
    finals = sorted(res.restart_values)
    assert abs(res.gap_estimate - (finals[1] - finals[0])) < 1e-15
    single = solve_roof(RoofProblem(rho=rho, measure=E_SPEC, restarts=1, seed=8))
    assert single.gap_estimate == 0.0


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
    with pytest.raises(InvariantViolation):
        channel_entropy(rho, [np.eye(4) / 2])
    with pytest.raises(InvariantViolation):
        channel_entropy(rho, [np.eye(2)])


# --- problem validation ------------------------------------------------------------

def test_problem_validation():
    rho = random_density(DIMS22, RNG)
    objective = make_objective(E_SPEC, DIMS22)
    for bad in ({"direction": "sideways"}, {"restarts": 0}, {"max_iters": 0}, {"tol": 0.0}):
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
    # the default m = r^2 of a full-rank 8x8 state is still admitted
    big = random_density(BipartiteDims(8, 8), rng)
    engine = _Engine(big, make_objective(E_SPEC, big.dims), "minimize", None, 1, 1, 1e-9, 0)
    assert engine.m == 64 * 64


def test_stall_metadata_recorded():
    # a constant objective with a gradient whose tangent part is large and
    # no descent direction: every line search stalls, the nudge fires, and
    # the run still terminates cleanly
    rho = random_density(DIMS22, RNG)

    def constant(s):
        return np.full(s.shape[:-1], 0.25)

    # the 1e3j chi term adds 2e3j V diag(p) to the gradient at every V: a
    # tangent direction (it rotates the phases of V's columns)
    constant.grad = lambda chi: (constant(chi), 0.25 * chi + 1e3j * chi)
    res = solve_roof_custom(rho, constant, restarts=1, seed=0)
    assert res.converged
    assert len(res.stall_iterations) > 0
    assert abs(res.value - 0.25) < 1e-12


def test_restart_stop_reasons():
    # d(|chi|^2 * 0.25)/d chi^* = 0.25 chi, whose tangent component is
    # rounding noise: both stages stop at the rounding floor, long before
    # a WINDOW of iterations could pass
    rho = random_density(DIMS22, RNG)

    def constant(s):
        return np.full(s.shape[:-1], 0.25)

    constant.grad = lambda chi: (constant(chi), 0.25 * chi)
    res = solve_roof_custom(rho, constant, restarts=3, seed=0)
    assert res.restart_stops == ("floor",) * 3
    assert max(res.restart_iterations) < WINDOW
    assert res.converged
    assert abs(res.value - 0.25) < 1e-12
    # "budget" exactly when a restart spends max_iters without converging
    rho = random_density(BipartiteDims(2, 3), np.random.default_rng(2), 4)
    problem = RoofProblem(rho=rho, measure=S_SPEC, restarts=5, max_iters=200, seed=1)
    res = solve_roof(problem)
    engine = _Engine(rho, make_objective(S_SPEC, rho.dims), "minimize", None, 5, 200,
                     problem.tol, 1)
    outcomes = engine.run()
    assert tuple(o.stop for o in outcomes) == res.restart_stops
    assert {"budget", "window"} <= set(res.restart_stops)
    for o in outcomes:
        assert (o.stop == "budget") == (not o.converged)
        assert o.stop != "budget" or o.iterations == problem.max_iters
    assert res.converged == (res.restart_stops[res.best_restart] != "budget")


def test_custom_objective_needs_gradient():
    rho = random_density(DIMS22, RNG)
    with pytest.raises(ValueError, match="objective.grad"):
        solve_roof_custom(rho, lambda s: np.full(s.shape[:-1], 0.25))


def test_solve_roof_reads_gradient_from_spec(monkeypatch):
    # wrapping make_objective in a plain function (as an external tracer
    # does) drops its grad attribute; solve_roof must not depend on it
    import entroof.roof as roof_module

    rho = random_density(DIMS22, RNG)
    problem = RoofProblem(rho=rho, measure=E_SPEC, restarts=2, max_iters=50, seed=3)
    want = solve_roof(problem)
    original = roof_module.make_objective

    def plain(spec, dims):
        objective = original(spec, dims)
        return lambda states: objective(states)

    monkeypatch.setattr(roof_module, "make_objective", plain)
    got = solve_roof(problem)
    assert got.value == want.value
    assert got.restart_values == want.restart_values


def test_restart_depends_only_on_seed_and_index():
    rho = random_density(BipartiteDims(2, 3), np.random.default_rng(47))
    base = dict(rho=rho, measure=S_SPEC, max_iters=60, seed=19)
    four = solve_roof(RoofProblem(restarts=4, **base))
    two = solve_roof(RoofProblem(restarts=2, **base))
    assert two.restart_values == four.restart_values[:2]


def test_batch_composition_cannot_change_a_restart(monkeypatch):
    # a separable input, where the product polish fires and restarts
    # finish at different iterations, and an entangled 2x3 input with a
    # minimal ensemble whose line searches stall at the top-1 ties of the
    # geometric measure: restart k must come out the same whichever
    # restarts share its lockstep batch
    polished = []
    polish = _Engine.product_polish

    def counting_polish(self, v, iters=60):
        polished.append(len(v))
        return polish(self, v, iters)

    monkeypatch.setattr(_Engine, "product_polish", counting_polish)
    separable = random_separable_density(DIMS22, np.random.default_rng(107))
    entangled = random_density(BipartiteDims(2, 3), np.random.default_rng(3), 3)
    cases = [
        dict(rho=separable, measure=E_SPEC, ensemble_size=rank_of(separable), seed=0),
        dict(rho=entangled, measure=MeasureSpec("geometric", ranks=(1, 1)), ensemble_size=3,
             max_iters=200, seed=1),
    ]
    for base in cases:
        five = solve_roof(RoofProblem(restarts=5, **base))
        assert len(set(five.restart_iterations)) > 1
        for k in range(5):
            fewer = solve_roof(RoofProblem(restarts=k + 1, **base))
            assert fewer.restart_values[k] == five.restart_values[k]
            assert fewer.restart_iterations[k] == five.restart_iterations[k]
            assert fewer.restart_rungs[k] == five.restart_rungs[k]
            assert 0 < five.restart_iterations[k] <= RoofProblem(**base).max_iters
        # restarts split over chunks of two come out as in one batch
        problem = RoofProblem(restarts=5, **base)
        engine = _Engine(problem.rho, make_objective(problem.measure, problem.rho.dims),
                         "minimize", problem.ensemble_size, 5, problem.max_iters,
                         problem.tol, problem.seed)
        engine.chunk = 2
        chunked = engine.run()
        assert tuple(o.best_f for o in chunked) == five.restart_values
        assert tuple(o.iterations for o in chunked) == five.restart_iterations
        assert tuple(o.rungs for o in chunked) == five.restart_rungs
    assert polished
    stalled = solve_roof(RoofProblem(restarts=5, **cases[1]))
    assert stalled.stall_iterations


def test_lockstep_batch_matches_sequential_restarts():
    # every restart of the lockstep batch equals, bit for bit, the same
    # restart descended alone one iterate at a time: smoothing stages,
    # Barzilai-Borwein steps, backtracking, stalls, polish, budgets and
    # both stopping rules
    def constant(s):
        return np.full(s.shape[:-1], 0.25)

    constant.grad = lambda chi: (constant(chi), 0.25 * chi)
    rng = np.random.default_rng(71)
    separable = random_separable_density(DIMS22, np.random.default_rng(107))
    mixed = random_density(DIMS22, rng, 3)
    entangled = random_density(BipartiteDims(2, 3), rng, 3)
    cases = [
        (mixed, make_objective(S_SPEC, DIMS22), "minimize", None, 6, 2000),
        (mixed, make_objective(E_SPEC, DIMS22), "maximize", None, 3, 2000),
        (separable, make_objective(E_SPEC, DIMS22), "minimize", rank_of(separable), 4, 2000),
        (entangled, make_objective(S_SPEC, entangled.dims), "minimize", None, 3, 60),
        (mixed, constant, "minimize", None, 2, 2000),
    ]
    stops, stalled = set(), False
    for rho, objective, direction, m, restarts, max_iters in cases:
        engine = _Engine(rho, objective, direction, m, restarts, max_iters, 1e-9, 5)
        for k, got in enumerate(engine.run()):
            want = sequential_restart(engine, k)
            assert got[0] == want[0]
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2:] == want[2:]
            stops.add(got[6])
            stalled |= bool(got[4])
    assert stops == {"floor", "window", "budget"}
    assert stalled


def test_window_reads_the_stage_best(monkeypatch):
    # accepted nonmonotone steps raise the stage objective, once to within
    # tol of its value WINDOW iterations earlier while the stage's best
    # value fell by more than tol over those iterations: the window must
    # not report convergence there
    import entroof.roof as roof_module

    # one unsmoothed stage, so the stage objective is the raw one
    monkeypatch.setattr(roof_module, "SMOOTHING_STAGES", (0.0,))
    rho = random_density(BipartiteDims(2, 3), np.random.default_rng(0), 3)
    base = make_objective(S_SPEC, rho.dims)
    values = []  # values[j]: the stage objective after iteration j - 1

    def gradient(chi):
        f, g = base.grad(chi)
        values.append(float(np.sum(np.sum(np.abs(chi) ** 2, axis=-1) * f)))
        return f, g

    def objective(states):
        return base(states)

    objective.grad = gradient
    res = solve_roof_custom(rho, objective, restarts=1, seed=0)
    tol = RoofProblem.tol
    f = np.array(values)
    low = np.minimum.accumulate(f)
    stalls = set(res.stall_iterations)
    assert [j for j in range(1, f.size) if f[j] > f[j - 1] + tol and j - 1 not in stalls]
    fooled = [j for j in range(WINDOW + 1, f.size)
              if f[j - WINDOW] - f[j] < tol <= low[j - WINDOW] - low[j]]
    assert fooled
    assert res.restart_iterations[0] > fooled[0]


def test_restart_chunk_bounded_before_allocation():
    # the default m = r^2 of a full-rank 8x8 state with 32 restarts: the
    # engine picks its chunk of lockstep restarts without allocating, and
    # the line search's stacked member vectors fit the work limit
    big = random_density(BipartiteDims(8, 8), np.random.default_rng(53))
    objective = make_objective(E_SPEC, big.dims)
    tracemalloc.start()
    try:
        engine = _Engine(big, objective, "minimize", None, 32, 2000, 1e-9, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert engine.m == 64 * 64
    assert 1 <= engine.chunk < 32
    assert LINE_SEARCH_RUNGS * engine.chunk * engine.m * engine.n <= MAX_WORK_ENTRIES
    assert peak < 1_000_000


# --- exact gradient --------------------------------------------------------------

GRAD_DIMS = [DIMS22, BipartiteDims(2, 3), BipartiteDims(3, 2), BipartiteDims(3, 3),
             BipartiteDims(2, 4), BipartiteDims(4, 2)]
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
    kraus = np.stack(random_instrument(dims.total, 3, rng))
    for base in (2.0, np.e):
        _check_against_fd(rho, _channel_output_entropy(kraus, base), chi)


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


def test_smoothing_stage_evaluates_each_iterate_once():
    # an iteration (from one gradient call to the next) passes each
    # isometry's members to the objective at most once: the raw value of
    # an accepted iterate comes from the line-search call that accepted
    # it, not from a second evaluation
    rho = random_density(DIMS22, np.random.default_rng(73), 3)
    base = make_objective(S_SPEC, DIMS22)
    calls: list[list[bytes]] = []
    iterations = []

    def objective(states):
        if states.ndim >= 3 and iterations:  # isometry stacks, after start-up
            calls[-1] += [b.tobytes() for b in states.reshape(-1, *states.shape[-2:])]
        return base(states)

    def gradient(chi):
        iterations.append(len(chi))
        calls.append([])
        return base.grad(chi)

    objective.grad = gradient
    # within WINDOW iterations no restart leaves the smoothing stage
    res = solve_roof_custom(rho, objective, restarts=3, max_iters=WINDOW, seed=5)
    assert res.restart_iterations == (WINDOW,) * 3
    assert len(calls) == WINDOW
    for evaluated in calls:
        assert evaluated
        assert len(set(evaluated)) == len(evaluated)
