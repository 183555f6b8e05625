import itertools
import math

import numpy as np
import pytest

from entroof import (
    BipartiteDims,
    DensityOperator,
    InvariantViolation,
    PureState,
    concurrence_pure,
    entanglement_entropy_pure,
    entanglement_number_pure,
    geometric_measure_alternating,
    geometric_measure_pure,
    measure_sup,
    measure_value,
    negativity_pure,
    negativity_via_partial_transpose,
    p_number_pure,
    partial_trace,
    purity_deficit,
    schatten_deficit,
    schmidt_lambdas,
    schmidt_power_deficit,
    von_neumann_entropy,
)
from entroof.measures import (
    DERIV_CAP,
    KINK_FLOOR,
    MEASURES,
    MeasureSpec,
    elementary_symmetric,
    gram_spectra,
    make_objective,
    validate_spec_dims,
    value_from_lambdas,
)
from entroof.sampling import random_product_state, random_pure_state, random_unitary
from entroof.states import RANK_RTOL

from util import DIMS22, bell, diag_state, product_01

RNG = np.random.default_rng(2024)

ALL_DIMS = [DIMS22, BipartiteDims(2, 3), BipartiteDims(3, 3), BipartiteDims(4, 3),
            BipartiteDims(4, 4)]


# --- entanglement number -----------------------------------------------------

def test_entanglement_number_canonical():
    assert entanglement_number_pure(product_01()) == 0.0
    assert abs(entanglement_number_pure(bell()) - math.sqrt(0.5)) < 1e-12
    expect = math.sqrt(1 - 0.64**2 - 0.36**2)
    assert abs(entanglement_number_pure(diag_state(0.64, 0.36)) - expect) < 1e-12
    assert abs(expect - 0.678823) < 1e-6


def test_entanglement_number_three_routes():
    for dims in ALL_DIMS:
        for _ in range(20):
            psi = random_pure_state(dims, RNG)
            via_gram = entanglement_number_pure(psi)
            via_schmidt = measure_value(MeasureSpec("entanglement-number"), psi)
            red = partial_trace(DensityOperator.from_pure(psi), "A")
            via_reduced = purity_deficit(red)
            assert abs(via_gram - via_schmidt) < 1e-10
            assert abs(via_gram - via_reduced) < 1e-10


def test_e_and_negativity_near_product_states():
    # 1 - sum(lambda^2) and (sum sqrt(lambda))^2 - 1 cancel to nothing near a
    # product state; the values keep full relative precision there, on
    # spectra and through the SVD route, and their derivatives stay finite
    e_spec, n_spec = MeasureSpec("entanglement-number"), MeasureSpec("negativity")
    for l2 in 10.0 ** -np.arange(4, 25):
        lams = np.array([1.0 - l2, l2])
        e_want, n_want = math.sqrt(2.0 * lams[0] * l2), 2.0 * math.sqrt(lams[0] * l2)
        assert value_from_lambdas(e_spec, lams, DIMS22) == pytest.approx(e_want, rel=1e-14)
        assert value_from_lambdas(n_spec, lams, DIMS22) == pytest.approx(n_want, rel=1e-14)
        psi = diag_state(lams[0], l2)
        assert measure_value(e_spec, psi) == pytest.approx(e_want, rel=1e-12)
        assert measure_value(n_spec, psi) == pytest.approx(n_want, rel=1e-12)
        for spec in (e_spec, n_spec):
            f = value_from_lambdas(spec, lams, DIMS22)
            assert np.all(np.isfinite(MEASURES[spec.kind].deriv(spec, lams, 2, f)))


# --- p-number ----------------------------------------------------------------

def test_p_number_canonical():
    assert p_number_pure(product_01(), 3.7) == 0.0
    assert abs(p_number_pure(bell(), 2.0) - entanglement_number_pure(bell())) < 1e-10
    assert abs(p_number_pure(bell(), 3.0) - 0.75 ** (1 / 3)) < 1e-12
    assert abs(0.75 ** (1 / 3) - 0.908560) < 1e-6


def test_p_number_reduced_route():
    for _ in range(10):
        psi = random_pure_state(BipartiteDims(3, 4), RNG)
        red = partial_trace(DensityOperator.from_pure(psi), "B")
        for p in (1.5, 2.0, 4.2):
            assert abs(p_number_pure(psi, p) - schatten_deficit(red, p)) < 1e-10


def test_p_number_domain():
    for bad in (1.0, 0.3, -2.0):
        with pytest.raises(ValueError):
            p_number_pure(bell(), bad)
        with pytest.raises(ValueError):
            schmidt_power_deficit(bell(), bad)
    # the scalar function's domain is wider than MeasureSpec's p < inf
    assert p_number_pure(bell(), math.inf) == 1.0


def test_p_number_at_infinity():
    # the deficit of a product is 0, and 0 ** (1/inf) must not become 0 ** 0 = 1
    for psi, expect in ((product_01(), 0.0), (bell(), 1.0)):
        red = partial_trace(DensityOperator.from_pure(psi), "B")
        assert p_number_pure(psi, math.inf) == expect
        assert schatten_deficit(red, math.inf) == expect


@pytest.mark.parametrize("bad", [math.nan, 1.0])
@pytest.mark.parametrize("fn", [
    lambda p: schatten_deficit(np.eye(2) / 2, p),
    lambda p: p_number_pure(bell(), p),
    lambda p: schmidt_power_deficit(bell(), p),
], ids=["schatten_deficit", "p_number_pure", "schmidt_power_deficit"])
def test_p_order_rejects_nan_and_one(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


def test_p_ordering_strict():
    for _ in range(30):
        psi = random_pure_state(DIMS22, RNG)
        p = 1.0 + 2.5 * RNG.random()
        q = p + 0.1 + (4.0 - p - 0.1) * RNG.random()
        mp, mq = p_number_pure(psi, p), p_number_pure(psi, q)
        assert 0.0 < mp < mq < 1.0


def test_power_deficit_is_p_number_power():
    for _ in range(20):
        psi = random_pure_state(BipartiteDims(3, 3), RNG)
        p = 1.2 + 3 * RNG.random()
        assert abs(schmidt_power_deficit(psi, p) - p_number_pure(psi, p) ** p) < 1e-12
    assert abs(schmidt_power_deficit(bell(), 2.0) - 0.5) < 1e-12


# --- entropy ------------------------------------------------------------------

def test_entropy_canonical():
    assert entanglement_entropy_pure(product_01()) == 0.0
    assert abs(entanglement_entropy_pure(bell(), 2.0) - 1.0) < 1e-12
    expect = -(0.64 * math.log2(0.64) + 0.36 * math.log2(0.36))
    got = entanglement_entropy_pure(diag_state(0.64, 0.36))
    assert abs(got - expect) < 1e-12
    assert abs(expect - 0.942683) < 1e-6


def test_entropy_side_symmetric_and_bases():
    psi = random_pure_state(BipartiteDims(3, 4), RNG)
    rho = DensityOperator.from_pure(psi)
    s_a = von_neumann_entropy(partial_trace(rho, "A"))
    s_b = von_neumann_entropy(partial_trace(rho, "B"))
    s = entanglement_entropy_pure(psi)
    assert abs(s_a - s_b) < 1e-10
    assert abs(s - s_a) < 1e-10
    nats = entanglement_entropy_pure(psi, math.e)
    assert abs(nats - s * math.log(2)) < 1e-12
    # any base, although MeasureSpec accepts only 2 and e
    assert abs(entanglement_entropy_pure(psi, 10.0) - s * math.log10(2)) < 1e-12


def test_entropy_derivative_of_power_deficit():
    # central difference of (1 - sum lambda^p) at p = 1 recovers the
    # natural-log entropy; the log-derivative form diverges instead
    h = 1e-4
    for _ in range(10):
        psi = random_pure_state(DIMS22, RNG)
        lams = schmidt_lambdas(psi)
        nu = lambda p: 1.0 - float(np.sum(lams**p))  # noqa: E731
        diff = (nu(1 + h) - nu(1 - h)) / (2 * h)
        s_nat = entanglement_entropy_pure(psi, math.e)
        assert abs(diff - s_nat) < 1e-4


# --- negativity ---------------------------------------------------------------

def test_negativity_canonical():
    assert negativity_pure(product_01()) == 0.0
    assert abs(negativity_pure(bell()) - 1.0) < 1e-10
    assert abs(negativity_pure(diag_state(0.64, 0.36)) - 0.96) < 1e-12


def test_negativity_routes_agree():
    for dims in ALL_DIMS:
        for _ in range(10):
            psi = random_pure_state(dims, RNG)
            a = negativity_pure(psi)
            b = negativity_via_partial_transpose(psi)
            assert abs(a - b) < 1e-10


def test_negativity_degenerate_dimension():
    psi = PureState(np.array([1.0, 0.0], dtype=complex), BipartiteDims(1, 2))
    with pytest.raises(InvariantViolation):
        negativity_pure(psi)


# --- concurrence family ---------------------------------------------------------

def test_elementary_symmetric_against_bruteforce():
    lams = RNG.random(6)
    for k in range(1, 7):
        brute = sum(
            math.prod(c) for c in itertools.combinations(lams, k))
        assert abs(elementary_symmetric(lams, k) - brute) < 1e-12 * max(brute, 1)


def test_concurrence_canonical():
    psi = random_pure_state(BipartiteDims(3, 3), RNG)
    assert abs(concurrence_pure(psi, 1) - 1.0) < 1e-12
    assert abs(concurrence_pure(bell(), 2) - 1.0) < 1e-10
    assert abs(concurrence_pure(diag_state(0.64, 0.36), 2) - 0.96) < 1e-12
    assert concurrence_pure(product_01(), 2) == 0.0


def test_concurrence_k_range():
    with pytest.raises(ValueError):
        concurrence_pure(bell(), 3)
    with pytest.raises(ValueError):
        concurrence_pure(bell(), 0)


# --- geometric measure ----------------------------------------------------------

def test_geometric_full_ranks_is_one():
    psi = random_pure_state(DIMS22, RNG)
    assert abs(geometric_measure_pure(psi, (2, 2)) - 1.0) < 1e-12


def test_geometric_canonical():
    assert abs(geometric_measure_pure(bell(), (1, 1)) - 0.5) < 1e-12
    assert abs(geometric_measure_alternating(bell(), (1, 1)) - 0.5) < 1e-8
    st = diag_state(0.64, 0.36)
    assert abs(geometric_measure_pure(st, (1, 1)) - 0.64) < 1e-12
    assert abs(geometric_measure_alternating(st, (1, 1)) - 0.64) < 1e-8


def test_geometric_alternating_matches_closed_route():
    for dims in (DIMS22, BipartiteDims(3, 3)):
        for _ in range(5):
            psi = random_pure_state(dims, RNG)
            for k in range(1, dims.d + 1):
                closed = geometric_measure_pure(psi, (k, k))
                alt = geometric_measure_alternating(psi, (k, k))
                assert abs(closed - alt) < 1e-8


def test_geometric_unequal_ranks_bounds():
    # lower bound from feasible projectors, never exceeding the top
    # min(k1,k2) Schmidt weights
    for _ in range(5):
        psi = random_pure_state(BipartiteDims(3, 4), RNG)
        lams = schmidt_lambdas(psi)
        val = geometric_measure_pure(psi, (1, 3))
        assert val <= float(lams[0]) + 1e-9
        assert val >= float(lams[0]) - 1e-7


def test_geometric_rank_errors():
    with pytest.raises(ValueError):
        geometric_measure_pure(bell(), (0, 1))
    with pytest.raises(ValueError):
        geometric_measure_pure(bell(), (1, 3))


# --- shared properties -----------------------------------------------------------

# one sample value per MeasureSpec parameter field; a kind that needs a new
# field fails here until it gets one
PARAM_SAMPLES = {
    None: lambda dims: {},
    "p": lambda dims: {"p": 2.5},
    "k": lambda dims: {"k": min(2, dims.d)},
    "ranks": lambda dims: {"ranks": (1, 1)},
}


def _all_specs(dims):
    """One spec per MEASURES kind, plus the natural-log entropy."""
    specs = [MeasureSpec(kind, **PARAM_SAMPLES[m.param](dims)) for kind, m in MEASURES.items()]
    specs.append(MeasureSpec("entropy", log_base=math.e))
    for spec in specs:
        validate_spec_dims(spec, dims)
    return specs


def test_local_unitary_invariance():
    for dims in (DIMS22, BipartiteDims(3, 3)):
        for _ in range(5):
            psi = random_pure_state(dims, RNG)
            u = random_unitary(dims.dim_a, RNG)
            v = random_unitary(dims.dim_b, RNG)
            rotated = PureState(np.kron(u, v) @ psi.amplitudes, dims)
            for spec in _all_specs(dims):
                a = measure_value(spec, psi)
                b = measure_value(spec, rotated)
                assert abs(a - b) < 1e-9, spec.kind


def test_ranges():
    for dims in ALL_DIMS:
        for _ in range(10):
            psi = random_pure_state(dims, RNG)
            for spec in _all_specs(dims):
                val = measure_value(spec, psi)
                assert -1e-12 <= val <= measure_sup(spec, dims) + 1e-12, spec


def test_measure_sup_attained_by_maximally_entangled():
    for dims in (DIMS22, BipartiteDims(3, 3)):
        d = dims.d
        amp = np.zeros(dims.total, dtype=complex)
        for i in range(d):
            amp[i * dims.dim_b + i] = 1 / math.sqrt(d)
        maxent = PureState(amp, dims)
        for spec in _all_specs(dims):
            sup = measure_sup(spec, dims)
            val = measure_value(spec, maxent)
            if spec.kind == "geometric":
                assert val <= sup + 1e-12
            else:
                assert abs(val - sup) < 1e-10, spec.kind
    # product states attain the geometric sup
    prod = random_product_state(DIMS22, RNG)
    assert abs(geometric_measure_pure(prod, (1, 1)) - 1.0) < 1e-8


def test_faithfulness_on_pure_states():
    # fractional powers amplify machine noise near zero: e of a product
    # state built in floating point is sqrt(O(eps)) ~ 1e-8, and the
    # p-number raises the noise to the 1/p
    assert entanglement_number_pure(product_01()) == 0.0
    rng = np.random.default_rng(4242)
    for dims in (DIMS22, BipartiteDims(3, 4)):
        for _ in range(5):
            prod = random_product_state(dims, rng)
            ent = random_pure_state(dims, rng)  # Haar states are entangled a.s.
            for spec in _all_specs(dims):
                if spec.kind == "geometric":
                    continue
                assert measure_value(spec, prod) < 2e-6
                assert measure_value(spec, ent) > 1e-4


def test_stacked_measure_value_matches_one_state_calls():
    # rows of every kept Schmidt rank, unequal geometric ranks included
    rng = np.random.default_rng(77)
    for dims in (DIMS22, BipartiteDims(2, 3), BipartiteDims(3, 3)):
        rows = [random_pure_state(dims, rng) for _ in range(4)]
        rows += [random_product_state(dims, rng) for _ in range(2)]
        if dims.d == 3:
            rows.append(PureState(np.kron([1, 0, 1], [0, 1, 1]) / 2 + 0j, dims))  # rank 1
            amp = np.zeros(dims.total, dtype=complex)
            amp[[0, dims.dim_b + 1]] = [0.6, 0.8]  # Schmidt rank 2 of 3
            rows.append(PureState(amp, dims))
        stack = np.stack([psi.amplitudes for psi in rows])
        specs = _all_specs(dims) + [MeasureSpec("geometric", ranks=(1, 2))]
        for spec in specs:
            got = measure_value(spec, stack.reshape(2, -1, dims.total), dims)
            want = np.array([measure_value(spec, psi) for psi in rows])
            assert got.shape == (2, len(rows) // 2)
            assert np.array_equal(got.ravel(), want), spec


def test_measure_value_drops_schmidt_values_below_rank_rtol():
    # a Schmidt value below RANK_RTOL times the largest counts as zero: the
    # row's value is, bitwise, that of its spectrum with the value dropped
    rng = np.random.default_rng(83)
    for dims in (BipartiteDims(3, 3), BipartiteDims(4, 3), BipartiteDims(4, 4)):
        d = dims.d
        specs = [MeasureSpec("entropy"), MeasureSpec("entropy", log_base=math.e),
                 MeasureSpec("entanglement-number"), MeasureSpec("negativity")]
        specs += [MeasureSpec("p-number", p=p) for p in (1.5, 2.0, 3.0, 10.0, 50.0)]
        specs += [MeasureSpec("concurrence", k=k) for k in range(1, d + 1)]
        specs += [MeasureSpec("geometric", ranks=(k, k)) for k in range(1, d + 1)]
        for tiny in (1e-26, 1e-30):
            lams = np.append(rng.random(d - 1) + 0.5, tiny)
            lams /= lams.sum()
            u = random_unitary(dims.dim_a, rng)[:, :d]
            v = random_unitary(dims.dim_b, rng)[:, :d]
            psi = ((u * np.sqrt(lams)) @ v.T).reshape(1, -1)
            # the singular values measure_value computes
            s = np.linalg.svd(psi.reshape(-1, dims.dim_a, dims.dim_b), full_matrices=False)[1]
            assert s[0, -1] < RANK_RTOL * s[0, 0] <= s[0, -2]
            kept = s[:, :-1] * s[:, :-1]
            for spec in specs:
                want = value_from_lambdas(spec, kept, dims)
                assert measure_value(spec, psi, dims).tobytes() == want.tobytes(), spec


def test_p_number_derivative_capped_finite():
    # F' = -lambda^(p-1) F^(1-p) with F floored at KINK_FLOOR reaches 1e24
    # at a product spectrum for p = 3, 1e300 at p = 26 and overflows from
    # p = 27 on; its magnitude is capped at DERIV_CAP, and at p <= 3 the
    # formula is the floored one, bitwise
    lams = np.array([[1.0, 0.0], [0.5, 0.5]])
    deriv = MEASURES["p-number"].deriv
    for p in (3.0, 26.0, 27.0, 300.0):
        spec = MeasureSpec("p-number", p=p)
        f = value_from_lambdas(spec, lams, DIMS22)
        got = deriv(spec, lams, 2, f)
        assert np.all(np.isfinite(got)), (p, got)
        assert np.max(np.abs(got)) <= DERIV_CAP * (1 + 1e-12)
        assert got[0, 1] == 0.0
        # (0.5, 0.5) is far from the cap: F' there is the plain formula
        assert np.array_equal(got[1], -lams[1] ** (p - 1) * f[1] ** (1 - p))
        if p == 3.0:
            assert got[0, 0] == -DERIV_CAP
            floored = np.maximum(f, KINK_FLOOR)
            assert np.array_equal(got, -lams ** (p - 1) * (floored ** (1 - p))[:, None])
        else:
            assert got[0, 0] == pytest.approx(-DERIV_CAP, rel=1e-12)


def test_gram_spectra_matches_svd():
    for dims in ALL_DIMS:
        states = np.stack(
            [random_pure_state(dims, RNG).amplitudes for _ in range(8)])
        lams = gram_spectra(states, dims)
        for row, psi in zip(lams, states):
            s = np.linalg.svd(psi.reshape(dims.dim_a, dims.dim_b), compute_uv=False)
            np.testing.assert_allclose(row, (s * s)[: dims.d], atol=1e-12)


def test_make_objective_scale_invariance():
    spec = MeasureSpec("entanglement-number")
    obj = make_objective(spec, DIMS22)
    psi = random_pure_state(DIMS22, RNG).amplitudes
    assert abs(obj(psi[None])[0] - obj(3.7 * psi[None])[0]) < 1e-12


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec("unknown")
    with pytest.raises(ValueError):
        MeasureSpec("entanglement-number", p=2.0)
    with pytest.raises(ValueError):
        MeasureSpec("p-number")
    with pytest.raises(ValueError):
        MeasureSpec("p-number", p=1.0)
    with pytest.raises(ValueError):
        MeasureSpec("concurrence")
    with pytest.raises(ValueError):
        MeasureSpec("geometric", ranks=(1,))
    with pytest.raises(ValueError):
        MeasureSpec("entropy", log_base=10.0)


def _convex_nondecreasing_in_concurrence(spec: MeasureSpec) -> bool:
    """Whether a measure's two-qubit value f(C), on a 20 001-point grid of the
    concurrence C in [0, 1], is non-decreasing with second differences of at
    least -1e-10 (rounding; a concave stretch reads far below)."""
    c = np.linspace(0.0, 1.0, 20_001)
    low = c * c / (2.0 * (1.0 + np.sqrt(1.0 - c * c)))
    f = MEASURES[spec.kind].value(spec, np.stack([1.0 - low, low], axis=-1), 2)
    return bool(np.all(np.diff(f) >= 0.0) and np.all(np.diff(f, 2) >= -1e-10))


def test_convex_in_concurrence_declarations_hold_on_a_grid():
    # every spec that declares Measure.convex_in_concurrence, which certifies
    # its two-qubit roofs, passes the grid check; the p-number at p > 2
    # grows as C^(2/p) near zero and the geometric measure falls, so they
    # fail it, and they must not declare it
    specs = [MeasureSpec("entanglement-number"), MeasureSpec("entropy"),
             MeasureSpec("entropy", log_base=math.e), MeasureSpec("negativity"),
             MeasureSpec("concurrence", k=1), MeasureSpec("concurrence", k=2),
             MeasureSpec("geometric", ranks=(1, 1))]
    specs += [MeasureSpec("p-number", p=p) for p in (1.01, 1.5, 2.0, 2.5, 3.0, 5.0)]
    declared = [s for s in specs if MEASURES[s.kind].convex_in_concurrence(s)]
    assert {s.kind for s in declared} == set(MEASURES) - {"geometric"}
    assert [s.p for s in declared if s.kind == "p-number"] == [1.01, 1.5, 2.0]
    for spec in declared:
        assert _convex_nondecreasing_in_concurrence(spec), spec
    for spec in (MeasureSpec("p-number", p=2.5), MeasureSpec("p-number", p=3.0)):
        assert not _convex_nondecreasing_in_concurrence(spec)
