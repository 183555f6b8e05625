import numpy as np
import pytest

from entroof import (
    DensityOperator,
    concurrence,
    ensemble_from_isometry,
    entanglement_entropy_pure,
    entanglement_of_formation,
    measure_value,
)
from entroof.roof import _eigen_factor
from entroof.sampling import (
    random_density,
    random_product_state,
    random_pure_state,
    random_separable_density,
)
from entroof.twoqubit import roof_lower_bound, wootters_isometry

from util import CERTIFIED_SPECS, DIMS22, bell, spec_id

RNG = np.random.default_rng(99)


def test_concurrence_extremes():
    assert abs(concurrence(DensityOperator.from_pure(bell())) - 1.0) < 1e-10
    prod = DensityOperator.from_pure(random_product_state(DIMS22, RNG))
    assert concurrence(prod) < 1e-7
    assert concurrence(np.eye(4) / 4) == 0.0


def test_concurrence_werner_closed_form():
    # p * Bell + (1-p) * I/4 has concurrence max(0, (3p - 1) / 2)
    proj = bell().projector()
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        rho = p * proj + (1 - p) * np.eye(4) / 4
        expect = max(0.0, (3 * p - 1) / 2)
        assert abs(concurrence(rho) - expect) < 1e-10


def test_formation_matches_entropy_on_pure_states():
    for _ in range(50):
        psi = random_pure_state(DIMS22, RNG)
        rho = DensityOperator.from_pure(psi)
        assert abs(entanglement_of_formation(rho) - entanglement_entropy_pure(psi)) < 1e-10


def test_formation_bases():
    rho = DensityOperator.from_pure(bell())
    assert abs(entanglement_of_formation(rho, 2.0) - 1.0) < 1e-10
    assert abs(entanglement_of_formation(rho, np.e) - np.log(2)) < 1e-10


def test_formation_matches_entropy_at_bench_oracle_seed():
    # the pure states of the generator default_rng([7008, 7]), on which the
    # eigenvalue route to the concurrence was off by 1.6e-9
    rng = np.random.default_rng([7008, 7])
    for _ in range(20):
        psi = random_pure_state(DIMS22, rng)
        rho = DensityOperator.from_pure(psi)
        assert abs(entanglement_of_formation(rho) - entanglement_entropy_pure(psi)) <= 1e-10


def test_concurrence_near_product_states():
    # a pure state's concurrence is 2 |ad - bc|; near product states the
    # square roots of rounding-level eigenvalues used to add ~1e-6
    rng = np.random.default_rng(5)
    for scale in (1e-2, 1e-4, 1e-6, 1e-8, 0.0):
        for _ in range(10):
            prod = random_product_state(DIMS22, rng).amplitudes
            psi = prod + scale * random_pure_state(DIMS22, rng).amplitudes
            psi = psi / np.linalg.norm(psi)
            a, b, c, d = psi
            want = 2 * abs(a * d - b * c)
            assert abs(concurrence(np.outer(psi, psi.conj())) - want) <= 1e-13


def _werner(p: float) -> DensityOperator:
    return DensityOperator(p * bell().projector() + (1 - p) * np.eye(4) / 4, DIMS22)


def _decomposition_cases() -> list[DensityOperator]:
    """Random states of ranks 1-4 and separable ones, Werner states (whose
    Takagi values tie) across the separability edge p = 1/3, I/4, a Bell
    state and a pure product state."""
    rng = np.random.default_rng(2026)
    cases = [random_density(DIMS22, rng, rank) for rank in (1, 2, 3, 4) for _ in range(10)]
    cases += [random_separable_density(DIMS22, rng) for _ in range(10)]
    cases += [_werner(p) for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0)]
    cases += [DensityOperator(np.eye(4) / 4, DIMS22), DensityOperator.from_pure(bell()),
              DensityOperator.from_pure(random_product_state(DIMS22, rng))]
    return cases


DECOMPOSITION_CASES = _decomposition_cases()


def test_wootters_members_share_the_concurrence():
    # every member of the decomposition has concurrence C(rho); it has r
    # members when C > 0, and r rounded up to 1, 2 or 4 when C = 0
    for rho in DECOMPOSITION_CASES:
        b = _eigen_factor(rho)
        r, c = b.shape[1], concurrence(rho)
        v = wootters_isometry(b)
        assert len(v) == (r if c > 0 else {1: 1, 2: 2}.get(r, 4))
        ens = ensemble_from_isometry(rho, v)
        assert len(ens.states) <= 4
        assert ens.reconstruction_error(rho) <= 1e-12
        for psi in ens.states:
            assert abs(concurrence(DensityOperator.from_pure(psi)) - c) <= 1e-12


@pytest.mark.parametrize("spec", CERTIFIED_SPECS, ids=spec_id)
def test_wootters_decomposition_attains_the_roof(spec):
    # for a measure convex and non-decreasing in the concurrence, the
    # members' average is the exact roof f(C(rho))
    for rho in DECOMPOSITION_CASES:
        ens = ensemble_from_isometry(rho, wootters_isometry(_eigen_factor(rho)))
        amps = np.array([psi.amplitudes for psi in ens.states])
        value = float(np.dot(ens.weights, measure_value(spec, amps, DIMS22)))
        assert abs(value - roof_lower_bound(rho, spec)) <= 1e-12

