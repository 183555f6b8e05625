import numpy as np

from entroof import (
    DensityOperator,
    concurrence,
    entanglement_entropy_pure,
    entanglement_of_formation,
)
from entroof.sampling import random_product_state, random_pure_state

from util import DIMS22, bell

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
