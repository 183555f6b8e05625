"""Closed-form roof values the benchmark checks solver output against.

Two-qubit roofs have exact closed forms through the Wootters concurrence C:
the entropy roof (entanglement of formation) is H2((1 + sqrt(1 - C^2)) / 2)
and the entanglement-number roof is C / sqrt(2). The p-number at p = 2 is
the entanglement number, so a sweep row at p = 2 has the same oracle.

For the d x d isotropic state F |phi+><phi+| + (1 - F) (I - |phi+><phi+|) /
(d^2 - 1), Terhal and Vollbrecht (PRL 85, 2625, 2000) give the entropy roof
R(F) = H2(gamma) + (1 - gamma) log2(d - 1) with
gamma = (sqrt(F) + sqrt((d - 1)(1 - F)))^2 / d, exact for F in
[1/d, 4 (d - 1) / d^2].
"""

from __future__ import annotations

import math

import numpy as np

from entroof.measures import entanglement_entropy_pure
from entroof.sampling import random_pure_state
from entroof.states import BipartiteDims, DensityOperator
from entroof.twoqubit import concurrence, entanglement_of_formation

TWO_QUBITS = BipartiteDims(2, 2)


def binary_entropy(x: float) -> float:
    """H2(x) in bits, with H2(0) = H2(1) = 0."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def two_qubit_oracle(rho: DensityOperator, measure: str) -> float:
    """Exact convex-roof value of a two-qubit density operator.

    ``measure`` is ``entropy`` (log base 2), ``e`` or ``p2`` (the p-number
    at p = 2).
    """
    if measure == "entropy":
        return entanglement_of_formation(rho)
    if measure in ("e", "p2"):
        return concurrence(rho) / math.sqrt(2.0)
    raise ValueError(f"no two-qubit oracle for measure {measure!r}")


def isotropic_matrix(d: int, fidelity: float) -> np.ndarray:
    """Isotropic state of fidelity F with the maximally entangled state."""
    phi = np.eye(d, dtype=np.complex128).reshape(d * d) / math.sqrt(d)
    proj = np.outer(phi, phi.conj())
    return fidelity * proj + (1.0 - fidelity) * (np.eye(d * d) - proj) / (d * d - 1)


def isotropic_entropy_roof(fidelity: float, d: int) -> float:
    """Terhal-Vollbrecht R(F); the entropy roof for F <= 4 (d - 1) / d^2.

    Defined on [1/d, 1]: R(1/d) = 0 and R(1) = log2 d.
    """
    if d < 2 or not (1.0 / d - 1e-15 <= fidelity <= 1.0):
        raise ValueError(f"need d >= 2 and F in [1/d, 1], got d = {d}, F = {fidelity}")
    root = math.sqrt(fidelity) + math.sqrt(max((d - 1) * (1.0 - fidelity), 0.0))
    gamma = min(root * root / d, 1.0)
    return binary_entropy(gamma) + (1.0 - gamma) * math.log2(d - 1)


def check_oracles(rng: np.random.Generator, samples: int = 20) -> list[str]:
    """Self-test of the oracles; returns one message per failed check.

    The Wootters entanglement of formation of a pure two-qubit state must
    equal its entanglement entropy, and R must take its known end values.
    """
    problems = []
    for _ in range(samples):
        psi = random_pure_state(TWO_QUBITS, rng)
        eof = entanglement_of_formation(DensityOperator.from_pure(psi))
        err = abs(eof - entanglement_entropy_pure(psi))
        if err > 1e-10:
            problems.append(f"Wootters EoF off the pure-state entropy by {err:.3e}")
    for d in (2, 3, 4):
        low = isotropic_entropy_roof(1.0 / d, d)
        high = isotropic_entropy_roof(1.0, d)
        if abs(low) > 1e-12 or abs(high - math.log2(d)) > 1e-12:
            problems.append(f"isotropic R(1/{d}) = {low!r}, R(1) = {high!r}")
    return problems
