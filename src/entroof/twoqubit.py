"""Closed-form two-qubit entanglement quantities.

These serve as independent oracles for the numerical convex-roof optimizer:
the concurrence of a two-qubit density operator has the Wootters spin-flip
closed form, and the entanglement of formation follows from it through the
binary entropy. Nothing here touches the optimizer; the roof solver reads
:func:`roof_lower_bound` to stop once a restart meets it.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import clip_spectrum, eigh_desc
from .measures import MEASURES, MeasureSpec
from .states import DensityOperator

_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def _as_two_qubit_matrix(rho) -> np.ndarray:
    m = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=np.complex128)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 two-qubit density matrix, got shape {m.shape}")
    return m


def concurrence(rho) -> float:
    """Spin-flip concurrence max(0, s1 - s2 - s3 - s4).

    The s are the singular values of B^T (sigma_y x sigma_y) B for the eigen
    factor B of rho (rho = B B^H): the square roots of the eigenvalues of
    rho (sigma_y x sigma_y) rho^* (sigma_y x sigma_y), without the
    sqrt(machine-eps) noise that square roots of that non-Hermitian
    product's rounding-level eigenvalues add near product states.
    """
    w, v = eigh_desc(_as_two_qubit_matrix(rho))
    b = v * np.sqrt(clip_spectrum(w))
    s = np.linalg.svd(b.T @ _SY_SY @ b, compute_uv=False)
    return max(0.0, float(s[0] - s[1] - s[2] - s[3]))


def _binary_entropy(x: float, log_base: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    h = -(x * math.log(x) + (1.0 - x) * math.log(1.0 - x))
    return h / math.log(log_base)


def entanglement_of_formation(rho, log_base: float = 2.0) -> float:
    """Two-qubit entanglement of formation from the concurrence closed form."""
    c = concurrence(rho)
    x = (1.0 + math.sqrt(max(1.0 - c * c, 0.0))) / 2.0
    return _binary_entropy(x, log_base)


def roof_lower_bound(rho, spec: MeasureSpec) -> float | None:
    """The convex roof f(C(rho)) of a measure that declares itself a
    convex, non-decreasing function f of the concurrence C
    (``Measure.convex_in_concurrence``); None for any other measure.

    f(C) is the measure's own ``value`` at the Schmidt spectrum
    (1 - lambda_2, lambda_2) of concurrence C, with
    lambda_2 = C^2 / (2 (1 + sqrt(1 - C^2))), which does not cancel at
    small C.
    """
    if not MEASURES[spec.kind].convex_in_concurrence(spec):
        return None
    c = concurrence(rho)
    low = c * c / (2.0 * (1.0 + math.sqrt(max(1.0 - c * c, 0.0))))
    return float(MEASURES[spec.kind].value(spec, np.array([1.0 - low, low]), 2))
