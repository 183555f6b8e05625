"""Closed-form two-qubit entanglement quantities.

The concurrence of a two-qubit density operator has the Wootters spin-flip
closed form, and the entanglement of formation follows from it through the
binary entropy; both serve as independent oracles for the numerical
convex-roof optimizer. Wootters' construction (PRL 80, 2245, 1998) also
writes down an optimal decomposition, one whose every member has the
concurrence C(rho) (:func:`wootters_isometry`). The roof solver returns it
where a measure is a convex, non-decreasing function f of the concurrence,
so that it attains the exact roof f(C(rho)) (:func:`roof_lower_bound`).
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import _qr_fix, clip_spectrum, eigh_desc
from .measures import MEASURES, MeasureSpec
from .states import DensityOperator

_SY_SY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))
# Orthogonal Hadamard matrices of orders 1, 2 and 4: every entry squared is
# 1 / order, so each row mixes members into one whose spin-flip value is
# their average
_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_HADAMARD = {1: np.ones((1, 1)), 2: _H2, 4: np.kron(_H2, _H2)}


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


def wootters_isometry(b: np.ndarray) -> np.ndarray:
    """Wootters' optimal decomposition of rho = b b^H, as an isometry V
    (k x r, k <= 4) over its eigen factor b (4 x r, the
    ``roof._eigen_factor``): the members chi = V b^T all have concurrence
    C(rho).

    The members' spin-flip matrix is V tau V^T, tau = b^T (sigma_y x
    sigma_y) b, and member i has concurrence |(V tau V^T)_ii| / |chi_i|^2.
    A Takagi factorization tau = U diag(s) U^T (s descending) comes from
    ``eigh`` of the real embedding [[Re tau, Im tau], [Im tau, -Re tau]]:
    its top r eigenvectors (p, q) give the columns p + i q of U. They are
    orthonormal wherever s > 0, ties included; a QR completes the kernel,
    where ties at s = 0 let ``eigh`` mix a column with i times itself.
    V0 = U^H diagonalizes tau, and C = max(0, s1 - s2 - ... - sr).

    C > 0 (k = r): the phases (1, i, i, ...) turn V0 tau V0^T into
    D = diag(s1, -s2, ..., -sr), and real Givens rotations O zero the
    diagonal of the trace-zero matrix D - C Re(G), G the members' Gram
    matrix (both as computed), so (O D O^T)_ii = C |chi_i|^2.
    C = 0 (k = r rounded up to 1, 2 or 4): phases e^{i t_j} with
    sum_j s_j e^{i t_j} = 0 (s padded with zeros), applied as
    e^{i t_j / 2}, and a Hadamard mix make every (V tau V^T)_ii the average
    of those terms, 0: every member is a product state.
    """
    r = b.shape[1]
    tau = b.T @ _SY_SY @ b
    w, x = np.linalg.eigh(np.block([[tau.real, tau.imag], [tau.imag, -tau.real]]))
    s, x = np.maximum(w[::-1][:r], 0.0), x[:, ::-1][:, :r]
    v0 = _qr_fix(x[:r] + 1j * x[r:]).conj().T
    c = s[0] - s[1:].sum()
    if c > 0.0:
        v0[1:] *= 1j
        y = v0 @ b.T
        return _zero_diagonal((y @ _SY_SY @ y.T).real - c * (y @ y.conj().T).real) @ v0
    k = {1: 1, 2: 2}.get(r, 4)
    v0 = np.vstack([v0, np.zeros((k - r, r))])
    return _HADAMARD[k] @ (np.sqrt(_closing_phases(np.append(s, np.zeros(k - r))))[:, None] * v0)


def _zero_diagonal(m: np.ndarray) -> np.ndarray:
    """Real orthogonal O with O m O^T zero on the diagonal, for a real
    symmetric m of trace zero. Each Givens rotation acts on the largest and
    the smallest diagonal entry not yet zeroed and zeroes the one of smaller
    magnitude, which keeps the rotation angle within 45 degrees."""
    k = len(m)
    o = np.eye(k)
    active = list(range(k))
    while len(active) > 1:
        d = m.diagonal()
        hi, lo = max(active, key=d.__getitem__), min(active, key=d.__getitem__)
        z, other = (hi, lo) if abs(d[hi]) <= abs(d[lo]) else (lo, hi)
        # t = tan(angle) solves m_oo t^2 + 2 m_zo t + m_zz = 0, the root that
        # does not cancel; m_zz and m_oo have opposite signs up to rounding
        a, off = m[z, z], m[z, other]
        root = math.sqrt(max(off * off - a * m[other, other], 0.0))
        den = off + math.copysign(root, off)
        t = -a / den if den else 0.0
        cos = 1.0 / math.sqrt(1.0 + t * t)
        g = np.eye(k)
        g[z, z] = g[other, other] = cos
        g[z, other], g[other, z] = t * cos, -t * cos
        m, o = g @ m @ g.T, g @ o
        active.remove(z)
    return o


def _closing_phases(s: np.ndarray) -> np.ndarray:
    """Unit complex z (k,) with sum(s z) = 0, for s (k,) descending with
    k in (1, 2, 4) and s1 <= s2 + ... + sk (s1 = 0 when k = 1)."""
    if len(s) < 4:
        return np.array([1.0, -1.0][:len(s)], dtype=complex)
    # s1 z1 + s2 z2 = L = -(s3 z3 + s4 z4) for any L both pairs can span
    span = (max(s[0] - s[1], s[2] - s[3]) + s[2] + s[3]) / 2.0
    z1, z2 = _triangle(s[0], s[1], span)
    z3, z4 = _triangle(s[2], s[3], span)
    return np.array([z1, z2, -z3, -z4])


def _triangle(a: float, b: float, c: float) -> tuple[complex, complex]:
    """Unit complex u, v with a u + b v = c, for sides a, b, c >= 0 of a
    triangle, flat ones included. The apex x + i h over the side c comes
    from Heron's formula with its factors grouped as in Kahan's, so a flat
    triangle does not lose the height to cancellation."""
    if c == 0.0:  # then a = b
        return 1.0, -1.0
    x = (c + (a - b) * (a + b) / c) / 2.0
    area2 = (c + (a - b)) * (c - (a - b)) * ((a + b) - c) * ((a + b) + c)
    h = math.sqrt(max(area2, 0.0)) / (2.0 * c)
    p, q = complex(x, h), complex(c - x, -h)
    return (p / abs(p) if p else 1.0), (q / abs(q) if q else 1.0)
