"""Value types for bipartite quantum states.

All containers here are frozen dataclasses wrapping read-only numpy arrays,
so they are safe to share between threads and to use as optimizer inputs.
Constructors validate the physical invariants and raise
:class:`InvariantViolation` naming the violated invariant and its residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Validation tolerances.
NORM_ATOL = 1e-12          # pure-state normalization
HERMITIAN_ATOL = 1e-12     # entrywise Hermiticity of density operators
TRACE_ATOL = 1e-10         # unit trace of density operators
PSD_ATOL = 1e-10           # eigenvalue floor for density operators
RANK_RTOL = 1e-12          # relative cutoff below which spectra count as zero
KRAUS_ATOL = 1e-10         # entrywise completeness residual of Kraus operators


class InvariantViolation(ValueError):
    """An input violates a declared invariant.

    Carries the invariant's name and the numeric residual so callers (the
    CLI in particular) can produce a precise diagnostic.
    """

    def __init__(self, invariant: str, residual: float, message: str):
        super().__init__(message)
        self.invariant = invariant
        self.residual = float(residual)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_complex_array(data, ndim: int) -> np.ndarray:
    """``data`` as a contiguous complex array of ``ndim`` axes (1: vector,
    2: matrix) with finite entries."""
    a = np.ascontiguousarray(data, dtype=np.complex128)
    if a.ndim != ndim:
        kind = "vector" if ndim == 1 else "matrix"
        raise InvariantViolation("shape", a.ndim, f"expected a {kind}, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise InvariantViolation("finite", np.inf, "entries must be finite (no NaN/Inf)")
    return a


@dataclass(frozen=True)
class BipartiteDims:
    """Dimensions of the two tensor factors (Alice, Bob)."""

    dim_a: int
    dim_b: int

    def __post_init__(self):
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvariantViolation(
                "positive-dims", min(self.dim_a, self.dim_b),
                f"factor dimensions must be >= 1, got ({self.dim_a}, {self.dim_b})")

    @property
    def total(self) -> int:
        return self.dim_a * self.dim_b

    @property
    def d(self) -> int:
        """Schmidt-rank bound min(dim_a, dim_b)."""
        return min(self.dim_a, self.dim_b)

    def as_tuple(self) -> tuple[int, int]:
        return (self.dim_a, self.dim_b)


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector with declared bipartite dimensions.

    The amplitude at flat index ``i*dim_b + j`` is the coefficient of
    ``|x_i>|y_j>`` (row-major convention, rows indexed by the A factor).
    """

    amplitudes: np.ndarray
    dims: BipartiteDims

    def __post_init__(self):
        v = as_complex_array(self.amplitudes, 1)
        if v.size != self.dims.total:
            raise InvariantViolation(
                "length", abs(v.size - self.dims.total),
                f"amplitude count {v.size} != dim_a*dim_b = {self.dims.total}")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > NORM_ATOL:
            raise InvariantViolation(
                "norm", abs(nrm - 1.0),
                f"state norm {nrm!r} deviates from 1 by {abs(nrm - 1.0):.3e} (> {NORM_ATOL})")
        object.__setattr__(self, "amplitudes", _freeze(v))

    def projector(self) -> np.ndarray:
        """Rank-one density matrix |psi><psi|."""
        v = self.amplitudes
        return np.outer(v, v.conj())


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix on a bipartite space."""

    matrix: np.ndarray
    dims: BipartiteDims

    def __post_init__(self):
        m = as_complex_array(self.matrix, 2)
        n = self.dims.total
        if m.shape != (n, n):
            raise InvariantViolation(
                "shape", 0.0, f"matrix shape {m.shape} != ({n}, {n}) from dims")
        herm_res = float(np.max(np.abs(m - m.conj().T)))
        if herm_res > HERMITIAN_ATOL:
            raise InvariantViolation(
                "hermitian", herm_res,
                f"matrix deviates from Hermitian by {herm_res:.3e} (> {HERMITIAN_ATOL})")
        tr = complex(np.trace(m))
        tr_res = abs(tr - 1.0)
        if tr_res > TRACE_ATOL:
            raise InvariantViolation(
                "trace", tr_res, f"trace {tr!r} deviates from 1 by {tr_res:.3e} (> {TRACE_ATOL})")
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if w[0] < -PSD_ATOL:
            raise InvariantViolation(
                "psd", float(-w[0]),
                f"minimum eigenvalue {w[0]:.3e} below -{PSD_ATOL}")
        object.__setattr__(self, "matrix", _freeze(m))

    @classmethod
    def from_pure(cls, psi: PureState) -> "DensityOperator":
        return cls(psi.projector(), psi.dims)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Canonical form sum_i s_i |alpha_i> x |beta_i> of a bipartite pure state.

    ``lambdas`` are the squared singular values (descending, summing to one);
    ``left_basis``/``right_basis`` hold the orthonormal vectors as columns.
    Components below the relative rank cutoff are dropped.
    """

    singular_values: np.ndarray
    lambdas: np.ndarray
    left_basis: np.ndarray
    right_basis: np.ndarray
    dims: BipartiteDims = field(compare=False)

    def __post_init__(self):
        for name in ("singular_values", "lambdas", "left_basis", "right_basis"):
            object.__setattr__(self, name, _freeze(np.asarray(getattr(self, name))))

    @property
    def rank(self) -> int:
        return int(self.singular_values.size)

    def reconstruct(self) -> np.ndarray:
        """Amplitude vector sum_i s_i kron(alpha_i, beta_i)."""
        out = np.zeros(self.dims.total, dtype=np.complex128)
        for s, a, b in zip(self.singular_values, self.left_basis.T, self.right_basis.T):
            out += s * np.kron(a, b)
        return out
