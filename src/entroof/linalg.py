"""Dense complex linear algebra for bipartite state manipulation.

Array-level functions (`trace_out`, `transpose_side`, `apply_local`) take
a raw matrix plus a ``(dim_a, dim_b)`` tuple so callers with changing local
dimensions (the LOCC simulator) can use them directly; the typed wrappers
operate on :class:`DensityOperator` / :class:`PureState`.
"""

from __future__ import annotations

import numpy as np

from .states import (
    RANK_RTOL,
    DensityOperator,
    InvariantViolation,
    PureState,
    SchmidtDecomposition,
)

Side = str  # "A" or "B"


def _check_side(side: Side) -> str:
    s = str(side).upper()
    if s not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return s


def _split_dims(mat: np.ndarray, dims: tuple[int, int]) -> tuple[int, int]:
    da, db = int(dims[0]), int(dims[1])
    if mat.shape != (da * db, da * db):
        raise InvariantViolation(
            "dims-factorization", 0.0,
            f"matrix side {mat.shape} does not factor as ({da}*{db}, {da}*{db})")
    return da, db


def reshape_to_coefficient_matrix(psi: PureState) -> np.ndarray:
    """The dim_a x dim_b matrix C with C[i, j] = amplitude of |x_i>|y_j>.

    Row-major flattening of the result recovers the amplitudes exactly.
    """
    return psi.amplitudes.reshape(psi.dims.dim_a, psi.dims.dim_b)


def trace_out(mat: np.ndarray, dims: tuple[int, int], side: Side) -> np.ndarray:
    """Partial trace over one factor of a (possibly unnormalized) matrix."""
    da, db = _split_dims(mat, dims)
    t = mat.reshape(da, db, da, db)
    if _check_side(side) == "A":
        return np.ascontiguousarray(np.einsum("ijil->jl", t))
    return np.ascontiguousarray(np.einsum("ijkj->ik", t))


def transpose_side(mat: np.ndarray, dims: tuple[int, int], side: Side) -> np.ndarray:
    """Partial transpose on one factor. Involutive and trace-preserving."""
    da, db = _split_dims(mat, dims)
    t = mat.reshape(da, db, da, db)
    if _check_side(side) == "A":
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return np.ascontiguousarray(t.reshape(da * db, da * db))


def partial_trace(rho: DensityOperator, side: Side) -> np.ndarray:
    """Reduced density matrix on the remaining factor (side is traced out)."""
    return trace_out(rho.matrix, rho.dims.as_tuple(), side)


def partial_transpose(rho: DensityOperator, side: Side) -> np.ndarray:
    return transpose_side(rho.matrix, rho.dims.as_tuple(), side)


def apply_local(op: np.ndarray, mat: np.ndarray, dims: tuple[int, int],
                side: Side) -> np.ndarray:
    """(op x I) mat (op x I)^H, or with I x op, acting on one factor only.

    ``op`` may be rectangular (it can change the acting party's dimension);
    ``dims`` are the joint dimensions of ``mat``. The caller guarantees that
    ``op`` acts on the ``side`` factor's dimension.
    """
    da, db = _split_dims(mat, dims)
    out = op.shape[0]
    if _check_side(side) == "A":
        t = (op @ mat.reshape(da, -1)).reshape(out * db, da, db)
        return (op.conj() @ t).reshape(out * db, out * db)
    t = (mat.reshape(-1, db) @ op.conj().T).reshape(da, db, da * out)
    return (op @ t).reshape(da * out, da * out)


def kraus_residual(ops) -> float:
    """Entrywise max |sum_k K_k^H K_k - I|: how far Kraus operators of a
    common shape are from trace preservation."""
    acc = sum(k.conj().T @ k for k in ops)
    return float(np.max(np.abs(acc - np.eye(ops[0].shape[1]))))


def eigh_desc(mat: np.ndarray, herm_atol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises InvariantViolation when the input is not Hermitian within
    ``herm_atol`` (entrywise).
    """
    mat = np.asarray(mat, dtype=np.complex128)
    res = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    if res > herm_atol:
        raise InvariantViolation(
            "hermitian", res, f"matrix deviates from Hermitian by {res:.3e} (> {herm_atol})")
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, the sum of |eigenvalues|."""
    mat = np.asarray(mat, dtype=np.complex128)
    if np.max(np.abs(mat - mat.conj().T)) < 1e-12:
        return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def clip_spectrum(values: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Zero out spectrum entries below rtol * max and clamp tiny negatives."""
    values = np.asarray(values, dtype=float)
    top = float(np.max(values, initial=0.0))
    out = np.where(values < rtol * top, 0.0, values)
    return np.maximum(out, 0.0)


def schmidt(psi: PureState) -> SchmidtDecomposition:
    """Schmidt decomposition via SVD of the coefficient matrix.

    Singular values below the relative rank cutoff are dropped; the kept
    lambdas sum to 1 up to that truncation. Ties keep the SVD output order
    (stable descending), so only basis-invariant quantities are canonical.
    """
    c = reshape_to_coefficient_matrix(psi)
    u, s, vh = np.linalg.svd(c, full_matrices=False)
    keep = s >= RANK_RTOL * s[0]
    s = s[keep]
    return SchmidtDecomposition(
        singular_values=s,
        lambdas=s * s,
        left_basis=u[:, keep],
        right_basis=vh[keep, :].T,  # column k holds beta_k (unconjugated row of vh)
        dims=psi.dims,
    )


def schmidt_lambdas(psi: PureState) -> np.ndarray:
    """Descending squared Schmidt coefficients of a pure state."""
    return schmidt(psi).lambdas
