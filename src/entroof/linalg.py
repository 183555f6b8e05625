"""Dense complex linear algebra for bipartite state manipulation.

Array-level functions (`trace_out`, `transpose_side`, `apply_local`) take
a raw matrix plus a ``(dim_a, dim_b)`` tuple so callers with changing local
dimensions (the LOCC simulator) can use them directly; the typed wrappers
operate on :class:`DensityOperator` / :class:`PureState`.
"""

from __future__ import annotations

import numpy as np

from .states import (
    KRAUS_ATOL,
    RANK_RTOL,
    DensityOperator,
    InvariantViolation,
    PureState,
    SchmidtDecomposition,
)

Side = str  # "A" or "B"

EIGH_HERM_ATOL = 1e-10  # entrywise Hermiticity that eigh_desc accepts


def _check_side(side: Side) -> str:
    s = str(side).upper()
    if s not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return s


def _split_dims(shape: tuple[int, ...], dims: tuple[int, int]) -> tuple[int, int]:
    da, db = int(dims[0]), int(dims[1])
    if shape != (da * db, da * db):
        raise InvariantViolation(
            "dims-factorization", 0.0,
            f"matrix side {shape} does not factor as ({da}*{db}, {da}*{db})")
    return da, db


def reshape_to_coefficient_matrix(psi: PureState) -> np.ndarray:
    """The dim_a x dim_b matrix C with C[i, j] = amplitude of |x_i>|y_j>.

    Row-major flattening of the result recovers the amplitudes exactly.
    """
    return psi.amplitudes.reshape(psi.dims.dim_a, psi.dims.dim_b)


def trace_out(mat: np.ndarray, dims: tuple[int, int], side: Side) -> np.ndarray:
    """Partial trace over one factor of a (possibly unnormalized) matrix."""
    da, db = _split_dims(mat.shape, dims)
    t = mat.reshape(da, db, da, db)
    if _check_side(side) == "A":
        return np.ascontiguousarray(np.einsum("ijil->jl", t))
    return np.ascontiguousarray(np.einsum("ijkj->ik", t))


def transpose_side(mat: np.ndarray, dims: tuple[int, int], side: Side) -> np.ndarray:
    """Partial transpose on one factor. Involutive and trace-preserving."""
    da, db = _split_dims(mat.shape, dims)
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


def apply_local(ops: np.ndarray, mats: np.ndarray, dims: tuple[int, int],
                side: Side) -> np.ndarray:
    """(K x I) M (K x I)^H, or with I x K, acting on one factor only.

    ``ops`` (..., d_out, d) and ``mats`` (..., n, n) are stacks whose
    leading axes broadcast against each other, so one call applies every
    Kraus operator of a node to its state (``ops`` (k, d_out, d), ``mats``
    (n, n)) or pairs whole lists of operators and states; the unstacked
    case is a single operator and matrix. An operator may be rectangular
    (it can change the acting party's dimension); ``dims`` are the joint
    dimensions of ``mats``, and the caller guarantees that ``d`` is the
    ``side`` factor's dimension. Each pair takes the same two matrix
    products whatever the stacking, so results do not depend on it.
    """
    da, db = _split_dims(mats.shape[-2:], dims)
    lead = np.broadcast_shapes(ops.shape[:-2], mats.shape[:-2])
    out = ops.shape[-2]
    if _check_side(side) == "A":
        t = (ops @ mats.reshape(mats.shape[:-2] + (da, -1))).reshape(lead + (out * db, da, db))
        return (ops.conj()[..., None, :, :] @ t).reshape(lead + (out * db, out * db))
    t = mats.reshape(mats.shape[:-2] + (-1, db)) @ ops.conj().swapaxes(-1, -2)
    t = t.reshape(lead + (da, db, da * out))
    return (ops[..., None, :, :] @ t).reshape(lead + (da * out, da * out))


def kraus_shape_issue(ops) -> tuple[str, str, None] | None:
    """("kraus-shape", message, None) unless the operators are matrices of
    one shape."""
    shapes = {k.shape for k in ops}
    if len(shapes) != 1 or any(len(s) != 2 for s in shapes):
        return "kraus-shape", f"inconsistent Kraus shapes {sorted(shapes)}", None
    return None


def completeness_issues(ops: np.ndarray) -> list[tuple[str, str, float] | None]:
    """Completeness of a stack of instruments ``ops`` (n, k, d_out, d): for
    each, None when sum K^H K = I within KRAUS_ATOL entrywise, else
    ("kraus-completeness", message, residual). Overflowing entries give an
    infinite residual without a warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        # summed over k in operator order: np.sum may pair the terms up
        acc = sum((ops.conj().swapaxes(-1, -2) @ ops).swapaxes(0, 1))
        res = np.max(np.abs(acc - np.eye(ops.shape[-1])), axis=(-2, -1))
    return [None if r <= KRAUS_ATOL  # written so that a NaN residual fails too
            else ("kraus-completeness", f"sum K^H K deviates from identity by {r:.3e}", r)
            for r in res.tolist()]


def instrument_issue(ops) -> tuple[str, str, float | None] | None:
    """The first violation of a Kraus instrument as (invariant, message,
    residual), or None: :func:`kraus_shape_issue`, then
    :func:`completeness_issues`. Callers check the input dim."""
    return kraus_shape_issue(ops) or completeness_issues(np.stack(ops)[None])[0]


def eigh_desc(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises InvariantViolation when the input is not Hermitian within
    EIGH_HERM_ATOL (entrywise).
    """
    mat = np.asarray(mat, dtype=np.complex128)
    res = float(np.max(np.abs(mat - mat.conj().T))) if mat.size else 0.0
    if res > EIGH_HERM_ATOL:
        raise InvariantViolation(
            "hermitian", res,
            f"matrix deviates from Hermitian by {res:.3e} (> {EIGH_HERM_ATOL})")
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    return w[::-1].copy(), v[:, ::-1].copy()


def _qr_fix(x: np.ndarray) -> np.ndarray:
    """QR orthonormalization with the R diagonal made real positive, of a
    single matrix or a stack (..., m, r)."""
    q, r = np.linalg.qr(x)
    d = r.diagonal(axis1=-2, axis2=-1)
    mag = np.abs(d)
    nonzero = mag > 0
    ph = np.where(nonzero, d / np.where(nonzero, mag, 1.0), 1.0)
    return q * ph[..., None, :]


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, the sum of |eigenvalues|."""
    mat = np.asarray(mat, dtype=np.complex128)
    if np.max(np.abs(mat - mat.conj().T)) < 1e-12:
        return float(np.sum(np.abs(np.linalg.eigvalsh(mat))))
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def clip_spectrum(values: np.ndarray) -> np.ndarray:
    """Zero out spectrum entries below RANK_RTOL * max and clamp tiny negatives."""
    values = np.asarray(values, dtype=float)
    top = float(np.max(values, initial=0.0))
    out = np.where(values < RANK_RTOL * top, 0.0, values)
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
