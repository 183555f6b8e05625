"""Seeded random constructors for states, unitaries, and instruments.

Every function takes an explicit numpy Generator so callers own the seed.
"""

from __future__ import annotations

import numpy as np

from .linalg import _qr_fix, partial_transpose
from .states import BipartiteDims, DensityOperator, PureState

NPT_MAX_TRIES = 10_000  # draws random_npt_density makes before it gives up


def ginibre(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_pure_state(dims: BipartiteDims, rng: np.random.Generator) -> PureState:
    v = ginibre(rng, dims.total)
    return PureState(v / np.linalg.norm(v), dims)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary (QR of a Ginibre matrix, phases fixed)."""
    return random_isometry(dim, dim, rng)


def random_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Column-orthonormal rows x cols matrix, rows >= cols."""
    if rows < cols:
        raise ValueError(f"isometry needs rows >= cols, got {rows} < {cols}")
    return _qr_fix(ginibre(rng, rows, cols))


def random_density(
    dims: BipartiteDims, rng: np.random.Generator, rank: int | None = None
) -> DensityOperator:
    """Mixed state G G^dagger / Tr from a Ginibre factor of the given rank."""
    n = dims.total
    g = ginibre(rng, n, rank if rank is not None else n)
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return DensityOperator(m / np.trace(m).real, dims)


def random_product_state(dims: BipartiteDims, rng: np.random.Generator) -> PureState:
    a = ginibre(rng, dims.dim_a)
    b = ginibre(rng, dims.dim_b)
    v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return PureState(v, dims)


def random_separable_density(
    dims: BipartiteDims, rng: np.random.Generator, terms: int = 4
) -> DensityOperator:
    """Explicit mixture of random product pure states with Dirichlet weights."""
    weights = rng.dirichlet(np.ones(terms))
    m = np.zeros((dims.total, dims.total), dtype=np.complex128)
    for w in weights:
        m += w * random_product_state(dims, rng).projector()
    m = (m + m.conj().T) / 2
    return DensityOperator(m / np.trace(m).real, dims)


def random_npt_density(
    dims: BipartiteDims, rng: np.random.Generator, min_negativity: float = 1e-2
) -> DensityOperator:
    """Random state whose partial transpose has an eigenvalue < -min_negativity,
    from at most NPT_MAX_TRIES draws."""
    for _ in range(NPT_MAX_TRIES):
        rho = random_density(dims, rng)
        w = np.linalg.eigvalsh(partial_transpose(rho, "B"))
        if w[0] < -min_negativity:
            return rho
    raise RuntimeError(f"no NPT state below -{min_negativity} found in {NPT_MAX_TRIES} draws")


def random_instrument(
    dim_in: int, outcomes: int, rng: np.random.Generator, dim_out: int | None = None
) -> list[np.ndarray]:
    """Kraus operators K_1..K_outcomes with sum K^dagger K = I.

    Built by QR-orthonormalizing a tall Ginibre block and slicing it into
    per-outcome blocks, so completeness holds by construction.
    """
    dim_out = dim_in if dim_out is None else dim_out
    stacked = random_isometry(outcomes * dim_out, dim_in, rng)
    return [stacked[i * dim_out : (i + 1) * dim_out, :] for i in range(outcomes)]
