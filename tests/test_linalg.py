import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entroof import (
    BipartiteDims,
    DensityOperator,
    InvariantViolation,
    eigh_desc,
    partial_trace,
    partial_transpose,
    reshape_to_coefficient_matrix,
    schmidt,
    trace_norm,
    trace_out,
    transpose_side,
)
from entroof.linalg import apply_local
from entroof.sampling import ginibre, random_density, random_pure_state

from util import DIMS22, bell, diag_state, product_01


def test_coefficient_matrix_bell():
    c = reshape_to_coefficient_matrix(bell())
    expect = np.array([[1, 0], [0, 1]]) / np.sqrt(2)
    np.testing.assert_allclose(c, expect)


def test_coefficient_matrix_product():
    c = reshape_to_coefficient_matrix(product_01())
    np.testing.assert_array_equal(c, np.array([[0, 1], [0, 0]], dtype=complex))


def test_coefficient_matrix_roundtrip_exact():
    rng = np.random.default_rng(7)
    dims = BipartiteDims(3, 4)
    psi = random_pure_state(dims, rng)
    c = reshape_to_coefficient_matrix(psi)
    np.testing.assert_array_equal(c.reshape(-1), psi.amplitudes)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**31 - 1))
def test_roundtrip_property(da, db, seed):
    rng = np.random.default_rng(seed)
    psi = random_pure_state(BipartiteDims(da, db), rng)
    c = reshape_to_coefficient_matrix(psi)
    assert c.shape == (da, db)
    np.testing.assert_array_equal(c.reshape(-1), psi.amplitudes)


def test_partial_trace_bell():
    rho = DensityOperator.from_pure(bell())
    np.testing.assert_allclose(partial_trace(rho, "A"), np.eye(2) / 2, atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, "B"), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_factorization():
    rng = np.random.default_rng(0)
    sigma = random_density(BipartiteDims(2, 1), rng).matrix
    tau = random_density(BipartiteDims(3, 1), rng).matrix
    joint = np.kron(sigma, tau)
    np.testing.assert_allclose(trace_out(joint, (2, 3), "B"), sigma, atol=1e-13)
    np.testing.assert_allclose(trace_out(joint, (2, 3), "A"), tau, atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    rho = random_density(DIMS22, rng)
    assert abs(np.trace(partial_trace(rho, "A")) - 1) < 1e-12
    assert abs(np.trace(partial_trace(rho, "B")) - 1) < 1e-12


def test_partial_trace_linear():
    rng = np.random.default_rng(2)
    a = ginibre(rng, 6, 6)
    b = ginibre(rng, 6, 6)
    x, y = 0.3 - 0.1j, 1.7 + 0.4j
    lhs = trace_out(x * a + y * b, (2, 3), "A")
    rhs = x * trace_out(a, (2, 3), "A") + y * trace_out(b, (2, 3), "A")
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(InvariantViolation):
        trace_out(np.eye(4), (2, 3), "A")


def test_partial_transpose_diagonal_fixed():
    rho = DensityOperator(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), DIMS22)
    np.testing.assert_array_equal(partial_transpose(rho, "B"), rho.matrix)


def test_partial_transpose_bell_negative_eigenvalue():
    rho = DensityOperator.from_pure(bell())
    pt = partial_transpose(rho, "B")
    w = np.linalg.eigvalsh(pt)
    assert abs(w[0] - (-0.5)) < 1e-12


def test_partial_transpose_involution_exact():
    rng = np.random.default_rng(3)
    rho = random_density(BipartiteDims(2, 3), rng)
    pt = partial_transpose(rho, "B")
    np.testing.assert_array_equal(transpose_side(pt, (2, 3), "B"), rho.matrix)


def test_partial_transpose_trace_and_hermiticity():
    rng = np.random.default_rng(4)
    rho = random_density(BipartiteDims(3, 2), rng)
    for side in ("A", "B"):
        pt = partial_transpose(rho, side)
        assert abs(np.trace(pt) - 1) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


@pytest.mark.parametrize("side", ["A", "B"])
@pytest.mark.parametrize("d_out", [2, 3])
def test_apply_local_matches_kron(side, d_out):
    rng = np.random.default_rng(12)
    dims = (2, 3) if side == "A" else (3, 2)   # the acting factor has dim 2
    k = ginibre(rng, d_out, 2)
    h = ginibre(rng, 6, 6)
    h = h + h.conj().T
    lifted = np.kron(k, np.eye(3)) if side == "A" else np.kron(np.eye(3), k)
    expect = lifted @ h @ lifted.conj().T
    got = apply_local(k, h, dims, side)
    assert got.shape == expect.shape == (3 * d_out, 3 * d_out)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13)


@pytest.mark.parametrize("side", ["A", "B"])
def test_apply_local_stacks_match_single_calls(side):
    # broadcast leading axes: (operators, 1) against (1, states) gives
    # every pair, each bitwise as its own call
    rng = np.random.default_rng(13)
    dims = (2, 3) if side == "A" else (3, 2)
    ops = ginibre(rng, 4, 3, 2)
    mats = ginibre(rng, 5, 6, 6)
    got = apply_local(ops[:, None], mats[None], dims, side)
    assert got.shape == (4, 5, 9, 9)
    for i, k in enumerate(ops):
        for j, h in enumerate(mats):
            assert np.array_equal(got[i, j], apply_local(k, h, dims, side))


def test_schmidt_bell_and_product():
    np.testing.assert_allclose(schmidt(bell()).lambdas, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(schmidt(product_01()).lambdas, [1.0], atol=1e-12)


def test_schmidt_diagonal_coefficients():
    dec = schmidt(diag_state(0.64, 0.36))
    np.testing.assert_allclose(dec.lambdas, [0.64, 0.36], atol=1e-12)
    np.testing.assert_allclose(dec.singular_values, [0.8, 0.6], atol=1e-12)


def test_schmidt_reconstruction_and_reduced_spectrum():
    rng = np.random.default_rng(5)
    for dims in (DIMS22, BipartiteDims(3, 4), BipartiteDims(4, 2)):
        psi = random_pure_state(dims, rng)
        dec = schmidt(psi)
        assert np.linalg.norm(dec.reconstruct() - psi.amplitudes) < 1e-10
        assert abs(dec.lambdas.sum() - 1) < 1e-10
        assert np.all(np.diff(dec.singular_values) <= 1e-15)
        red = partial_trace(DensityOperator.from_pure(psi), "A")
        w = np.sort(np.linalg.eigvalsh(red))[::-1]
        np.testing.assert_allclose(dec.lambdas, w[: dec.rank], atol=1e-10)
        # orthonormal bases
        for basis in (dec.left_basis, dec.right_basis):
            np.testing.assert_allclose(
                basis.conj().T @ basis, np.eye(dec.rank), atol=1e-12)


def test_reduced_spectra_match_between_sides():
    rng = np.random.default_rng(6)
    psi = random_pure_state(BipartiteDims(3, 5), rng)
    rho = DensityOperator.from_pure(psi)
    wa = np.sort(np.linalg.eigvalsh(partial_trace(rho, "B")))[::-1]
    wb = np.sort(np.linalg.eigvalsh(partial_trace(rho, "A")))[::-1]
    np.testing.assert_allclose(wa[:3], wb[:3], atol=1e-9)


def test_eigh_desc():
    w, v = eigh_desc(np.eye(3))
    np.testing.assert_allclose(w, [1, 1, 1])
    w, _ = eigh_desc(np.diag([0.3, 0.7]))
    np.testing.assert_allclose(w, [0.7, 0.3])

    rng = np.random.default_rng(8)
    g = ginibre(rng, 5, 5)
    h = (g + g.conj().T) / 2
    w, v = eigh_desc(h)
    np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-9)
    assert np.all(np.diff(w) <= 0)

    with pytest.raises(InvariantViolation):
        eigh_desc(g)


def test_gram_fourth_moment_identity():
    # Tr(|C|^4) computed from singular values matches the column-Gram sum
    rng = np.random.default_rng(9)
    for _ in range(100):
        rows, cols = rng.integers(1, 9, size=2)
        c = ginibre(rng, rows, cols)
        s = np.linalg.svd(c, compute_uv=False)
        lhs = float(np.sum(s**4))
        gram = c.conj().T @ c
        rhs = float(np.sum(np.abs(gram) ** 2))
        scale = float(np.sum(np.abs(c) ** 2)) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


def test_partial_trace_cyclicity_identity():
    rng = np.random.default_rng(10)
    for _ in range(50):
        da, db = rng.integers(2, 5, size=2)
        rho = random_density(BipartiteDims(int(da), int(db)), rng).matrix
        a = ginibre(rng, int(da), int(da))
        lifted = np.kron(a, np.eye(db))
        lhs = trace_out(lifted @ rho @ lifted.conj().T, (da, db), "A")
        rhs = trace_out(np.kron(a.conj().T @ a, np.eye(db)) @ rho, (da, db), "A")
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_trace_norm_psd_and_general():
    rng = np.random.default_rng(11)
    rho = random_density(DIMS22, rng)
    assert abs(trace_norm(rho.matrix) - 1) < 1e-12
    g = ginibre(rng, 3, 3)
    assert abs(trace_norm(g) - np.sum(np.linalg.svd(g, compute_uv=False))) < 1e-10
