"""Pure-state bipartite entanglement measures.

Every built-in measure is a spectral function of the Schmidt spectrum,
defined once by its entry in :data:`MEASURES` together with its derivative.
Pure-state evaluation, the roof objective, its exact gradient and the CLI
all read that table, so a new measure is one table entry. Independent
routes (Gram matrix, reduced density operator, partial transpose,
alternating maximization) stay so tests can cross-validate them. The
spectral functions are vectorized over leading axes; the convex-roof
optimizer evaluates ensembles through them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .linalg import (
    clip_spectrum,
    partial_transpose,
    reshape_to_coefficient_matrix,
    schmidt_lambdas,
    trace_norm,
)
from .sampling import random_isometry
from .states import RANK_RTOL, BipartiteDims, DensityOperator, InvariantViolation, PureState

ENTANGLEMENT_NUMBER = "entanglement-number"
P_NUMBER = "p-number"
ENTROPY = "entropy"
NEGATIVITY = "negativity"
CONCURRENCE = "concurrence"
GEOMETRIC = "geometric"

# Smoothing homotopy of the roof solver (entroof.roof): a stage eps > 0
# descends sqrt(mu^2 + eps^2) - eps, which is smooth at mu = 0 and
# indistinguishable from mu for mu >> eps, and the last stage descends the
# raw objective. Faithful measures with a conic kink at their zeros need
# the warmup stage: descending the raw objective parks ensemble members on
# cone apexes and stalls.
SMOOTHING_STAGES = (1e-3, 0.0)


@dataclass(frozen=True)
class MeasureSpec:
    """Selector for a measure and its parameters.

    Parameters must be present exactly when the kind requires them (see the
    ``param`` of its :data:`MEASURES` entry): ``p`` (> 1) for the p-number,
    ``k`` for the concurrence family, ``ranks`` for the geometric measure.
    ``log_base`` (2 or e) is read by the entropy.
    """

    kind: str
    p: float | None = None
    k: int | None = None
    ranks: tuple[int, int] | None = None
    log_base: float = 2.0

    def __post_init__(self):
        if self.kind not in MEASURES:
            raise ValueError(f"unknown measure kind {self.kind!r}; expected one of {KINDS}")
        required = MEASURES[self.kind].param
        given = [name for name in ("p", "k", "ranks") if getattr(self, name) is not None]
        if given != ([required] if required else []):
            raise ValueError(f"measure {self.kind!r} takes parameter {required or 'none'}, "
                             f"got {', '.join(given) or 'none'}")
        if self.p is not None and not (1.0 < self.p < math.inf):
            raise ValueError(f"p must lie in (1, inf), got {self.p}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.ranks is not None:
            ranks = tuple(int(r) for r in self.ranks)
            if len(ranks) != 2 or min(ranks) < 1:
                raise ValueError(f"ranks must be two positive integers, got {self.ranks}")
            object.__setattr__(self, "ranks", ranks)
        if self.log_base not in (2.0, math.e):
            raise ValueError(f"log_base must be 2 or e, got {self.log_base}")


def _unchecked_spec(kind: str, **params) -> MeasureSpec:
    """A MeasureSpec that skips the field range checks, for the scalar
    functions whose domain is wider than a roof problem's (p = inf, any
    logarithm base)."""
    spec = object.__new__(MeasureSpec)
    spec.__dict__.update({"kind": kind, "p": None, "k": None, "ranks": None, "log_base": 2.0,
                          **params})
    return spec


def validate_spec_dims(spec: MeasureSpec, dims: BipartiteDims) -> None:
    """Check parameter ranges that depend on the state's dimensions."""
    MEASURES[spec.kind].check_dims(spec, dims)


# ---------------------------------------------------------------------------
# spectra of coefficient matrices, vectorized over leading axes


def _gram2(c: np.ndarray, da: int, db: int):
    """d = 2 Gram matrix of c (..., da, db): the rows x, y of C (columns if da > db),
    g00 = |x|^2, g11 = |y|^2, g01 = <y, x>, and eigenvalues hi >= lo >= 0."""
    x, y = (c[..., 0, :], c[..., 1, :]) if da <= db else (c[..., :, 0], c[..., :, 1])
    g00 = (np.abs(x) ** 2).sum(axis=-1)
    g11 = (np.abs(y) ** 2).sum(axis=-1)
    # a named conjugate fixes the operand order: numpy may evaluate
    # x * <large temporary> in place as temporary * x, and complex
    # products are not bitwise commutative, so results would depend on
    # the stack size
    y_conj = y.conj()
    g01 = (x * y_conj).sum(axis=-1)
    tr = g00 + g11
    det = g00 * g11 - np.abs(g01) ** 2
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    hi = np.maximum((tr + disc) / 2.0, 0.0)
    lo = np.maximum((tr - disc) / 2.0, 0.0)
    return x, y, g00, g11, g01, hi, lo


def gram_spectra(states: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Descending eigenvalues of C C^dagger for a stack of state vectors.

    ``states`` has shape (..., dim_a*dim_b); the result has shape (..., d)
    with d = min(dim_a, dim_b). For normalized inputs the rows sum to one
    (these are the squared Schmidt coefficients). Dimension-2 spectra come
    in closed form from :func:`_gram2`, as in the d = 2 gradient.
    """
    da, db = dims.dim_a, dims.dim_b
    c = states.reshape(states.shape[:-1] + (da, db))
    d = min(da, db)
    if d == 1:
        w = np.sum(np.abs(states) ** 2, axis=-1)
        return w[..., None]
    if d == 2:
        return np.stack(_gram2(c, da, db)[5:], axis=-1)
    if da <= db:
        g = np.einsum("...ik,...jk->...ij", c, c.conj())
    else:
        g = np.einsum("...ki,...kj->...ij", c.conj(), c)
    w = np.linalg.eigvalsh(g)
    return np.maximum(w[..., ::-1], 0.0)


def _xlog(x: np.ndarray, log_base: float) -> np.ndarray:
    """x*log(x) with the 0*log(0) = 0 convention."""
    out = np.zeros_like(x)
    mask = x > 0.0
    np.log(x, where=mask, out=out)
    if log_base != math.e:
        out /= math.log(log_base)
    return x * out


def elementary_symmetric(lams: np.ndarray, k: int) -> np.ndarray:
    """k-th elementary symmetric polynomial along the last axis."""
    d = lams.shape[-1]
    e = np.zeros(lams.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for idx in range(d):
        x = lams[..., idx]
        for j in range(min(idx + 1, k), 0, -1):
            e[..., j] += x * e[..., j - 1]
    return e[..., k]


# Derivatives F'(spec, lams, d, f) = dF/dlambda_i, given f = F(spec, lams, d)
# so that no derivative recomputes its measure. Where F' diverges, at a
# vanishing Schmidt value or at a zero of F, that quantity is clamped at
# KINK_FLOOR, so the roof gradient stays finite at product states and at
# rank-deficient spectra. The p-number's F' = -lambda^(p-1) F^(1-p) then
# still grows as KINK_FLOOR^(1-p), past the float range from p = 27 on;
# its magnitude is capped at DERIV_CAP, the 1e24 it reaches at p = 3.
KINK_FLOOR = 1e-12
DERIV_CAP = 1e24


def _entropy(spec: MeasureSpec, lams: np.ndarray, d: int) -> np.ndarray:
    return -_xlog(lams, spec.log_base).sum(axis=-1)


def _entropy_deriv(spec: MeasureSpec, lams: np.ndarray, d: int, f: np.ndarray) -> np.ndarray:
    return -(np.log(np.maximum(lams, KINK_FLOOR)) + 1.0) / math.log(spec.log_base)


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """2 sum_{i<j} x_i x_j along the last axis, for descending x >= 0.

    Each x_i multiplies the sum of the smaller entries after it, which is
    accumulated from the smallest up, so no subtraction cancels: with
    sum(x) = 1 this is 1 - sum(x^2) to full relative precision even near
    a product state, where that difference loses every digit.
    """
    if x.shape[-1] == 2:  # the same product, without the accumulation calls
        return 2.0 * (x[..., 0] * x[..., 1])
    tail = np.cumsum(x[..., :0:-1], axis=-1)[..., ::-1]  # sum_{j>i} x_j, i < r - 1
    return 2.0 * np.sum(x[..., :-1] * tail, axis=-1)


def _e(spec: MeasureSpec, lams: np.ndarray, d: int) -> np.ndarray:
    # 1 - sum(lams^2) = 2 sum_{i<j} lams_i lams_j
    return np.sqrt(_pair_sum(lams))


def _e_deriv(spec: MeasureSpec, lams: np.ndarray, d: int, f: np.ndarray) -> np.ndarray:
    return -lams / np.maximum(f, KINK_FLOOR)[..., None]


def _p_number(spec: MeasureSpec, lams: np.ndarray, d: int) -> np.ndarray:
    deficit = np.maximum(1.0 - np.sum(lams ** spec.p, axis=-1), 0.0)
    # explicit zero: at p = inf, 0 ** (1/p) would be 0 ** 0 = 1
    return np.where(deficit == 0.0, 0.0, deficit ** (1.0 / spec.p))


def _p_number_deriv(spec: MeasureSpec, lams: np.ndarray, d: int, f: np.ndarray) -> np.ndarray:
    # lambda <= 1, so |F'| <= F^(1-p), which the floor DERIV_CAP^(-1/(p-1))
    # keeps at DERIV_CAP (up to rounding); the floor is KINK_FLOOR at p = 3
    # and lies below it for p < 3
    f = np.maximum(f, max(KINK_FLOOR, DERIV_CAP ** (-1.0 / (spec.p - 1.0))))
    return -lams ** (spec.p - 1.0) * (f ** (1.0 - spec.p))[..., None]


def _negativity(spec: MeasureSpec, lams: np.ndarray, d: int) -> np.ndarray:
    # s^2 - 1 = 2 sum_{i<j} sqrt(lams_i lams_j) for s = sum(sqrt(lams))
    return _pair_sum(np.sqrt(np.maximum(lams, 0.0))) / (d - 1)


def _negativity_deriv(spec: MeasureSpec, lams: np.ndarray, d: int,
                      f: np.ndarray) -> np.ndarray:
    s = np.sum(np.sqrt(np.maximum(lams, 0.0)), axis=-1, keepdims=True)
    return s / np.sqrt(np.maximum(lams, KINK_FLOOR)) / (d - 1)


def _concurrence(spec: MeasureSpec, lams: np.ndarray, d: int) -> np.ndarray:
    k = spec.k
    if lams.shape[-1] < d:
        pad = np.zeros(lams.shape[:-1] + (d - lams.shape[-1],))
        lams = np.concatenate([lams, pad], axis=-1)
    norm = math.comb(d, k) / d**k
    ratio = np.maximum(elementary_symmetric(lams, k), 0.0) / norm
    return ratio ** (1.0 / k)


def _concurrence_deriv(spec: MeasureSpec, lams: np.ndarray, d: int,
                       f: np.ndarray) -> np.ndarray:
    # de_k/dlambda_i is e_{k-1} of the spectrum with lambda_i left out
    k = spec.k
    r = lams.shape[-1]
    norm = math.comb(d, k) / d**k
    without = elementary_symmetric(lams[..., None, :] * (1.0 - np.eye(r)), k - 1)
    f = np.maximum(f, KINK_FLOOR)
    return (f ** (1.0 - k))[..., None] * without / (k * norm)


def _geometric(spec: MeasureSpec, lams: np.ndarray, d: int) -> np.ndarray:
    k1, k2 = spec.ranks
    if k1 != k2:
        raise ValueError(
            "the Schmidt-spectrum route applies to equal projector ranks only; "
            "use geometric_measure_alternating for unequal ranks")
    return np.sum(lams[..., :min(k1, lams.shape[-1])], axis=-1)


def _geometric_deriv(spec: MeasureSpec, lams: np.ndarray, d: int, f: np.ndarray) -> np.ndarray:
    # top-k sum: ties between the k-th and (k+1)-th value take the order
    # given, one element of the subdifferential
    top = np.arange(lams.shape[-1]) < spec.ranks[0]
    return np.broadcast_to(top.astype(float), lams.shape)


def _check_negativity_dims(spec: MeasureSpec, dims: BipartiteDims) -> None:
    if dims.d < 2:
        raise InvariantViolation(
            "degenerate-dimension", dims.d,
            "negativity is undefined for min(dim_a, dim_b) = 1 (zero normalizer)")


def _check_concurrence_dims(spec: MeasureSpec, dims: BipartiteDims) -> None:
    if not 1 <= spec.k <= dims.d:
        raise ValueError(f"concurrence order k={spec.k} outside [1, d={dims.d}]")


def _check_geometric_dims(spec: MeasureSpec, dims: BipartiteDims) -> None:
    k1, k2 = spec.ranks
    if not (1 <= k1 <= dims.dim_a and 1 <= k2 <= dims.dim_b):
        raise ValueError(
            f"projector ranks {spec.ranks} outside ([1,{dims.dim_a}], [1,{dims.dim_b}])")


@dataclass(frozen=True)
class Measure:
    """The definition of one measure kind.

    ``value(spec, lams, d)`` maps normalized descending spectra (..., r) to
    values, treating rows shorter than d as zero-padded; ``deriv(spec, lams,
    d, f)`` gives its partial derivatives (..., r) from those spectra and
    their values f = ``value(spec, lams, d)``, clamped finite (see
    KINK_FLOOR and DERIV_CAP); ``sup(spec, d)`` is the supremum over pure states
    (default 1); ``param`` names the
    MeasureSpec field the kind requires; ``check_dims(spec, dims)`` raises on
    parameters the dimensions rule out; ``aliases`` are extra CLI names.
    ``smoothing`` is the roof solver's ladder of smoothing stages
    (default SMOOTHING_STAGES); entropy's x log x kink at zero is not
    conic, so it descends its raw objective in one stage (0.0,).
    ``convex_in_concurrence(spec)`` declares that on two-qubit pure states
    the measure is a convex, non-decreasing function f of the concurrence
    C; the convex roof of such a measure is f(C(rho)) (Wootters, PRL 80,
    2245, 1998), which certifies minimizing two-qubit roofs (see
    :func:`entroof.twoqubit.roof_lower_bound`).
    """

    value: Callable[[MeasureSpec, np.ndarray, int], np.ndarray]
    deriv: Callable[[MeasureSpec, np.ndarray, int, np.ndarray], np.ndarray]
    sup: Callable[[MeasureSpec, int], float] = lambda spec, d: 1.0
    param: str | None = None
    check_dims: Callable[[MeasureSpec, BipartiteDims], None] = lambda spec, dims: None
    aliases: tuple[str, ...] = ()
    smoothing: tuple[float, ...] = SMOOTHING_STAGES
    convex_in_concurrence: Callable[[MeasureSpec], bool] = lambda spec: False


# All suprema are attained by the maximally entangled state (measures in the
# decreasing family) or by a compatible product state (geometric).
# On two qubits e = C / sqrt(2), negativity = C_2 = C and C_1 = 1; the
# entropy is h((1 + sqrt(1 - C^2)) / 2), and the p-number is convex in C
# for p <= 2 only (it grows as C^(2/p) near C = 0).
MEASURES: dict[str, Measure] = {
    ENTANGLEMENT_NUMBER: Measure(
        _e, _e_deriv,
        sup=lambda spec, d: math.sqrt(1.0 - 1.0 / d),
        aliases=("e",), convex_in_concurrence=lambda spec: True),
    P_NUMBER: Measure(
        _p_number, _p_number_deriv,
        sup=lambda spec, d: (1.0 - d ** (1.0 - spec.p)) ** (1.0 / spec.p),
        param="p", convex_in_concurrence=lambda spec: spec.p <= 2.0),
    ENTROPY: Measure(
        _entropy, _entropy_deriv,
        sup=lambda spec, d: math.log(d) / math.log(spec.log_base),
        smoothing=(0.0,), convex_in_concurrence=lambda spec: True),
    NEGATIVITY: Measure(_negativity, _negativity_deriv, check_dims=_check_negativity_dims,
                        convex_in_concurrence=lambda spec: True),
    CONCURRENCE: Measure(_concurrence, _concurrence_deriv, param="k",
                         check_dims=_check_concurrence_dims,
                         convex_in_concurrence=lambda spec: True),
    GEOMETRIC: Measure(_geometric, _geometric_deriv, param="ranks",
                       check_dims=_check_geometric_dims),
}

KINDS = tuple(MEASURES)


def value_from_lambdas(spec: MeasureSpec, lams: np.ndarray, dims: BipartiteDims) -> np.ndarray:
    """Evaluate a measure on stacks of normalized Schmidt spectra.

    ``lams`` has shape (..., r) with rows summing to one, descending. Rows
    shorter than d = min(dim_a, dim_b) are treated as zero-padded.
    """
    return MEASURES[spec.kind].value(spec, lams, dims.d)


def make_objective(spec: MeasureSpec, dims: BipartiteDims):
    """Vectorized pure-state objective: state vectors (..., n) -> values.

    The returned function is scale-invariant (spectra are normalized
    internally), so callers may pass unnormalized nonzero vectors. Used by
    the convex-roof optimizer and handy for batched evaluation. Its ``grad``
    attribute is :func:`make_gradient` of the same measure, so it is a valid
    objective for ``solve_roof_custom``.
    """
    validate_spec_dims(spec, dims)

    def objective(states: np.ndarray) -> np.ndarray:
        lams = gram_spectra(states, dims)
        lams = lams / np.maximum(np.sum(lams, axis=-1, keepdims=True), 1e-300)
        return value_from_lambdas(spec, lams, dims)

    objective.grad = make_gradient(spec, dims)
    return objective


def make_gradient(spec: MeasureSpec, dims: BipartiteDims):
    """Exact gradient of the weighted member contribution |chi|^2 F(lambda).

    The returned function maps unnormalized vectors chi (..., n) to
    ``(values, g)``: F at chi's normalized Schmidt spectrum (...,) and
    g = d(|chi|^2 F)/d chi^* (..., n). With mu = eig(C C^dagger) for the
    coefficient matrix C of chi and lambda = mu / sum(mu), the derivative of
    a spectral function (Lewis, Math. Oper. Res. 21, 1996) gives
    dg/dmu_i = F + F'_i - sum_j lambda_j F'_j and
    d/dC^* = U diag(dg/dmu) U^dagger C (C U diag U^dagger when the C^dagger C
    side is the smaller one).

    For d = 2, G and its spectrum come from :func:`_gram2` (``values`` is
    :func:`make_objective`'s, bitwise) and P = c_lo I + (c_hi - c_lo) (G - lo I)
    / (hi - lo) needs no LAPACK call; a tie hi = lo takes P = mean(c) I.
    """
    validate_spec_dims(spec, dims)
    measure = MEASURES[spec.kind]
    da, db, d = *dims.as_tuple(), dims.d

    def gradient(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c = chi.reshape(chi.shape[:-1] + (da, db))
        if d == 2:
            x, y, g00, g11, g01, hi, lo = _gram2(c, da, db)
            mu = np.stack([hi, lo], axis=-1)
        else:
            ch = c.conj().swapaxes(-1, -2)
            mu, u = np.linalg.eigh(c @ ch if da <= db else ch @ c)
            mu, u = mu[..., ::-1], u[..., ::-1]
            np.maximum(mu, 0.0, out=mu)
        lams = mu / np.maximum(mu.sum(axis=-1, keepdims=True), 1e-300)
        f = measure.value(spec, lams, d)
        fp = measure.deriv(spec, lams, d, f)
        coef = f[..., None] + fp
        coef -= (lams * fp).sum(axis=-1, keepdims=True)
        if d == 2:
            tie = hi == lo
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = np.where(tie, 0.0, (coef[..., 0] - coef[..., 1]) / (hi - lo))
            base = np.where(tie, 0.5 * (coef[..., 0] + coef[..., 1]), coef[..., 1])
            p00, p11 = base + slope * (g00 - lo), base + slope * (g11 - lo)
            p01 = slope * g01
            g = np.stack([p00[..., None] * x + p01[..., None] * y,
                          p01.conj()[..., None] * x + p11[..., None] * y],
                         axis=-2 if da <= db else -1)
        else:
            proj = (u * coef[..., None, :]) @ u.conj().swapaxes(-1, -2)
            g = proj @ c if da <= db else c @ proj
        return f, g.reshape(chi.shape)

    return gradient


# ---------------------------------------------------------------------------
# scalar measures on PureState


def entanglement_number_pure(psi: PureState) -> float:
    """sqrt(1 - Tr|C|^4) via the column Gram matrix of the coefficient matrix.

    Tr|C|^4 = Tr((C^t C)^2) equals the squared Frobenius norm of the Gram
    matrix of C's columns, i.e. the sum of |<c_r, c_s>|^2.
    """
    c = reshape_to_coefficient_matrix(psi)
    gram = c.conj().T @ c
    fourth = float(np.sum(np.abs(gram) ** 2))
    return math.sqrt(max(1.0 - fourth, 0.0))


def purity_deficit(rho_mat: np.ndarray) -> float:
    """sqrt(1 - Tr(rho^2)) of a density matrix.

    On a reduced density matrix of a pure state this is the reduced-operator
    route to the entanglement number.
    """
    rho_mat = np.asarray(rho_mat, dtype=np.complex128)
    return math.sqrt(max(1.0 - float(np.trace(rho_mat @ rho_mat).real), 0.0))


def _check_p_order(p: float) -> None:
    """p > 1, p = inf included; written so that NaN fails too."""
    if not (p > 1.0):
        raise ValueError(f"p must exceed 1, got {p}")


def schatten_deficit(rho_mat: np.ndarray, p: float) -> float:
    """(1 - ||rho||_p^p)^(1/p) of a density matrix, for p > 1.

    Reduced-operator route to the p-number.
    """
    _check_p_order(p)
    w = clip_spectrum(np.linalg.eigvalsh(np.asarray(rho_mat, dtype=np.complex128)))
    deficit = max(1.0 - float(np.sum(w**p)), 0.0)
    return 0.0 if deficit == 0.0 else deficit ** (1.0 / p)


def p_number_pure(psi: PureState, p: float) -> float:
    """(1 - sum_k lambda_k^p)^(1/p) from the Schmidt spectrum, for p > 1
    (p = inf included); equals the entanglement number at p = 2."""
    _check_p_order(p)
    return measure_value(_unchecked_spec(P_NUMBER, p=p), psi)


def schmidt_power_deficit(psi: PureState, p: float) -> float:
    """1 - sum_k lambda_k^p for p > 1; the p-th power of the p-number."""
    _check_p_order(p)
    lams = schmidt_lambdas(psi)
    return max(1.0 - float(np.sum(lams**p)), 0.0)


def entanglement_entropy_pure(psi: PureState, log_base: float = 2.0) -> float:
    """-sum lambda_i log(lambda_i) in any logarithm base; symmetric in which
    factor is traced out."""
    return measure_value(_unchecked_spec(ENTROPY, log_base=log_base), psi)


def von_neumann_entropy(rho_mat: np.ndarray, log_base: float = 2.0) -> float:
    """-Tr(rho log rho) from the clipped eigenvalue spectrum."""
    w = clip_spectrum(np.linalg.eigvalsh(np.asarray(rho_mat, dtype=np.complex128)))
    return float(-np.sum(_xlog(w, log_base)))


def negativity_pure(psi: PureState) -> float:
    """((sum_i sqrt(lambda_i))^2 - 1) / (d - 1)."""
    return measure_value(MeasureSpec(NEGATIVITY), psi)


def negativity_via_partial_transpose(psi: PureState) -> float:
    """(||(|psi><psi|)^T_B||_1 - 1) / (d - 1); trace-norm route."""
    validate_spec_dims(MeasureSpec(NEGATIVITY), psi.dims)
    pt = partial_transpose(DensityOperator.from_pure(psi), "B")
    return (trace_norm(pt) - 1.0) / (psi.dims.d - 1)


def concurrence_pure(psi: PureState, k: int) -> float:
    """k-th concurrence monotone: normalized elementary symmetric polynomial
    of the Schmidt spectrum (zero-padded to length d), to the power 1/k."""
    return measure_value(MeasureSpec(CONCURRENCE, k=k), psi)


def geometric_measure_pure(psi: PureState, ranks: tuple[int, int]) -> float:
    """Maximal squared norm of psi compressed by rank-constrained local
    projectors.

    Equal ranks (k, k) have the closed form sum of the top k Schmidt
    weights; unequal ranks fall back to alternating maximization over
    projector pairs (a certified lower bound).
    """
    return measure_value(MeasureSpec(GEOMETRIC, ranks=tuple(ranks)), psi)


# geometric_measure_alternating: random starts beside the Schmidt-aligned
# one, iterations per start, and the gain below which a start stops
ALTERNATING_RESTARTS = 16
ALTERNATING_MAX_ITERS = 500
ALTERNATING_TOL = 1e-12


def geometric_measure_alternating(psi: PureState, ranks: tuple[int, int]) -> float:
    """Alternating maximization of ||(P_A x P_B) psi||^2 over projector pairs.

    Each half-step is the exact best response (top eigenvectors of the
    partially compressed Gram matrix), so iterations increase the value
    monotonically. One start is aligned with the Schmidt bases; the rest
    are ALTERNATING_RESTARTS random isometries. Every returned value is
    attained by a feasible projector pair, hence a lower bound on the
    supremum.
    """
    spec = MeasureSpec(GEOMETRIC, ranks=tuple(ranks))
    validate_spec_dims(spec, psi.dims)
    k1, k2 = spec.ranks
    c = reshape_to_coefficient_matrix(psi)
    da, db = psi.dims.as_tuple()

    u, _, vh = np.linalg.svd(c, full_matrices=True)
    starts = [(u[:, :k1], vh.conj().T[:, :k2])]
    rng = np.random.default_rng(np.random.SeedSequence([0, 0x6E0]))  # fixed starts
    for _ in range(ALTERNATING_RESTARTS):
        starts.append((random_isometry(da, k1, rng), random_isometry(db, k2, rng)))

    def top_eigvecs(g: np.ndarray, k: int) -> np.ndarray:
        w, v = np.linalg.eigh(g)
        return v[:, ::-1][:, :k]

    best = 0.0
    for a, b in starts:
        prev = -1.0
        for _ in range(ALTERNATING_MAX_ITERS):
            m = c @ b
            a = top_eigvecs(m @ m.conj().T, k1)
            nmat = c.conj().T @ a
            b = top_eigvecs(nmat @ nmat.conj().T, k2)
            val = float(np.sum(np.abs(a.conj().T @ c @ b) ** 2))
            if val - prev < ALTERNATING_TOL:
                prev = val
                break
            prev = val
        best = max(best, prev)
    return best


def measure_sup(spec: MeasureSpec, dims: BipartiteDims) -> float:
    """Analytic supremum of a measure over pure states of the given dims."""
    validate_spec_dims(spec, dims)
    return MEASURES[spec.kind].sup(spec, dims.d)


def decreasing_counterpart(spec: MeasureSpec, dims: BipartiteDims):
    """Map a measure to its sup-shifted mirror image, psi -> sup - mu(psi).

    Applied to an increasing monotone this yields a decreasing one (and
    vice versa), so concave-roof problems can be rephrased as convex roofs
    of the counterpart. Returns (sup, objective) with the objective
    vectorized like :func:`make_objective`, its ``grad`` included.
    """
    sup = measure_sup(spec, dims)
    base = make_objective(spec, dims)

    def objective(states: np.ndarray) -> np.ndarray:
        return sup - base(states)

    def gradient(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f, g = base.grad(chi)
        return sup - f, sup * chi - g

    objective.grad = gradient
    return sup, objective


def measure_value(spec: MeasureSpec, psi: PureState | np.ndarray,
                  dims: BipartiteDims | None = None) -> float | np.ndarray:
    """Evaluate a MeasureSpec on pure states: its spectral function on the
    SVD Schmidt spectrum.

    ``psi`` is one PureState, giving a float, or a stack (..., dim_a*dim_b)
    of normalized amplitude vectors with their ``dims``, giving an array
    (...). A stack takes one SVD for all its rows; the one-state call is
    its one-row case, so every row gets the value its own call would give,
    bitwise. Singular values below RANK_RTOL times the largest are set to
    zero, which the spectral functions read as a dropped value (bitwise up
    to d = 7; numpy's pairwise sums may round differently from d = 8 on).

    Unequal geometric ranks have no spectral form; they fall back to
    alternating maximization (a certified lower bound), row by row.
    """
    if isinstance(psi, PureState):
        return float(measure_value(spec, psi.amplitudes, psi.dims))
    validate_spec_dims(spec, dims)
    da, db = dims.as_tuple()
    states = psi.reshape(-1, da * db)
    if spec.kind == GEOMETRIC and spec.ranks[0] != spec.ranks[1]:
        values = np.array([geometric_measure_alternating(PureState(v, dims), spec.ranks)
                           for v in states])
        return values.reshape(psi.shape[:-1])
    # the full SVD, as in linalg.schmidt: singular values alone come out of
    # another LAPACK path and differ in the last bits
    s = np.linalg.svd(states.reshape(-1, da, db), full_matrices=False)[1]
    s[s < RANK_RTOL * s[:, :1]] = 0.0
    return value_from_lambdas(spec, s * s, dims).reshape(psi.shape[:-1])
