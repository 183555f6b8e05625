"""Convex- and concave-roof extension of pure-state measures.

Every finite pure-state decomposition of a density operator rho arises from
an isometry acting on its eigen-ensemble: if rho = sum_j p_j |e_j><e_j| has
rank r and V is an m x r matrix with V^dagger V = I, the unnormalized
vectors chi_i = sum_j V[i, j] sqrt(p_j) |e_j> satisfy
sum_i |chi_i><chi_i| = rho, giving an ensemble with weights ||chi_i||^2.
The roof value is found by multi-start descent over such isometries: the
exact gradient of the ensemble-averaged measure in the ambient coordinates
of V is projected onto the tangent space of the isometry manifold, stepped
with a spectral (Barzilai-Borwein) initial step under Armijo backtracking,
and re-orthonormalized by a QR retraction after every step. Each restart
warms up on a slightly smoothed objective and periodically tries an
alternating-projection product polish (see the constants below); both
devices address the conic kinks faithful measures have at their zeros.

Member i contributes |chi_i|^2 f(chi_i) and depends on row i of V only, so
the gradient is 2 (d/dchi_i^*) B^* row by row. The objective supplies
d(|chi|^2 f)/dchi^* (its ``grad``; for built-in measures the derivative of
a spectral function, :func:`entroof.measures.make_gradient`), and the
smoothing stage's sqrt(f^2 + eps^2) - eps is applied to it in closed form.

Runs are deterministic: restart k draws from a generator seeded by
(seed, k), so serial and thread-parallel execution produce bit-identical
results, merged by best value with ties broken by restart index.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import clip_spectrum, eigh_desc, kraus_residual, trace_norm
from .measures import (
    KINK_FLOOR,
    MeasureSpec,
    make_gradient,
    make_objective,
    validate_spec_dims,
    von_neumann_entropy,
)
from .states import KRAUS_ATOL, BipartiteDims, DensityOperator, InvariantViolation, PureState

STALL_NUDGE = 1e-10      # iterate perturbation when the line search stalls
WINDOW = 20              # iterations over which the stopping rule measures progress
MEMBER_DROP = 1e-14      # ensemble members below this weight are dropped
ISOMETRY_ATOL = 1e-10
# Smoothing homotopy: the warmup stage descends sqrt(mu^2 + eps^2) - eps,
# which is smooth at mu = 0 and indistinguishable from mu for mu >> eps.
# Faithful measures have conic kinks exactly at their zeros; descending the
# raw objective there parks ensemble members on cone apexes and stalls.
SMOOTHING_STAGES = (1e-3, 0.0)
# Product-polish candidates: when the average is small, alternating
# projections (rank-one-truncate members / refit the nearest isometry by
# Procrustes) can land exactly on an all-product decomposition, finishing
# the endgame that gradient descent cannot see through the conic kinks.
# Candidates are only ever accepted when they improve the objective.
POLISH_EVERY = 25
POLISH_THRESHOLD = 0.05
# Odd-numbered restarts screen a batch of candidate isometries and descend
# from the best; even-numbered ones start from a single random draw. The
# mix keeps start diversity while avoiding the worst basins.
SCREEN_CANDIDATES = 256
# Largest complex array one solve may allocate: the screened candidates'
# member vectors (SCREEN_CANDIDATES * m * n). The gradient's largest arrays,
# the member vectors and their derivative (m * n), are smaller. The limit
# admits the default m = r^2 up to an 8x8 full-rank state; larger ensembles
# are rejected before any allocation.
MAX_WORK_ENTRIES = 2**27


@dataclass(frozen=True)
class Ensemble:
    """Weighted pure-state decomposition; an element of the search space."""

    weights: np.ndarray
    states: tuple[PureState, ...]
    dims: BipartiteDims

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size != len(self.states):
            raise InvariantViolation(
                "ensemble-shape", 0.0,
                f"{w.size} weights vs {len(self.states)} states")
        if np.any(w < 0):
            raise InvariantViolation("weights-nonnegative", float(-w.min()), "negative weight")
        res = abs(float(w.sum()) - 1.0)
        if res > 1e-10:
            raise InvariantViolation(
                "weights-sum", res, f"weights sum to {w.sum()!r}, off by {res:.3e}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "states", tuple(self.states))

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dims.total, self.dims.total), dtype=np.complex128)
        for w, psi in zip(self.weights, self.states):
            out += w * psi.projector()
        return out

    def reconstruction_error(self, rho: DensityOperator) -> float:
        """Trace-norm distance between the mixture and its source."""
        return trace_norm(self.reconstruct() - rho.matrix)


@dataclass(frozen=True)
class RoofProblem:
    """A roof optimization instance.

    ``ensemble_size`` defaults to rank(rho)^2, the standard sufficiency
    bound; it must be at least rank(rho). ``seed`` makes the whole run
    reproducible.
    """

    rho: DensityOperator
    measure: MeasureSpec
    direction: str = "minimize"
    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 2000
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        _check_solver_args(self.direction, self.restarts, self.max_iters, self.tol)
        validate_spec_dims(self.measure, self.rho.dims)


def _check_solver_args(direction: str, restarts: int, max_iters: int, tol: float) -> None:
    if direction not in ("minimize", "maximize"):
        raise ValueError(f"direction must be minimize or maximize, got {direction!r}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not (tol > 0):
        raise ValueError(f"tol must be positive, got {tol}")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof optimization.

    ``value`` is the objective of ``ensemble`` (an upper bound on the true
    infimum when minimizing, a lower bound on the supremum when maximizing).
    ``objective_trace`` is the best restart's best-so-far objective per
    iteration; ``gap_estimate`` is the spread between the two best restarts,
    a heuristic optimality indicator, never a rigorous bound.
    """

    value: float
    ensemble: Ensemble
    objective_trace: tuple[float, ...]
    converged: bool
    gap_estimate: float
    restart_values: tuple[float, ...] = field(default=(), compare=False)
    best_restart: int = field(default=0, compare=False)
    stall_iterations: tuple[int, ...] = field(default=(), compare=False)


def _eigen_factor(rho: DensityOperator) -> np.ndarray:
    """Matrix B whose columns are sqrt(p_j) |e_j> for the nonzero spectrum."""
    w, v = eigh_desc(rho.matrix)
    w = clip_spectrum(w)
    keep = w > 0
    return v[:, keep] * np.sqrt(w[keep])


def rank_of(rho: DensityOperator) -> int:
    return int(np.count_nonzero(clip_spectrum(np.linalg.eigvalsh(rho.matrix))))


def _qr_fix(x: np.ndarray) -> np.ndarray:
    """QR orthonormalization with the R diagonal made real positive.

    Works on stacks (..., m, r) as well as single matrices.
    """
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.where(np.abs(d) > 0, np.abs(d), 1.0)
    ph = np.where(np.abs(d) > 0, d / mag, 1.0)
    return q * ph[..., None, :]


def ensemble_from_isometry(rho: DensityOperator, v: np.ndarray) -> Ensemble:
    """Decomposition of rho generated by an m x rank isometry.

    Members with weight below MEMBER_DROP are dropped.
    """
    b = _eigen_factor(rho)
    r = b.shape[1]
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 2 or v.shape[1] != r:
        raise InvariantViolation(
            "isometry-shape", 0.0, f"expected shape (m, {r}), got {v.shape}")
    if v.shape[0] < r:
        raise InvariantViolation(
            "isometry-shape", 0.0, f"need m >= rank = {r}, got m = {v.shape[0]}")
    res = float(np.max(np.abs(v.conj().T @ v - np.eye(r))))
    if res > ISOMETRY_ATOL:
        raise InvariantViolation(
            "isometry", res, f"V^H V deviates from identity by {res:.3e}")
    chi = v @ b.T
    w = np.sum(np.abs(chi) ** 2, axis=1)
    keep = w >= MEMBER_DROP
    states = tuple(
        PureState(chi[i] / math.sqrt(w[i]), rho.dims) for i in np.flatnonzero(keep)
    )
    return Ensemble(w[keep], states, rho.dims)


class _Engine:
    """Shared machinery for one roof optimization (all restarts).

    ``grad`` is the gradient of ``objective`` as described at
    :func:`solve_roof_custom`; by default the objective's own ``grad``.
    """

    def __init__(self, rho, objective, direction, m, restarts, max_iters, tol, seed,
                 grad=None):
        self.b = _eigen_factor(rho)
        self.n, self.r = self.b.shape
        self.da, self.db = rho.dims.as_tuple()
        m = self.r * self.r if m is None else int(m)
        if m < self.r:
            raise ValueError(f"ensemble size m = {m} below rank(rho) = {self.r}")
        entries = SCREEN_CANDIDATES * m * self.n
        if entries > MAX_WORK_ENTRIES:
            raise ValueError(f"ensemble size m = {m} needs arrays of {entries} complex "
                             f"entries, above the limit {MAX_WORK_ENTRIES}")
        self.m = m
        self.objective = objective
        self.grad = objective.grad if grad is None else grad
        self.sign = 1.0 if direction == "minimize" else -1.0
        self.restarts = restarts
        self.max_iters = max_iters
        self.tol = tol
        self.seed = int(seed) & (2**64 - 1)

    def member_contrib(self, chi: np.ndarray, eps: float = 0.0) -> np.ndarray:
        """Weight-times-measure of unnormalized member vectors (..., n)."""
        w = np.sum(np.abs(chi) ** 2, axis=-1)
        vals = self.objective(chi)
        if eps:
            vals = np.sqrt(vals * vals + eps * eps) - eps
        return self.sign * (w * vals)

    def total(self, v: np.ndarray, eps: float = 0.0) -> float:
        return float(np.sum(self.member_contrib(v @ self.b.T, eps)))

    def _gradient(self, chi: np.ndarray, eps: float) -> np.ndarray:
        """d total / d Re V + i d total / d Im V at the members chi = V B^T."""
        f, g = self.grad(chi)
        if eps:
            # d/dchi^* of |chi|^2 s(f), s(f) = sqrt(f^2 + eps^2) - eps:
            # s(f) chi + s'(f) (g - f chi)
            root = np.sqrt(f * f + eps * eps)
            slope = f / root
            g = (root - eps - slope * f)[:, None] * chi + slope[:, None] * g
        return 2.0 * self.sign * (g @ self.b.conj())

    def product_polish(self, v: np.ndarray, iters: int = 60) -> np.ndarray:
        """Alternate rank-one member truncation with a Procrustes refit.

        Seeks an isometry whose ensemble members are all product states; a
        fixed point with zero truncation error is a decomposition the
        faithful measures vanish on.
        """
        a = self.b.T
        for _ in range(iters):
            chi = v @ a
            c = chi.reshape(-1, self.da, self.db)
            u, s, vh = np.linalg.svd(c)
            tau = (s[:, 0, None, None] * u[:, :, :1] @ vh[:, :1, :]).reshape(-1, self.n)
            m = tau @ self.b.conj()
            u2, _, w2 = np.linalg.svd(m, full_matrices=False)
            v_new = u2 @ w2
            if float(np.max(np.abs(v_new - v))) < 1e-14:
                return v_new
            v = v_new
        return v

    def _initial_point(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if k % 2 == 0:
            return _qr_fix(rng.normal(size=(self.m, self.r))
                           + 1j * rng.normal(size=(self.m, self.r)))
        shape = (SCREEN_CANDIDATES, self.m, self.r)
        vs = _qr_fix(rng.normal(size=shape) + 1j * rng.normal(size=shape))
        totals = np.sum(self.member_contrib(
            np.einsum("smr,nr->smn", vs, self.b)), axis=-1)
        return vs[int(np.argmin(totals))]

    def run_restart(self, k: int):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, k]))
        v = self._initial_point(k, rng)
        best_f, best_v = self.total(v), v
        trace: list[float] = []
        stalls: list[int] = []
        it = 0
        converged = False
        for eps in SMOOTHING_STAGES:
            f = self.total(v, eps)
            stage_tol = max(self.tol, eps * 1e-3)
            prev_v = prev_xi = None
            step = None
            stage_trace: list[float] = []
            stage_converged = False
            while it < self.max_iters:
                chi = v @ self.b.T
                grad = self._gradient(chi, eps)
                xi = grad - v @ ((v.conj().T @ grad + grad.conj().T @ v) / 2.0)
                gnorm2 = float(np.sum(np.abs(xi) ** 2))
                # spectral (Barzilai-Borwein) initial step from the last move
                if prev_v is not None:
                    s = v - prev_v
                    y = xi - prev_xi
                    num = float(np.sum((s.conj() * s).real))
                    den = float(np.sum((s.conj() * y).real))
                    step = num / den if den > 1e-300 and math.isfinite(den) else None
                accepted = False
                if gnorm2 > 0.0:
                    t = step if step and 0.0 < step < 1e6 else 1.0 / math.sqrt(gnorm2)
                    for _ in range(40):
                        v_new = _qr_fix(v - t * xi)
                        f_new = self.total(v_new, eps)
                        if f_new <= f - 1e-4 * t * gnorm2:
                            prev_v, prev_xi = v, xi
                            v, f = v_new, f_new
                            accepted = True
                            break
                        t *= 0.5
                if not accepted:
                    # likely a non-smooth point (degenerate Schmidt values):
                    # nudge the iterate and reset the step memory
                    stalls.append(it)
                    v = _qr_fix(v + STALL_NUDGE * (
                        rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)))
                    f = self.total(v, eps)
                    prev_v = prev_xi = None
                    step = None
                if (self.sign > 0 and f < POLISH_THRESHOLD
                        and len(stage_trace) % POLISH_EVERY == POLISH_EVERY - 1):
                    cand = self.product_polish(v)
                    f_cand = self.total(cand, eps)
                    if f_cand < f:
                        v, f = cand, f_cand
                        prev_v = prev_xi = None
                        step = None
                if eps == 0.0:
                    if f < best_f:
                        best_f, best_v = f, v
                else:
                    true_f = self.total(v)
                    if true_f < best_f:
                        best_f, best_v = true_f, v
                trace.append(best_f)
                stage_trace.append(f)
                it += 1
                j = len(stage_trace) - 1
                if j >= WINDOW and stage_trace[j - WINDOW] - stage_trace[j] < stage_tol:
                    stage_converged = True
                    break
            converged = stage_converged
            if not stage_converged:
                break  # iteration budget exhausted mid-stage
        return best_f, best_v, trace, converged, stalls


def solve_roof_custom(
    rho: DensityOperator,
    objective,
    direction: str = "minimize",
    ensemble_size: int | None = None,
    restarts: int = 32,
    max_iters: int = 2000,
    tol: float = 1e-9,
    seed: int = 0,
    workers: int = 1,
) -> RoofResult:
    """Roof optimization of an arbitrary vectorized pure-state objective.

    ``objective`` maps stacks of normalized state vectors (..., n) to values
    (...,) and carries its gradient as ``objective.grad``: a function of
    unnormalized vectors chi (..., n) returning ``(values, g)``, the
    objective at chi/|chi| and g = d(|chi|^2 objective(chi/|chi|))/d chi^*.
    Objectives from :func:`entroof.measures.make_objective` and
    :func:`entroof.measures.decreasing_counterpart` carry one. See
    :func:`solve_roof` for the MeasureSpec-driven interface.
    """
    _check_solver_args(direction, restarts, max_iters, tol)
    grad = getattr(objective, "grad", None)
    if not callable(grad):
        raise ValueError("objective needs a gradient: set objective.grad to a function "
                         "chi -> (values, d(|chi|^2 values)/d conj(chi))")
    return _solve(rho, objective, grad, direction, ensemble_size, restarts, max_iters,
                  tol, seed, workers)


def _solve(rho, objective, grad, direction, ensemble_size, restarts, max_iters, tol,
           seed, workers) -> RoofResult:
    eng = _Engine(rho, objective, direction, ensemble_size, restarts, max_iters, tol, seed,
                  grad)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(eng.run_restart, range(restarts)))
    else:
        outcomes = [eng.run_restart(k) for k in range(restarts)]

    finals = np.array([o[0] for o in outcomes])
    best = int(np.argmin(finals))
    best_f, best_v, trace, converged, stalls = outcomes[best]
    if restarts > 1:
        second = float(np.min(np.delete(finals, best)))
        gap = abs(second - best_f)
    else:
        gap = 0.0

    ensemble = ensemble_from_isometry(rho, best_v)
    member_vals = eng.objective(np.array([s.amplitudes for s in ensemble.states]))
    value = float(np.dot(ensemble.weights, member_vals))
    return RoofResult(
        value=value,
        ensemble=ensemble,
        objective_trace=tuple(eng.sign * f for f in trace),
        converged=converged,
        gap_estimate=gap,
        restart_values=tuple(eng.sign * f for f in finals),
        best_restart=best,
        stall_iterations=tuple(stalls),
    )


def solve_roof(problem: RoofProblem, workers: int = 1) -> RoofResult:
    """Numerical roof extension of ``problem.measure`` at ``problem.rho``.

    Runs ``restarts`` independent seeded descents and returns the best. The
    result value is an upper bound on the infimum when minimizing (lower
    bound on the supremum when maximizing).
    """
    spec, dims = problem.measure, problem.rho.dims
    return _solve(
        problem.rho,
        make_objective(spec, dims),
        make_gradient(spec, dims),
        problem.direction,
        problem.ensemble_size,
        problem.restarts,
        problem.max_iters,
        problem.tol,
        problem.seed,
        workers,
    )


def concave_roof(problem: RoofProblem, workers: int = 1) -> RoofResult:
    """Maximizing counterpart of :func:`solve_roof` (for increasing monotones)."""
    return solve_roof(replace(problem, direction="maximize"), workers=workers)


def entanglement_number_mixed(rho: DensityOperator, **opts) -> RoofResult:
    """Convex-roof extension of the entanglement number to mixed states."""
    problem = RoofProblem(rho=rho, measure=MeasureSpec("entanglement-number"), **opts)
    return solve_roof(problem)


def _check_kraus(kraus: list[np.ndarray]) -> tuple[np.ndarray, int]:
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    if not ops or any(k.ndim != 2 for k in ops):
        raise InvariantViolation("kraus-shape", 0.0, "need a nonempty list of matrices")
    dim_in = ops[0].shape[1]
    if any(k.shape != ops[0].shape for k in ops):
        raise InvariantViolation("kraus-shape", 0.0, "all Kraus operators must share a shape")
    res = kraus_residual(ops)
    if res > KRAUS_ATOL:
        raise InvariantViolation(
            "kraus-completeness", res,
            f"sum K^H K deviates from identity by {res:.3e}")
    return np.stack(ops), dim_in


def _channel_output_entropy(ops: np.ndarray, log_base: float):
    """Objective psi -> S(Phi(|psi><psi|)) of the channel with Kraus stack
    ``ops``, with its gradient for :func:`solve_roof_custom`."""

    def objective(states: np.ndarray) -> np.ndarray:
        y = np.einsum("koi,...i->...ko", ops, states)
        out = np.einsum("...ko,...kp->...op", y, y.conj())
        w = np.maximum(np.linalg.eigvalsh(out), 0.0)
        w = w / np.maximum(np.sum(w, axis=-1, keepdims=True), 1e-300)
        mask = w > 1e-15
        logs = np.zeros_like(w)
        np.log(w, where=mask, out=logs)
        return -np.sum(w * logs, axis=-1) / math.log(log_base)

    def gradient(chi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # |chi|^2 S(omega) = -Tr(Phi(chi chi^H) log Phi(chi chi^H)) + |chi|^2 log|chi|^2
        # for the normalized output omega; its derivative is -Phi^H(log omega) chi
        y = np.einsum("koi,...i->...ko", ops, chi)
        w, u = np.linalg.eigh(np.einsum("...ko,...kp->...op", y, y.conj()))
        w = np.maximum(w, 0.0)
        w = w / np.maximum(np.sum(w, axis=-1, keepdims=True), 1e-300)
        logs = np.log(np.maximum(w, KINK_FLOOR)) / math.log(log_base)
        log_out = (u * logs[..., None, :]) @ u.conj().swapaxes(-1, -2)
        g = -np.einsum("koi,...ko->...i", ops.conj(),
                       np.einsum("...op,...kp->...ko", log_out, y))
        return -np.sum(w * logs, axis=-1), g

    objective.grad = gradient
    return objective


def channel_entropy(
    rho: DensityOperator,
    kraus: list[np.ndarray],
    log_base: float = 2.0,
    **opts,
) -> float:
    """Output entropy of the channel at rho minus the minimal average output
    entropy over pure-state decompositions of rho."""
    ops, dim_in = _check_kraus(kraus)
    if dim_in != rho.dims.total:
        raise InvariantViolation(
            "kraus-dims", 0.0,
            f"channel acts on dim {dim_in}, state lives in dim {rho.dims.total}")
    output = sum(k @ rho.matrix @ k.conj().T for k in ops)
    total = von_neumann_entropy(output, log_base)
    inner = solve_roof_custom(rho, _channel_output_entropy(ops, log_base),
                              direction="minimize", **opts)
    return total - inner.value
