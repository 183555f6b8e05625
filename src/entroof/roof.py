"""Convex- and concave-roof extension of pure-state measures.

Every finite pure-state decomposition of a density operator rho arises from
an isometry acting on its eigen-ensemble: if rho = sum_j p_j |e_j><e_j| has
rank r and V is an m x r matrix with V^dagger V = I, the unnormalized
vectors chi_i = sum_j V[i, j] sqrt(p_j) |e_j> satisfy
sum_i |chi_i><chi_i| = rho, giving an ensemble with weights ||chi_i||^2.
The roof value is found by multi-start Riemannian L-BFGS over such
isometries (Huang, Gallivan & Absil, SIAM J. Optim. 25, 2015): the exact
gradient of the ensemble-averaged measure in the ambient coordinates of V
is projected onto the tangent space of the isometry manifold, giving xi;
the L-BFGS inverse-Hessian estimate over the restart's last LBFGS_MEMORY
curvature pairs (s, y), applied in the compact form of Byrd, Nocedal &
Schnabel (Math. Program. 63, 1994), turns xi into a direction -p,
projected onto the tangent space; and a step along -p, the unit step
first, under nonmonotone Armijo backtracking, is re-orthonormalized by a
QR retraction. The pairs are the ambient
differences of successive iterates and of their tangent gradients; a pair
with <s, y> <= 0 is skipped, and the pairs outlive the jumps that replace
an iterate without a line search (an accepted polish, a smoothing-stage
advance), so the step after a jump is again the L-BFGS unit step. A
restart without pairs, or whose p is not a descent direction, searches
along -xi from the step 1 / |xi|.
The Armijo test compares a trial step with the Zhang-Hager reference, an
average of the restart's recent stage objectives weighted by powers of
NONMONOTONE_ETA (Zhang & Hager, SIAM J. Optim. 14, 2004; Wen & Yin use it
on orthogonality constraints, Math. Program. 142, 2013), rather than with
the current value, so a step that briefly raises the objective is
kept instead of backtracked. Each restart runs the smoothing stages of its
measure (``Measure.smoothing``: a warmup on a slightly smoothed objective,
then the raw one; entropy has only the raw stage) and periodically tries
an alternating-projection product polish (see the constants below); both
devices address the conic kinks faithful measures have at their zeros.

A smoothing stage ends on the first iteration that takes no step, by one
of two stopping rules. Stationarity: the L-BFGS direction predicts a
decrease <xi, p> of at most max(FLOOR_ULPS ulps of the stage objective,
STATIONARY * tau), with tau = max(``tol``, 1e-3 times the smoothing
parameter); the restart skips the line search. Stall: no rung of the line
search passes, or the tangent gradient is zero or not finite. Optimal
pure-state ensembles exist, so the restart stops the stage where no step
descends rather than being pushed off that point. A restart that spends
``max_iters`` before its last stage ends stops on its budget;
``RoofResult.restart_stops`` records which rule ended each one ("floor"
for stationarity).

A minimized two-qubit roof of a measure that is a convex, non-decreasing
function f of the concurrence (``Measure.convex_in_concurrence``) has the
exact value L = f(C(rho)) (Wootters, PRL 80, 2245, 1998), and Wootters'
decomposition attains it (:func:`entroof.twoqubit.wootters_isometry`).
:func:`solve_roof` returns that decomposition, converged and without
building the engine, where it has at most m members and its value is at
most L + ``tol``. Otherwise it passes the cut L + ``tol`` to the engine,
which ends the whole lockstep batch, every restart still descending
"certified", at the first iteration where some restart's best raw
objective is at or below the cut, and then launches no later batch. Up to
that iteration every restart takes the steps it takes without a cut. The
result's ``lower_bound`` is L, and its ``gap_estimate`` the bracket width
max(0, value - L).

Member i contributes |chi_i|^2 f(chi_i) and depends on row i of V only, so
the gradient is 2 (d/dchi_i^*) B^* row by row. The objective supplies
d(|chi|^2 f)/dchi^* (its ``grad``; for built-in measures the derivative of
a spectral function, :func:`entroof.measures.make_gradient`), and the
smoothing stage's sqrt(f^2 + eps^2) - eps is applied to it in closed form.
Each iterate is evaluated once: the starts and the line search's first
trial step go through the gradient, whose member values give their stage
and raw (eps = 0) objectives; a restart that takes no step keeps its
gradient, and a stage advance reads the stored member values. Later rungs
and polish candidates go through the objective alone.

All restarts of a solve descend in lockstep as one stack of isometries
(R, m, r), one row per restart: each step makes one compact L-BFGS
product, two tangent projections and a few stacked line-search calls for
the whole batch, on whole arrays where every row takes its first rung,
and a restart leaves the batch when it converges or spends its budget.
Runs are deterministic: restart k starts at the random isometry drawn by
a generator seeded by (seed, k), and stacked numpy calls act on each
isometry as single calls do, so a restart's outcome does not depend on
the other restarts in its batch.
Results are merged by best value with ties broken by restart index.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .linalg import _qr_fix, clip_spectrum, eigh_desc, instrument_issue, trace_norm
from .measures import (
    ENTROPY,
    MEASURES,
    SMOOTHING_STAGES,
    MeasureSpec,
    make_gradient,
    make_objective,
    measure_value,
    validate_spec_dims,
    von_neumann_entropy,
)
from .sampling import ginibre
from .states import BipartiteDims, DensityOperator, InvariantViolation, PureState
from .twoqubit import roof_lower_bound, wootters_isometry

# Stationarity stop: a row whose L-BFGS direction -p predicts a decrease
# <xi, p> (the unit step's) of at most max(FLOOR_ULPS ulps of its stage
# objective f, STATIONARY * tau), tau = max(tol, 1e-3 eps), ends its stage
# at once, without a line search. The ulps term is the rounding floor.
FLOOR_ULPS = 16
STATIONARY = 1e-2
MEMBER_DROP = 1e-14      # ensemble members below this weight are dropped
ISOMETRY_ATOL = 1e-10
# Product-polish candidates: when the average is small, alternating
# projections (rank-one-truncate members / refit the nearest isometry by
# Procrustes) can land exactly on an all-product decomposition, finishing
# the endgame that gradient descent cannot see through the conic kinks.
# Candidates are only ever accepted when they improve the objective.
POLISH_EVERY = 25
POLISH_THRESHOLD = 0.05
# Backtracking ladder of the line search: steps t, t/2, ..., t/2^39.
LINE_SEARCH_RUNGS = 40
# Age discount of the line search's Zhang-Hager reference (see _Engine._descend)
NONMONOTONE_ETA = 0.85
# Curvature pairs (s, y) each restart keeps for its L-BFGS direction
LBFGS_MEMORY = 5
# Largest complex array one solve may allocate: the line search's member
# vectors for a chunk of restarts, at most LINE_SEARCH_RUNGS * chunk * m * n;
# the chunk is sized to fit. An ensemble size whose single restart does not
# fit (LINE_SEARCH_RUNGS * m * n above the limit) is rejected before any
# allocation; the limit admits the default m = 2r up to a 35x35 full-rank
# state (40 * 2r * n <= 2^27) and m = r^2 up to 12x12.
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
        if not (res <= 1e-10):  # written so that NaN weights fail too
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

    ``ensemble_size`` defaults to min(r^2, 2r) at r = rank(rho): 2r for a
    mixed state, 1 for a pure one. It must be at least r; r^2, the
    Caratheodory bound on an optimal ensemble, may be set explicitly.
    ``seed`` makes the whole run reproducible.
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
    if not (0 < tol < math.inf):
        raise ValueError(f"tol must be positive and finite, got {tol}")


@dataclass(frozen=True)
class RoofResult:
    """Outcome of a roof optimization.

    ``value`` is the weighted average of ``ensemble``'s member values (an
    upper bound on the true infimum when minimizing, a lower bound on the
    supremum when maximizing): their :func:`entroof.measures.measure_value`
    from :func:`solve_roof`, their objective from :func:`solve_roof_custom`.
    ``objective_trace`` is the best restart's best-so-far objective per
    iteration. ``lower_bound`` is a certified lower bound on the roof, or
    None where no certificate applies: :func:`solve_roof` gives one for a
    minimized two-qubit roof of a measure convex and non-decreasing in the
    concurrence, where it is the exact roof f(C(rho)), and returns
    Wootters' decomposition where it fits (see the module docstring); that
    result ran no restart, so ``objective_trace`` and the restart tuples
    are empty. With a lower bound,
    ``gap_estimate`` is the bracket width max(0, value - lower_bound), a
    rigorous bound on the distance from the optimum; without one it is the
    spread between the two best restarts, a heuristic optimality indicator.
    ``restart_values``, ``restart_iterations`` and ``restart_stops`` hold
    each restart's best objective, its number of iterations and why it
    stopped, in restart order: "floor" (its last stage reached stationarity:
    the L-BFGS direction predicted a decrease of at most STATIONARY * tau,
    tau = max(``tol``, 1e-3 times the smoothing parameter), or of rounding
    error), "stall" (no rung of its last stage's line search passed, or its
    tangent gradient was zero or not finite), "budget" (it spent
    ``max_iters`` without converging) or "certified" (a restart of its
    lockstep batch came within ``tol`` of ``lower_bound``, which stops the
    whole batch; restarts of later batches are not run, and these tuples
    then hold fewer than ``restarts`` entries). ``restart_rungs`` holds each
    restart's line-search rungs summed over its iterations, as a search of
    that restart alone tries them: the accepted rung's index + 1, or
    LINE_SEARCH_RUNGS when no rung passes.
    """

    value: float
    ensemble: Ensemble
    objective_trace: tuple[float, ...]
    converged: bool
    gap_estimate: float
    lower_bound: float | None = None
    restart_values: tuple[float, ...] = field(default=(), compare=False)
    best_restart: int = field(default=0, compare=False)
    restart_iterations: tuple[int, ...] = field(default=(), compare=False)
    restart_stops: tuple[str, ...] = field(default=(), compare=False)
    restart_rungs: tuple[int, ...] = field(default=(), compare=False)


def _eigen_factor(rho: DensityOperator) -> np.ndarray:
    """Matrix B whose columns are sqrt(p_j) |e_j> for the nonzero spectrum."""
    w, v = eigh_desc(rho.matrix)
    w = clip_spectrum(w)
    keep = w > 0
    return v[:, keep] * np.sqrt(w[keep])


def rank_of(rho: DensityOperator) -> int:
    """The rank r of rho that the solver works with: its eigen-factor's columns."""
    return _eigen_factor(rho).shape[1]


def _ensemble_size(r: int, m: int | None) -> int:
    """Ensemble size at rank r: ``m``, or by default min(r^2, 2r).

    Caratheodory bounds some optimal ensemble by r^2 members, but at a fixed
    iteration budget 2r members reach equal or lower values on 3x3 and 2x4
    states in about half the time; a pure state (r = 1) keeps m = 1.
    """
    return min(r * r, 2 * r) if m is None else int(m)


def _checked_ensemble_size(b: np.ndarray, m: int | None) -> int:
    """The ensemble size m for the eigen factor b (n x r), by
    :func:`_ensemble_size`; raises ValueError where m < r, or where one
    restart's line-search stack (LINE_SEARCH_RUNGS * m * n entries) exceeds
    MAX_WORK_ENTRIES, before any allocation."""
    n, r = b.shape
    m = _ensemble_size(r, m)
    if m < r:
        raise ValueError(f"ensemble size m = {m} below rank(rho) = {r}")
    entries = LINE_SEARCH_RUNGS * m * n
    if entries > MAX_WORK_ENTRIES:
        raise ValueError(f"ensemble size m = {m} needs arrays of {entries} complex "
                         f"entries, above the limit {MAX_WORK_ENTRIES}")
    return m


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


# One restart's result: its best raw objective and isometry, then its entries
# of the RoofResult fields objective_trace, converged, restart_iterations,
# restart_stops and restart_rungs.
_Outcome = namedtuple("_Outcome", "best_f best_v trace converged iterations stop rungs")


def _tangent(v: np.ndarray, vh: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Projection of ambient z onto the tangent space of the isometries v,
    z - v sym(v^H z), for stacks (..., m, r) and vh = v^H."""
    a = vh @ z
    return z - v @ ((a + a.conj().swapaxes(-1, -2)) / 2.0)


# Slots of the L-BFGS memory, newest first: _NEWER[i, j] = 1 where slot j
# holds a newer pair than slot i
_EYE = np.eye(LBFGS_MEMORY)
_NEWER = np.tri(LBFGS_MEMORY, k=-1)


class _Rows(SimpleNamespace):
    """The restarts of one lockstep descent, one row each.

    Every field is an array indexed by row: chunk position ``pos``, iterate
    ``v``, stage and raw objectives ``f`` and ``raw``, smoothing ``stage``
    and the iteration ``start`` it began at, step
    memory (whether the row ``moved`` by a line search since its last
    reset, and ``prev``, the real coordinates (2, 2mr) of the iterate and
    tangent gradient it moved from; the L-BFGS ``pairs`` (2, LBFGS_MEMORY,
    2mr), the s and then the y of each slot, newest first, with ``rho`` =
    1 / <s, y> per slot, 0 in an empty one, and the newest pair's
    ``gamma`` = <s, y> / <y, y>), the
    gradient of the iterate where it is ``fresh`` (member values ``fm`` and
    ``g``, as ``grad`` returns them; kept while the iterate stays put, and
    cleared where a later rung or an accepted polish replaces it),
    Zhang-Hager reference ``ref`` and weight ``ref_w``, best raw objective
    ``best_f`` and its isometry ``best_v``, and line-search rungs tried
    ``rungs``. The L-BFGS product (``inverse_hessian``) takes the compact
    form of Byrd, Nocedal & Schnabel (Math. Program. 63, 1994): a few small
    matmuls per step for the whole batch.
    """

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where ``mask`` is False from every field."""
        vars(self).update({name: value[mask] for name, value in vars(self).items()})

    def reset(self, rows: np.ndarray) -> None:
        """Restart the reference of ``rows`` at (f, 1) after a jump of their
        iterates, and clear ``moved`` so that the jump is never stored as a
        curvature pair; the pairs already stored, with ``rho`` and
        ``gamma``, are kept."""
        self.ref[rows], self.ref_w[rows] = self.f[rows], 1.0
        self.moved[rows] = False

    def push(self, cur: np.ndarray) -> None:
        """Store each moved row's pair (s, y) = ``cur`` - ``prev``, from the
        real coordinates (rows, 2, 2mr) of its iterate and tangent gradient,
        as its newest, skipping pairs with <s, y> <= 0; the oldest pair
        leaves a full memory."""
        pairs = cur - self.prev
        sy = (pairs[:, 0] * pairs[:, 1]).sum(axis=-1)
        keep = self.moved & (sy > 0.0)
        rows = slice(None)
        if not keep.all():
            rows = keep.nonzero()[0]
            pairs, sy = pairs[rows], sy[rows]
        self.pairs[rows, :, 1:], self.rho[rows, 1:] = self.pairs[rows, :, :-1], self.rho[rows, :-1]
        self.pairs[rows, :, 0], self.rho[rows, 0] = pairs, 1.0 / sy
        self.gamma[rows] = sy / (pairs[:, 1] * pairs[:, 1]).sum(axis=-1)

    def inverse_hessian(self, q: np.ndarray) -> np.ndarray:
        """H q for the L-BFGS inverse-Hessian estimate H of each row, for q
        (rows, 2mr), from H0 = gamma I: the two-loop recursion's result in
        compact form. With the stored s_i, y_i as rows of S and Y, newest
        first, a = S q, b = Y q, and K the inverse of the lower triangle
        (slot j newer than or equal to slot i) of S Y^T,
        H q = gamma q + S^T delta - gamma Y^T alpha, alpha = K a,
        delta = K^T (D alpha + gamma (Y Y^T alpha - b)), D = diag(<s_i, y_i>).
        K = (I + T)^-1 diag(rho), T = diag(rho) times the strictly newer part
        of S Y^T, is a finite Neumann series, as T is nilpotent. A slot
        beyond a row's pairs has rho = 0 and adds nothing; a row without
        pairs has gamma = 0, so H = 0."""
        w = self.pairs.reshape(len(q), 2 * LBFGS_MEMORY, -1)  # S, then Y
        gram = w @ self.pairs[:, 1].swapaxes(-1, -2)  # (S Y^T; Y Y^T)
        wq = w @ q[:, :, None]  # (a; b)
        sy, a = gram[:, :LBFGS_MEMORY], wq[:, :LBFGS_MEMORY]
        gamma = self.gamma[:, None, None]
        t = self.rho[:, :, None] * (sy * _NEWER)
        # (I + T)^-1 = (I - T)(I + T^2)(I + T^4)...: the powers T^k with
        # k >= LBFGS_MEMORY vanish
        inv, power, span = _EYE - t, t, 2
        while span < LBFGS_MEMORY:
            power = power @ power
            inv = inv @ (_EYE + power)
            span *= 2
        k = inv * self.rho[:, None, :]
        alpha = k @ a
        delta = k.swapaxes(-1, -2) @ (
            (sy * _EYE) @ alpha + gamma * (gram[:, LBFGS_MEMORY:] @ alpha - wq[:, LBFGS_MEMORY:]))
        coef = np.concatenate((delta, -gamma * alpha), axis=1)
        return self.gamma[:, None] * q + (coef.swapaxes(-1, -2) @ w)[:, 0]


class _Engine:
    """Shared machinery for one roof optimization (all restarts).

    ``grad`` is the gradient of ``objective`` as described at
    :func:`solve_roof_custom`; by default the objective's own ``grad``.
    ``stages`` is the ladder of smoothing parameters each restart descends
    (see ``Measure.smoothing``). Restarts run in lockstep, ``chunk`` of them
    at a time, as one stack of isometries (R, m, r); ``chunk``, the one
    memory rule, keeps the line search's stacked member vectors
    (LINE_SEARCH_RUNGS * chunk * m * n) within MAX_WORK_ENTRIES, and an
    ensemble size that does not fit even at ``chunk`` = 1 is rejected.
    ``cut``, when given, is a raw objective that certifies a batch: the
    batch stops once one of its restarts reaches it (see :meth:`_descend`).
    """

    def __init__(self, rho, objective, direction, m, restarts, max_iters, tol, seed,
                 grad=None, stages=SMOOTHING_STAGES, cut=None):
        self.b = _eigen_factor(rho)
        self.bc = self.b.conj()
        self.n, self.r = self.b.shape
        self.da, self.db = rho.dims.as_tuple()
        self.m = _checked_ensemble_size(self.b, m)
        self.objective = objective
        self.grad = objective.grad if grad is None else grad
        self.sign = 1.0 if direction == "minimize" else -1.0
        self.restarts = restarts
        self.max_iters = max_iters
        self.tol = tol
        self.stages = tuple(stages)
        self.cut = cut
        self.seed = int(seed) & (2**64 - 1)
        self.chunk = min(restarts, MAX_WORK_ENTRIES // (LINE_SEARCH_RUNGS * self.m * self.n))

    def member_contrib(self, chi: np.ndarray, eps=0.0, vals=None) -> tuple[np.ndarray, np.ndarray]:
        """Weight-times-measure of unnormalized member vectors (..., n), at
        the smoothing stage and raw (eps = 0), from one objective call or
        from the members' values ``vals`` when given.

        ``eps`` is the smoothing stage: a float, or an array over the stack
        axes of members (..., m, n), one stage per isometry.
        """
        w = (np.abs(chi) ** 2).sum(axis=-1)
        vals = self.objective(chi) if vals is None else vals
        raw = self.sign * (w * vals)
        e = np.asarray(eps)[..., None]
        if not e.any():
            return raw, raw
        vals = np.where(e > 0, np.sqrt(vals * vals + e * e) - e, vals)
        return self.sign * (w * vals), raw

    def totals(self, v: np.ndarray, eps=0.0, vals=None) -> tuple[np.ndarray, np.ndarray]:
        """Stage and raw objective of each isometry in a stack (..., m, r),
        from its members' values ``vals`` when given (see :meth:`member_contrib`)."""
        stage, raw = self.member_contrib(v @ self.b.T, eps, vals)
        return stage.sum(axis=-1), raw.sum(axis=-1)

    def _gradient(self, chi: np.ndarray, eps, fg=None) -> np.ndarray:
        """d total / d Re V + i d total / d Im V at the members chi = V B^T,
        for members (..., m, n) and ``eps`` as in :meth:`member_contrib`;
        ``fg`` is ``grad(chi)`` when already known, and then chi is read only
        at a smoothing stage (eps > 0) and may be None where there is none."""
        f, g = self.grad(chi) if fg is None else fg
        e = np.asarray(eps)[..., None]
        if e.any():
            # d/dchi^* of |chi|^2 s(f), s(f) = sqrt(f^2 + eps^2) - eps:
            # s(f) chi + s'(f) (g - f chi); rows at eps = 0 keep g
            with np.errstate(divide="ignore", invalid="ignore"):
                root = np.sqrt(f * f + e * e)
                slope = f / root
                smooth = (root - e - slope * f)[..., None] * chi + slope[..., None] * g
            g = np.where(e[..., None] > 0, smooth, g)
        return 2.0 * self.sign * (g @ self.bc)

    def product_polish(self, v: np.ndarray, iters: int = 60) -> np.ndarray:
        """Alternate rank-one member truncation with a Procrustes refit.

        Seeks isometries whose ensemble members are all product states; a
        fixed point with zero truncation error is a decomposition the
        faithful measures vanish on. ``v`` is a stack (R, m, r); each
        isometry stops at its own fixed point.
        """
        out = v.copy()
        live = np.arange(len(v))
        for _ in range(iters):
            c = (v @ self.b.T).reshape(-1, self.da, self.db)
            u, s, vh = np.linalg.svd(c, full_matrices=False)
            tau = (s[:, 0, None, None] * u[:, :, :1] @ vh[:, :1, :]).reshape(-1, self.m, self.n)
            u2, _, w2 = np.linalg.svd(tau @ self.bc, full_matrices=False)
            v_new = u2 @ w2
            fixed = np.max(np.abs(v_new - v), axis=(-2, -1)) < 1e-14
            out[live[fixed]] = v_new[fixed]
            live, v = live[~fixed], v_new[~fixed]
            if not live.size:
                return out
        out[live] = v
        return out

    def _line_search(self, v, p, ref, t, slope, eps):
        """Nonmonotone Armijo backtracking for a stack of iterates along the
        tangent directions -p: each row takes the first of t, t/2, ...
        (LINE_SEARCH_RUNGS rungs) with f_new <= ref - 1e-4 t slope, where
        slope = <xi, p> > 0, the choice sequential backtracking makes;
        ``ref`` is the row's Zhang-Hager reference (see _descend).
        The first rung is evaluated through ``grad``, whose values the
        stage objective then reads, so a row that takes it already has the
        gradient of its next iterate. The rows still searching then try
        the further rungs in blocks of 2, 4, ..., each block one stacked
        call, so a row that passes early costs about what it would alone.
        Returns (ok, v_new, f_new, raw_new, tried, first); rows with ok False
        found no rung, and tried counts the rungs a sequential search tries:
        the accepted rung's index + 1, or LINE_SEARCH_RUNGS. ``first`` is
        (took, values, g): which rows took their first rung, and ``grad``'s
        values and g there, for every row."""
        # trial stacks are (rows, rungs, m, r), here one rung per row
        vs = _qr_fix(v[:, None] - t[:, None, None, None] * p[:, None])
        chi = vs @ self.b.T
        vals, g = self.grad(chi)
        stage, raw_new = self.member_contrib(chi, eps[:, None], vals)
        v_new, vals, g = vs[:, 0], vals[:, 0], g[:, 0]
        f_new, raw_new = stage[:, 0].sum(axis=-1), raw_new[:, 0].sum(axis=-1)
        took = f_new <= ref - 1e-4 * t * slope
        tried = np.where(took, 1, LINE_SEARCH_RUNGS)
        if took.all():
            return took, v_new, f_new, raw_new, tried, (took, vals, g)
        ok = took.copy()
        rows = (~took).nonzero()[0]
        ladder = t[rows, None]  # rungs of the current block, one row per iterate
        lo = 1
        while rows.size and lo < LINE_SEARCH_RUNGS:
            # halve step by step from each row's last rung, as a sequential
            # search would; a block stacks fewer than LINE_SEARCH_RUNGS
            # trial isometries per row, so ``chunk`` keeps it within
            # MAX_WORK_ENTRIES
            size = min(2 * ladder.shape[1], LINE_SEARCH_RUNGS - lo)
            halves = np.full((rows.size, size + 1), 0.5)
            halves[:, 0] = ladder[:, -1]
            ladder = np.multiply.accumulate(halves, axis=1)[:, 1:]
            vs = _qr_fix(v[rows, None] - ladder[..., None, None] * p[rows, None])
            fs, raws = self.totals(vs, eps[rows, None])
            armijo = fs <= ref[rows, None] - 1e-4 * ladder * slope[rows, None]
            rung = np.argmax(armijo, axis=1)
            hit = armijo[np.arange(rows.size), rung]
            ok[rows[hit]] = True
            tried[rows[hit]] = lo + rung[hit] + 1
            v_new[rows[hit]] = vs[hit, rung[hit]]
            f_new[rows[hit]] = fs[hit, rung[hit]]
            raw_new[rows[hit]] = raws[hit, rung[hit]]
            rows, ladder = rows[~hit], ladder[~hit]
            lo += size
        return ok, v_new, f_new, raw_new, tried, (took, vals, g)

    def run(self) -> list:
        """Every restart's :data:`_Outcome`, in restart order, ``chunk`` at a
        time; a certified chunk ends the run, and the restarts of later
        chunks are not run and have no outcome."""
        outcomes = []
        for lo in range(0, self.restarts, self.chunk):
            chunk = self._descend(range(lo, min(lo + self.chunk, self.restarts)))
            outcomes += chunk
            if any(o.stop == "certified" for o in chunk):
                break
        return outcomes

    def _descend(self, ks: range) -> list:
        """Descend restarts ``ks`` in lockstep, one row of a :class:`_Rows` each.

        Restart k starts at the random isometry drawn by a generator seeded
        by (seed, k), and every step treats each row of the stack as a
        descent of that restart alone would treat its iterate
        (``tests/util.py::sequential_restart``), so a restart's outcome
        does not depend on which restarts share its batch.

        Each iteration first stores the row's curvature pair from its last
        accepted step (``_Rows.push``), then takes the L-BFGS direction
        (``_Rows.inverse_hessian``) with the unit step, or -xi with the step
        1 / |xi| where the row has no pairs or the direction does not
        descend; the Armijo test and the stationarity stop read the slope
        <xi, p>. The reference starts at (f, 1) and after an accepted step
        f_new becomes ref' = (eta ref_w ref + f_new) / ref_w', ref_w' =
        eta ref_w + 1 (eta = NONMONOTONE_ETA): an average of the stage
        objectives since its last reset, weighted by eta^age. Wherever f
        is replaced other than by a line search (an accepted polish and a
        stage advance), ``_Rows.reset`` restarts it at (f, 1); the row
        keeps its curvature pairs, but the jump itself is not stored as
        one. A stage converges on the first iteration where the row takes
        no step: on stationarity, an L-BFGS slope of at most
        max(FLOOR_ULPS ulps of |f|, STATIONARY * tau) with
        tau = max(tol, 1e-3 eps), where the row skips its line search; or
        on a stall, a line search without a passing rung or a tangent
        gradient that is zero or not finite. Such a row skips the polish.
        A row leaves the batch (``_Rows.keep``) when its last stage
        converges or its iteration budget is spent. With a ``cut``, the
        whole batch stops, every live row converged and "certified", at the
        end of the first iteration where some row's best raw objective is
        at or below it; every row's steps up to there are the ones it takes
        without a cut.
        """
        stages = np.array(self.stages)
        # each stage's stationarity threshold STATIONARY * tau, tau = max(tol, 1e-3 eps)
        stationary = STATIONARY * np.maximum(self.tol, stages * 1e-3)
        # one stacked QR of the (seed, k) draws: bitwise each random_isometry
        v = _qr_fix(np.stack([ginibre(np.random.default_rng(np.random.SeedSequence(
            [self.seed, k])), self.m, self.r) for k in ks]))
        fm, g = self.grad(v @ self.b.T)
        f, raw = self.totals(v, stages[0], fm)
        n = len(ks)
        size = 2 * self.m * self.r  # real coordinates of one isometry
        rows = _Rows(pos=np.arange(n), v=v, f=f, raw=raw, stage=np.zeros(n, dtype=int),
                     start=np.zeros(n, dtype=int), moved=np.zeros(n, dtype=bool),
                     prev=np.zeros((n, 2, size)), pairs=np.zeros((n, 2, LBFGS_MEMORY, size)),
                     rho=np.zeros((n, LBFGS_MEMORY)), gamma=np.zeros(n),
                     fresh=np.ones(n, dtype=bool), fm=np.array(fm, dtype=float),
                     g=np.array(g, dtype=complex), ref=f.copy(),
                     ref_w=np.ones(n), best_f=raw.copy(), best_v=v.copy(),
                     rungs=np.zeros(n, dtype=int))
        outcomes: list = [None] * n
        trace: list[np.ndarray] = []  # best_f per iteration, by chunk position
        ulps = FLOOR_ULPS * np.finfo(float).eps
        it = 0
        while rows.pos.size:
            # v, f and raw are the record's own arrays: writing them writes the rows
            v, f, raw, eps = rows.v, rows.f, rows.raw, stages[rows.stage]
            # the gradient where it is not fresh; only smoothing stages read chi
            fresh = rows.fresh.all()
            chi = None if fresh and not eps.any() else v @ self.b.T
            if not fresh:
                stale = ~rows.fresh if rows.fresh.any() else slice(None)
                rows.fm[stale], rows.g[stale] = self.grad(chi[stale])
                rows.fresh[:] = True
            grad = self._gradient(chi, eps, (rows.fm, rows.g))
            vh = v.conj().swapaxes(-1, -2)
            xi = _tangent(v, vh, grad)
            gnorm2 = (np.abs(xi) ** 2).sum(axis=(-2, -1))
            # real coordinates (rows, 2, 2mr) of (v, xi): the pair (s, y) of
            # a row that moved is their change since its last step
            cur = np.concatenate((v, xi), axis=-2).view(np.float64).reshape(len(v), 2, -1)
            if rows.moved.any():
                rows.push(cur)
            # the L-BFGS direction -p where it descends, <xi, p> > 0; a row
            # without pairs has p = 0 there and searches along -xi
            d = _tangent(v, vh,
                         rows.inverse_hessian(cur[:, 1]).view(np.complex128).reshape(xi.shape))
            ds = (cur[:, 1] * d.view(np.float64).reshape(len(d), -1)).sum(axis=-1)
            lbfgs = (ds > 0.0) & (ds < np.inf)
            p = np.where(lbfgs[:, None, None], d, xi)
            slope = np.where(lbfgs, ds, gnorm2)
            floor = lbfgs & (slope <= np.maximum(ulps * np.abs(f), stationary[rows.stage]))
            search = (gnorm2 > 0.0) & (gnorm2 < np.inf) & ~floor
            every = search.all()
            accepted = np.zeros(len(v), dtype=bool)
            if every or search.any():
                # where every row searches, whole arrays stand in for the subset
                sel = slice(None) if every else search.nonzero()[0]
                # the unit step along an L-BFGS direction, else 1 / |xi|
                t = np.where(lbfgs[sel], 1.0, 1.0 / np.sqrt(gnorm2[sel]))
                ok, v_new, f_new, raw_new, tried, (took, fm, g) = self._line_search(
                    v[sel], p[sel], rows.ref[sel], t, slope[sel], eps[sel])
                rows.rungs[sel] += tried
                if every and took.all():  # and every row took its first rung
                    hit = moved = took = ok = slice(None)
                else:
                    idx = np.arange(len(v))[sel]
                    hit, moved = idx[took], idx[ok]
                    # a later rung's iterate comes without its gradient
                    rows.fresh[idx[ok & ~took]] = False
                rows.fm[hit], rows.g[hit] = fm[took], g[took]
                rows.prev[moved] = cur[moved]
                v[moved], f[moved], raw[moved] = v_new[ok], f_new[ok], raw_new[ok]
                rows.moved[moved] = True
                accepted[moved] = True
                w = NONMONOTONE_ETA * rows.ref_w[moved] + 1.0
                rows.ref[moved] = (NONMONOTONE_ETA * rows.ref_w[moved] * rows.ref[moved]
                                   + f[moved]) / w
                rows.ref_w[moved] = w
            if self.sign > 0 and (low := f < POLISH_THRESHOLD).any():
                due = (low & accepted
                       & ((it - rows.start) % POLISH_EVERY == POLISH_EVERY - 1)).nonzero()[0]
                if due.size:
                    cand = self.product_polish(v[due])
                    f_cand, raw_cand = self.totals(cand, eps[due])
                    better = f_cand < f[due]
                    took = due[better]
                    v[took], f[took], raw[took] = cand[better], f_cand[better], raw_cand[better]
                    rows.fresh[took] = False
                    rows.reset(took)
            better = raw < rows.best_f
            np.copyto(rows.best_f, raw, where=better)
            np.copyto(rows.best_v, v, where=better[:, None, None])
            trace.append(np.full(n, np.nan))
            trace[-1][rows.pos] = rows.best_f
            it += 1
            spent = it >= self.max_iters
            # one row at or below the cut certifies the whole batch
            certified = self.cut is not None and bool((rows.best_f <= self.cut).any())
            halt = spent or certified
            if accepted.all() and not halt:
                continue
            # a stage ends on the first iteration without a step:
            # stationarity or a stall
            converged = ~accepted
            last = rows.stage == len(stages) - 1
            advance = (converged & ~last & (not halt)).nonzero()[0]
            if advance.size:
                # a row without a step kept its iterate's member values
                rows.stage[advance] += 1
                f[advance] = self.totals(v[advance], stages[rows.stage[advance]],
                                         rows.fm[advance])[0]
                rows.reset(advance)
                rows.start[advance] = it
            done = (converged & last) | halt
            if done.any():
                for i in done.nonzero()[0]:
                    conv = certified or bool(converged[i] and last[i])
                    stop = ("certified" if certified else "budget" if not conv
                            else "floor" if floor[i] else "stall")
                    outcomes[rows.pos[i]] = _Outcome(
                        float(rows.best_f[i]), rows.best_v[i].copy(), None, conv, it, stop,
                        int(rows.rungs[i]))
                rows.keep(~done)
        table = np.array(trace)
        return [o._replace(trace=table[:o.iterations, i].tolist())
                for i, o in enumerate(outcomes)]


def solve_roof_custom(
    rho: DensityOperator,
    objective,
    direction: str = RoofProblem.direction,
    ensemble_size: int | None = RoofProblem.ensemble_size,
    restarts: int = RoofProblem.restarts,
    max_iters: int = RoofProblem.max_iters,
    tol: float = RoofProblem.tol,
    seed: int = RoofProblem.seed,
) -> RoofResult:
    """Roof optimization of an arbitrary vectorized pure-state objective.

    ``objective`` maps stacks of state vectors chi (..., n) to values
    (...,). The solver calls it on unnormalized ensemble members, so it
    must depend on chi only through chi/|chi|. It carries its gradient as
    ``objective.grad``: a function of unnormalized vectors chi (..., n)
    returning ``(values, g)``, the objective at chi/|chi| and
    g = d(|chi|^2 objective(chi/|chi|))/d chi^*.
    Objectives from :func:`entroof.measures.make_objective` and
    :func:`entroof.measures.decreasing_counterpart` carry one. Both are
    called on stacks over restarts and line-search steps; a restart's
    result is independent of the others when each entry of a stack comes
    out as it would from a call on that entry alone. Every restart runs
    the default smoothing stages SMOOTHING_STAGES. See :func:`solve_roof`
    for the MeasureSpec-driven interface, which runs the measure's own.
    """
    _check_solver_args(direction, restarts, max_iters, tol)
    grad = getattr(objective, "grad", None)
    if not callable(grad):
        raise ValueError("objective needs a gradient: set objective.grad to a function "
                         "chi -> (values, d(|chi|^2 values)/d conj(chi))")
    return _solve(rho, objective, grad, objective, direction, ensemble_size, restarts,
                  max_iters, tol, seed, SMOOTHING_STAGES)


def _solve(rho, objective, grad, member_value, direction, ensemble_size, restarts, max_iters,
           tol, seed, stages, lower_bound=None) -> RoofResult:
    """Run the engine and build the result; ``value`` is the weighted
    ``member_value`` of the returned ensemble's normalized members. A
    minimizing solve with a ``lower_bound`` stops at the cut
    ``lower_bound`` + ``tol``, and its gap is the bracket width."""
    cut = None if lower_bound is None else lower_bound + tol
    eng = _Engine(rho, objective, direction, ensemble_size, restarts, max_iters, tol, seed,
                  grad, stages, cut)
    outcomes = eng.run()
    finals = np.array([o.best_f for o in outcomes])
    best = int(np.argmin(finals))
    top = outcomes[best]

    ensemble = ensemble_from_isometry(rho, top.best_v)
    value = _attained(ensemble, member_value)
    if lower_bound is not None:
        gap = max(0.0, value - lower_bound)
    else:
        gap = abs(float(np.min(np.delete(finals, best))) - top.best_f) if restarts > 1 else 0.0
    return RoofResult(
        value=value,
        ensemble=ensemble,
        objective_trace=tuple(eng.sign * f for f in top.trace),
        converged=top.converged,
        gap_estimate=gap,
        lower_bound=lower_bound,
        restart_values=tuple(eng.sign * f for f in finals),
        best_restart=best,
        restart_iterations=tuple(o.iterations for o in outcomes),
        restart_stops=tuple(o.stop for o in outcomes),
        restart_rungs=tuple(o.rungs for o in outcomes),
    )


def _attained(ensemble: Ensemble, member_value) -> float:
    """The weighted ``member_value`` of the ensemble's normalized members."""
    member_vals = member_value(np.array([s.amplitudes for s in ensemble.states]))
    return float(np.dot(ensemble.weights, member_vals))


def _exact(problem: RoofProblem, member_value, lower_bound: float) -> RoofResult | None:
    """Wootters' decomposition of a two-qubit ``problem.rho`` as the result,
    where it has at most m members and attains ``lower_bound`` + ``tol``;
    None where it does not, and the engine solves."""
    b = _eigen_factor(problem.rho)
    v = wootters_isometry(b)
    if len(v) > _checked_ensemble_size(b, problem.ensemble_size):
        return None
    ensemble = ensemble_from_isometry(problem.rho, v)
    value = _attained(ensemble, member_value)
    if not value <= lower_bound + problem.tol:
        return None
    return RoofResult(value=value, ensemble=ensemble, objective_trace=(), converged=True,
                      gap_estimate=max(0.0, value - lower_bound), lower_bound=lower_bound)


def solve_roof(problem: RoofProblem) -> RoofResult:
    """Numerical roof extension of ``problem.measure`` at ``problem.rho``.

    Runs ``restarts`` independent seeded descents and returns the best. The
    result value is an upper bound on the infimum when minimizing (lower
    bound on the supremum when maximizing). It is the weighted
    :func:`entroof.measures.measure_value` of the returned members (one
    stacked SVD), the route that is accurate near product states.
    A minimized two-qubit roof of a measure that declares
    ``Measure.convex_in_concurrence`` is exact: Wootters' decomposition,
    when it fits the ensemble size and attains the bound within ``tol``,
    is returned without a descent, and otherwise the descent stops at the
    bound (see the module docstring).
    """
    spec, dims = problem.measure, problem.rho.dims
    member_value = partial(measure_value, spec, dims=dims)
    lower_bound = None
    if problem.direction == "minimize" and dims.as_tuple() == (2, 2):
        lower_bound = roof_lower_bound(problem.rho, spec)
    if lower_bound is not None and (exact := _exact(problem, member_value, lower_bound)):
        return exact
    # the gradient is built here, not read from objective.grad: the layer trace
    # (perfbench/tracing.py) swaps make_objective for a wrapper without one
    return _solve(
        problem.rho,
        make_objective(spec, dims),
        make_gradient(spec, dims),
        member_value,
        problem.direction,
        problem.ensemble_size,
        problem.restarts,
        problem.max_iters,
        problem.tol,
        problem.seed,
        MEASURES[spec.kind].smoothing,
        lower_bound,
    )


def concave_roof(problem: RoofProblem) -> RoofResult:
    """Maximizing counterpart of :func:`solve_roof` (for increasing monotones)."""
    return solve_roof(replace(problem, direction="maximize"))


def channel_entropy(
    rho: DensityOperator,
    kraus: list[np.ndarray],
    log_base: float = 2.0,
    **opts,
) -> float:
    """Output entropy of the channel at rho minus the minimal average output
    entropy over pure-state decompositions of rho.

    The minimum is the entropy roof of the Stinespring dilation: with
    V = sum_k K_k (x) |k>, the output-side reduced state of V psi is
    Phi(psi) and |V chi|^2 = |chi|^2, so the decompositions of V rho V^H
    are exactly the images under V of the decompositions of rho, with the
    same weights, and the minimum equals the ``entropy`` roof of V rho V^H
    across (output | environment). ``log_base`` is 2 or e; ``opts`` are the
    :class:`RoofProblem` fields ``ensemble_size``, ``restarts``,
    ``max_iters``, ``tol`` and ``seed``.
    """
    ops = [np.asarray(k, dtype=np.complex128) for k in kraus]
    issue = instrument_issue(ops)
    if issue:
        invariant, message, residual = issue
        raise InvariantViolation(invariant, residual or 0.0, message)
    ops = np.stack(ops)
    n_ops, d_out, dim_in = ops.shape
    if dim_in != rho.dims.total:
        raise InvariantViolation(
            "kraus-dims", 0.0,
            f"channel acts on dim {dim_in}, state lives in dim {rho.dims.total}")
    spec = MeasureSpec(ENTROPY, log_base=log_base)
    v = ops.transpose(1, 0, 2).reshape(d_out * n_ops, dim_in)
    dilated = v @ rho.matrix @ v.conj().T
    dilated = (dilated + dilated.conj().T) / 2
    # completeness holds to KRAUS_ATOL only, the trace check is tighter
    dilated = DensityOperator(dilated / np.trace(dilated).real, BipartiteDims(d_out, n_ops))
    output = sum(op @ rho.matrix @ op.conj().T for op in ops)
    inner = solve_roof(RoofProblem(dilated, spec, **opts))
    return von_neumann_entropy(output, log_base) - inner.value
