"""Convex- and concave-roof extension of pure-state measures.

Every finite pure-state decomposition of a density operator rho arises from
an isometry acting on its eigen-ensemble: if rho = sum_j p_j |e_j><e_j| has
rank r and V is an m x r matrix with V^dagger V = I, the unnormalized
vectors chi_i = sum_j V[i, j] sqrt(p_j) |e_j> satisfy
sum_i |chi_i><chi_i| = rho, giving an ensemble with weights ||chi_i||^2.
The roof value is found by multi-start descent over such isometries: the
exact gradient of the ensemble-averaged measure in the ambient coordinates
of V is projected onto the tangent space of the isometry manifold, stepped
with a spectral (Barzilai-Borwein) initial step under nonmonotone Armijo
backtracking, and re-orthonormalized by a QR retraction after every step.
The Armijo test compares a trial step with the Zhang-Hager reference, an
average of the restart's recent stage objectives weighted by powers of
NONMONOTONE_ETA (Zhang & Hager, SIAM J. Optim. 14, 2004; Wen & Yin use it
on orthogonality constraints, Math. Program. 142, 2013), rather than with
the current value, so a spectral step that briefly raises the objective is
kept instead of backtracked. Each restart warms up on a slightly smoothed
objective and periodically tries an alternating-projection product polish
(see the constants below); both devices address the conic kinks faithful
measures have at their zeros.

A smoothing stage ends by one of two stopping rules. The rounding floor:
once the spectral step t and the tangent gradient xi predict a decrease
t |xi|^2 of at most FLOOR_ULPS ulps of the stage objective, the restart
has converged to machine precision and stops at once, without a line
search. The window: the best stage objective since the stage began fell by
less than ``tol`` (or 1e-3 times the smoothing parameter) over the last
WINDOW iterations. It reads the best value rather than the current one,
which a nonmonotone step may have raised. A restart that spends
``max_iters`` before its last stage ends stops on its budget;
``RoofResult.restart_stops`` records which rule ended each one.

Member i contributes |chi_i|^2 f(chi_i) and depends on row i of V only, so
the gradient is 2 (d/dchi_i^*) B^* row by row. The objective supplies
d(|chi|^2 f)/dchi^* (its ``grad``; for built-in measures the derivative of
a spectral function, :func:`entroof.measures.make_gradient`), and the
smoothing stage's sqrt(f^2 + eps^2) - eps is applied to it in closed form.
An iterate's raw (eps = 0) objective comes from its stage evaluation.

All restarts of a solve descend in lockstep as one stack of isometries
(R, m, r), one row per restart: each step makes one gradient call, one
tangent projection and a few stacked line-search calls for the whole
batch, and a restart leaves the batch when it converges or spends its
budget. Runs are deterministic: restart k draws from a generator seeded by
(seed, k), and stacked numpy calls act on each isometry as single calls
do, so a restart's outcome does not depend on the other restarts in its
batch. Results are merged by best value with ties broken by restart index.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from .linalg import _qr_fix, clip_spectrum, eigh_desc, kraus_residual, trace_norm
from .measures import (
    KINK_FLOOR,
    MeasureSpec,
    make_gradient,
    make_objective,
    validate_spec_dims,
    von_neumann_entropy,
)
from .sampling import ginibre, random_isometry
from .states import KRAUS_ATOL, BipartiteDims, DensityOperator, InvariantViolation, PureState

STALL_NUDGE = 1e-10      # iterate perturbation when the line search stalls
WINDOW = 20              # iterations over which the stopping rule measures progress
# Rounding-floor stop: a row whose spectral step t and tangent gradient
# |xi|^2 predict a decrease t |xi|^2 of at most FLOOR_ULPS ulps of its stage
# objective f has converged to machine precision. Backtracking could only
# trade rounding noise there, so the row ends its stage at once instead of
# waiting out the WINDOW.
FLOOR_ULPS = 16
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
# Backtracking ladder of the line search: steps t, t/2, ..., t/2^39.
LINE_SEARCH_RUNGS = 40
# Age discount of the line search's Zhang-Hager reference (see _Engine._descend)
NONMONOTONE_ETA = 0.85
# Largest complex array one solve may allocate: the screened candidates'
# member vectors (SCREEN_CANDIDATES * m * n), or the line search's member
# vectors for a chunk of restarts, at most LINE_SEARCH_RUNGS * chunk * m * n;
# the chunk is sized to fit. The limit admits the default m = r^2 up to an
# 8x8 full-rank state; larger ensembles are rejected before any allocation.
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
    ``restart_values``, ``restart_iterations`` and ``restart_stops`` hold
    each restart's best objective, its number of iterations and why it
    stopped, in restart order: "floor" (its last stage reached the rounding
    floor), "window" (its last stage's best objective improved by less
    than ``tol`` over WINDOW iterations) or "budget" (it spent
    ``max_iters`` without converging). ``restart_rungs`` holds each
    restart's line-search rungs summed over its iterations, as a search of
    that restart alone tries them: the accepted rung's index + 1, or
    LINE_SEARCH_RUNGS when no rung passes.
    """

    value: float
    ensemble: Ensemble
    objective_trace: tuple[float, ...]
    converged: bool
    gap_estimate: float
    restart_values: tuple[float, ...] = field(default=(), compare=False)
    best_restart: int = field(default=0, compare=False)
    stall_iterations: tuple[int, ...] = field(default=(), compare=False)
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
    return int(np.count_nonzero(clip_spectrum(np.linalg.eigvalsh(rho.matrix))))


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
# of the RoofResult fields objective_trace, converged, stall_iterations,
# restart_iterations, restart_stops and restart_rungs.
_Outcome = namedtuple("_Outcome", "best_f best_v trace converged stalls iterations stop rungs")


class _Rows(SimpleNamespace):
    """The restarts of one lockstep descent, one row each.

    Every field is indexed by row: chunk position ``pos``, generator
    ``rng``, iterate ``v``, stage and raw objectives ``f`` and ``raw``,
    smoothing ``stage`` and the iteration ``start`` it began at, step
    memory (``memory`` and the last move ``prev_v``, ``prev_xi``),
    Zhang-Hager reference ``ref`` and weight ``ref_w``, the stage's best
    objective ``low`` with a ring ``lows`` of its last WINDOW + 1 values
    (iteration it in column it mod WINDOW + 1), best raw objective
    ``best_f`` and its isometry ``best_v``, line-search rungs tried
    ``rungs`` and stalled iterations ``stalls``.
    """

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where ``mask`` is False from every field."""
        vars(self).update({
            name: value[mask] if isinstance(value, np.ndarray)
            else [x for x, k in zip(value, mask) if k]
            for name, value in vars(self).items()})

    def reset(self, rows: np.ndarray) -> None:
        """Restart the reference of ``rows`` at (f, 1) and drop their step memory."""
        self.ref[rows], self.ref_w[rows] = self.f[rows], 1.0
        self.memory[rows] = False


class _Engine:
    """Shared machinery for one roof optimization (all restarts).

    ``grad`` is the gradient of ``objective`` as described at
    :func:`solve_roof_custom`; by default the objective's own ``grad``.
    Restarts run in lockstep, ``chunk`` of them at a time, as one stack of
    isometries (R, m, r); ``chunk`` keeps the line search's stacked member
    vectors (LINE_SEARCH_RUNGS * chunk * m * n) within MAX_WORK_ENTRIES.
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
        # at least 6: SCREEN_CANDIDATES * m * n fits the limit (checked
        # above) and SCREEN_CANDIDATES > 6 * LINE_SEARCH_RUNGS
        self.chunk = min(restarts, MAX_WORK_ENTRIES // (LINE_SEARCH_RUNGS * m * self.n))

    def member_contrib(self, chi: np.ndarray, eps=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Weight-times-measure of unnormalized member vectors (..., n), at
        the smoothing stage and raw (eps = 0), from one objective call.

        ``eps`` is the smoothing stage: a float, or an array over the stack
        axes of members (..., m, n), one stage per isometry.
        """
        w = np.sum(np.abs(chi) ** 2, axis=-1)
        vals = self.objective(chi)
        raw = self.sign * (w * vals)
        e = np.asarray(eps)[..., None]
        if not np.any(e):
            return raw, raw
        vals = np.where(e > 0, np.sqrt(vals * vals + e * e) - e, vals)
        return self.sign * (w * vals), raw

    def totals(self, v: np.ndarray, eps=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Stage and raw objective of each isometry in a stack (..., m, r)."""
        stage, raw = self.member_contrib(v @ self.b.T, eps)
        return np.sum(stage, axis=-1), np.sum(raw, axis=-1)

    def _gradient(self, chi: np.ndarray, eps) -> np.ndarray:
        """d total / d Re V + i d total / d Im V at the members chi = V B^T,
        for members (..., m, n) and ``eps`` as in :meth:`member_contrib`."""
        f, g = self.grad(chi)
        e = np.asarray(eps)[..., None]
        if np.any(e):
            # d/dchi^* of |chi|^2 s(f), s(f) = sqrt(f^2 + eps^2) - eps:
            # s(f) chi + s'(f) (g - f chi); rows at eps = 0 keep g
            with np.errstate(divide="ignore", invalid="ignore"):
                root = np.sqrt(f * f + e * e)
                slope = f / root
                smooth = (root - e - slope * f)[..., None] * chi + slope[..., None] * g
            g = np.where(e[..., None] > 0, smooth, g)
        return 2.0 * self.sign * (g @ self.b.conj())

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
            u, s, vh = np.linalg.svd(c)
            tau = (s[:, 0, None, None] * u[:, :, :1] @ vh[:, :1, :]).reshape(-1, self.m, self.n)
            u2, _, w2 = np.linalg.svd(tau @ self.b.conj(), full_matrices=False)
            v_new = u2 @ w2
            fixed = np.max(np.abs(v_new - v), axis=(-2, -1)) < 1e-14
            out[live[fixed]] = v_new[fixed]
            live, v = live[~fixed], v_new[~fixed]
            if not live.size:
                return out
        out[live] = v
        return out

    def _initial_point(self, k: int, rng: np.random.Generator) -> np.ndarray:
        if k % 2 == 0:
            return random_isometry(self.m, self.r, rng)
        vs = _qr_fix(ginibre(rng, SCREEN_CANDIDATES, self.m, self.r))
        totals = np.sum(self.member_contrib(
            np.einsum("smr,nr->smn", vs, self.b))[0], axis=-1)
        return vs[int(np.argmin(totals))].copy()  # a view would keep all of vs alive

    def _line_search(self, v, xi, ref, t, gnorm2, eps):
        """Nonmonotone Armijo backtracking for a stack of iterates: each row
        takes the first of t, t/2, ... (LINE_SEARCH_RUNGS rungs) with
        f_new <= ref - 1e-4 t gnorm2, the choice sequential backtracking
        makes; ``ref`` is the row's Zhang-Hager reference (see _descend).
        Rungs are tried in blocks of 1, 2, 4, ... for every row still
        searching, so a row that passes early costs about what it would
        alone, and each block is one stacked call.
        Returns (ok, v_new, f_new, raw_new, tried); rows with ok False found
        no rung, and tried counts the rungs a sequential search tries: the
        accepted rung's index + 1, or LINE_SEARCH_RUNGS."""
        ok = np.zeros(len(v), dtype=bool)
        v_new, f_new, raw_new = np.empty_like(v), np.empty_like(ref), np.empty_like(ref)
        tried = np.full(len(v), LINE_SEARCH_RUNGS)
        rows = np.arange(len(v))
        ladder = t[:, None]  # rungs of the current block, one row per iterate
        lo = 0
        while True:
            vs = _qr_fix(v[rows, None] - ladder[..., None, None] * xi[rows, None])
            fs, raws = self.totals(vs, eps[rows, None])
            armijo = fs <= ref[rows, None] - 1e-4 * ladder * gnorm2[rows, None]
            rung = np.argmax(armijo, axis=1)
            hit = armijo[np.arange(rows.size), rung]
            ok[rows[hit]] = True
            tried[rows[hit]] = lo + rung[hit] + 1
            v_new[rows[hit]] = vs[hit, rung[hit]]
            f_new[rows[hit]] = fs[hit, rung[hit]]
            raw_new[rows[hit]] = raws[hit, rung[hit]]
            rows = rows[~hit]
            lo += ladder.shape[1]
            if not rows.size or lo == LINE_SEARCH_RUNGS:
                return ok, v_new, f_new, raw_new, tried
            # halve step by step from each row's last rung, as a sequential
            # search would; a block stacks at most as many isometries as
            # start screening, which sets the solve's peak memory
            size = min(2 * ladder.shape[1], LINE_SEARCH_RUNGS - lo,
                       max(1, SCREEN_CANDIDATES // rows.size))
            halves = np.full((rows.size, size + 1), 0.5)
            halves[:, 0] = ladder[~hit, -1]
            ladder = np.multiply.accumulate(halves, axis=1)[:, 1:]

    def run(self) -> list:
        """Every restart's :data:`_Outcome`, in restart order, ``chunk`` at a time."""
        return [o for lo in range(0, self.restarts, self.chunk)
                for o in self._descend(range(lo, min(lo + self.chunk, self.restarts)))]

    def _descend(self, ks: range) -> list:
        """Descend restarts ``ks`` in lockstep, one row of a :class:`_Rows` each.

        Restart k draws from a generator seeded by (seed, k) and every step
        treats each row of the stack as a descent of that restart alone
        would treat its iterate (``tests/util.py::sequential_restart``), so
        a restart's outcome does not depend on which restarts share its
        batch.

        The reference starts at (f, 1) and after an accepted step f_new
        becomes ref' = (eta ref_w ref + f_new) / ref_w', ref_w' =
        eta ref_w + 1 (eta = NONMONOTONE_ETA): an average of the stage
        objectives since its last reset, weighted by eta^age. Wherever f
        is replaced other than by a line search (the stall nudge, an
        accepted polish and a stage advance), ``_Rows.reset`` restarts it
        at (f, 1) and drops the step memory. An accepted step may raise f,
        so the WINDOW rule reads low, which only falls. A stage converges
        at the rounding floor (FLOOR_ULPS), where the row skips its line
        search, stall nudge and polish, or by the WINDOW rule. A row
        leaves the batch (``_Rows.keep``) when its last stage converges or
        its iteration budget is spent.
        """
        stages = np.array(SMOOTHING_STAGES)
        rng = [np.random.default_rng(np.random.SeedSequence([self.seed, k])) for k in ks]
        v = np.stack([self._initial_point(k, g) for k, g in zip(ks, rng)])
        f, raw = self.totals(v, stages[0])
        n = len(ks)
        rows = _Rows(pos=np.arange(n), rng=rng, v=v, f=f, raw=raw, stage=np.zeros(n, dtype=int),
                     start=np.zeros(n, dtype=int), memory=np.zeros(n, dtype=bool),
                     prev_v=np.zeros_like(v), prev_xi=np.zeros_like(v), ref=f.copy(),
                     ref_w=np.ones(n), low=f.copy(), lows=np.zeros((n, WINDOW + 1)),
                     best_f=raw.copy(), best_v=v.copy(), rungs=np.zeros(n, dtype=int),
                     stalls=[[] for _ in ks])
        outcomes: list = [None] * n
        trace: list[np.ndarray] = []  # best_f per iteration, by chunk position
        it = 0
        while rows.pos.size:
            # v, f and raw are the record's own arrays: writing them writes the rows
            v, f, raw, eps = rows.v, rows.f, rows.raw, stages[rows.stage]
            grad = self._gradient(v @ self.b.T, eps)
            vh = v.conj().swapaxes(-1, -2)
            xi = grad - v @ ((vh @ grad + grad.conj().swapaxes(-1, -2) @ v) / 2.0)
            gnorm2 = np.sum(np.abs(xi) ** 2, axis=(-2, -1))
            # spectral (Barzilai-Borwein) initial step from the last move
            step = np.full(len(v), np.nan)
            if rows.memory.any():
                s = v - rows.prev_v
                y = xi - rows.prev_xi
                num = np.sum((s.conj() * s).real, axis=(-2, -1))
                den = np.sum((s.conj() * y).real, axis=(-2, -1))
                np.divide(num, den, out=step,
                          where=rows.memory & (den > 1e-300) & np.isfinite(den))
            floor = rows.memory & (step * gnorm2 <= FLOOR_ULPS * np.finfo(float).eps * np.abs(f))
            accepted = np.zeros(len(v), dtype=bool)
            search = np.flatnonzero((gnorm2 > 0.0) & ~floor)
            if search.size:
                st, g2 = step[search], gnorm2[search]
                t = np.where((st > 0.0) & (st < 1e6), st, 1.0 / np.sqrt(g2))
                ok, v_new, f_new, raw_new, tried = self._line_search(
                    v[search], xi[search], rows.ref[search], t, g2, eps[search])
                rows.rungs[search] += tried
                moved = search[ok]
                rows.prev_v[moved], rows.prev_xi[moved] = v[moved], xi[moved]
                v[moved], f[moved], raw[moved] = v_new[ok], f_new[ok], raw_new[ok]
                w = NONMONOTONE_ETA * rows.ref_w[moved] + 1.0
                rows.ref[moved] = (NONMONOTONE_ETA * rows.ref_w[moved] * rows.ref[moved]
                                   + f[moved]) / w
                rows.ref_w[moved] = w
                rows.memory[moved] = True
                accepted[moved] = True
            stalled = np.flatnonzero(~(accepted | floor))
            if stalled.size:
                # likely a non-smooth point (degenerate Schmidt values):
                # nudge the iterate and reset the step memory
                for i in stalled:
                    rows.stalls[i].append(it)
                noise = np.stack([ginibre(rows.rng[i], *v.shape[1:]) for i in stalled])
                v[stalled] = _qr_fix(v[stalled] + STALL_NUDGE * noise)
                f[stalled], raw[stalled] = self.totals(v[stalled], eps[stalled])
                rows.reset(stalled)
            if self.sign > 0:
                due = np.flatnonzero((f < POLISH_THRESHOLD) & ~floor
                                     & ((it - rows.start) % POLISH_EVERY == POLISH_EVERY - 1))
                if due.size:
                    cand = self.product_polish(v[due])
                    f_cand, raw_cand = self.totals(cand, eps[due])
                    better = f_cand < f[due]
                    took = due[better]
                    v[took], f[took], raw[took] = cand[better], f_cand[better], raw_cand[better]
                    rows.reset(took)
            better = raw < rows.best_f
            rows.best_f[better], rows.best_v[better] = raw[better], v[better]
            np.minimum(rows.low, f, out=rows.low)
            trace.append(np.full(n, np.nan))
            trace[-1][rows.pos] = rows.best_f
            rows.lows[:, it % (WINDOW + 1)] = rows.low
            it += 1
            # stopping rules: the rounding floor, or progress of the stage's
            # best objective over the last WINDOW iterations
            window = it - 1 - rows.start >= WINDOW
            converged = floor | (window & (rows.lows[:, it % (WINDOW + 1)] - rows.low
                                           < np.maximum(self.tol, eps * 1e-3)))
            last = rows.stage == len(SMOOTHING_STAGES) - 1
            spent = it >= self.max_iters
            advance = np.flatnonzero(converged & ~last & (not spent))
            if advance.size:
                rows.stage[advance] += 1
                f[advance] = self.totals(v[advance], stages[rows.stage[advance]])[0]
                rows.reset(advance)
                rows.low[advance] = f[advance]
                rows.start[advance] = it
            done = (converged & last) | spent
            if done.any():
                for i in np.flatnonzero(done):
                    conv = bool(converged[i] and last[i])
                    stop = "budget" if not conv else "floor" if floor[i] else "window"
                    outcomes[rows.pos[i]] = _Outcome(
                        float(rows.best_f[i]), rows.best_v[i].copy(), None, conv,
                        rows.stalls[i], it, stop, int(rows.rungs[i]))
                rows.keep(~done)
        table = np.array(trace)
        return [o._replace(trace=table[:o.iterations, i].tolist())
                for i, o in enumerate(outcomes)]


def solve_roof_custom(
    rho: DensityOperator,
    objective,
    direction: str = "minimize",
    ensemble_size: int | None = None,
    restarts: int = 32,
    max_iters: int = 2000,
    tol: float = 1e-9,
    seed: int = 0,
) -> RoofResult:
    """Roof optimization of an arbitrary vectorized pure-state objective.

    ``objective`` maps stacks of normalized state vectors (..., n) to values
    (...,) and carries its gradient as ``objective.grad``: a function of
    unnormalized vectors chi (..., n) returning ``(values, g)``, the
    objective at chi/|chi| and g = d(|chi|^2 objective(chi/|chi|))/d chi^*.
    Objectives from :func:`entroof.measures.make_objective` and
    :func:`entroof.measures.decreasing_counterpart` carry one. Both are
    called on stacks over restarts and line-search steps; a restart's
    result is independent of the others when each entry of a stack comes
    out as it would from a call on that entry alone. See :func:`solve_roof`
    for the MeasureSpec-driven interface.
    """
    _check_solver_args(direction, restarts, max_iters, tol)
    grad = getattr(objective, "grad", None)
    if not callable(grad):
        raise ValueError("objective needs a gradient: set objective.grad to a function "
                         "chi -> (values, d(|chi|^2 values)/d conj(chi))")
    return _solve(rho, objective, grad, direction, ensemble_size, restarts, max_iters,
                  tol, seed)


def _solve(rho, objective, grad, direction, ensemble_size, restarts, max_iters, tol,
           seed) -> RoofResult:
    eng = _Engine(rho, objective, direction, ensemble_size, restarts, max_iters, tol, seed,
                  grad)
    outcomes = eng.run()
    finals = np.array([o.best_f for o in outcomes])
    best = int(np.argmin(finals))
    top = outcomes[best]
    gap = abs(float(np.min(np.delete(finals, best))) - top.best_f) if restarts > 1 else 0.0

    ensemble = ensemble_from_isometry(rho, top.best_v)
    member_vals = eng.objective(np.array([s.amplitudes for s in ensemble.states]))
    value = float(np.dot(ensemble.weights, member_vals))
    return RoofResult(
        value=value,
        ensemble=ensemble,
        objective_trace=tuple(eng.sign * f for f in top.trace),
        converged=top.converged,
        gap_estimate=gap,
        restart_values=tuple(eng.sign * f for f in finals),
        best_restart=best,
        stall_iterations=tuple(top.stalls),
        restart_iterations=tuple(o.iterations for o in outcomes),
        restart_stops=tuple(o.stop for o in outcomes),
        restart_rungs=tuple(o.rungs for o in outcomes),
    )


def solve_roof(problem: RoofProblem) -> RoofResult:
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
    )


def concave_roof(problem: RoofProblem) -> RoofResult:
    """Maximizing counterpart of :func:`solve_roof` (for increasing monotones)."""
    return solve_roof(replace(problem, direction="maximize"))


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
