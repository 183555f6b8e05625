"""Shared fixtures: canonical states, tree builders, and an independent
sampling oracle for roof values (numpy-only, no optimizer internals)."""

from __future__ import annotations

import numpy as np

from entroof import BipartiteDims, DensityOperator, PureState
from entroof.locc import LoccNode
from entroof.sampling import random_instrument

DIMS22 = BipartiteDims(2, 2)


def bell() -> PureState:
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), DIMS22)


def product_01() -> PureState:
    return PureState(np.array([0.0, 1.0, 0.0, 0.0], dtype=complex), DIMS22)


def diag_state(l1: float, l2: float) -> PureState:
    """sqrt(l1)|00> + sqrt(l2)|11>, Schmidt spectrum (l1, l2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(l1)
    v[3] = np.sqrt(l2)
    return PureState(v, DIMS22)


def leaf(party: str = "A") -> LoccNode:
    return LoccNode(party)


def one_round_tree(rng: np.random.Generator, party: str, outcomes: int = 2,
                   dim: int = 2) -> LoccNode:
    kraus = random_instrument(dim, outcomes, rng)
    return LoccNode(party, kraus=tuple(kraus),
                    children=tuple(leaf(party) for _ in kraus))


def two_round_tree(rng: np.random.Generator, first: str, second: str,
                   outcomes: int = 2, dim: int = 2) -> LoccNode:
    kraus = random_instrument(dim, outcomes, rng)
    kids = []
    for _ in kraus:
        sub = random_instrument(dim, outcomes, rng)
        kids.append(LoccNode(second, kraus=tuple(sub),
                             children=tuple(leaf(second) for _ in sub)))
    return LoccNode(first, kraus=tuple(kraus), children=tuple(kids))


def sampling_oracle_roof(
    rho: DensityOperator,
    member_value,
    samples: int = 100_000,
    ensemble_size: int | None = None,
    seed: int = 0,
    polish_steps: int = 3000,
) -> float:
    """Dense random-sampling + stochastic-polish upper bound on a convex roof.

    Independent of the package optimizer: eigendecomposition, isometry
    sampling, and the polish are plain numpy here, and ``member_value``
    maps stacks of normalized state vectors to measure values (tests pass
    an SVD-based implementation).
    """
    w, v = np.linalg.eigh(rho.matrix)
    keep = w > 1e-12 * w.max()
    b = v[:, keep] * np.sqrt(w[keep])
    r = b.shape[1]
    m = ensemble_size if ensemble_size is not None else r * r
    rng = np.random.default_rng(seed)

    def average(vs: np.ndarray) -> np.ndarray:
        chi = vs @ b.T                      # (..., m, n)
        wts = np.sum(np.abs(chi) ** 2, axis=-1)
        psi = chi / np.sqrt(np.maximum(wts, 1e-300))[..., None]
        return np.sum(wts * member_value(psi), axis=-1)

    g = rng.normal(size=(samples, m, r)) + 1j * rng.normal(size=(samples, m, r))
    vs = np.linalg.qr(g)[0]
    vals = average(vs)
    best_idx = int(np.argmin(vals))
    best_v, best = vs[best_idx], float(vals[best_idx])

    sigma = 0.3
    for step in range(polish_steps):
        cand = np.linalg.qr(
            best_v + sigma * (rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r))))[0]
        val = float(average(cand[None])[0])
        if val < best:
            best_v, best = cand, val
        else:
            sigma *= 0.999
    return best


def svd_member_e(psi: np.ndarray) -> np.ndarray:
    """Entanglement number of normalized two-qubit state stacks via SVD."""
    c = psi.reshape(psi.shape[:-1] + (2, 2))
    s = np.linalg.svd(c, compute_uv=False)
    lams = s * s
    return np.sqrt(np.maximum(1.0 - np.sum(lams * lams, axis=-1), 0.0))


FD_STEP = 1e-6


def fd_gradient(member_contrib, chi: np.ndarray, b: np.ndarray,
                step: float = FD_STEP) -> np.ndarray:
    """Central finite-difference gradient d/dRe V + i d/dIm V of
    sum_i member_contrib(chi_i), at the members chi = V B^T.

    V[i, j] enters member i only, as V[i, j] B[:, j], so each coordinate is
    probed by shifting that one member by +-step B[:, j] (real part) or
    +-i step B[:, j] (imaginary part). ``member_contrib`` maps member stacks
    (..., n) to contributions (...,).
    """
    delta = np.empty((b.shape[1], 2, 2, b.shape[0]), dtype=np.complex128)
    delta[:, 0, 0] = step * b.T
    delta[:, 0, 1] = -step * b.T
    delta[:, 1, 0] = 1j * step * b.T
    delta[:, 1, 1] = -1j * step * b.T
    c = member_contrib(chi[:, None, None, None, :] + delta[None])  # (m, r, part, sign)
    g = (c[..., 0] - c[..., 1]) / (2.0 * step)
    return g[..., 0] + 1j * g[..., 1]


def eigh_gradient(spec, dims):
    """Reference for ``entroof.measures.make_gradient``: the spectral
    gradient U diag(dg/dmu) U^dagger C from a batched ``eigh`` of the
    smaller Gram matrix, at every d (the library takes a closed form at
    d = 2)."""
    from entroof.measures import MEASURES

    measure = MEASURES[spec.kind]
    da, db = dims.as_tuple()

    def gradient(chi):
        c = chi.reshape(chi.shape[:-1] + (da, db))
        ch = c.conj().swapaxes(-1, -2)
        mu, u = np.linalg.eigh(c @ ch if da <= db else ch @ c)
        mu, u = np.maximum(mu[..., ::-1], 0.0), u[..., ::-1]
        lams = mu / np.maximum(np.sum(mu, axis=-1, keepdims=True), 1e-300)
        f = measure.value(spec, lams, dims.d)
        fp = measure.deriv(spec, lams, dims.d)
        coef = f[..., None] + fp - np.sum(lams * fp, axis=-1, keepdims=True)
        proj = (u * coef[..., None, :]) @ u.conj().swapaxes(-1, -2)
        return f, (proj @ c if da <= db else c @ proj).reshape(chi.shape)

    return gradient


def sequential_restart(engine, k: int):
    """Restart k of a roof ``engine`` (``entroof.roof._Engine``), run alone
    with one iterate at a time: the reference for the lockstep batch.

    Returns the ``_Outcome`` the engine's ``run`` gives for restart k.
    """
    from entroof.linalg import _qr_fix
    from entroof.roof import (FLOOR_ULPS, LINE_SEARCH_RUNGS, NONMONOTONE_ETA, POLISH_EVERY,
                              POLISH_THRESHOLD, SMOOTHING_STAGES, STALL_NUDGE, WINDOW,
                              _Outcome)

    b = engine.b

    def total(v, eps=0.0):
        chi = v @ b.T
        vals = engine.objective(chi)
        if eps:
            vals = np.sqrt(vals * vals + eps * eps) - eps
        return float(np.sum(engine.sign * (np.sum(np.abs(chi) ** 2, axis=-1) * vals)))

    def gradient(v, eps):
        chi = v @ b.T
        f, g = engine.grad(chi)
        if eps:
            root = np.sqrt(f * f + eps * eps)
            slope = f / root
            g = (root - eps - slope * f)[:, None] * chi + slope[:, None] * g
        return 2.0 * engine.sign * (g @ b.conj())

    def polish(v, iters=60):
        for _ in range(iters):
            c = (v @ b.T).reshape(-1, engine.da, engine.db)
            u, s, vh = np.linalg.svd(c)
            tau = (s[:, 0, None, None] * u[:, :, :1] @ vh[:, :1, :]).reshape(-1, engine.n)
            u2, _, w2 = np.linalg.svd(tau @ b.conj(), full_matrices=False)
            v_new = u2 @ w2
            if float(np.max(np.abs(v_new - v))) < 1e-14:
                return v_new
            v = v_new
        return v

    rng = np.random.default_rng(np.random.SeedSequence([engine.seed, k]))
    v = engine._initial_point(k, rng)
    best_f, best_v = total(v), v
    trace, stalls = [], []
    it = rungs = 0
    converged = False
    for eps in SMOOTHING_STAGES:
        f = total(v, eps)
        # Zhang-Hager reference and weight, and the stage's best value
        ref, ref_w, low = f, 1.0, f
        prev_v = prev_xi = step = None
        stage_trace = []
        converged = False
        while it < engine.max_iters:
            grad = gradient(v, eps)
            xi = grad - v @ ((v.conj().T @ grad + grad.conj().T @ v) / 2.0)
            gnorm2 = float(np.sum(np.abs(xi) ** 2))
            if prev_v is not None:
                s, y = v - prev_v, xi - prev_xi
                num = float(np.sum((s.conj() * s).real))
                den = float(np.sum((s.conj() * y).real))
                step = num / den if den > 1e-300 and np.isfinite(den) else None
            # rounding floor: the step predicts a decrease of a few ulps of f
            floor = (step is not None
                     and step * gnorm2 <= FLOOR_ULPS * np.finfo(float).eps * abs(f))
            accepted = False
            if gnorm2 > 0.0 and not floor:
                t = step if step and 0.0 < step < 1e6 else 1.0 / np.sqrt(gnorm2)
                for _ in range(LINE_SEARCH_RUNGS):
                    rungs += 1
                    v_new = _qr_fix(v - t * xi)
                    f_new = total(v_new, eps)
                    if f_new <= ref - 1e-4 * t * gnorm2:
                        prev_v, prev_xi, v, f = v, xi, v_new, f_new
                        w = NONMONOTONE_ETA * ref_w + 1.0
                        ref, ref_w = (NONMONOTONE_ETA * ref_w * ref + f) / w, w
                        accepted = True
                        break
                    t *= 0.5
            if not accepted and not floor:
                stalls.append(it)
                v = _qr_fix(v + STALL_NUDGE * (
                    rng.normal(size=v.shape) + 1j * rng.normal(size=v.shape)))
                f = total(v, eps)
                ref, ref_w = f, 1.0
                prev_v = prev_xi = step = None
            if (engine.sign > 0 and f < POLISH_THRESHOLD and not floor
                    and len(stage_trace) % POLISH_EVERY == POLISH_EVERY - 1):
                cand = polish(v)
                f_cand = total(cand, eps)
                if f_cand < f:
                    v, f = cand, f_cand
                    ref, ref_w = f, 1.0
                    prev_v = prev_xi = step = None
            raw = f if eps == 0.0 else total(v)
            if raw < best_f:
                best_f, best_v = raw, v
            trace.append(best_f)
            low = min(low, f)
            stage_trace.append(low)
            it += 1
            j = len(stage_trace) - 1
            if floor or (j >= WINDOW and stage_trace[j - WINDOW] - stage_trace[j]
                         < max(engine.tol, eps * 1e-3)):
                converged = True
                break
        if not converged:
            break
    stop = "budget" if not converged else "floor" if floor else "window"
    return _Outcome(best_f, best_v, trace, converged, stalls, it, stop, rungs)
