"""Shared fixtures: canonical states, tree builders, and an independent
sampling oracle for roof values (numpy-only, no optimizer internals)."""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from entroof import BipartiteDims, DensityOperator, PureState
from entroof.linalg import apply_local
from entroof.locc import PRUNE_TOL, PURE_RANK_ATOL, LoccNode
from entroof.measures import MeasureSpec, measure_value
from entroof.roof import RoofProblem, solve_roof
from entroof.sampling import ginibre, random_instrument, random_isometry, random_unitary

DIMS22 = BipartiteDims(2, 2)
# every spec that declares Measure.convex_in_concurrence, over its parameters
CERTIFIED_SPECS = [
    MeasureSpec("entanglement-number"), MeasureSpec("entropy"),
    MeasureSpec("entropy", log_base=math.e), MeasureSpec("negativity"),
    MeasureSpec("concurrence", k=1), MeasureSpec("concurrence", k=2),
    MeasureSpec("p-number", p=1.5), MeasureSpec("p-number", p=2.0),
]


def spec_id(spec: MeasureSpec) -> str:
    return "-".join([spec.kind] + [f"{name}{getattr(spec, name)}" for name in ("p", "k")
                                   if getattr(spec, name) is not None]
                    + (["ln"] if spec.log_base != 2.0 else []))


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


def edge_rank_density(rng: np.random.Generator) -> DensityOperator:
    """A 2x2 density whose rank hangs on rounding: spectrum (0.6, 0.4 - eps,
    eps, 0) with eps = 6e-13 at the RANK_RTOL cutoff, in a random basis, plus
    2e-14 of complex noise that is not Hermitian, renormalized."""
    eps = 6e-13
    u = random_unitary(4, rng)
    m = (u * np.array([0.6, 0.4 - eps, eps, 0.0])) @ u.conj().T + 2e-14 * ginibre(rng, 4, 4)
    return DensityOperator(m / np.trace(m).real, DIMS22)


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


def shape_mismatch_tree() -> LoccNode:
    """A tree on (2, 2) whose node (0,) holds Kraus operators of shapes 2x2
    and 3x2 (complete, as sum K^H K = I). Below it sits an incomplete
    instrument, an issue of its own were the walk to reach it."""
    proj0, proj1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    below = LoccNode("A", kraus=(np.eye(2, dtype=complex) / 2,), children=(leaf(),))
    odd = LoccNode("A", kraus=(proj0, np.vstack([proj1, np.zeros((1, 2))])),
                   children=(below, leaf()))
    return LoccNode("A", kraus=(proj0, proj1), children=(odd, leaf()))


def iter_nodes(tree: LoccNode):
    """Depth-first (path, node) pairs; the root has the empty path."""
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in reversed(range(len(node.children))):
            stack.append((path + (i,), node.children[i]))


def mixed_party_tree(rng: np.random.Generator) -> LoccNode:
    """A tree on (3, 2) that ends on (3, 3), with Alice and Bob on one level,
    dimension-changing 2 -> 3 operators on Bob's side, a zero-probability
    outcome, and, on :func:`mixed_party_input`, both pure and mixed branches.

    Root outcomes: 0 projects onto span{|1>, |2>} and 1 onto |0> (both
    leave the input pure), 2 keeps the whole input (mixed), 3 is zero.
    """
    eye = np.eye(3, dtype=complex)
    p12, p0 = np.diag([0.0, 1.0, 1.0]).astype(complex), np.diag([1.0, 0.0, 0.0]).astype(complex)
    half = np.sqrt(0.5)

    def grow(outcomes: int) -> LoccNode:   # Bob 2 -> 3, then leaves
        kraus = random_instrument(2, outcomes, rng, dim_out=3)
        return LoccNode("B", kraus=tuple(kraus), children=tuple(leaf("B") for _ in kraus))

    alice = random_instrument(3, 2, rng)
    return LoccNode("A", kraus=(half * p12, half * p0, half * eye, 0 * eye), children=(
        grow(2),
        LoccNode("A", kraus=tuple(alice), children=(grow(1), grow(1))),
        grow(2),
        grow(1),
    ))


def mixed_party_input(rng: np.random.Generator) -> DensityOperator:
    """Rank-2 state on (3, 2): an entangled state supported on Alice's
    |1>, |2> mixed with a product state on her |0>."""
    ent = np.zeros((3, 2), dtype=complex)
    ent[1:] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    prod = np.zeros((3, 2), dtype=complex)
    prod[0] = rng.normal(size=2) + 1j * rng.normal(size=2)
    vecs = [v.ravel() / np.linalg.norm(v) for v in (ent, prod)]
    mat = 0.6 * np.outer(vecs[0], vecs[0].conj()) + 0.4 * np.outer(vecs[1], vecs[1].conj())
    return DensityOperator((mat + mat.conj().T) / 2, BipartiteDims(3, 2))


def per_node_walk(tree: LoccNode, rho: DensityOperator):
    """Reference for ``entroof.locc.run_tree``: a depth-first walk that
    applies each node's Kraus operators with one ``apply_local`` call on
    that node's state. Returns (levels of (path, matrix, probability,
    dims), channel output matrix, output dims)."""
    levels, leaves = [], []
    stack = [(tree, (), rho.matrix, rho.dims.as_tuple())]
    while stack:
        node, path, mat, cur = stack.pop()
        if len(levels) == len(path):
            levels.append([])
        levels[len(path)].append((path, mat, float(np.trace(mat).real), cur))
        if not node.kraus:
            leaves.append((mat, cur))
            continue
        kids = apply_local(np.stack(node.kraus), mat, cur, node.party)
        d_out = node.kraus[0].shape[0]
        nxt = (d_out, cur[1]) if node.party == "A" else (cur[0], d_out)
        for i in reversed(range(len(node.children))):
            stack.append((node.children[i], path + (i,), kids[i], nxt))
    out = sum(mat for mat, _ in leaves)
    return levels, (out + out.conj().T) / 2, leaves[0][1]


def evaluate_density(mat: np.ndarray, dims: tuple[int, int], spec, roof_opts: dict):
    """Reference for the audit's stacked evaluation: one branch at a time,
    (value, method, gap) of a normalized state matrix, exact if rank one."""
    mat = (mat + mat.conj().T) / 2
    bdims = BipartiteDims(*dims)
    w, vecs = np.linalg.eigh(mat)
    if len(w) == 1 or w[-2] <= PURE_RANK_ATOL:
        psi = vecs[:, -1]
        psi = psi / np.linalg.norm(psi)
        return measure_value(spec, PureState(psi, bdims)), "pure", 0.0
    rho = DensityOperator(mat / np.trace(mat).real, bdims)
    result = solve_roof(RoofProblem(rho=rho, measure=spec, **roof_opts))
    return result.value, "roof", result.gap_estimate


def per_branch_audit(tree: LoccNode, rho: DensityOperator, spec, roof_opts: dict,
                     end_to_end: bool):
    """Reference for ``entroof.locc.audit_monotonicity``: every branch of
    :func:`per_node_walk` through :func:`evaluate_density` on its own.
    Returns ({path: (probability, value, method, gap)}, pruned paths in
    level order, (input value, input gap, output value, output gap) or
    None)."""
    levels, output, out_dims = per_node_walk(tree, rho)
    values, pruned = {}, []
    for level in levels:
        for path, mat, prob, dims in level:
            if prob < PRUNE_TOL:
                pruned.append(path)
                continue
            values[path] = (prob, *evaluate_density(mat / prob, dims, spec, roof_opts))
    end = None
    if end_to_end:
        in_val, _, in_gap = evaluate_density(rho.matrix, rho.dims.as_tuple(), spec, roof_opts)
        out_val, _, out_gap = evaluate_density(output, out_dims, spec, roof_opts)
        end = (in_val, in_gap, out_val, out_gap)
    return values, pruned, end


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
        fp = measure.deriv(spec, lams, dims.d, f)
        coef = f[..., None] + fp - np.sum(lams * fp, axis=-1, keepdims=True)
        proj = (u * coef[..., None, :]) @ u.conj().swapaxes(-1, -2)
        return f, (proj @ c if da <= db else c @ proj).reshape(chi.shape)

    return gradient


def _total(engine, v, eps=0.0, vals=None) -> float:
    """Stage objective of one isometry of a roof ``engine`` at smoothing
    ``eps``, from its members' values ``vals`` when given."""
    chi = v @ engine.b.T
    vals = engine.objective(chi) if vals is None else vals
    if eps:
        vals = np.sqrt(vals * vals + eps * eps) - eps
    return float(np.sum(engine.sign * (np.sum(np.abs(chi) ** 2, axis=-1) * vals)))


def sequential_start(engine, k: int):
    """Restart k's start in a roof ``engine``, alone: the random isometry of
    the (seed, k) generator, and its first-stage and raw objectives, both
    from the gradient's member values."""
    v = random_isometry(engine.m, engine.r,
                        np.random.default_rng(np.random.SeedSequence([engine.seed, k])))
    vals = engine.grad(v @ engine.b.T)[0]
    return v, _total(engine, v, engine.stages[0], vals), _total(engine, v, 0.0, vals)


def sequential_restart(engine, k: int, stop_at: int | None = None):
    """Restart k of a roof ``engine`` (``entroof.roof._Engine``), run alone
    with one iterate at a time: the reference for the lockstep batch.

    With the engine's ``cut``, the restart stops "certified" at the end of
    the first iteration where its best raw objective is at or below the
    cut, or of iteration ``stop_at``, where a restart of its batch met the
    cut first. Returns the ``_Outcome`` the engine's ``run`` gives for
    restart k.
    """
    from entroof.linalg import _qr_fix
    from entroof.roof import (FLOOR_ULPS, LBFGS_MEMORY, LINE_SEARCH_RUNGS, NONMONOTONE_ETA,
                              POLISH_EVERY, POLISH_THRESHOLD, STATIONARY, _Outcome)

    b = engine.b
    total = partial(_total, engine)

    def gradient(v, eps):
        chi = v @ b.T
        f, g = engine.grad(chi)
        if eps:
            root = np.sqrt(f * f + eps * eps)
            slope = f / root
            g = (root - eps - slope * f)[:, None] * chi + slope[:, None] * g
        return 2.0 * engine.sign * (g @ b.conj())

    def tangent(v, z):
        a = v.conj().T @ z
        return z - v @ ((a + a.conj().T) / 2.0)

    def real(z):
        return z.view(np.float64).ravel()

    def lbfgs(s, y, rho, gamma, q):
        # the two-loop recursion's H q in compact form, over the memory's
        # rows s, y (newest first, zero past the stored pairs) with rho =
        # 1 / <s, y> (0 there): alpha = K S q, delta = K^T (D alpha + gamma
        # (Y Y^T alpha - Y q)), K = (D + lower triangle of S Y^T)^-1
        # = (I + T)^-1 diag(rho) by a finite Neumann series
        w = np.concatenate((s, y))
        gram = w @ y.T
        wq = w @ q
        sy, a = gram[:LBFGS_MEMORY], wq[:LBFGS_MEMORY]
        t = rho[:, None] * (sy * np.tri(LBFGS_MEMORY, k=-1))
        inv, power, span = np.eye(LBFGS_MEMORY) - t, t, 2
        while span < LBFGS_MEMORY:
            power = power @ power
            inv = inv @ (np.eye(LBFGS_MEMORY) + power)
            span *= 2
        k = inv * rho
        alpha = k @ a
        delta = k.T @ ((sy * np.eye(LBFGS_MEMORY)) @ alpha
                       + gamma * (gram[LBFGS_MEMORY:] @ alpha - wq[LBFGS_MEMORY:]))
        return gamma * q + np.concatenate((delta, -gamma * alpha)) @ w

    def polish(v, iters=60):
        for _ in range(iters):
            c = (v @ b.T).reshape(-1, engine.da, engine.db)
            u, s, vh = np.linalg.svd(c, full_matrices=False)
            tau = (s[:, 0, None, None] * u[:, :, :1] @ vh[:, :1, :]).reshape(-1, engine.n)
            u2, _, w2 = np.linalg.svd(tau @ b.conj(), full_matrices=False)
            v_new = u2 @ w2
            if float(np.max(np.abs(v_new - v))) < 1e-14:
                return v_new
            v = v_new
        return v

    # the start and each stage advance read the gradient's member values
    v, _, best_f = sequential_start(engine, k)
    best_v = v
    trace = []
    it = rungs = 0
    converged = False
    # curvature pairs survive every jump: stage advance, polish; the
    # memory holds LBFGS_MEMORY slots, newest first
    size = 2 * engine.m * engine.r
    mem_s, mem_y, mem_rho = (np.zeros((LBFGS_MEMORY, size)), np.zeros((LBFGS_MEMORY, size)),
                             np.zeros(LBFGS_MEMORY))
    stored, gamma = 0, 0.0
    for eps in engine.stages:
        f = total(v, eps, engine.grad(v @ b.T)[0])
        # Zhang-Hager reference and weight
        ref, ref_w = f, 1.0
        prev_v = prev_xi = None
        tau = max(engine.tol, eps * 1e-3)
        stage_its = 0  # iterations in this stage, for the polish cadence
        converged = False
        while it < engine.max_iters:
            xi = tangent(v, gradient(v, eps))
            gnorm2 = float(np.sum(np.abs(xi) ** 2))
            if prev_v is not None:
                s, y = real(v) - prev_v, real(xi) - prev_xi
                sy = np.sum(s * y)
                if sy > 0.0:
                    for mem in (mem_s, mem_y, mem_rho):
                        mem[1:] = mem[:-1].copy()
                    mem_s[0], mem_y[0], mem_rho[0] = s, y, 1.0 / sy
                    stored, gamma = stored + 1, sy / np.sum(y * y)
            p, slope, use = xi, gnorm2, False
            if stored:
                hq = lbfgs(mem_s, mem_y, mem_rho, gamma, real(xi))
                d = tangent(v, hq.view(np.complex128).reshape(v.shape))
                ds = float(np.sum(real(xi) * real(d)))
                if 0.0 < ds < np.inf:
                    p, slope, use = d, ds, True
            # stationarity: the direction predicts a decrease of a few ulps
            # of f or of a small fraction of tau
            floor = use and slope <= max(FLOOR_ULPS * np.finfo(float).eps * abs(f),
                                         STATIONARY * tau)
            accepted = False
            if 0.0 < gnorm2 < np.inf and not floor:
                t = 1.0 if use else 1.0 / np.sqrt(gnorm2)
                for rung in range(LINE_SEARCH_RUNGS):
                    rungs += 1
                    v_new = _qr_fix(v - t * p)
                    # the first rung's values come from the gradient call
                    vals = engine.grad(v_new @ b.T)[0] if rung == 0 else None
                    f_new = total(v_new, eps, vals)
                    if f_new <= ref - 1e-4 * t * slope:
                        prev_v, prev_xi, v, f = real(v).copy(), real(xi).copy(), v_new, f_new
                        w = NONMONOTONE_ETA * ref_w + 1.0
                        ref, ref_w = (NONMONOTONE_ETA * ref_w * ref + f) / w, w
                        accepted = True
                        break
                    t *= 0.5
            if (engine.sign > 0 and f < POLISH_THRESHOLD and accepted
                    and stage_its % POLISH_EVERY == POLISH_EVERY - 1):
                cand = polish(v)
                f_cand = total(cand, eps)
                if f_cand < f:
                    v, f = cand, f_cand
                    ref, ref_w = f, 1.0
                    prev_v = prev_xi = None
            raw = f if eps == 0.0 else total(v)
            if raw < best_f:
                best_f, best_v = raw, v
            trace.append(best_f)
            stage_its += 1
            it += 1
            if it == stop_at or engine.cut is not None and best_f <= engine.cut:
                return _Outcome(best_f, best_v, trace, True, it, "certified", rungs)
            # stationarity and a stall (no step taken) end the stage
            if not accepted:
                converged = True
                break
        if not converged:
            break
    stop = "budget" if not converged else "floor" if floor else "stall"
    return _Outcome(best_f, best_v, trace, converged, it, stop, rungs)
