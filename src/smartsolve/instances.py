"""Ready-made engine bundles assembled from generated problem instances.

This is the glue between the problem generators and the preset builders:
given a :class:`~smartsolve.problems.Problem`, produce a configured bundle
whose oracle/transport targets come from the problem's recorded solution.
``PRESET_PROBLEM_KINDS`` is the one preset registry: it maps each preset
name to the problem kinds it accepts and the adapter that builds it.  The
command line and the verification suites both build through here.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .blockspace import BlockLayout, BlockVector
from .operators import AffineMonotoneMap, HalfspaceIndicator, L1Norm, Quadratic, SquaredL2
from .presets import (
    build_coordinate_saga,
    build_finito,
    build_kaczmarz,
    build_lin_saga,
    build_minibatch,
    build_mono,
    build_projection,
    build_prox_saga,
    build_prox_smart,
    build_prox_smart_plus,
    build_saddle,
    build_saga,
    build_sdca,
    build_super_saga,
    build_svrg,
    build_tropic,
)
from .presets.structured import ShiftedProx, ShiftedSmooth
from .problems import (
    GENERATORS,
    ChainBlockQuadratic,
    Problem,
    equality_qp,
    fused_composite,
    halfspace_feasibility,
    lasso,
    lasso_terms,
    linear_system,
    logistic_terms,
    ridge,
    ridge_terms,
    tropic_instance,
    tropic_parts,
)

__all__ = ["bundle_for", "PRESET_PROBLEM_KINDS"]


def _smooth_terms(problem: Problem):
    if problem.kind == "ridge":
        return ridge_terms(problem)
    if problem.kind == "logistic":
        return logistic_terms(problem)
    if problem.kind == "lasso":
        fs, _, L = lasso_terms(problem)
        return fs, L
    raise ValueError(f"no smooth terms for problem kind {problem.kind!r}")


def _point_oracle_vec(problem: Problem):
    if "x_star" in problem.oracle:
        return np.asarray(problem.oracle["x_star"], float)
    return None


# ---------------------------------------------------------------------------
# extra generated instances that live at the bundle level


def sdca_quadratics(N: int = 6, dim: int = 4, mu0: float = 1.0, seed: int = 0,
                    curvature: float = 0.15):
    """Mild-curvature quadratic terms with the regularized mean minimizer.

    Curvature is kept small relative to ``mu0 * N`` so the conjugate-prox
    sweep operator retains its quasi-cocoercivity constant; stiff terms
    push the forward map outside the regime the constant covers.
    """
    rng = np.random.default_rng(seed)
    fs = [Quadratic(rng.standard_normal(dim), curvature * (1.0 + 0.2 * i / N))
          for i in range(N)]
    a = np.array([f.a for f in fs])
    z_star = np.linalg.solve(
        (a.mean() + mu0) * np.eye(dim), np.mean([f.a * f.c for f in fs], axis=0)
    )
    return fs, z_star, mu0


def chain_quadratic(m: int = 5, block_dim: int = 3, N: int = 4, seed: int = 0):
    """Coupled blockwise quadratics with a common known minimizer.

    Every term is a chain-coupled quadratic built solution-first around the
    same point, so the family root is known exactly.
    """
    rng = np.random.default_rng(seed)
    x_star_blocks = [rng.standard_normal(block_dim) for _ in range(m)]
    weight = 0.3
    fs = []
    for _ in range(N):
        curvatures = rng.uniform(0.5, 1.5, m)
        # centers absorb the chain coupling so the planted point is a zero
        # of every term's gradient
        centers = []
        for j in range(m):
            couple = np.zeros(block_dim)
            if j > 0:
                couple += x_star_blocks[j] - x_star_blocks[j - 1]
            if j < m - 1:
                couple += x_star_blocks[j] - x_star_blocks[j + 1]
            centers.append(x_star_blocks[j] + (weight / curvatures[j]) * couple)
        fs.append(ChainBlockQuadratic(centers, curvatures, weight=weight))
    layout = BlockLayout((block_dim,) * m)
    x_star = BlockVector(layout, tuple(b.copy() for b in x_star_blocks))
    Lb = np.vstack([f.block_lipschitz for f in fs])
    sparsity = fs[0].sparsity
    return fs, layout, Lb, sparsity, x_star


def multi_prox(M: int = 3, N: int = 4, d1: int = 4, seed: int = 0):
    """Solution-first multi-prox instance: quadratic proxable terms whose
    gradients at the planted point balance the smooth terms exactly."""
    rng = np.random.default_rng(seed)
    z_star = rng.standard_normal(d1)
    g_list = [SquaredL2(center=rng.standard_normal(d1), curvature=rng.uniform(0.5, 1.5))
              for _ in range(M)]
    subgrads = [g.grad(z_star) for g in g_list]
    target = -sum(subgrads)  # required mean gradient of the smooth terms
    curv = rng.uniform(0.8, 1.6, N)
    centers = [rng.standard_normal(d1) for _ in range(N - 1)]
    partial = sum(a * (z_star - c) for a, c in zip(curv[:-1], centers))
    centers.append(z_star - (N * target - partial) / curv[-1])
    fs = [Quadratic(c, a) for c, a in zip(centers, curv)]
    return g_list, fs, z_star, subgrads


def composite_plus(M: int = 3, N: int = 4, d1: int = 5, seed: int = 0):
    """Solution-first composed-l1 plus smooth-quadratics instance."""
    rng = np.random.default_rng(seed)
    z_hat = rng.standard_normal(d1)
    A_list = [rng.standard_normal((1, d1)) for _ in range(M - 1)]
    subgrads = []
    for A in A_list:
        val = float((A @ z_hat)[0])
        subgrads.append(
            np.array([np.sign(val)]) if abs(val) > 1e-9
            else np.array([rng.uniform(-0.5, 0.5)])
        )
    target = -sum(A.T @ s for A, s in zip(A_list, subgrads)).ravel()
    curv = rng.uniform(0.6, 1.4, N)
    centers = [rng.standard_normal(d1) for _ in range(N - 1)]
    partial = sum(a * (z_hat - c) for a, c in zip(curv[:-1], centers))
    centers.append(z_hat - (N * target - partial) / curv[-1])
    fs = [Quadratic(c, a) for c, a in zip(centers, curv)]
    g_list = [L1Norm(1.0) for _ in range(M - 1)]
    return g_list, fs, A_list, z_hat, subgrads


def monotone_affine(dim: int = 6, N: int = 4, mu_A: float = 0.8, seed: int = 0):
    """Strongly monotone affine map plus skew Lipschitz parts, known zero."""
    rng = np.random.default_rng(seed)
    skew = rng.standard_normal((dim, dim))
    G = mu_A * np.eye(dim) + (skew - skew.T) / 2.0
    h = rng.standard_normal(dim)
    A_handle = AffineMonotoneMap(G, h)
    Bs = []
    for _ in range(N):
        s = rng.standard_normal((dim, dim)) * 0.4
        Bs.append((s - s.T) / 2.0)
    L = [float(np.linalg.norm(B, 2)) for B in Bs]
    Bbar = sum(Bs) / N
    z_star = np.linalg.solve(G + Bbar, -h)
    B_list = [(lambda z, _B=B: _B @ z) for B in Bs]
    return A_handle, B_list, L, mu_A, z_star


def saddle_quadratic(dim_w: int = 4, dim_z: int = 3, N: int = 3, seed: int = 0):
    """Strongly convex-concave quadratic saddle instance with a KKT oracle."""
    rng = np.random.default_rng(seed)
    g1 = SquaredL2(center=rng.standard_normal(dim_w), curvature=1.0)
    g2 = SquaredL2(center=rng.standard_normal(dim_z), curvature=1.0)
    Lmat = rng.standard_normal((dim_z, dim_w)) * 0.5
    f_list = [Quadratic(rng.standard_normal(dim_w), 0.3) for _ in range(N - 1)]
    h_list = [Quadratic(rng.standard_normal(dim_z), 0.3) for _ in range(N - 1)]
    # stationarity of g1(w) - g2(z) + (<Lw, z> + sum f_i(w) - h_i(z))/N
    aw = 1.0 + sum(f.a for f in f_list) / N
    az = 1.0 + sum(h.a for h in h_list) / N
    bw = g1.grad(np.zeros(dim_w)) + sum(f.grad(np.zeros(dim_w)) for f in f_list) / N
    bz = g2.grad(np.zeros(dim_z)) + sum(h.grad(np.zeros(dim_z)) for h in h_list) / N
    K = np.block([
        [aw * np.eye(dim_w), Lmat.T / N],
        [-Lmat / N, az * np.eye(dim_z)],
    ])
    sol = np.linalg.solve(K, -np.concatenate([bw, bz]))
    return g1, g2, Lmat, f_list, h_list, sol


# ---------------------------------------------------------------------------
# adapters: (problem, seed, **params) -> bundle


def _over(default, adapter):
    """Run ``adapter(problem, **params)``, on ``default(seed=seed)`` when no
    problem is given."""
    return lambda problem, seed, **params: adapter(problem or default(seed=seed), **params)


def _smooth(build, defaults=lambda fs: {}, **fixed):
    """Adapter for the presets over the smooth terms of a ridge, lasso or
    logistic problem; ``defaults(fs)`` gives parameters the caller may override."""
    def adapter(problem, **params):
        fs, L = _smooth_terms(problem)
        mu = float(problem.oracle["mu"]) if "mu" in problem.oracle else None
        return build(fs, lipschitz=L, mu=mu, x_star=_point_oracle_vec(problem),
                     **fixed, **{**defaults(fs), **params})
    return adapter


def _finito(problem, **params):
    fs, L = _smooth_terms(problem)
    mu_hat = min(getattr(f, "strong_convexity", 0.0) for f in fs)
    return build_finito(fs, lipschitz=L, mu_hat=mu_hat or None,
                        x0_star=_point_oracle_vec(problem), **params)


def _sdca(problem, seed, **params):
    fs, z_star, mu0 = sdca_quadratics(seed=seed)
    return build_sdca(fs, mu0=mu0, z_star=z_star, **params)


def _kaczmarz(problem, **params):
    return build_kaczmarz(problem.data["A"], problem.data["b"], **params)


def _projection(problem, **params):
    sets = [
        HalfspaceIndicator(a, b)
        for a, b in zip(problem.data["normals"], problem.data["offsets"])
    ]
    return build_projection(
        sets=sets, dim=problem.data["normals"].shape[1],
        feasible_point=problem.oracle.get("interior_point"), **params,
    )


def _lasso(variant):
    def adapter(problem, **params):
        fs, g, L = lasso_terms(problem)
        return build_prox_saga(fs, g, lipschitz=L, z_star=problem.oracle["z_star"],
                               variant=variant, **params)
    return adapter


def _coordinate_saga(problem, seed, **params):
    fs, layout, Lb, s, x_star = chain_quadratic(seed=seed)
    return build_coordinate_saga(fs, layout, Lb, sparsity=s, x_star=x_star, **params)


def _super_saga(problem, seed, **params):
    g_list, fs, z_star, subgrads = multi_prox(seed=seed)
    return build_super_saga(g_list, fs, root_pair=(z_star, subgrads), **params)


def _prox_smart_plus(problem, seed, **params):
    g_list, fs, A_list, z_hat, subgrads = composite_plus(seed=seed)
    delta = params.get("delta", 0.25)
    gammas_aux = params.pop("gammas_aux", [0.12] * len(g_list))
    budget = sum(
        g * np.linalg.norm(A, 2) ** 2 for g, A in zip(gammas_aux, A_list)
    ) + np.mean([f.lipschitz for f in fs]) / 2.0
    gamma1 = params.pop("gamma1", min(0.2, 0.95 * delta / budget))
    return build_prox_smart_plus(
        g_list, fs, A_list, gamma1, gammas_aux,
        root_pair=(z_hat, subgrads), **params,
    )


def _mono(problem, seed, **params):
    A_handle, B_list, L, mu_A, z_star = monotone_affine(seed=seed)
    params.setdefault("gamma", min(0.3, 1.6 * mu_A / max(np.mean(L) ** 2, 1e-9)))
    return build_mono(A_handle, B_list, L, mu_A=mu_A, root_hint=z_star, **params)


def _saddle(problem, seed, **params):
    g1, g2, Lmat, f_list, h_list, sol = saddle_quadratic(seed=seed)
    params.setdefault("gamma", 0.5)
    return build_saddle(g1, g2, Lmat, f_list, h_list, mu_g1=1.0, mu_g2=1.0,
                        root_hint=sol, **params)


def lin_saga_from_qp(problem: Problem, N: int = 4, **params):
    """Equality-constrained quadratic as a subspace-constrained composite.

    The quadratic objective splits into one proxable copy and N equal
    smooth shares; the recorded KKT solution supplies root and transport
    targets.
    """
    Q, c = problem.data["Q"], problem.data["c"]
    A, b = problem.data["A"], problem.data["b"]
    x_star = problem.oracle["x_star"]
    dim = Q.shape[0]
    # split: g gets half the quadratic plus the linear term, fs share the rest
    Qg, Qf = 0.5 * Q, 0.5 * Q
    g = Quadratic(center=-np.linalg.solve(Qg, c), curvature=Qg)
    fs = [Quadratic(center=np.zeros(dim), curvature=Qf) for _ in range(N)]

    shift, *_ = np.linalg.lstsq(A, b, rcond=None)
    P_V = np.eye(dim) - np.linalg.pinv(A) @ A
    shifted_g = ShiftedProx(g, shift)
    shifted_fs = [ShiftedSmooth(f, shift) for f in fs]
    z_tilde = x_star - shift
    subgrad = shifted_g.g.grad(z_tilde + shift)
    bundle = build_lin_saga(
        shifted_fs, shifted_g, P_V,
        lipschitz_hat=[float(np.linalg.eigvalsh(Qf)[-1])] * N,
        root_pair=(z_tilde, subgrad),
        transport_target=None,
        **params,
    )
    inner = bundle.transport
    bundle.transport = lambda x: inner(x) + shift
    bundle.transport_target = np.asarray(x_star, float).copy()
    bundle.extras["shift"] = shift
    return bundle


def tropic_from_instance(problem: Problem, delta: float = 0.36, **params):
    g_list, f, A_list, b = tropic_parts(problem)
    M = len(g_list)
    L = f.lipschitz
    sq = np.sqrt(delta)
    gmax = min(2.0 * (1.0 - sq) / L, 1.0)
    gammas = np.full(M + 1, gmax)
    budget = sum(gmax * np.linalg.norm(A, 2) ** 2 for A in A_list)
    gammas[M] = min(gmax, 0.95 * delta / budget)
    x_star = problem.oracle["x_star"]
    nu = problem.oracle["nu_star"]
    bd = int(problem.data["block_dim"])
    Mi = int(problem.data["M"])
    blocks = tuple(x_star[j * bd : (j + 1) * bd] for j in range(Mi)) + (nu,)
    layout_dims = tuple(A.shape[1] for A in A_list) + (A_list[0].shape[0],)
    root = BlockVector(BlockLayout(layout_dims), blocks)
    bundle = build_tropic(
        g_list, f, A_list, b, gammas, delta=delta, known_root=root, **params
    )
    bundle.transport_target = x_star.copy()
    inner = bundle.transport
    bundle.transport = lambda x: np.concatenate(inner(x))
    return bundle


def prox_smart_from_fused(problem: Problem, delta: float = 0.25, **params):
    center = problem.data["center"]
    rows = problem.data["rows"]
    z_star = problem.oracle["z_star"]
    subs = problem.oracle["subgradients"]
    M = rows.shape[0] + 1
    g_list = [SquaredL2(center=center, curvature=1.0)] + [L1Norm(1.0)] * (M - 1)
    A_list = [rows[i : i + 1] for i in range(rows.shape[0])]
    budget = sum(np.linalg.norm(A, 2) ** 2 for A in A_list)
    g1_gamma = 0.5
    aux = 0.95 * delta / (g1_gamma * budget)
    gammas = np.concatenate([[g1_gamma], np.full(M - 1, aux)])
    root_pair = (z_star, [subs[i : i + 1] for i in range(M - 1)])
    return build_prox_smart(g_list, A_list, gammas, delta=delta,
                            root_pair=root_pair, **params)


# ---------------------------------------------------------------------------
# the preset registry


def _svrg_defaults(fs):
    return {"tau": 4}


def _pair_batches(fs):
    """Consecutive pairs of terms, the default batches of minibatch-pre."""
    return {"batches": [list(range(i, min(i + 2, len(fs)))) for i in range(0, len(fs), 2)]}


# name -> (accepted problem kinds, default first; adapter(problem, seed, **params)).
# A kind without a generator names the instance the adapter builds itself.
PRESET_PROBLEM_KINDS = {
    "saga": (("ridge", "lasso", "logistic"), _over(ridge, _smooth(build_saga))),
    "svrg-avg": (("ridge", "logistic"),
                 _over(ridge, _smooth(build_svrg, _svrg_defaults, mode="avg"))),
    "svrg-sched": (("ridge", "logistic"),
                   _over(ridge, _smooth(build_svrg, _svrg_defaults, mode="scheduled"))),
    "finito": (("ridge",), _over(partial(ridge, rows=8, dim=6, reg=0.4), _finito)),
    "sdca": (("sdca_quadratics",), _sdca),
    "kaczmarz": (("linear_system",), _over(linear_system, _kaczmarz)),
    "projection": (("halfspace_feasibility",), _over(halfspace_feasibility, _projection)),
    "prox-saga": (("lasso",), _over(lasso, _lasso("saga"))),
    "prox-svrg": (("lasso",), _over(lasso, _lasso("svrg"))),
    "coordinate-saga": (("chain_quadratic",), _coordinate_saga),
    "minibatch-pre": (("ridge",),
                      _over(ridge, _smooth(build_minibatch, _pair_batches, mode="pre"))),
    "minibatch-post": (("ridge",), _over(ridge, _smooth(
        build_minibatch, lambda fs: {"fan_in": 2}, mode="post"))),
    "lin-saga": (("equality_qp",), _over(equality_qp, lin_saga_from_qp)),
    "super-saga": (("multi_prox",), _super_saga),
    "tropic": (("tropic_instance",), _over(tropic_instance, tropic_from_instance)),
    "prox-smart": (("fused_composite",), _over(fused_composite, prox_smart_from_fused)),
    "prox-smart-plus": (("composite_plus",), _prox_smart_plus),
    "mono": (("monotone_affine",), _mono),
    "saddle": (("saddle_quadratic",), _saddle),
}


def bundle_for(preset: str, problem: Problem | None = None, seed: int = 0, **params):
    """Build the named preset over the given problem, or over its default
    instance for ``seed``.

    Raises ``KeyError`` for an unknown preset and ``ValueError`` for a
    problem of a kind the preset does not take.
    """
    if preset not in PRESET_PROBLEM_KINDS:
        raise KeyError(f"unknown preset {preset!r}; have {sorted(PRESET_PROBLEM_KINDS)}")
    kinds, adapter = PRESET_PROBLEM_KINDS[preset]
    accepted = [k for k in kinds if k in GENERATORS]
    if problem is not None and problem.kind not in accepted:
        raise ValueError(
            f"preset {preset!r} takes problems of kind {accepted}, not {problem.kind!r}"
        )
    bundle = adapter(problem, seed, **params)
    bundle.name = preset
    return bundle
