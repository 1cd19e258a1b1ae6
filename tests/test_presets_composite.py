import numpy as np
import pytest

from smartsolve.blockspace import BlockLayout, BlockVector
from smartsolve.engine import init_state, run, step
from smartsolve.instances import chain_quadratic
from smartsolve.operators import L1Norm, verify_coherence
from smartsolve.presets import build_coordinate_saga, build_minibatch, build_prox_saga, build_saga
from smartsolve.problems import (
    ChainBlockQuadratic,
    lasso,
    lasso_terms,
    ridge,
    ridge_terms,
)
from smartsolve.sampling import substream, trigger_prob


@pytest.fixture(scope="module")
def lasso_prob():
    return lasso(rows=12, dim=6, weight=0.08, seed=2)


def test_prox_saga_constants_and_structure(lasso_prob):
    fs, g, L = lasso_terms(lasso_prob)
    N = len(fs)
    b = build_prox_saga(fs, g, lipschitz=L, z_star=lasso_prob.oracle["z_star"])
    n = N + 1
    gamma = b.extras["gamma"]
    np.testing.assert_allclose(
        b.family.beta[:N, 0], N / (2.0 * gamma * L * n))
    assert b.family.beta[N, 0] == pytest.approx(
        (1.0 - gamma * L.mean() / 2.0) / n)
    # sampling: terms at 1/(2N) each, the prox operator at 1/2
    np.testing.assert_allclose(b.law.p[:N, 0], 1.0 / (2 * N))
    assert b.law.p[N, 0] == pytest.approx(0.5)
    # every sample triggers the prox-residual dual
    for i in range(n):
        assert (i, n - 1) in b.graph.edges
    assert trigger_prob(b.law, b.graph, n - 1, 0) == pytest.approx(1.0)
    assert verify_coherence(b.family, trials=2000, slack=1e-10,
                            rng=substream(0, "verify")).ok


def test_prox_saga_every_sample_refreshes_residual_dual(lasso_prob):
    fs, g, L = lasso_terms(lasso_prob)
    b = build_prox_saga(fs, g, lipschitz=L)
    N = len(fs)
    state = init_state(b.family, BlockVector.zeros(b.family.layout),
                       rng=substream(1, "sampling"))
    for _ in range(20):
        x, before = state.x, state.dual_table.current
        rec = step(state, b.law, b.graph, b.schedule, b.steps)
        after = state.dual_table.current
        assert after is not before  # refreshed at every iteration
        np.testing.assert_array_equal(after[0][N], b.family.ops[N].block(x, 0))


def test_prox_saga_transport_against_cd_oracle(lasso_prob):
    fs, g, L = lasso_terms(lasso_prob)
    b = build_prox_saga(fs, g, lipschitz=L, z_star=lasso_prob.oracle["z_star"])
    res = run(BlockVector.zeros(b.family.layout), b.family, b.law, b.graph,
              b.schedule, b.steps, max_iters=6000, rng=substream(2, "sampling"),
              oracle=b.oracle)
    z = b.transport(res.x)
    np.testing.assert_allclose(z, lasso_prob.oracle["z_star"], atol=1e-6)
    # subgradient optimality residual of the transported point
    A, bb = lasso_prob.data["A"], lasso_prob.data["b"]
    grad = A.T @ (A @ z - bb) / A.shape[0]
    resid = L1Norm(float(lasso_prob.data["weight"])).subgrad_residual(z, -grad)
    assert resid <= 1e-8


def test_prox_saga_rejects_large_gamma(lasso_prob):
    fs, g, L = lasso_terms(lasso_prob)
    with pytest.raises(ValueError):
        build_prox_saga(fs, g, lipschitz=L, gamma=3.0 / float(L.max()))


# ---------------------------------------------------------------------------
# coordinate updates


def test_coordinate_saga_m1_reduces_to_saga_bitwise():
    prob = ridge(rows=6, dim=4, reg=0.3, seed=3)
    fs, L = ridge_terms(prob)

    class OneBlock:
        def __init__(self, f):
            self.f = f

        def grad_block(self, blocks, j):
            return self.f.grad(blocks[0])

    layout = BlockLayout((4,))
    wrapped = [OneBlock(f) for f in fs]
    cb = build_coordinate_saga(wrapped, layout, L.reshape(-1, 1), sparsity=1,
                               lam=0.05)
    sb = build_saga(fs, lipschitz=L, lam=0.05)
    x0 = BlockVector.zeros(layout)
    r1 = run(x0, cb.family, cb.law, cb.graph, cb.schedule, cb.steps,
             max_iters=400, rng=substream(4, "sampling"))
    r2 = run(x0, sb.family, sb.law, sb.graph, sb.schedule, sb.steps,
             max_iters=400, rng=substream(4, "sampling"))
    np.testing.assert_array_equal(r1.x.flat(), r2.x.flat())


def test_coordinate_saga_separable_matches_full_solution():
    rng = np.random.default_rng(5)
    m, bd, N = 4, 3, 5
    layout = BlockLayout((bd,) * m)
    centers = [[rng.standard_normal(bd) for _ in range(m)] for _ in range(N)]
    curv = rng.uniform(0.5, 1.5, (N, m))
    # weight 0 leaves the chain's blocks uncoupled: a separable quadratic
    fs = [ChainBlockQuadratic(centers[i], curv[i], weight=0.0) for i in range(N)]
    Lb = np.vstack([f.block_lipschitz for f in fs])
    # solution: per-block weighted average of centers
    x_star_blocks = []
    for j in range(m):
        num = sum(curv[i, j] * centers[i][j] for i in range(N))
        x_star_blocks.append(num / curv[:, j].sum())
    x_star = BlockVector(layout, tuple(x_star_blocks))
    cb = build_coordinate_saga(fs, layout, Lb, sparsity=1, x_star=x_star)
    res = run(BlockVector.zeros(layout), cb.family, cb.law, cb.graph,
              cb.schedule, cb.steps, max_iters=8000, rng=substream(6, "sampling"),
              oracle=cb.oracle)
    # flat full-gradient solve agrees with the blockwise run
    assert res.trace.dist_sq[-1] <= 1e-16
    np.testing.assert_allclose(res.x.flat(), x_star.flat(), atol=1e-8)


def test_coordinate_saga_sparse_coupling_coherence():
    fs, layout, Lb, s, x_star = chain_quadratic(seed=7)
    assert s == 3  # chain coupling touches at most three blocks
    b = build_coordinate_saga(fs, layout, Lb, sparsity=s, x_star=x_star)
    np.testing.assert_allclose(b.family.beta, 1.0 / (len(fs) * s * Lb))
    assert verify_coherence(b.family, trials=2000, slack=1e-10,
                            rng=substream(7, "verify")).ok


def test_coordinate_saga_rate_extras():
    fs, layout, Lb, s, x_star = chain_quadratic(seed=8)
    b = build_coordinate_saga(fs, layout, Lb, sparsity=s, x_star=x_star, mu=0.2)
    m, N, Lmax = layout.m, len(fs), float(Lb.max())
    assert b.steps.lo == pytest.approx(m / (4 * Lmax * m + 0.2 * N))
    assert b.extras["rate"] == pytest.approx(1 - 0.2 / (4 * Lmax * m + 0.2 * N))


# ---------------------------------------------------------------------------
# mini batching


def test_minibatch_post_complete_graph_matches_snapshot_probability():
    prob = ridge(rows=8, dim=5, reg=0.3, seed=9)
    fs, L = ridge_terms(prob)
    b = build_minibatch(fs, mode="post", lipschitz=L, fan_in=len(fs))
    for i in range(len(fs)):
        assert trigger_prob(b.law, b.graph, i, 0) == pytest.approx(1.0)


def test_minibatch_post_fan_in_two_over_eight():
    prob = ridge(rows=8, dim=5, reg=0.3, seed=10)
    fs, L = ridge_terms(prob)
    b = build_minibatch(fs, mode="post", lipschitz=L, fan_in=2)
    for i in range(8):
        assert trigger_prob(b.law, b.graph, i, 0) == pytest.approx(0.25)
    # published improvement: rate 1 - mu/(4L + 8 mu N / fan_in)
    mu = float(prob.oracle["mu"])
    b2 = build_minibatch(fs, mode="post", lipschitz=L, fan_in=2, mu=mu,
                         x_star=prob.oracle["x_star"])
    Lmax = float(L.max())
    assert b2.extras["rate"] == pytest.approx(1 - mu / (4 * Lmax + 8 * mu * 8 / 2))


def test_minibatch_pre_singletons_reduce_to_snapshot_preset():
    prob = ridge(rows=6, dim=4, reg=0.3, seed=11)
    fs, L = ridge_terms(prob)
    pre = build_minibatch(fs, mode="pre", lipschitz=L,
                          batches=[[i] for i in range(6)], tau=3, lam=0.04)
    from smartsolve.presets import build_svrg

    ref = build_svrg(fs, tau=3, mode="avg", lipschitz=L, lam=0.04)
    x0 = BlockVector.zeros(pre.family.layout)
    r1 = run(x0, pre.family, pre.law, pre.graph, pre.schedule, pre.steps,
             max_iters=300, rng=substream(12, "sampling"))
    r2 = run(x0, ref.family, ref.law, ref.graph, ref.schedule, ref.steps,
             max_iters=300, rng=substream(12, "sampling"))
    np.testing.assert_allclose(r1.x.flat(), r2.x.flat(), atol=1e-12)


def test_minibatch_pre_overlapping_batches_solve_same_problem():
    prob = ridge(rows=6, dim=4, reg=0.4, seed=12)
    fs, L = ridge_terms(prob)
    batches = [[0, 1, 2], [2, 3, 4], [4, 5, 0]]
    b = build_minibatch(fs, mode="pre", lipschitz=L, batches=batches, tau=2,
                        x_star=prob.oracle["x_star"],
                        mu=float(prob.oracle["mu"]))
    res = run(BlockVector.zeros(b.family.layout), b.family, b.law, b.graph,
              b.schedule, b.steps, max_iters=4000, rng=substream(13, "sampling"),
              oracle=b.oracle)
    assert res.trace.dist_sq[-1] <= 1e-12


def test_minibatch_validation():
    prob = ridge(rows=4, dim=3, reg=0.3, seed=13)
    fs, L = ridge_terms(prob)
    with pytest.raises(ValueError):
        build_minibatch(fs, mode="post", lipschitz=L)  # missing fan_in
    with pytest.raises(ValueError):
        build_minibatch(fs, mode="pre", lipschitz=L, batches=[[0, 1]])  # 2, 3 missing
    with pytest.raises(ValueError):
        build_minibatch(fs, mode="sideways", lipschitz=L)
