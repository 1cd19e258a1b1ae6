import sys
import threading

import numpy as np
import pytest

from smartsolve.blockspace import BlockVector
from smartsolve.engine import init_state, run, step
from smartsolve.operators import Quadratic, verify_coherence, verify_quasi_monotone
from smartsolve.presets import (
    build_finito,
    build_kaczmarz,
    build_saga,
    build_sdca,
    build_svrg,
)
from smartsolve.problems import halfspace_feasibility, linear_system, ridge, ridge_terms
from smartsolve.sampling import draw, substream, trigger_prob


@pytest.fixture(scope="module")
def ridge_prob():
    return ridge(rows=8, dim=5, reg=0.4, seed=11)


@pytest.fixture(scope="module")
def ridge_fs(ridge_prob):
    return ridge_terms(ridge_prob)


# ---------------------------------------------------------------------------
# footnote-parameter fidelity: (n, m, q, p, rho, E, p^T) per preset


def test_saga_footnote_parameters(ridge_prob, ridge_fs):
    fs, L = ridge_fs
    N = len(fs)
    b = build_saga(fs, lipschitz=L)
    assert (b.family.n, b.family.m) == (N, 1)
    np.testing.assert_array_equal(b.law.q, [1.0])
    np.testing.assert_allclose(b.law.p, np.full((N, 1), 1.0 / N))
    assert b.law.rho == 1.0
    assert b.graph.edges == frozenset((i, i) for i in range(N))
    assert trigger_prob(b.law, b.graph, 0, 0) == pytest.approx(1.0 / N)
    assert (b.schedule.tau_p, b.schedule.tau_d) == (0, 0)


def test_svrg_avg_footnote_parameters(ridge_fs):
    fs, L = ridge_fs
    N = len(fs)
    b = build_svrg(fs, tau=4, mode="avg", lipschitz=L)
    assert b.law.rho == pytest.approx(0.25)
    assert len(b.graph.edges) == N * N
    assert trigger_prob(b.law, b.graph, 2, 0) == pytest.approx(1.0)


def test_svrg_sched_footnote_parameters(ridge_fs):
    fs, L = ridge_fs
    b = build_svrg(fs, tau=4, mode="scheduled", lipschitz=L)
    assert b.law.rho == 1.0
    assert b.schedule.mode == "cyclic" and b.schedule.tau_d == 4
    np.testing.assert_array_equal(
        [b.schedule.dual_delays(k) for k in range(6)], [0, 1, 2, 3, 4, 0]
    )


def test_finito_footnote_parameters(ridge_fs):
    fs, L = ridge_fs
    N = len(fs)
    b = build_finito(fs, lipschitz=L)
    assert (b.family.n, b.family.m) == (1, N)
    np.testing.assert_allclose(b.law.q, np.full(N, 1.0 / N))
    np.testing.assert_allclose(b.law.p, np.ones((1, N)))
    assert b.law.rho == 1.0
    assert b.graph.edges == frozenset({(0, 0)})
    assert trigger_prob(b.law, b.graph, 0, 2) == pytest.approx(1.0 / N)
    assert not b.family.star_pattern.any()


def test_sdca_footnote_parameters():
    from smartsolve.instances import sdca_quadratics

    fs, z_star, mu0 = sdca_quadratics(seed=0)
    N = len(fs)
    b = build_sdca(fs, mu0=mu0, z_star=z_star)
    assert (b.family.n, b.family.m) == (1, N)
    np.testing.assert_allclose(b.law.q, np.full(N, 1.0 / N))
    assert b.law.rho == 1.0 and b.graph.edges == frozenset({(0, 0)})
    assert not b.family.star_pattern.any()


def test_projection_footnote_parameters():
    prob = halfspace_feasibility(count=6, dim=4, seed=0)
    from smartsolve.instances import bundle_for

    b = bundle_for("projection", problem=prob)
    assert (b.family.n, b.family.m) == (6, 1)
    np.testing.assert_allclose(b.law.p, np.full((6, 1), 1.0 / 6.0))
    assert b.graph.edges == frozenset((i, i) for i in range(6))
    assert not b.family.star_pattern.any()


# ---------------------------------------------------------------------------
# behavior examples


def test_saga_single_function_degenerates_to_gradient_descent(ridge_prob):
    # with one term the stored value cancels its own mean, leaving a plain
    # gradient step
    f = Quadratic(np.array([1.0, -2.0]), 1.5)
    b = build_saga([f], lipschitz=[1.5], lam=0.3)
    x0 = BlockVector(b.family.layout, (np.array([5.0, 5.0]),))
    res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps, max_iters=40,
              rng=substream(0, "sampling"), trace_stride=40)
    x = np.array([5.0, 5.0])
    for _ in range(40):
        x = x - 0.3 * f.grad(x)
    np.testing.assert_allclose(res.x.blocks[0], x, atol=1e-12)


def test_saga_importance_law(ridge_fs):
    fs2 = [Quadratic(np.zeros(2), 1.0), Quadratic(np.zeros(2), 9.0)]
    b = build_saga(fs2, lipschitz=[1.0, 9.0], importance=True)
    np.testing.assert_allclose(b.law.p[:, 0], [0.1, 0.9])


def test_svrg_avg_refresh_frequency_monte_carlo(ridge_fs):
    fs, L = ridge_fs
    tau = 4
    b = build_svrg(fs, tau=tau, mode="avg", lipschitz=L)
    rng = substream(3, "sampling")
    draws = 100_000
    hits = sum(draw(b.law, rng)[2] for _ in range(draws))
    p = 1.0 / tau
    sigma = np.sqrt(p * (1 - p) * draws)
    assert abs(hits - p * draws) <= 3 * sigma


def test_svrg_sched_effective_table_advances_per_cycle(ridge_fs):
    # the table actually read changes only when the cyclic delay wraps
    fs, L = ridge_fs
    tau = 3
    b = build_svrg(fs, tau=tau, mode="scheduled", lipschitz=L)
    x0 = BlockVector.zeros(b.family.layout)
    state = init_state(b.family, x0, tau_p=0, tau_d=tau,
                       rng=substream(5, "sampling"))
    read_tables = []
    for k in range(12):
        e = b.schedule.dual_delays(k)
        read_tables.append(state.dual_hist.read(k - e))
        step(state, b.law, b.graph, b.schedule, b.steps)
    for k in range(12):
        # within a cycle every iteration reads one fixed snapshot
        assert read_tables[k] is read_tables[(k // (tau + 1)) * (tau + 1)]


def test_svrg_tau_one_refreshes_every_step(ridge_fs):
    # tau = 1 forces a full refresh every iteration; the stored table is one
    # step stale, so the exact recursion is a corrected full-gradient method
    # (and the very first step is a plain full-gradient step)
    fs, L = ridge_fs
    b = build_svrg(fs, tau=1, mode="avg", lipschitz=L, lam=0.02)
    x0 = BlockVector.zeros(b.family.layout)
    res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps, max_iters=60,
              rng=substream(7, "sampling"), trace_stride=60)
    rng = substream(7, "sampling")
    x_prev = np.zeros(5)
    x = np.zeros(5)
    for k in range(60):
        _, i, eps = draw(b.law, rng)
        assert eps == 1
        full_prev = np.mean([f.grad(x_prev) for f in fs], axis=0)
        new = x - 0.02 * (fs[i].grad(x) - fs[i].grad(x_prev) + full_prev)
        x_prev, x = x, new
    np.testing.assert_allclose(res.x.blocks[0], x, atol=1e-12)
    # consequence: the first step is exactly a full-gradient step
    res1 = run(x0, b.family, b.law, b.graph, b.schedule, b.steps, max_iters=1,
               rng=substream(8, "sampling"), trace_stride=1)
    gd = -0.02 * np.mean([f.grad(np.zeros(5)) for f in fs], axis=0)
    np.testing.assert_allclose(res1.x.blocks[0], gd, atol=1e-14)


def test_finito_identical_quadratics_one_sweep():
    # identical terms, relaxation 1, gamma = 1/L: any touched copy jumps to
    # the common minimizer
    c = np.array([0.7, -0.2])
    fs = [Quadratic(c, 2.0) for _ in range(5)]
    b = build_finito(fs, gamma=0.5, lipschitz=[2.0] * 5, lam=1.0)
    x0 = BlockVector(b.family.layout, tuple(np.full(2, i + 1.0) for i in range(5)))
    state = init_state(b.family, x0, rng=substream(9, "sampling"))
    touched = set()
    k = 0
    while len(touched) < 5 and k < 200:
        rec = step(state, b.law, b.graph, b.schedule, b.steps)
        touched.update(rec.blocks)
        k += 1
    for j in range(5):
        np.testing.assert_allclose(state.x.blocks[j], c, atol=1e-12)


def _mean_corrected_by_running_sum(fs, gamma, x):
    acc = np.zeros(x.blocks[0].shape)
    for xl, f in zip(x.blocks, fs):
        acc += xl - gamma * f.grad(xl)
    return acc / len(fs)


def test_finito_operator_matches_a_full_recompute_bit_for_bit():
    # the operator keeps a table of corrected copies keyed on block identity;
    # every evaluation must equal the running sum over all copies, also when
    # the vectors share some blocks and not others, and with one-dimensional
    # copies, where numpy would sum a single column pairwise
    rng = np.random.default_rng(11)
    N, gamma = 20, 0.4
    fs = [Quadratic(rng.standard_normal(1), curvature=float(c))
          for c in rng.uniform(0.5, 2.0, N)]
    b = build_finito(fs, gamma=gamma)
    op = b.family.ops[0]
    blocks = [rng.standard_normal(1) for _ in range(N)]
    blocks[3] = np.array([-0.0])
    for t in range(60):
        for l in rng.choice(N, size=t % 4, replace=False):
            blocks[l] = rng.standard_normal(1)
        x = BlockVector(b.family.layout, tuple(blocks))
        mc = _mean_corrected_by_running_sum(fs, gamma, x)
        j = t % N
        assert op.block(x, j).tobytes() == (x.blocks[j] - mc).tobytes()
        assert op(x).flat().tobytes() == np.concatenate([xl - mc for xl in x.blocks]).tobytes()


def test_finito_operator_table_under_concurrent_evaluation():
    # more threads than cores, switching every 10 us, share the operator's
    # table; every evaluation must still equal the running sum over its own
    # copies, which a torn (sources, table) pair would break
    N, d, gamma = 16, 3, 0.4
    rng = np.random.default_rng(13)
    fs = [Quadratic(rng.standard_normal(d), curvature=float(c))
          for c in rng.uniform(0.5, 2.0, N)]
    b = build_finito(fs, gamma=gamma)
    op = b.family.ops[0]
    base = [rng.standard_normal(d) for _ in range(N)]
    wrong, finished = [], []

    def worker(seed):
        r = np.random.default_rng(seed)
        blocks = list(base)
        for _ in range(200):
            blocks[int(r.integers(N))] = r.standard_normal(d)
            x = BlockVector(b.family.layout, tuple(blocks))
            mc = _mean_corrected_by_running_sum(fs, gamma, x)
            j = int(r.integers(N))
            if op.block(x, j).tobytes() != (x.blocks[j] - mc).tobytes():
                wrong.append((seed, j))
        finished.append(seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(finished) == [0, 1, 2, 3] and wrong == []


def test_finito_coherence_and_root_consensus(ridge_prob, ridge_fs):
    fs, L = ridge_fs
    mu_hat = min(f.strong_convexity for f in fs)
    b = build_finito(fs, lipschitz=L, mu_hat=mu_hat,
                     x0_star=ridge_prob.oracle["x_star"])
    rep = verify_coherence(b.family, trials=2000, slack=1e-10,
                           rng=substream(1, "verify"))
    assert rep.ok
    assert verify_quasi_monotone(b.family, trials=1000,
                                 rng=substream(1, "verify")).ok
    # computed roots have all copies equal: well-conditioned terms converge
    # to consensus quickly
    rng = np.random.default_rng(0)
    quads = [Quadratic(rng.standard_normal(3), 1.0 + 0.05 * i) for i in range(5)]
    common = sum(q.a * q.c for q in quads) / sum(q.a for q in quads)
    bq = build_finito(quads, x0_star=common, mu_hat=1.0, lam=0.25)
    x0 = BlockVector.zeros(bq.family.layout)
    res = run(x0, bq.family, bq.law, bq.graph, bq.schedule, bq.steps,
              max_iters=4000, rng=substream(2, "sampling"))
    blocks = np.vstack(res.x.blocks)
    assert np.max(np.abs(blocks - blocks.mean(axis=0))) <= 1e-8
    np.testing.assert_allclose(blocks.mean(axis=0), common, atol=1e-7)


def test_sdca_constants_and_primal_recovery():
    from smartsolve.instances import sdca_quadratics

    fs, z_star, mu0 = sdca_quadratics(seed=3)
    N = len(fs)
    Lmax = max(f.lipschitz for f in fs)
    b = build_sdca(fs, mu0=mu0, z_star=z_star)
    np.testing.assert_allclose(b.family.beta, 0.75)
    assert b.family.mu == pytest.approx(mu0 * N / (mu0 * N + Lmax))
    assert verify_coherence(b.family, trials=2000, slack=1e-10,
                            rng=substream(2, "verify")).ok
    assert verify_quasi_monotone(b.family, trials=1000,
                                 rng=substream(2, "verify")).ok
    x0 = BlockVector.zeros(b.family.layout)
    res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps, max_iters=4000,
              rng=substream(3, "sampling"))
    # the recovered primal point minimizes the regularized average:
    # oracle solves the strongly convex problem directly
    z = b.transport(res.x)
    np.testing.assert_allclose(z, z_star, atol=1e-6)
    grad_residual = np.mean([f.grad(z) for f in fs], axis=0) + mu0 * z
    assert np.linalg.norm(grad_residual) <= 1e-6


def test_kaczmarz_rows_normalized_and_oracle():
    prob = linear_system(rows=12, dim=5, seed=4)
    b = build_kaczmarz(prob.data["A"], prob.data["b"])
    An, bn = b.extras["A"], b.extras["b"]
    np.testing.assert_allclose(np.linalg.norm(An, axis=1), 1.0, atol=1e-14)
    # normalized system has the same solution set
    np.testing.assert_allclose(An @ prob.oracle["x_plant"], bn, atol=1e-10)
    with pytest.raises(ValueError):
        build_kaczmarz(prob.data["A"], prob.data["b"] + 1.0)  # inconsistent


def test_kaczmarz_inflated_beta_detected():
    prob = linear_system(rows=10, dim=4, seed=5)
    b = build_kaczmarz(prob.data["A"], prob.data["b"])
    from smartsolve.operators import OperatorFamily

    bad = OperatorFamily(b.family.layout, b.family.ops, 10.0 * b.family.beta,
                         b.family.star_pattern, metric=b.family.metric,
                         known_root=b.family.known_root)
    assert not verify_coherence(bad, trials=500, rng=substream(4, "verify")).ok


def test_projection_feasibility_run():
    prob = halfspace_feasibility(count=10, dim=5, margin=0.2, seed=6)
    from smartsolve.instances import bundle_for

    b = bundle_for("projection", problem=prob)
    x0 = BlockVector(b.family.layout, (np.full(5, 8.0),))
    res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps, max_iters=4000,
              rng=substream(5, "sampling"), stop_resid=1e-10)
    z = res.x.blocks[0]
    gaps = prob.data["normals"] @ z - prob.data["offsets"]
    assert np.all(gaps <= 1e-6)


def test_finito_converges_without_strong_convexity():
    # rank-one terms on an underdetermined system: no strong convexity
    # anywhere, yet the residual still vanishes
    from smartsolve.operators import LinearLeastSquaresTerm
    from smartsolve.diagnostics import residual

    rng = np.random.default_rng(14)
    rows = [LinearLeastSquaresTerm(rng.standard_normal((1, 6)),
                                   rng.standard_normal(1)) for _ in range(4)]
    b = build_finito(rows, lipschitz=[f.lipschitz for f in rows])
    x0 = BlockVector.zeros(b.family.layout)
    res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps,
              max_iters=40_000, rng=substream(15, "sampling"),
              stop_resid=1e-8, trace_stride=500)
    assert res.final_residual <= 1e-8


def test_svrg_rejects_bad_mode_and_tau(ridge_fs):
    fs, L = ridge_fs
    with pytest.raises(ValueError):
        build_svrg(fs, tau=0, mode="avg", lipschitz=L)
    with pytest.raises(ValueError):
        build_svrg(fs, tau=2, mode="sometimes", lipschitz=L)
