import numpy as np
import pytest

from smartsolve.blockspace import BlockVector, norm_sq
from smartsolve.engine import StepSizes, run
from smartsolve.instances import (
    bundle_for,
    composite_plus,
    monotone_affine,
    multi_prox,
    saddle_quadratic,
)
from smartsolve.operators import (
    AffineMonotoneMap,
    SquaredL2,
    ZeroFunction,
    verify_coherence,
    verify_quasi_monotone,
)
from smartsolve.presets import (
    build_lin_saga,
    build_mono,
    build_prox_saga,
    build_prox_smart,
    build_super_saga,
    build_tropic,
)
from smartsolve.problems import equality_qp, fused_composite, tropic_instance
from smartsolve.reference import super_saga_compressed
from smartsolve.sampling import substream
from smartsolve.schedule import DelaySchedule


def _solve(bundle, iters, seed=5, **kw):
    x0 = BlockVector.zeros(bundle.family.layout)
    return run(x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
               bundle.steps, max_iters=iters, rng=substream(seed, "sampling"),
               oracle=bundle.oracle, **kw)


# ---------------------------------------------------------------------------
# subspace-constrained composite


def test_lin_saga_constants():
    b = bundle_for("lin-saga", seed=1)
    fam = b.family
    N = fam.n - 1
    gamma = b.extras["gamma"]
    L_hat = np.array([N / (2 * gamma * fam.beta[i, 0] * (N + 1)) for i in range(N)])
    # sampling weights are proportional to the per-term constants
    np.testing.assert_allclose(b.law.p[:N, 0], L_hat / (2 * L_hat.sum()))
    assert b.law.p[N, 0] == pytest.approx(0.5)
    assert fam.beta[N, 0] == pytest.approx(1.0 / (2 * (N + 1)))
    assert verify_coherence(fam, trials=2000, slack=1e-10,
                            rng=substream(1, "verify")).ok


def test_lin_saga_trivial_subspace_reduces_to_prox_structure():
    # V the whole space and g = 0: gradient operators act through the
    # identity projector and the extra operator collapses to the reflected
    # identity, recovering the plain composite preset's structure
    rng = np.random.default_rng(2)
    fs = [SquaredL2(center=rng.standard_normal(3), curvature=1.0) for _ in range(3)]
    g = ZeroFunction()
    b = build_lin_saga(fs, g, np.eye(3), lipschitz_hat=[1.0] * 3)
    x = BlockVector(b.family.layout, (rng.standard_normal(3),))
    gamma = b.extras["gamma"]
    for i in range(3):
        np.testing.assert_allclose(
            b.family.ops[i](x).blocks[0], (gamma / 3.0) * fs[i].grad(x.blocks[0]),
            atol=1e-14)
    # reflected prox with identity projector: (I - 2I) x + I x = -x + ... = 0
    np.testing.assert_allclose(b.family.ops[3](x).blocks[0], np.zeros(3),
                               atol=1e-14)


def test_lin_saga_affine_transport_matches_kkt():
    prob = equality_qp(dim=10, constraints=3, seed=3)
    b = bundle_for("lin-saga", problem=prob)
    res = _solve(b, 8000)
    got = b.transport(res.x)
    np.testing.assert_allclose(got, prob.oracle["x_star"], atol=1e-6)
    A, bb = prob.data["A"], prob.data["b"]
    np.testing.assert_allclose(A @ got, bb, atol=1e-6)


# ---------------------------------------------------------------------------
# multi-prox with compressed duals


def test_super_saga_engine_matches_compressed_reference():
    g_list, fs, z_star, subgrads = multi_prox(seed=5)
    b = build_super_saga(g_list, fs, root_pair=(z_star, subgrads))
    gamma = b.extras["gamma"]
    lam_copy = b.extras["lam_per_copy"]
    M, d1 = b.extras["M"], len(z_star)
    x0_copies = np.zeros((M, d1))
    states = super_saga_compressed(
        g_list, fs, gamma, lam_copy, b.law, b.graph,
        substream(6, "sampling"), x0_copies, iters=400,
    )
    x0 = BlockVector(b.family.layout, b.extras["to_engine"](x0_copies.reshape(-1)))
    res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps, max_iters=400,
              rng=substream(6, "sampling"))
    back = b.extras["from_engine"](res.x.blocks)
    assert np.max(np.abs(back - states[-1].reshape(-1))) <= 1e-12


def test_super_saga_dual_table_is_compressed():
    g_list, fs, z_star, subgrads = multi_prox(seed=6)
    b = build_super_saga(g_list, fs, root_pair=(z_star, subgrads))
    # the complement column is pinned: only the consensus block is stored
    assert not b.family.star_pattern[:, 1].any()
    assert b.family.star_pattern[:, 0].all()
    assert verify_coherence(b.family, trials=2000, slack=1e-10,
                            rng=substream(2, "verify")).ok


def test_super_saga_transport_and_m1_collapse():
    g_list, fs, z_star, subgrads = multi_prox(seed=7)
    b = build_super_saga(g_list, fs, root_pair=(z_star, subgrads))
    res = _solve(b, 6000)
    np.testing.assert_allclose(b.transport(res.x), z_star, atol=1e-6)
    # M = 1: the duplicated space collapses to the plain composite preset
    g1, fs1, z1, sub1 = multi_prox(M=1, seed=8)
    b1 = build_super_saga(g1, fs1, root_pair=(z1, sub1))
    pb = build_prox_saga(fs1, g1[0], gamma=b1.extras["gamma"],
                         z_star=None)
    assert b1.extras["M"] == 1
    assert b1.family.layout.dims[0] == pb.family.layout.dims[0]
    r1 = _solve(b1, 3000)
    np.testing.assert_allclose(b1.transport(r1.x), z1, atol=1e-6)


def test_super_saga_rejects_inconsistent_reads():
    g_list, fs, z_star, subgrads = multi_prox(seed=9)
    bad = DelaySchedule(tau_p=2, tau_d=2, mode="uniform-random", m=2,
                        n=len(fs) + 1, rng=substream(0, "delays"))
    with pytest.raises(ValueError):
        build_super_saga(g_list, fs, root_pair=(z_star, subgrads), schedule=bad)


# ---------------------------------------------------------------------------
# linearly coupled blocks with a multiplier


def test_tropic_metric_and_stepsize_validation():
    prob = tropic_instance(seed=1)
    b = bundle_for("tropic", problem=prob)
    fam = b.family
    assert fam.metric.kind == "gram"
    delta = b.extras["delta"]
    sq = np.sqrt(delta)
    # closed-form sandwich constants hold on random vectors
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = BlockVector(fam.layout,
                        tuple(rng.standard_normal(d) for d in fam.layout.dims))
        total = norm_sq(fam.metric, x)
        lo = sum(fam.metric.m_lo[j] * float(b @ b) for j, b in enumerate(x.blocks))
        hi = sum(fam.metric.m_hi[j] * float(b @ b) for j, b in enumerate(x.blocks))
        assert lo <= total * (1 + 1e-10) + 1e-10
        assert total <= hi * (1 + 1e-10) + 1e-10


def test_tropic_transport_matches_kkt():
    prob = tropic_instance(seed=2)
    b = bundle_for("tropic", problem=prob)
    res = _solve(b, 9000)
    np.testing.assert_allclose(np.asarray(b.transport(res.x)),
                               prob.oracle["x_star"], atol=1e-6)


def test_tropic_pure_multiplier_fixed_point():
    # no objective at all: the stationary point balances the coupling
    rng = np.random.default_rng(4)
    M, bd, cd = 2, 3, 2
    A_list = [rng.standard_normal((cd, bd)) for _ in range(M)]
    g_list = [ZeroFunction() for _ in range(M)]
    delta = 0.36
    gammas = np.array([0.3, 0.3, 0.0])
    gammas[M] = 0.95 * delta / sum(
        g * np.linalg.norm(A, 2) ** 2 for g, A in zip(gammas[:M], A_list)
    )
    b = build_tropic(g_list, None, A_list, np.zeros(cd), gammas, delta=delta)
    res = _solve(b, 6000)
    coupled = sum(A @ blk for A, blk in zip(A_list, res.x.blocks[:M]))
    assert np.linalg.norm(coupled) <= 1e-6


def test_tropic_rejects_oversized_steps():
    prob = tropic_instance(seed=3)
    from smartsolve.problems import tropic_parts

    g_list, f, A_list, bb = tropic_parts(prob)
    M = len(g_list)
    huge = np.full(M + 1, 50.0)
    with pytest.raises(ValueError):
        build_tropic(g_list, f, A_list, bb, huge, delta=0.25)


# ---------------------------------------------------------------------------
# prox-driven primal-dual


def test_prox_smart_tiny_fused_soft_threshold():
    # g1 = (1/2)|z - c|^2, one composed absolute value with unit map:
    # the solution is the soft threshold of c at level 1
    c = np.array([2.3])
    prob_free = build_prox_smart(
        [SquaredL2(center=c, curvature=1.0), __import__("smartsolve").operators.L1Norm(1.0)],
        [np.eye(1)],
        gammas=np.array([0.5, 0.4]),
        delta=0.25,
        root_pair=(np.array([1.3]), [np.array([1.0])]),
    )
    res = _solve(prob_free, 4000)
    np.testing.assert_allclose(prob_free.transport(res.x), np.array([1.3]),
                               atol=1e-6)


def test_prox_smart_fused_instance_transport():
    prob = fused_composite(dim=8, pieces=3, seed=4)
    b = bundle_for("prox-smart", problem=prob)
    assert verify_coherence(b.family, trials=2000, slack=1e-10,
                            rng=substream(3, "verify")).ok
    res = _solve(b, 9000)
    np.testing.assert_allclose(b.transport(res.x), prob.oracle["z_star"],
                               atol=1e-6)


def test_prox_smart_lambda_cap():
    prob = fused_composite(seed=5)
    from smartsolve.instances import prox_smart_from_fused

    with pytest.raises(ValueError):
        prox_smart_from_fused(prob, delta=0.25, lam=0.9)  # above (1-sq)/(1+sq)


def test_prox_smart_plus_recovery_and_sparsity():
    g_list, fs, A_list, z_hat, subgrads = composite_plus(seed=6)
    b = bundle_for("prox-smart-plus", seed=6)
    fam = b.family
    # dual storage exists only for the decision block
    assert fam.star_pattern[:, 0].all()
    assert not fam.star_pattern[:, 1:].any()
    # conditional law: auxiliary blocks always draw the prox operator
    np.testing.assert_allclose(b.law.p[fam.n - 1, 1:], 1.0)
    assert np.all(b.law.p[: fam.n - 1, 1:] == 0.0)
    res = _solve(b, 60_000)
    np.testing.assert_allclose(b.transport(res.x), z_hat, atol=1e-6)


def test_prox_smart_plus_coherence():
    b = bundle_for("prox-smart-plus", seed=7)
    assert verify_coherence(b.family, trials=2000, slack=1e-10,
                            rng=substream(4, "verify")).ok


# ---------------------------------------------------------------------------
# monotone inclusions and saddles


def test_mono_resolvent_only_reduces_to_zero_of_A():
    # no single-valued parts: the root transports to the zero of the
    # strongly monotone map
    rng = np.random.default_rng(8)
    dim = 4
    skew = rng.standard_normal((dim, dim))
    G = 0.9 * np.eye(dim) + (skew - skew.T) / 2
    h = rng.standard_normal(dim)
    A = AffineMonotoneMap(G, h)
    z_star = np.linalg.solve(G, -h)
    b = build_mono(A, [lambda z: np.zeros(dim)], [1e-12], gamma=0.5, mu_A=0.9,
                   root_hint=z_star)
    res = _solve(b, 4000)
    np.testing.assert_allclose(b.transport(res.x), z_star, atol=1e-8)


def test_mono_affine_plus_skew_converges_to_linear_solve():
    A_handle, B_list, L, mu_A, z_star = monotone_affine(seed=9)
    b = bundle_for("mono", seed=9)
    res = _solve(b, 40_000)
    np.testing.assert_allclose(b.transport(res.x), z_star, atol=1e-8)
    assert verify_quasi_monotone(b.family, trials=1000,
                                 rng=substream(5, "verify"),
                                 projector=b.oracle.project).ok


def test_mono_gamma_admissibility_boundary():
    A_handle, B_list, L, mu_A, z_star = monotone_affine(seed=10)
    Lbar = float(np.mean(L))
    gamma_max = 2 * mu_A / (Lbar**2 - mu_A**2) if Lbar > mu_A else np.inf
    if np.isfinite(gamma_max):
        with pytest.raises(ValueError):
            build_mono(A_handle, B_list, L, gamma=1.05 * gamma_max, mu_A=mu_A,
                       root_hint=z_star)
        ok = build_mono(A_handle, B_list, L, gamma=0.95 * gamma_max, mu_A=mu_A,
                        root_hint=z_star)
        assert ok.extras["mu"] > 0


def test_mono_sampling_equalizes_coherence_weights():
    b = bundle_for("mono", seed=11)
    fam, law = b.family, b.law
    products = fam.n**2 * law.p[:, 0] * fam.beta[:, 0]
    np.testing.assert_allclose(products, products[0], rtol=1e-10)


def test_saddle_reduction_converges_to_stationary_pair():
    g1, g2, Lmat, f_list, h_list, sol = saddle_quadratic(seed=12)
    b = bundle_for("saddle", seed=12)
    res = _solve(b, 30_000)
    np.testing.assert_allclose(b.transport(res.x), sol, atol=1e-6)
