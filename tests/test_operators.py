from functools import partial

import numpy as np
import pytest

from smartsolve.blockspace import BlockLayout, BlockVector
from smartsolve.operators import (
    AffineMonotoneMap,
    BlockOperator,
    CapabilityError,
    HalfspaceIndicator,
    L1Norm,
    LinearLeastSquaresTerm,
    LogisticTerm,
    MoreauConjugate,
    OperatorFamily,
    Quadratic,
    SaddleProxMap,
    SquaredL2,
    ZeroFunction,
    aggregate,
    gradient_op,
    subgradient_projector,
    verify_coherence,
    verify_quasi_monotone,
)
from smartsolve.presets import build_kaczmarz, build_saga
from smartsolve.problems import linear_system, ridge, ridge_terms
from smartsolve.sampling import substream


def finite_difference_gradient(f, x, h_scale=1e-6):
    """Central differences; the step follows the iterate's magnitude."""
    x = np.asarray(x, dtype=np.float64)
    h = h_scale * (1.0 + np.abs(x).max())
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# gradients


def test_gradient_identity_quadratic():
    f = Quadratic(np.zeros(2), 1.0)
    op = gradient_op(f, 1.0)
    x = BlockVector(BlockLayout((2,)), (np.array([2.0, -1.0]),))
    np.testing.assert_array_equal(op(x).blocks[0], np.array([2.0, -1.0]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_logistic_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    f = LogisticTerm(rng.standard_normal(4), y=1.0)
    x = rng.standard_normal(4)
    np.testing.assert_allclose(f.grad(x), finite_difference_gradient(f, x), atol=1e-6)


@pytest.mark.parametrize("seed", [3, 4])
def test_least_squares_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    f = LinearLeastSquaresTerm(rng.standard_normal((1, 5)), rng.standard_normal(1),
                               0.2 * np.eye(5))
    x = rng.standard_normal(5)
    np.testing.assert_allclose(f.grad(x), finite_difference_gradient(f, x), atol=1e-6)


def test_gradient_op_rejects_bad_lipschitz():
    with pytest.raises(ValueError):
        gradient_op(Quadratic(np.zeros(2)), 0.0)


# ---------------------------------------------------------------------------
# prox catalog


def test_prox_zero_is_identity():
    v = np.array([3.0, -1.0])
    np.testing.assert_array_equal(ZeroFunction().prox(v, 1.0), v)


def test_prox_l1_soft_threshold():
    got = L1Norm(1.0).prox(np.array([2.0, -0.5]), 1.0)
    np.testing.assert_array_equal(got, np.array([1.0, 0.0]))


def _prox_by_ternary_search(scalar_g, v, gamma, span=50.0, iters=200):
    """Independent minimization oracle for a separable prox objective.

    Per-coordinate ternary search on t -> g(t) + (t - v_i)^2 / (2 gamma);
    derivative-free, valid for any convex scalar term.
    """
    v = np.asarray(v, dtype=np.float64)
    out = np.empty_like(v)
    for i, vi in enumerate(v):
        lo, hi = vi - span, vi + span
        for _ in range(iters):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            f1 = scalar_g(m1) + (m1 - vi) ** 2 / (2.0 * gamma)
            f2 = scalar_g(m2) + (m2 - vi) ** 2 / (2.0 * gamma)
            if f1 <= f2:
                hi = m2
            else:
                lo = m1
        out[i] = 0.5 * (lo + hi)
    return out


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_moreau_conjugate_against_minimization_oracle(gamma):
    rng = np.random.default_rng(7)
    weight = 0.7
    g = L1Norm(weight)
    conj = MoreauConjugate(g)
    v = rng.standard_normal(3)
    got = conj.prox(v, gamma)
    # oracle: the conjugate prox via the primal identity, with the primal
    # prox found by direct scalar minimization
    primal = _prox_by_ternary_search(lambda t: weight * abs(t) / gamma, v / gamma, 1.0)
    np.testing.assert_allclose(got, v - gamma * primal, atol=1e-8)


def test_box_hyperplane_halfspace_projections():
    hs = HalfspaceIndicator(np.array([1.0, 0.0]), 0.0)
    np.testing.assert_allclose(hs.prox(np.array([-1.0, 4.0])), np.array([-1.0, 4.0]))
    np.testing.assert_allclose(hs.prox(np.array([2.0, 4.0])), np.array([0.0, 4.0]))


def test_quadratic_prox_closed_form():
    g = SquaredL2(center=np.array([1.0, 1.0]), curvature=2.0)
    v = np.array([3.0, 0.0])
    expect = (v + 1.0 * 2.0 * np.array([1.0, 1.0])) / (1.0 + 2.0)
    np.testing.assert_allclose(g.prox(v, 1.0), expect)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: partial(L1Norm(0.5).prox, gamma=1.3),
        lambda: partial(SquaredL2(center=np.zeros(3), curvature=1.5).prox, gamma=0.7),
        # the conjugate of an l1 norm: its prox is the box projection
        lambda: partial(MoreauConjugate(L1Norm(0.8)).prox, gamma=1.1),
        lambda: HalfspaceIndicator(np.array([1.0, 2.0, -1.0]), 0.5).project,
        lambda: partial(AffineMonotoneMap(
            np.array([[1.0, -2.0, 0], [2.0, 1.0, 0], [0, 0, 0.5]])).resolvent, gamma=0.8),
    ],
)
def test_firm_nonexpansiveness(factory):
    # |Tx - Ty|^2 + |(I-T)x - (I-T)y|^2 <= |x - y|^2
    T = factory()
    rng = np.random.default_rng(11)
    dim = np.asarray(T(np.zeros(3))).size
    for _ in range(200):
        x, y = rng.standard_normal((2, dim)) * rng.choice([0.5, 2.0, 10.0])
        tx, ty = np.asarray(T(x)), np.asarray(T(y))
        lhs = float((tx - ty) @ (tx - ty)) + float(
            ((x - tx) - (y - ty)) @ ((x - tx) - (y - ty))
        )
        rhs = float((x - y) @ (x - y))
        assert lhs <= rhs + 1e-10 * max(1.0, rhs)


# ---------------------------------------------------------------------------
# subgradient projector


def test_subgradient_projector_unit_sphere():
    # f(x) = |x| - 1 at (2, 0): value 1, gradient (1, 0), so G moves to (1, 0)
    layout = BlockLayout((2,))
    op = subgradient_projector(
        lambda z: np.linalg.norm(z) - 1.0,
        lambda z: z / np.linalg.norm(z),
        layout,
    )
    val = op(BlockVector(layout, (np.array([2.0, 0.0]),)))
    np.testing.assert_allclose(val.blocks[0], np.array([1.0, 0.0]))


def test_subgradient_projector_inactive_branch():
    layout = BlockLayout((2,))
    op = subgradient_projector(
        lambda z: np.linalg.norm(z) - 1.0,
        lambda z: z / max(np.linalg.norm(z), 1e-12),
        layout,
    )
    val = op(BlockVector(layout, (np.array([0.1, 0.2]),)))
    np.testing.assert_array_equal(val.blocks[0], np.zeros(2))


def test_subgradient_projector_halfspace_equals_projection():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(4)
    a /= np.linalg.norm(a)
    b = 0.3
    layout = BlockLayout((4,))
    op = subgradient_projector(lambda z: float(a @ z) - b, lambda z: a, layout)
    hs = HalfspaceIndicator(a, b)
    for _ in range(50):
        z = rng.standard_normal(4) * 3.0
        moved = z - op(BlockVector(layout, (z,))).blocks[0]
        np.testing.assert_allclose(moved, hs.project(z), atol=1e-12)


# ---------------------------------------------------------------------------
# resolvents


def test_resolvent_zero_map_is_identity():
    v = np.array([1.0, -2.0])
    np.testing.assert_allclose(AffineMonotoneMap(np.zeros((2, 2))).resolvent(v, 1.0), v)


def test_saddle_resolvent_is_blockwise_prox():
    g1, g2 = L1Norm(1.0), SquaredL2(center=np.ones(2), curvature=1.0)
    v = np.array([2.0, -0.1, 0.5, 1.0, -3.0])
    expect = np.concatenate([g1.prox(v[:3], 0.7), g2.prox(v[3:], 0.7)])
    got = SaddleProxMap(g1, g2, dim_w=3).resolvent(v, 0.7)
    np.testing.assert_allclose(got, expect, atol=1e-15)


# ---------------------------------------------------------------------------
# aggregate


def test_aggregate_identity_operator():
    layout = BlockLayout((3,))
    op = BlockOperator(layout, full=lambda x: x)
    fam = OperatorFamily(layout, [op], np.ones((1, 1)), np.ones((1, 1), bool))
    x = BlockVector(layout, (np.array([1.0, 2.0, 3.0]),))
    np.testing.assert_array_equal(aggregate(fam, x).blocks[0], x.blocks[0])


def test_aggregate_kaczmarz_identity_rows():
    # A = I2, b = 0, normalized rows: (1/2) sum <a_i, x> a_i = x / 2
    bundle = build_kaczmarz(np.eye(2), np.zeros(2))
    x = BlockVector(BlockLayout((2,)), (np.array([3.0, -4.0]),))
    np.testing.assert_allclose(aggregate(bundle.family, x).blocks[0],
                               np.array([1.5, -2.0]))


def test_aggregate_quadratic_family_mean_center():
    rng = np.random.default_rng(8)
    centers = rng.standard_normal((5, 3))
    fs = [Quadratic(c, 1.0) for c in centers]
    bundle = build_saga(fs, x_star=centers.mean(axis=0))
    x = BlockVector(BlockLayout((3,)), (rng.standard_normal(3),))
    np.testing.assert_allclose(
        aggregate(bundle.family, x).blocks[0], x.blocks[0] - centers.mean(axis=0),
        atol=1e-12,
    )


# ---------------------------------------------------------------------------
# verification ops


def test_coherence_kaczmarz_and_counterexample():
    prob = linear_system(rows=15, dim=6, seed=2)
    bundle = build_kaczmarz(prob.data["A"], prob.data["b"])
    rep = verify_coherence(bundle.family, trials=2000, slack=1e-10,
                           rng=substream(0, "verify"))
    assert rep.ok
    # inflating the constants by 10 must break the inequality
    fam = bundle.family
    bad = OperatorFamily(fam.layout, fam.ops, 10.0 * fam.beta, fam.star_pattern,
                         metric=fam.metric, known_root=fam.known_root)
    rep_bad = verify_coherence(bad, trials=500, rng=substream(0, "verify"))
    assert not rep_bad.ok and rep_bad.max_violation > 1e-6
    assert rep_bad.witness is not None


def test_coherence_saga_scaling():
    prob = ridge(rows=10, dim=5, reg=0.3, seed=1)
    fs, L = ridge_terms(prob)
    bundle = build_saga(fs, lipschitz=L, x_star=prob.oracle["x_star"])
    # constants are the per-term inverse Lipschitz over the term count
    np.testing.assert_allclose(bundle.family.beta[:, 0], 1.0 / (len(fs) * L))
    assert verify_coherence(bundle.family, trials=2000, slack=1e-10,
                            rng=substream(1, "verify")).ok


def test_quasi_monotone_kaczmarz_and_counterexample():
    prob = linear_system(rows=12, dim=12, seed=3)  # square invertible
    bundle = build_kaczmarz(prob.data["A"], prob.data["b"])
    An = bundle.extras["A"]
    sigma_min = np.linalg.svd(An, compute_uv=False)[-1]
    assert bundle.family.mu == pytest.approx(sigma_min**2 / 12)
    rep = verify_quasi_monotone(bundle.family, trials=1000,
                                rng=substream(2, "verify"),
                                projector=bundle.oracle.project)
    assert rep.ok


def test_quasi_monotone_inflated_modulus_detected():
    # nearly parallel rows: the weak direction is easy to hit in 2-D, so an
    # inflated modulus must be caught
    A = np.array([[1.0, 0.0], [0.999, 0.02]])
    x_true = np.array([0.3, -0.7])
    bundle = build_kaczmarz(A, A @ x_true)
    fam = bundle.family
    bad = OperatorFamily(fam.layout, fam.ops, fam.beta, fam.star_pattern,
                         metric=fam.metric, mu=10.0 * fam.mu,
                         known_root=fam.known_root)
    rep_bad = verify_quasi_monotone(bad, trials=500, rng=substream(2, "verify"),
                                    projector=bundle.oracle.project)
    assert not rep_bad.ok


def test_quasi_monotone_saga_strong_convexity():
    prob = ridge(rows=8, dim=4, reg=0.5, seed=4)
    fs, L = ridge_terms(prob)
    bundle = build_saga(fs, lipschitz=L, mu=float(prob.oracle["mu"]),
                        x_star=prob.oracle["x_star"])
    assert verify_quasi_monotone(bundle.family, trials=1000,
                                 rng=substream(3, "verify")).ok


def test_verify_requires_root():
    layout = BlockLayout((2,))
    op = BlockOperator(layout, full=lambda x: x)
    fam = OperatorFamily(layout, [op], np.ones((1, 1)), np.ones((1, 1), bool))
    with pytest.raises(CapabilityError):
        verify_coherence(fam)
    with pytest.raises(CapabilityError):
        verify_quasi_monotone(fam)


def test_family_rejects_false_root_claims():
    layout = BlockLayout((2,))
    op = BlockOperator(layout, full=lambda x: x)
    not_root = BlockVector(layout, (np.ones(2),))
    with pytest.raises(ValueError):
        OperatorFamily(layout, [op], np.ones((1, 1)), np.ones((1, 1), bool),
                       known_root=not_root)
    # claiming a zero pattern that the operator violates at the root
    shift = BlockOperator(layout, full=lambda x: BlockVector(
        layout, (x.blocks[0] - np.array([1.0, 0.0]),)))
    root = BlockVector(layout, (np.array([1.0, 0.0]),))
    with pytest.raises(ValueError):
        OperatorFamily(
            layout, [op, shift], np.ones((2, 1)), np.zeros((2, 1), bool),
            known_root=root,
        )


def test_block_operator_consistency_and_zero_blocks():
    layout = BlockLayout((2, 3))
    rng = np.random.default_rng(9)
    W = rng.standard_normal((5, 5))

    def full(x):
        flat = W @ x.flat()
        flat[2:] = 0.0
        return BlockVector.from_flat(layout, flat)

    op = BlockOperator(layout, full=full, zero_blocks=(1,))
    for _ in range(20):
        x = BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
        whole = op(x)
        for j in range(2):
            np.testing.assert_allclose(op.block(x, j), whole.blocks[j], atol=1e-14)
    x = BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
    np.testing.assert_array_equal(op.block(x, 1), np.zeros(3))


def test_coordinatewise_lipschitz_relation():
    # 1/L_j |grad_j f(x) - grad_j f(y)|^2 <= <grad f(x) - grad f(y), x - y>
    from smartsolve.instances import chain_quadratic

    fs, layout, Lb, s, x_star = chain_quadratic(seed=5)
    rng = np.random.default_rng(10)
    for f, Lrow in zip(fs, Lb):
        for _ in range(100):
            x = [rng.standard_normal(d) for d in layout.dims]
            y = [rng.standard_normal(d) for d in layout.dims]
            gx, gy = f.grad_full(x), f.grad_full(y)
            ip = sum(float((a - b) @ (c - d)) for a, b, c, d in zip(gx, gy, x, y))
            for j in range(layout.m):
                diff = gx[j] - gy[j]
                assert float(diff @ diff) / Lrow[j] <= ip + 1e-10
