import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartsolve.blockspace import (
    BlockLayout,
    BlockVector,
    DimensionError,
    gram_metric,
    inner,
    norm_sq,
    product_metric,
)


def test_layout_basics():
    layout = BlockLayout((2, 1, 3))
    assert layout.m == 3
    assert layout.total_dim == 6
    assert layout.offsets() == [(0, 2), (2, 3), (3, 6)]


@pytest.mark.parametrize("dims", [(), (0,), (2, -1)])
def test_layout_rejects_bad_dims(dims):
    with pytest.raises(DimensionError):
        BlockLayout(dims)


def test_vector_rejects_nonfinite():
    layout = BlockLayout((2,))
    with pytest.raises(ValueError):
        BlockVector(layout, (np.array([1.0, np.nan]),))
    with pytest.raises(ValueError):
        BlockVector(layout, (np.array([np.inf, 0.0]),))


def test_vector_shape_mismatch():
    layout = BlockLayout((2, 1))
    with pytest.raises(DimensionError):
        BlockVector(layout, (np.zeros(2), np.zeros(2)))


def test_json_round_trips():
    layout = BlockLayout((2, 3))
    assert BlockLayout.from_json(layout.to_json()) == layout
    x = BlockVector(layout, (np.array([1.0, -2.0]), np.array([0.5, 0.0, 3.0])))
    y = BlockVector.from_json(x.to_json())
    assert y.layout == layout
    for a, b in zip(x.blocks, y.blocks):
        np.testing.assert_array_equal(a, b)


def test_inner_product_metric_example():
    # x = y = (1, 0 | 2): sum of squares is 5
    layout = BlockLayout((2, 1))
    x = BlockVector(layout, (np.array([1.0, 0.0]), np.array([2.0])))
    assert inner(product_metric(layout), x, x) == 5.0


def test_block_norms_sum_to_product_norm():
    rng = np.random.default_rng(0)
    layout = BlockLayout((3, 2, 4))
    metric = product_metric(layout)
    for _ in range(50):
        x = BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
        total = sum(float(b @ b) for b in x.blocks)
        assert total == pytest.approx(inner(metric, x, x), rel=1e-14)


def test_gram_identity_equals_product():
    rng = np.random.default_rng(1)
    layout = BlockLayout((3, 2))
    prod = product_metric(layout)
    gram = gram_metric(layout, np.eye(5))
    for _ in range(100):
        x = BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
        y = BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
        assert inner(gram, x, y) == pytest.approx(inner(prod, x, y), abs=1e-14)


def test_gram_rejects_asymmetric_and_indefinite():
    layout = BlockLayout((2,))
    with pytest.raises(ValueError):
        gram_metric(layout, np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        gram_metric(layout, np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_layout_mismatch_raises():
    la, lb = BlockLayout((2, 1)), BlockLayout((3,))
    x = BlockVector.zeros(la)
    y = BlockVector.zeros(lb)
    with pytest.raises(DimensionError):
        inner(product_metric(la), x, y)


def test_equivalence_constants_product():
    layout = BlockLayout((2, 5))
    metric = product_metric(layout)
    np.testing.assert_array_equal(metric.m_lo, np.ones(2))
    np.testing.assert_array_equal(metric.m_hi, np.ones(2))


def test_equivalence_constants_closed_form_example():
    # prox-driven preset metric at delta = 0.25, gamma_j = 0.5:
    # (1 - 0.5)/0.5 = 1.0 and (1 + 0.5)/0.5 = 3.0 for every block
    from smartsolve.operators import L1Norm, SquaredL2
    from smartsolve.presets import build_prox_smart

    A = np.array([[0.4, 0.3]])
    bundle = build_prox_smart(
        [SquaredL2(center=np.zeros(2), curvature=1.0), L1Norm(1.0)],
        [A],
        gammas=np.array([0.5, 0.5]),
        delta=0.25,
    )
    np.testing.assert_allclose(bundle.family.metric.m_lo, [1.0, 1.0])
    np.testing.assert_allclose(bundle.family.metric.m_hi, [3.0, 3.0])
    rng = np.random.default_rng(7)
    _sandwich_holds(bundle.family.metric, bundle.family.layout, rng, trials=1000)


def _sandwich_holds(metric, layout, rng, trials=1000, slack=1e-10):
    for _ in range(trials):
        x = BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
        total = norm_sq(metric, x)
        low = sum(lo * float(b @ b) for lo, b in zip(metric.m_lo, x.blocks))
        high = sum(hi * float(b @ b) for hi, b in zip(metric.m_hi, x.blocks))
        scale = max(1.0, abs(total))
        assert low <= total + slack * scale
        assert total <= high + slack * scale


def test_gram_spectral_sandwich_random_spd():
    rng = np.random.default_rng(2)
    layout = BlockLayout((3, 2, 2))
    R = rng.standard_normal((7, 7))
    P = R @ R.T + 0.5 * np.eye(7)
    metric = gram_metric(layout, P)
    # oracle: the spectral bounds must bracket every restricted quotient
    eigs = np.linalg.eigvalsh(P)
    assert metric.m_lo[0] == pytest.approx(eigs[0])
    assert metric.m_hi[0] == pytest.approx(eigs[-1])
    _sandwich_holds(metric, layout, rng)


def test_coupled_metric_matches_direct_formula():
    # bordered metric: <x,x>_P = sum 1/gamma_j |x_j|^2 + 2 sum <A_j x_j, x_last>
    rng = np.random.default_rng(4)
    M, bd, cd = 3, 3, 2
    A_list = [rng.standard_normal((cd, bd)) * 0.3 for _ in range(M)]
    gammas = np.array([0.5, 0.8, 0.6, 0.7])
    layout = BlockLayout((bd,) * M + (cd,))
    total = layout.total_dim
    P = np.zeros((total, total))
    offs = layout.offsets()
    for j in range(M + 1):
        a, b = offs[j]
        P[a:b, a:b] = np.eye(layout.dims[j]) / gammas[j]
    am, bm = offs[M]
    for j in range(M):
        a, b = offs[j]
        P[am:bm, a:b] = A_list[j]
        P[a:b, am:bm] = A_list[j].T
    metric = gram_metric(layout, P)
    for _ in range(50):
        x = BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
        direct = sum(
            float(x.blocks[j] @ x.blocks[j]) / gammas[j] for j in range(M + 1)
        ) + 2.0 * sum(
            float((A_list[j] @ x.blocks[j]) @ x.blocks[M]) for j in range(M)
        )
        assert norm_sq(metric, x) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_inner_symmetric_bilinear(seed):
    rng = np.random.default_rng(seed)
    layout = BlockLayout((2, 3))
    R = rng.standard_normal((5, 5))
    metric = gram_metric(layout, R @ R.T + 0.3 * np.eye(5))
    vecs = [
        BlockVector(layout, tuple(rng.standard_normal(d) for d in layout.dims))
        for _ in range(3)
    ]
    x, y, z = vecs
    a, b = rng.standard_normal(2)
    sxy = inner(metric, x, y)
    assert sxy == pytest.approx(inner(metric, y, x), abs=1e-12 * (1 + abs(sxy)))
    left = inner(metric, a * x + b * y, z)
    right = a * inner(metric, x, z) + b * inner(metric, y, z)
    assert left == pytest.approx(right, abs=1e-10 * (1 + abs(left)))

