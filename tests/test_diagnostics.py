import numpy as np
import pytest

from smartsolve.blockspace import BlockLayout, BlockVector
from smartsolve.diagnostics import (
    AffineOracle,
    PointOracle,
    envelope_test,
    fit_rate,
    residual,
)
from smartsolve.instances import bundle_for
from smartsolve.problems import linear_system


def test_residual_zero_at_root():
    b = bundle_for("saga", seed=0)
    assert residual(b.family, b.family.known_root) <= 1e-10


def test_residual_zero_family():
    from smartsolve.operators import BlockOperator, OperatorFamily

    layout = BlockLayout((3,))
    zero = BlockOperator(layout, block=lambda x, j: np.zeros(3), zero_blocks=(0,))
    fam = OperatorFamily(layout, [zero], np.ones((1, 1)), np.zeros((1, 1), bool))
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = BlockVector(layout, (rng.standard_normal(3),))
        assert residual(fam, x) == 0.0


def test_residual_kaczmarz_matrix_identity():
    # for normalized rows the aggregated map is A^T (A x - b) / N
    prob = linear_system(rows=14, dim=6, seed=1)
    b = bundle_for("kaczmarz", problem=prob)
    A, bb = b.extras["A"], b.extras["b"]
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(6)
        xv = BlockVector(b.family.layout, (x,))
        direct = np.linalg.norm(A.T @ (A @ x - bb) / A.shape[0])
        assert residual(b.family, xv) == pytest.approx(direct, rel=1e-12)


def test_residual_is_locally_continuous():
    b = bundle_for("saga", seed=3)
    rng = np.random.default_rng(4)
    x = BlockVector(b.family.layout, (rng.standard_normal(b.family.layout.dims[0]),))
    base = residual(b.family, x)
    for _ in range(5):
        delta = rng.standard_normal(b.family.layout.dims[0])
        delta *= 1e-8 / np.linalg.norm(delta)
        moved = BlockVector(b.family.layout, (x.blocks[0] + delta,))
        assert abs(residual(b.family, moved) - base) <= 1e-8 * 100


def test_point_oracle():
    layout = BlockLayout((2,))
    star = BlockVector(layout, (np.array([1.0, 0.0]),))
    oracle = PointOracle(star)
    x = BlockVector(layout, (np.array([1.0, 2.0]),))
    assert oracle.dist_sq(x) == pytest.approx(4.0)
    assert oracle.dist_sq(star) == 0.0


def test_affine_oracle_matches_svd_projection():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 7))
    x_true = rng.standard_normal(7)
    b = A @ x_true
    layout = BlockLayout((7,))
    oracle = AffineOracle(A, b, layout)
    # SVD-based oracle for the projection onto {A x = b}
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    for _ in range(20):
        x = rng.standard_normal(7)
        xv = BlockVector(layout, (x,))
        corr = Vt.T @ np.diag(1.0 / s) @ U.T @ (A @ x - b)
        np.testing.assert_allclose(oracle.project(xv).flat(), x - corr,
                                   atol=1e-10)
        assert oracle.dist_sq(xv) == pytest.approx(float(corr @ corr), rel=1e-9)
    # points inside the set do not move
    inside = BlockVector(layout, (x_true,))
    assert oracle.dist_sq(inside) <= 1e-20


def test_fit_rate_recovers_exact_geometric_sequence():
    iters = np.arange(0, 400, 10)
    values = 3.7 * 0.93**iters
    fit = fit_rate(iters, values)
    assert fit.factor == pytest.approx(0.93, abs=1e-12)
    assert fit.value_at_zero == pytest.approx(3.7, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_needs_enough_points():
    with pytest.raises(ValueError):
        fit_rate(np.arange(10), np.ones(10))


def test_envelope_synthetic_pass_and_fail():
    rng = np.random.default_rng(6)
    iters = np.arange(0, 300, 5)
    true = 0.97
    traces = np.array([
        2.0 * true**iters * np.exp(rng.normal(0, 0.03, iters.size))
        for _ in range(40)
    ])
    ok = envelope_test(iters, traces, predicted_factor=0.98, slack=0.05)
    assert ok
    bad = envelope_test(iters, traces, predicted_factor=0.9, slack=0.05)
    assert not bad
    assert bad.max_violation_iter is not None
    assert bad.to_json()["pass"] is False


def test_envelope_zero_rate_trivially_passes():
    iters = np.arange(0, 200, 5)
    traces = np.full((30, iters.size), 1.3)
    rep = envelope_test(iters, traces, predicted_factor=1.0, slack=0.05)
    assert rep


def test_envelope_needs_enough_seeds():
    iters = np.arange(0, 100, 5)
    traces = np.ones((5, iters.size))
    with pytest.raises(ValueError):
        envelope_test(iters, traces, predicted_factor=0.9)


def test_rates_suite_rejects_too_few_seeds_before_any_solve(monkeypatch):
    from smartsolve import verify
    from smartsolve.diagnostics import MIN_SEEDS

    def no_solve(*args, **kwargs):
        raise AssertionError("rates_suite solved before checking its seed count")

    monkeypatch.setattr(verify, "run", no_solve)
    with pytest.raises(ValueError, match=f"need at least {MIN_SEEDS} seeds, got 29"):
        verify.rates_suite(seeds=MIN_SEEDS - 1)
