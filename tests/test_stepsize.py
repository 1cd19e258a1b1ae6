import numpy as np
import pytest

from smartsolve.blockspace import BlockLayout
from smartsolve.instances import bundle_for
from smartsolve.operators import BlockOperator, OperatorFamily
from smartsolve.sampling import SamplingLaw, TriggerGraph
from smartsolve.problems import linear_system, ridge, ridge_terms
from smartsolve.stepsize import RatePlan, linear_bound, table1_preset, weak_bound


def saga_bundle(seed=0):
    prob = ridge(rows=10, dim=6, reg=0.35, seed=seed)
    fs, L = ridge_terms(prob)
    from smartsolve.presets import build_saga

    return build_saga(fs, lipschitz=L, mu=float(prob.oracle["mu"]),
                      x_star=prob.oracle["x_star"]), float(L.max()), \
        float(prob.oracle["mu"]), len(fs)


def test_weak_bound_saga_synchronous_half_over_l():
    bundle, L, mu, N = saga_bundle()
    # uniform sampling: the constant-step bound collapses to 1/(2 max L)
    got = weak_bound(bundle.family, bundle.law, 0, 0)
    assert got == pytest.approx(1.0 / (2.0 * L), rel=1e-12)


def test_weak_bound_common_zero_case_kaczmarz():
    prob = linear_system(rows=12, dim=6, seed=1)
    bundle = bundle_for("kaczmarz", problem=prob)
    # all operator values vanish at roots: the bound loses the factor 2
    got = weak_bound(bundle.family, bundle.law, 0, 0)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_weak_bound_monotone_in_delays():
    bundle, *_ = saga_bundle()
    base = weak_bound(bundle.family, bundle.law, 0, 0)
    prev = base
    for tau in (1, 2, 4, 8):
        cur = weak_bound(bundle.family, bundle.law, tau, tau)
        assert cur <= prev + 1e-15
        prev = cur
    # doubling the primal delay at fixed dual delay can only shrink it
    a = weak_bound(bundle.family, bundle.law, 2, 3)
    b = weak_bound(bundle.family, bundle.law, 4, 3)
    assert b <= a


def test_weak_bound_band_mode():
    bundle, *_ = saga_bundle()
    const = weak_bound(bundle.family, bundle.law, 0, 0)
    band_hi = weak_bound(bundle.family, bundle.law, 0, 0, lambda_lo=const / 4)
    assert band_hi == pytest.approx(np.sqrt(const / 4 * const))


def test_linear_bound_saga_matches_table_row():
    bundle, L, mu, N = saga_bundle()
    # default plan (alpha = 1/2, eta at the trigger cap) reproduces the row
    plan = RatePlan(eta=1.0 / N, alpha=0.5)
    lam, factor, window = linear_bound(bundle.family, bundle.law, bundle.graph,
                                       0, 0, delta=0, plan=plan)
    row = table1_preset("SAGA", L=L, mu=mu, N=N)
    assert window == 1
    assert lam == pytest.approx(row["best"], rel=1e-12)
    assert factor == pytest.approx(row["rate"], rel=1e-12)


def test_linear_bound_svrg_sched_matches_table_row():
    prob = ridge(rows=10, dim=6, reg=0.35, seed=0)
    bundle = bundle_for("svrg-sched", problem=prob, tau=4)
    L = float(max(f.lipschitz for f in ridge_terms(prob)[0]))
    mu = float(prob.oracle["mu"])
    plan = RatePlan(eta=1.0, alpha=0.5)
    lam, factor, window = linear_bound(bundle.family, bundle.law, bundle.graph,
                                       0, 4, delta=0, plan=plan)
    row = table1_preset("SVRG-sched", L=L, mu=mu, tau=4)
    assert lam == pytest.approx(row["best"], rel=1e-12)
    assert factor == pytest.approx(row["rate"], rel=1e-12)
    assert window == 1


def test_linear_bound_degenerate_modulus_gives_factor_one():
    bundle, L, mu, N = saga_bundle()
    fam = bundle.family
    from smartsolve.operators import OperatorFamily

    flat = OperatorFamily(fam.layout, fam.ops, fam.beta, fam.star_pattern,
                          metric=fam.metric, mu=0.0, known_root=fam.known_root)
    lam, factor, _ = linear_bound(flat, bundle.law, bundle.graph, 0, 0, delta=0)
    assert factor == 1.0
    assert lam > 0


def test_linear_never_exceeds_weak_on_presets():
    for name in ("saga", "kaczmarz", "mono"):
        bundle = bundle_for(name, seed=0)
        if bundle.family.mu is None:
            continue
        for taus in ((0, 0), (2, 2), (5, 5)):
            w = weak_bound(bundle.family, bundle.law, *taus)
            lam, _, _ = linear_bound(bundle.family, bundle.law, bundle.graph,
                                     *taus, delta=taus[0])
            assert lam <= w + 1e-12
            assert lam > 0 and w > 0


def test_inconsistency_only_hurts_linear_bound():
    bundle, *_ = saga_bundle()
    lam0, _, _ = linear_bound(bundle.family, bundle.law, bundle.graph, 3, 3,
                              delta=0)
    lam3, _, _ = linear_bound(bundle.family, bundle.law, bundle.graph, 3, 3,
                              delta=3)
    assert lam3 <= lam0 + 1e-15


def test_rate_plan_validation():
    with pytest.raises(ValueError):
        RatePlan(eta=0.0)
    with pytest.raises(ValueError):
        RatePlan(eta=0.5, alpha=1.0)
    bundle, L, mu, N = saga_bundle()
    with pytest.raises(ValueError):
        linear_bound(bundle.family, bundle.law, bundle.graph, 0, 0, delta=0,
                     plan=RatePlan(eta=0.9))  # above the trigger cap 1/N


# ---------------------------------------------------------------------------
# the published table


def test_table_saga_substitution():
    row = table1_preset("SAGA", L=1.0, mu=0.1, N=10)
    assert row["largest"] == 0.5
    assert row["best"] == pytest.approx(0.2)
    assert row["rate"] == pytest.approx(0.98)


def test_table_kaczmarz_row():
    row = table1_preset("Kaczmarz", N=20, inv_norm=2.0)
    assert row["largest"] == 1.0
    assert row["best"] == 0.5
    assert row["rate"] == pytest.approx(1.0 - 1.0 / (2 * 20 * 4.0))


def test_table_finito_row():
    row = table1_preset("Finito", L=2.0, mu_hat=0.5, N=8)
    assert row["largest"] == 0.5 and row["largest_gamma"] == pytest.approx(1.0)
    assert row["best"] == 0.25 and row["best_gamma"] == pytest.approx(0.5)
    assert row["rate"] == pytest.approx(1.0 - (1.0 - np.sqrt(1 - 0.25)) / 32.0)


def test_table_svrg_rows():
    avg = table1_preset("SVRG-avg", L=1.0, mu=0.1, tau=5)
    assert avg["largest"] == 0.5
    assert avg["best"] == pytest.approx(1.0 / 4.5)
    sched = table1_preset("SVRG-sched", L=1.0, mu=0.1, tau=5)
    assert sched["largest"] == pytest.approx(1.0 / 7.0)
    assert sched["best"] == pytest.approx(1.0 / (14.0 + 0.6))


def test_table_sdca_altproj_proxsaga_rows():
    sdca = table1_preset("SDCA", L=1.0, mu0=0.5, N=4)
    assert (sdca["largest"], sdca["best"]) == (0.75, 0.375)
    assert sdca["rate"] == pytest.approx(1.0 - 1.5 / (8 * 3.0))
    ap = table1_preset("AltProj", N=5, mu_hat=2.0, eps=0.5, L=1.0)
    assert ap["rate"] == pytest.approx(1.0 - 0.25 / 20.0)
    ps = table1_preset("ProxSAGA", L=1.0, mu_f=0.2, mu_g=0.0, N=5)
    r = np.sqrt(0.8)
    assert ps["best"] == pytest.approx(6.0 / (26.0 - 10.0 * r))
    assert ps["rate"] == pytest.approx(1.0 - (1.0 - r) / (13.0 - 5.0 * r))


def test_table_unknown_name():
    with pytest.raises(KeyError):
        table1_preset("NotAMethod")


def toy_family(star_zero):
    """Two operators on two one-dimensional blocks, every beta 1, mu 1/2.

    The law has q = (1/4, 3/4) and p[:, 0] = (1/2, 1/2), p[:, 1] = (1/4, 3/4),
    so q_lo = 1/4, and under the complete graph every trigger probability
    is q_j, whose minimum 1/4 caps eta.
    """
    layout = BlockLayout((1, 1))
    op = BlockOperator(layout, block=lambda x, j: x.blocks[j])
    fam = OperatorFamily(layout, [op, op], np.ones((2, 2)), np.full((2, 2), not star_zero),
                         mu=0.5)
    law = SamplingLaw(q=np.array([0.25, 0.75]), p=np.array([[0.5, 0.25], [0.5, 0.75]]),
                      rho=1.0)
    return fam, law, TriggerGraph.complete(2)


# n = m = 2, m_hi = 1: core = n^2 p_ij beta_ij is smallest, 1, at (0, 1).
# tau_p = 2, tau_d = 0 with star-zero: den = 3 tau_p / (m sqrt q_lo) + 2 / (m q_lo)
# = 6 + 4, bound 2 core / den = 1/5; without: den = tau_p sqrt(2 (tau_d + 2)) /
# (m sqrt q_lo) + (tau_d + 2) / (m q_lo) = 4 + 4, bound core / den = 1/8.
# Without delays the first terms vanish: 2/4 and 1/4.
@pytest.mark.parametrize("star_zero, taus, expect", [
    (True, (2, 0), 0.2), (False, (2, 0), 0.125), (True, (0, 0), 0.5), (False, (0, 0), 0.25),
])
def test_weak_bound_exact_on_a_toy_family(star_zero, taus, expect):
    fam, law, _ = toy_family(star_zero)
    assert weak_bound(fam, law, *taus) == pytest.approx(expect, rel=1e-14)


# eta = 1/4, alpha = 1/2, mu = 1/2.  Synchronous: core = beta n^2 p_ij q_j is
# smallest, 1/2, at (i, 0); star-zero gives lam = (1 - alpha) core m / m_hi = 1/2,
# otherwise eta (1 - alpha) core m / (2 eta + 2 mu alpha (1 - alpha) core) = 1/5;
# factor = 1 - 2 alpha mu lam / m.  With tau_p = 1, tau_d = 0, delta = 0 (the
# star pattern does not enter): stale = 2 eta (tau_d + 2) / (q_j m) + eta tau_p
# sqrt(2 (tau_d + 2)) (2 + eta / (1 - eta)) / (m sqrt q_lo) = 1/(2 q_j) + 7/6, and
# lam = 2 eta (1 - alpha) core / (stale + 4 mu (tau_d + 1) alpha (1 - alpha) core)
# is smallest at (0, 1): (1/4) / (2/3 + 7/6 + 1/2) = 3/28, over a window of
# tau_p + 1 = 2: factor = 1 - 2 alpha mu lam / 2 = 109/112.
@pytest.mark.parametrize("star_zero, taus, expect", [
    (True, (0, 0), (0.5, 0.875, 1)),
    (False, (0, 0), (0.2, 0.95, 1)),
    (True, (1, 0), (3 / 28, 109 / 112, 2)),
    (False, (1, 0), (3 / 28, 109 / 112, 2)),
])
def test_linear_bound_exact_on_a_toy_family(star_zero, taus, expect):
    fam, law, graph = toy_family(star_zero)
    lam, factor, window = linear_bound(fam, law, graph, *taus, delta=0,
                                       plan=RatePlan(eta=0.25, alpha=0.5))
    assert window == expect[2]
    assert lam == pytest.approx(expect[0], rel=1e-14)
    assert factor == pytest.approx(expect[1], rel=1e-14)
