"""Engine-vs-hand-coded-update equivalence (the clone oracle checks)."""

import numpy as np
import pytest

from smartsolve.blockspace import BlockVector
from smartsolve.engine import init_state, run, step
from smartsolve.instances import bundle_for, sdca_quadratics
from smartsolve.problems import linear_system, ridge, ridge_terms
from smartsolve.reference import (
    finito_clone,
    kaczmarz_clone,
    saga_clone,
    sdca_clone,
    svrg_avg_clone,
    svrg_sched_clone,
)
from smartsolve.sampling import draw, substream
from smartsolve.verify import EQUIV_STEPS, EQUIV_TOL, equivalence_suite


def test_equivalence_suite_all_clones():
    ok, report = equivalence_suite(seed=0)
    assert ok, report
    assert set(report) == {"saga", "svrg-avg", "svrg-sched", "finito", "sdca",
                           "kaczmarz"}
    for name, gap in report.items():
        assert gap <= EQUIV_TOL, (name, gap)


def test_equivalence_suite_other_seed():
    ok, report = equivalence_suite(seed=5)
    assert ok, report


def test_saga_engine_matches_clone_bit_for_bit():
    # over a thousand steps the trajectories agree to the last bit, not
    # merely within tolerance
    prob = ridge(rows=8, dim=5, reg=0.3, seed=2)
    fs, L = ridge_terms(prob)
    b = bundle_for("saga", problem=prob)
    x0 = BlockVector.zeros(b.family.layout)
    res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps,
              max_iters=EQUIV_STEPS, rng=substream(9, "sampling"))
    states = saga_clone(fs, np.zeros(5), b.steps.lo, b.law,
                        substream(9, "sampling"), EQUIV_STEPS)
    assert np.array_equal(res.x.flat(), states[-1])


def test_kaczmarz_engine_matches_clone_trajectory():
    prob = linear_system(rows=25, dim=10, seed=3)
    b = bundle_for("kaczmarz", problem=prob)
    x0 = BlockVector.zeros(b.family.layout)
    state = init_state(b.family, x0, rng=substream(13, "sampling"))
    mine = [x0.flat()]
    for _ in range(500):
        step(state, b.law, b.graph, b.schedule, b.steps)
        mine.append(state.x.flat())
    theirs = kaczmarz_clone(b.extras["A"], b.extras["b"], np.zeros(10),
                            b.steps.lo, b.law, substream(13, "sampling"), 500)
    for a, c in zip(mine, theirs):
        assert np.max(np.abs(a - c)) <= EQUIV_TOL


def test_svrg_clones_track_engine_per_iterate():
    prob = ridge(rows=6, dim=4, reg=0.4, seed=4)
    fs, L = ridge_terms(prob)
    for mode, clone in (("avg", svrg_avg_clone), ("sched", svrg_sched_clone)):
        b = bundle_for(f"svrg-{mode}", problem=prob, tau=3)
        x0 = BlockVector.zeros(b.family.layout)
        res = run(x0, b.family, b.law, b.graph, b.schedule, b.steps,
                  max_iters=700, rng=substream(15, "sampling"))
        if mode == "avg":
            states = clone(fs, np.zeros(4), b.steps.lo, b.law,
                           substream(15, "sampling"), 700)
        else:
            states = clone(fs, np.zeros(4), b.steps.lo, 3, b.law,
                           substream(15, "sampling"), 700)
        assert np.max(np.abs(res.x.flat() - states[-1])) <= EQUIV_TOL


def test_finito_and_sdca_clones():
    prob = ridge(rows=6, dim=4, reg=0.5, seed=5)
    fs, L = ridge_terms(prob)
    fb = bundle_for("finito", problem=prob)
    x0 = BlockVector.zeros(fb.family.layout)
    res = run(x0, fb.family, fb.law, fb.graph, fb.schedule, fb.steps,
              max_iters=800, rng=substream(17, "sampling"))
    states = finito_clone(fs, np.zeros((6, 4)), fb.steps.lo, fb.extras["gamma"],
                          fb.law, substream(17, "sampling"), 800)
    assert np.max(np.abs(res.x.flat() - states[-1].reshape(-1))) <= EQUIV_TOL

    qs, z_star, mu0 = sdca_quadratics(seed=6)
    db = bundle_for("sdca", seed=6)
    x0 = BlockVector.zeros(db.family.layout)
    res = run(x0, db.family, db.law, db.graph, db.schedule, db.steps,
              max_iters=800, rng=substream(19, "sampling"))
    states = sdca_clone(qs, np.zeros((len(qs), 4)), db.steps.lo, mu0, db.law,
                        substream(19, "sampling"), 800)
    assert np.max(np.abs(res.x.flat() - states[-1].reshape(-1))) <= EQUIV_TOL


@pytest.mark.parametrize("dim", [1, 4])
def test_finito_clone_matches_a_full_recompute_bit_for_bit(dim):
    # the clone refreshes one row of its table per step; this recurrence sums
    # every corrected copy afresh (one column, dim = 1, is where numpy's
    # pairwise sums would differ from a running sum)
    N, iters = 12, 300
    prob = ridge(rows=N, dim=dim, reg=0.3, seed=7)
    fs, _ = ridge_terms(prob)
    b = bundle_for("finito", problem=prob)
    lam, gamma = b.steps.lo, b.extras["gamma"]
    x0 = substream(3, "init").standard_normal((N, dim))
    X = x0.copy()
    rng = substream(21, "sampling")
    naive = [X.copy()]
    for _ in range(iters):
        blocks, _, _ = draw(b.law, rng)
        j = blocks[0]
        corrected = np.zeros(dim)
        for l in range(N):
            corrected += X[l] - gamma * fs[l].grad(X[l])
        X[j] = (1.0 - lam) * X[j] + (lam / N) * corrected
        naive.append(X.copy())
    states = finito_clone(fs, x0, lam, gamma, b.law, substream(21, "sampling"), iters)
    assert len(states) == len(naive)
    for mine, theirs in zip(states, naive):
        assert mine.tobytes() == theirs.tobytes()

