"""Read-driven dual refresh: a commit whose state nothing reads is skipped.

Skipping is allowed only when every commit overwrites the whole supported
table, so a skipping run must equal its replay (which commits on every coin)
byte for byte, and must still match the hand-coded scheduled SVRG.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smartsolve.blockspace import BlockVector
from smartsolve.engine import DualTable, run
from smartsolve.instances import bundle_for
from smartsolve.problems import ridge, ridge_terms
from smartsolve.reference import svrg_sched_clone
from smartsolve.sampling import substream
from smartsolve.schedule import DelaySchedule, ReplayLog
from smartsolve.verify import EQUIV_TOL

DIM = 4


def _problem(n, seed):
    return ridge(rows=n, dim=DIM, reg=0.3, seed=seed)


def _run(b, iters, seed, sched=None, replay=None):
    fam = b.family
    return run(BlockVector.zeros(fam.layout), fam, b.law, b.graph,
               b.schedule if sched is None else sched, b.steps, max_iters=iters,
               rng=substream(seed, "sampling"), oracle=b.oracle, trace_stride=7,
               dual_init=b.dual_init, replay=replay)


def _replay(b, res):
    log = ReplayLog.loads(res.log.dumps())
    sched = DelaySchedule(tau_p=log.tau_p, tau_d=log.tau_d, mode="recorded",
                          m=b.family.m, n=b.family.n, log=log)
    return _run(b, len(log), 0, sched=sched, replay=log)


def _csv(res):
    buf = io.StringIO()
    res.trace.to_csv(buf)
    return buf.getvalue()


svrg_cases = given(
    n=st.integers(2, 12), tau=st.integers(1, 6), seed=st.integers(0, 2**16),
    iters=st.integers(1, 150),
)


@settings(max_examples=25, deadline=None)
@svrg_cases
def test_svrg_sched_skipping_run_is_byte_identical_to_its_replay(n, tau, seed, iters):
    b = bundle_for("svrg-sched", problem=_problem(n, seed), tau=tau)
    res = _run(b, iters, seed)
    rep = _replay(b, res)
    assert res.state.dual_table.commits == iters // (tau + 1)
    assert rep.state.dual_table.commits == iters
    assert _csv(rep) == _csv(res)
    assert rep.x.flat().tobytes() == res.x.flat().tobytes()


@settings(max_examples=25, deadline=None)
@svrg_cases
def test_svrg_sched_skipping_run_matches_clone(n, tau, seed, iters):
    prob = _problem(n, seed)
    fs, _ = ridge_terms(prob)
    b = bundle_for("svrg-sched", problem=prob, tau=tau)
    res = _run(b, iters, seed)
    states = svrg_sched_clone(fs, np.zeros(DIM), b.steps.lo, tau, b.law,
                              substream(seed, "sampling"), iters)
    assert np.max(np.abs(res.x.flat() - states[-1])) <= EQUIV_TOL


@pytest.mark.parametrize("tau", [1, 3, 4])
def test_svrg_sched_commits_once_per_cycle(tau):
    K = 203
    b = bundle_for("svrg-sched", problem=_problem(10, 1), tau=tau)
    assert _run(b, K, 2).state.dual_table.commits == K // (tau + 1)


@pytest.mark.parametrize("preset", ["saga", "svrg-avg", "coordinate-saga"])
def test_partial_or_random_writes_are_never_skipped(preset):
    # saga writes one row, svrg-avg commits on a coin (rho < 1) and
    # coordinate-saga samples one of several blocks: under the same cyclic
    # dual delay each commits exactly as often as its replay
    K, tau = 203, 3
    b = bundle_for(preset, seed=1)
    sched = DelaySchedule(tau_p=0, tau_d=tau, mode="cyclic", m=b.family.m, n=b.family.n)
    res = _run(b, K, 2, sched=sched)
    assert res.state.dual_table.commits == _replay(b, res).state.dual_table.commits
    if preset == "saga":
        assert res.state.dual_table.commits == K
    if preset == "svrg-avg":
        assert res.state.dual_table.commits == sum(r.eps for r in res.log)


def test_full_commit_snapshot_does_not_depend_on_the_table_before():
    prob = _problem(5, 3)
    b = bundle_for("svrg-sched", problem=prob, tau=2)
    rng = np.random.default_rng(4)
    fresh = DualTable(b.family, BlockVector.zeros(b.family.layout))
    used = DualTable(b.family, BlockVector(b.family.layout, (rng.standard_normal(DIM),)))
    for _ in range(7):
        used.commit([(int(rng.integers(0, 5)), 0, rng.standard_normal(DIM))])
    full = [(i, 0, rng.standard_normal(DIM)) for i in range(5)]
    a, c = fresh.commit(full), used.commit(full)
    assert a[0].tobytes() == c[0].tobytes()
    assert a[1].tobytes() == c[1].tobytes()
    assert a[1].tobytes() == np.sum([v for _, _, v in full], axis=0).tobytes()
