"""Properties of whole runs over generated seeds, delay caps and schedules."""

import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from smartsolve.blockspace import BlockVector
from smartsolve.engine import init_state, run, step
from smartsolve.instances import PRESET_PROBLEM_KINDS, bundle_for
from smartsolve.sampling import substream
from smartsolve.schedule import DelaySchedule, ReplayLog

ITERS = 120


def _schedule(fam, mode, tau, seed, log=None):
    return DelaySchedule(tau_p=tau, tau_d=tau, mode=mode, m=fam.m, n=fam.n,
                         rng=substream(seed, "delays"), log=log)


def _trace_csv(res):
    csv = io.StringIO()
    res.trace.to_csv(csv)
    return csv.getvalue()


@settings(max_examples=25, deadline=None)
@given(
    preset=st.sampled_from(["prox-smart-plus", "super-saga"]),
    seed=st.integers(0, 10_000),
    tau=st.integers(0, 4),
    mode=st.sampled_from(["cyclic", "constant-max", "uniform-random"]),
)
def test_masked_dual_entries_stay_zero_in_every_published_state(preset, seed, tau, mode):
    b = bundle_for(preset, seed=seed)
    fam = b.family
    mask = fam.star_pattern
    assert mask.any() and not mask.all()
    masked = ~np.repeat(mask, fam.layout.dims, axis=1)
    sched = _schedule(fam, mode, tau, seed)
    state = init_state(fam, BlockVector.zeros(fam.layout), tau_p=tau, tau_d=tau,
                       rng=substream(seed, "sampling"), dual_init=b.dual_init)

    def zero_where_masked():
        Y, _ = state.dual_table.current
        return Y[masked].tobytes() == bytes(Y[masked].nbytes)

    assert zero_where_masked()
    for _ in range(ITERS):
        step(state, b.law, b.graph, sched, b.steps)
        assert zero_where_masked()


@settings(max_examples=25, deadline=None)
@given(
    preset=st.sampled_from(sorted(PRESET_PROBLEM_KINDS)),
    seed=st.integers(0, 10_000),
    tau=st.integers(0, 4),
)
def test_uniform_random_run_and_its_replay_write_the_same_bytes(preset, seed, tau):
    b = bundle_for(preset, seed=seed)
    fam = b.family
    x0 = BlockVector.zeros(fam.layout)

    def solve(sched, rng=None, replay=None):
        return run(x0, fam, b.law, b.graph, sched, b.steps, max_iters=ITERS, rng=rng,
                   oracle=b.oracle, trace_stride=10, dual_init=b.dual_init, replay=replay)

    res = solve(_schedule(fam, "uniform-random", tau, seed), rng=substream(seed, "sampling"))
    log = ReplayLog.loads(res.log.dumps())
    rep = solve(_schedule(fam, "recorded", tau, seed, log=log), replay=log)
    assert _trace_csv(rep) == _trace_csv(res)
    assert rep.log.dumps() == res.log.dumps()
