import sys

import numpy as np
import pytest

from smartsolve.asyncexec import AsyncConfig, WorkerFailure, run_async
from smartsolve.blockspace import BlockLayout, BlockVector
from smartsolve.engine import EngineError, StepSizes, run
from smartsolve.instances import PRESET_PROBLEM_KINDS, bundle_for
from smartsolve.operators import BlockOperator, OperatorFamily
from smartsolve.problems import linear_system, ridge
from smartsolve.sampling import substream
from smartsolve.schedule import DelaySchedule
from smartsolve.stepsize import weak_bound


@pytest.mark.parametrize("name", sorted(PRESET_PROBLEM_KINDS))
def test_single_worker_matches_engine_bitwise(name):
    # every preset: m > 1 (finito, coordinate-saga), a coin with rho < 1
    # (svrg-avg, minibatch-pre) and Bernoulli block draws (super-saga)
    b = bundle_for(name, seed=0)
    fam = b.family
    x0 = BlockVector.zeros(fam.layout)
    ares = run_async(AsyncConfig(workers=1, tau_p=3, tau_d=3), fam, b.law, b.graph,
                     b.steps, x0, max_iters=300, seed=17)
    eres = run(x0, fam, b.law, b.graph, DelaySchedule.zero(fam.m, fam.n), b.steps,
               max_iters=300, rng=substream(17, "sampling"))
    np.testing.assert_array_equal(ares.x.flat(), eres.x.flat())
    assert ares.iterations == eres.iterations == 300
    assert ares.max_primal_delay == 0 and ares.max_dual_delay == 0
    # the recorded log is the same one the engine would have written
    for ra, re in zip(ares.log, eres.log):
        assert (ra.blocks, ra.op_index, ra.eps) == (re.blocks, re.op_index, re.eps)


@pytest.mark.parametrize("name", ["coordinate-saga", "finito", "super-saga"])
def test_two_workers_replay_on_block_presets(name):
    # several blocks per draw, so per-block reads can mix ages; a short GIL
    # switch interval makes the two workers interleave within iterations
    b = bundle_for(name, seed=0)
    fam = b.family
    tau = 4
    steps = StepSizes.constant(0.95 * weak_bound(fam, b.law, tau, tau))
    x0 = BlockVector.zeros(fam.layout)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ares = run_async(AsyncConfig(workers=2, tau_p=tau, tau_d=tau), fam, b.law,
                         b.graph, steps, x0, max_iters=2000, seed=41)
    finally:
        sys.setswitchinterval(interval)
    assert ares.iterations == 2000 and ares.stopped_on == "max-iterations"
    assert ares.max_primal_delay <= tau and ares.max_dual_delay <= tau
    assert all(rec.max_delay() <= tau for rec in ares.log)
    assert any(rec.max_delay() > 0 for rec in ares.log)
    sched = DelaySchedule(tau_p=tau, tau_d=tau, mode="recorded", m=fam.m, n=fam.n,
                          log=ares.log)
    rres = run(x0, fam, b.law, b.graph, sched, steps, max_iters=ares.iterations,
               replay=ares.log)
    assert float(np.max(np.abs(rres.x.flat() - ares.x.flat()))) <= 1e-12


@pytest.mark.parametrize("name,taus", [("kaczmarz", (3, 3)), ("saga", (8, 8))])
def test_multi_worker_caps_and_replay(name, taus):
    problem = (
        ridge(rows=10, dim=6, reg=0.5, seed=1) if name == "saga"
        else linear_system(rows=40, dim=16, seed=1)
    )
    b = bundle_for(name, problem=problem)
    tau_p, tau_d = taus
    lam = 0.95 * weak_bound(b.family, b.law, tau_p, tau_d)
    cfg = AsyncConfig(workers=4, tau_p=tau_p, tau_d=tau_d)
    x0 = BlockVector.zeros(b.family.layout)
    # at the default 5 ms switch interval the saga run realised no delay
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        ares = run_async(cfg, b.family, b.law, b.graph, StepSizes.constant(lam), x0,
                         max_iters=100_000, stop_resid=1e-6, seed=23)
    finally:
        sys.setswitchinterval(interval)
    assert ares.final_residual <= 1e-6
    # hard staleness caps
    assert ares.max_primal_delay <= tau_p
    assert ares.max_dual_delay <= tau_d
    for rec in ares.log:
        assert rec.max_delay() <= max(tau_p, tau_d)
    assert any(rec.max_delay() > 0 for rec in ares.log)
    # deterministic replay reproduces the final point exactly
    sched = DelaySchedule(tau_p=tau_p, tau_d=tau_d, mode="recorded",
                          m=b.family.m, n=b.family.n, log=ares.log)
    rres = run(x0, b.family, b.law, b.graph, sched, StepSizes.constant(lam),
               max_iters=ares.iterations, replay=ares.log)
    assert float(np.max(np.abs(rres.x.flat() - ares.x.flat()))) <= 1e-12


def test_write_log_is_a_total_order_with_valid_reads():
    b = bundle_for("saga", problem=ridge(rows=8, dim=5, reg=0.4, seed=2))
    cfg = AsyncConfig(workers=3, tau_p=5, tau_d=5)
    x0 = BlockVector.zeros(b.family.layout)
    ares = run_async(cfg, b.family, b.law, b.graph, b.steps, x0,
                     max_iters=3000, seed=29)
    assert len(ares.log) == ares.iterations
    for k, rec in enumerate(ares.log):
        d = np.asarray(rec.d)
        # every read maps to an existing state index within the window
        assert np.all(d >= 0) and np.all(k - d <= k)
        assert np.all(d <= cfg.tau_p)
        assert int(np.max(rec.e)) <= cfg.tau_d


def test_worker_failure_aborts_with_diagnostic():
    layout = BlockLayout((2,))

    calls = {"n": 0}

    def exploding(x, j):
        calls["n"] += 1
        if calls["n"] > 10:
            raise RuntimeError("synthetic operator failure")
        return x.blocks[0] * 0.5

    op = BlockOperator(layout, block=exploding)
    fam = OperatorFamily(layout, [op], np.ones((1, 1)), np.ones((1, 1), bool))
    from smartsolve.sampling import SamplingLaw, TriggerGraph

    law = SamplingLaw(q=np.ones(1), p=np.ones((1, 1)), rho=1.0)
    cfg = AsyncConfig(workers=2, tau_p=2, tau_d=2)
    with pytest.raises(WorkerFailure, match="synthetic operator failure"):
        run_async(cfg, fam, law, TriggerGraph.self_loops(1),
                  StepSizes.constant(0.1), BlockVector(layout, (np.ones(2),)),
                  max_iters=10_000, seed=31)


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_overflowing_residual_raises_engine_error_naming_the_commit():
    # the iterate after commit 90 is finite but its operator values are not
    b = bundle_for("saga", seed=0)
    fam = b.family
    x0 = BlockVector.zeros(fam.layout)
    args = (fam, b.law, b.graph, StepSizes.constant(1e3), x0)
    # the final residual
    with pytest.raises(EngineError, match=r"^residual at iteration 90 failed: "):
        run_async(AsyncConfig(workers=1), *args, max_iters=90, seed=0)
    # the stop check, run by the worker that made the commit
    with pytest.raises(WorkerFailure, match=r"residual at iteration 90 failed: "):
        run_async(AsyncConfig(workers=1, check_every=10), *args, max_iters=1000,
                  stop_resid=1e-12, seed=0)


def test_async_config_validation():
    with pytest.raises(ValueError):
        AsyncConfig(workers=0)
    with pytest.raises(ValueError):
        AsyncConfig(workers=1, tau_p=300)


def test_residual_stop_under_contention():
    b = bundle_for("kaczmarz", problem=linear_system(rows=30, dim=12, seed=3))
    cfg = AsyncConfig(workers=4, tau_p=4, tau_d=4, check_every=100)
    x0 = BlockVector.zeros(b.family.layout)
    ares = run_async(cfg, b.family, b.law, b.graph, b.steps, x0,
                     max_iters=200_000, stop_resid=1e-8, seed=37)
    assert ares.stopped_on == "residual"
    assert ares.final_residual <= 1e-8
