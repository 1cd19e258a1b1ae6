import io
import re

import numpy as np
import pytest

from smartsolve.asyncexec import AsyncConfig, WorkerFailure, run_async
from smartsolve.blockspace import BlockLayout, BlockVector
from smartsolve.engine import (
    DualTable,
    EngineError,
    StepSizes,
    init_state,
    run,
    step,
)
from smartsolve.instances import PRESET_PROBLEM_KINDS, bundle_for
from smartsolve.operators import BlockOperator, OperatorFamily, Quadratic
from smartsolve.presets import build_kaczmarz, build_saga, build_svrg
from smartsolve.problems import linear_system, ridge, ridge_terms
from smartsolve.sampling import SamplingLaw, TriggerGraph, draw, substream
from smartsolve.schedule import DelaySchedule


def identity_family(dim=1):
    layout = BlockLayout((dim,))
    op = BlockOperator(layout, block=lambda x, j: x.blocks[j])
    # the common-zero pattern: the identity vanishes at the origin
    root = BlockVector.zeros(layout)
    return OperatorFamily(layout, [op], np.ones((1, 1)), np.zeros((1, 1), bool),
                          known_root=root)


def trivial_law(n=1, m=1):
    return SamplingLaw(q=np.ones(m) if m == 1 else np.full(m, 1.0 / m),
                       p=np.full((n, m), 1.0 / n), rho=1.0)


def test_single_step_contraction_toward_root():
    # identity operator, lam = 0.5: x moves from 1 to 0.5
    fam = identity_family()
    law = trivial_law()
    graph = TriggerGraph.self_loops(1)
    sched = DelaySchedule.zero()
    x0 = BlockVector(fam.layout, (np.array([1.0]),))
    state = init_state(fam, x0, rng=substream(0, "sampling"))
    step(state, law, graph, sched, StepSizes.constant(0.5))
    assert state.x.blocks[0][0] == 0.5


def test_single_step_matches_hand_coded_aggregation_bitwise():
    rng = np.random.default_rng(3)
    centers = rng.standard_normal((4, 3))
    fs = [Quadratic(c, 1.0) for c in centers]
    bundle = build_saga(fs, lam=0.3)
    x_start = rng.standard_normal(3)
    x0 = BlockVector(bundle.family.layout, (x_start,))
    state = init_state(bundle.family, x0, rng=substream(5, "sampling"))
    rec = step(state, bundle.law, bundle.graph, bundle.schedule,
               StepSizes.constant(0.3))
    i = rec.op_index
    # hand-coded: x - lam (grad_i(x) - y_i + mean(y)) with y_l = grad_l(x0)
    y = np.array([f.grad(x_start) for f in fs])
    expect = x_start - 0.3 * (fs[i].grad(x_start) - y[i] + np.sum(y, axis=0) / 4)
    assert np.array_equal(state.x.blocks[0], expect)


def test_single_step_kaczmarz_projection():
    # one row (1,0), b=1, lam=1: x0 = 0 projects to (1, 0)
    bundle = build_kaczmarz(np.array([[1.0, 0.0]]), np.array([1.0]), lam=1.0)
    x0 = BlockVector.zeros(bundle.family.layout)
    state = init_state(bundle.family, x0, rng=substream(0, "sampling"))
    step(state, bundle.law, bundle.graph, bundle.schedule, StepSizes.constant(1.0))
    np.testing.assert_allclose(state.x.blocks[0], np.array([1.0, 0.0]))


def test_zero_family_never_moves():
    layout = BlockLayout((2,))
    zero = BlockOperator(layout, block=lambda x, j: np.zeros(2), zero_blocks=(0,))
    fam = OperatorFamily(layout, [zero], np.ones((1, 1)), np.zeros((1, 1), bool))
    law = trivial_law()
    res = run(BlockVector(layout, (np.array([1.0, 2.0]),)), fam, law,
              TriggerGraph.self_loops(1), DelaySchedule.zero(m=1, n=1),
              StepSizes.constant(0.7), max_iters=100,
              rng=substream(1, "sampling"))
    np.testing.assert_array_equal(res.x.blocks[0], np.array([1.0, 2.0]))
    assert res.stopped_on == "max-iterations"
    assert res.final_residual == 0.0


def test_kaczmarz_run_reaches_tight_residual():
    prob = linear_system(rows=20, dim=10, seed=0)
    bundle = build_kaczmarz(prob.data["A"], prob.data["b"], lam=0.5)
    x0 = BlockVector.zeros(bundle.family.layout)
    res = run(x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
              bundle.steps, max_iters=10_000, stop_resid=None,
              rng=substream(2, "sampling"))
    A, b = bundle.extras["A"], bundle.extras["b"]
    assert np.linalg.norm(A @ res.x.flat() - b) <= 1e-8


def test_saga_reaches_reference_objective():
    prob = ridge(rows=10, dim=6, reg=0.4, seed=1)
    fs, L = ridge_terms(prob)
    bundle = build_saga(fs, lipschitz=L, mu=float(prob.oracle["mu"]),
                        x_star=prob.oracle["x_star"])
    x0 = BlockVector.zeros(bundle.family.layout)
    res = run(x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
              bundle.steps, max_iters=6000, rng=substream(3, "sampling"))

    def objective(z):
        return float(np.mean([f.value(z) for f in fs]))

    assert objective(res.x.blocks[0]) - objective(prob.oracle["x_star"]) <= 1e-10


def test_replay_determinism_and_csv_bytes():
    prob = linear_system(rows=10, dim=5, seed=4)
    bundle = build_kaczmarz(prob.data["A"], prob.data["b"])
    x0 = BlockVector.zeros(bundle.family.layout)

    def one_run():
        res = run(x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
                  bundle.steps, max_iters=300, rng=substream(11, "sampling"),
                  oracle=bundle.oracle, trace_stride=25)
        buf = io.StringIO()
        res.trace.to_csv(buf)
        return res, buf.getvalue()

    res1, csv1 = one_run()
    res2, csv2 = one_run()
    assert csv1 == csv2
    np.testing.assert_array_equal(res1.x.flat(), res2.x.flat())
    # and the recorded log replays to the same point
    res3 = run(x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
               bundle.steps, max_iters=300, replay=res1.log)
    np.testing.assert_array_equal(res3.x.flat(), res1.x.flat())


def test_empty_draw_advances_counter_without_change():
    fam = identity_family(2)
    law = SamplingLaw(q=np.array([0.3, 0.3]), p=np.ones((1, 2)), rho=1.0,
                      block_mode="independent-bernoulli")
    graph = TriggerGraph.self_loops(1)
    sched = DelaySchedule.zero(m=2, n=1)
    x0 = BlockVector(fam.layout, (np.array([1.0, 1.0]),))
    state = init_state(fam, x0, rng=substream(7, "sampling"))
    before = state.x
    # force an empty draw
    rec = step(state, law, graph, sched, StepSizes.constant(0.5),
               forced_draw=((), None, 1))
    assert state.k == 1 and rec.blocks == ()
    assert state.x.blocks[0] is before.blocks[0]


def test_arock_reduction_single_operator():
    # n = 1, all duals pinned: the step is x <- x - lam/(q m) S(x^{k-d})
    rng = np.random.default_rng(5)
    layout = BlockLayout((3,))
    target = rng.standard_normal(3)
    op = BlockOperator(layout, block=lambda x, j: 0.5 * (x.blocks[0] - target))
    fam = OperatorFamily(layout, [op], np.ones((1, 1)), np.zeros((1, 1), bool))
    law = trivial_law()
    x0 = BlockVector.zeros(layout)
    state = init_state(fam, x0, rng=substream(9, "sampling"))
    lam = 0.8
    step(state, law, TriggerGraph.self_loops(1), DelaySchedule.zero(),
         StepSizes.constant(lam))
    expect = x0.blocks[0] - lam * 0.5 * (x0.blocks[0] - target)
    np.testing.assert_allclose(state.x.blocks[0], expect, atol=1e-15)


def test_dual_sparsity_preserved_over_run():
    from smartsolve.instances import bundle_for

    bundle = bundle_for("prox-smart-plus", seed=2)
    x0 = BlockVector.zeros(bundle.family.layout)
    state = init_state(bundle.family, x0, tau_p=0, tau_d=0,
                       rng=substream(13, "sampling"))
    mask = bundle.family.star_pattern
    assert mask.any() and not mask.all()
    for _ in range(500):
        step(state, bundle.law, bundle.graph, bundle.schedule, bundle.steps)
        Y, _ = state.dual_table.current
        for i in range(bundle.family.n):
            for j, sl in enumerate(state.dual_table.slices):
                if not mask[i, j]:
                    assert np.all(Y[i, sl] == 0.0)


def test_dual_table_masked_write_rejected():
    fam = identity_family()
    table = DualTable(fam, BlockVector.zeros(fam.layout))
    with pytest.raises(EngineError):
        table.commit([(0, 0, np.ones(1))])


def test_dual_sum_maintenance_against_recomputation():
    rng = np.random.default_rng(6)
    prob = ridge(rows=5, dim=4, reg=0.2, seed=7)
    fs, L = ridge_terms(prob)
    bundle = build_saga(fs, lipschitz=L)
    x0 = BlockVector(bundle.family.layout, (rng.standard_normal(4),))
    table = DualTable(bundle.family, x0)
    shadow = np.array(table.current[0])
    for t in range(1500):
        i = int(rng.integers(0, 5))
        val = rng.standard_normal(4)
        table.commit([(i, 0, val)])
        shadow[i] = val
        if t % 100 == 0:
            Y, sums = table.current
            np.testing.assert_array_equal(Y, shadow)
            np.testing.assert_allclose(sums, shadow.sum(axis=0), atol=1e-9)


def test_published_dual_states_are_read_only():
    fs, L = ridge_terms(ridge(rows=5, dim=4, reg=0.2, seed=7))
    table = DualTable(build_saga(fs, lipschitz=L).family,
                      BlockVector(BlockLayout((4,)), (np.ones(4),)))
    before = table.current
    after = table.commit([(2, 0, np.full(4, 3.0))])
    for Y, sums in (before, after):
        with pytest.raises(ValueError):
            Y[0, 0] = 1.0
        with pytest.raises(ValueError):
            sums[0] = 1.0
    # the commit copied: the state it replaced is unchanged
    assert not np.any(before[0][2] == 3.0)
    np.testing.assert_array_equal(after[0][2], 3.0)


def test_step_band_rule_enforced():
    steps = StepSizes(0.1, 0.2, rule=lambda k: 0.15)
    assert steps.value(3) == 0.15
    bad = StepSizes(0.1, 0.2, rule=lambda k: 0.5)
    with pytest.raises(EngineError):
        bad.value(0)
    with pytest.raises(ValueError):
        StepSizes(0.0, 0.1)


def test_fejer_trend_mean_distance_nonincreasing():
    # running mean over 50 seeds of the squared distance must not increase
    # (5 percent slack) at the published best step
    prob = ridge(rows=8, dim=5, reg=0.4, seed=8)
    fs, L = ridge_terms(prob)
    bundle = build_saga(fs, lipschitz=L, mu=float(prob.oracle["mu"]),
                        x_star=prob.oracle["x_star"])
    x0 = BlockVector.zeros(bundle.family.layout)
    traces = []
    for s in range(50):
        res = run(x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
                  bundle.steps, max_iters=400, rng=substream(100 + s, "sampling"),
                  oracle=bundle.oracle, trace_stride=20)
        traces.append(res.trace.dist_sq)
    mean = np.mean(traces, axis=0)
    assert np.all(mean[1:] <= mean[:-1] * 1.05)


def test_run_stops_on_residual():
    prob = linear_system(rows=15, dim=6, seed=9)
    bundle = build_kaczmarz(prob.data["A"], prob.data["b"])
    x0 = BlockVector.zeros(bundle.family.layout)
    res = run(x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
              bundle.steps, max_iters=50_000, stop_resid=1e-6,
              rng=substream(21, "sampling"))
    assert res.stopped_on == "residual"
    assert res.final_residual <= 1e-6
    assert res.iterations < 50_000


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
@pytest.mark.parametrize("preset", ["saga", "coordinate-saga"])
def test_divergence_raises_engine_error_naming_iteration_and_block(preset):
    # saga used to fail with ValueError("block 0 contains NaN or Inf") from a BlockVector
    b = bundle_for(preset, seed=0)
    fam = b.family
    state = init_state(fam, BlockVector.zeros(fam.layout), rng=substream(0, "sampling"))
    sched, steps = DelaySchedule.zero(fam.m, fam.n), StepSizes.constant(1e3)
    with pytest.raises(EngineError, match=r"diverged at iteration \d+: block \d+ is NaN or Inf") \
            as info:
        for _ in range(100_000):
            step(state, b.law, b.graph, sched, steps)
    k, j = map(int, re.search(r"iteration (\d+): block (\d+)", str(info.value)).groups())
    # the named iteration is the one that failed, and the iterate before it is finite
    assert k == state.k
    assert all(np.isfinite(blk).all() for blk in state.x.blocks)
    # the named block is one that iteration drew
    rng = substream(0, "sampling")
    for _ in range(k + 1):
        blocks, _, _ = draw(b.law, rng)
    assert j in blocks


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_overflowing_residual_raises_engine_error_naming_the_trace_row():
    # at iteration 90 the iterate is finite but the operator values are not;
    # observe used to raise a bare ValueError("block 0 contains NaN or Inf")
    b = bundle_for("saga", seed=0)
    fam = b.family
    with pytest.raises(EngineError, match=r"^residual at iteration 90 failed: "):
        run(BlockVector.zeros(fam.layout), fam, b.law, b.graph, b.schedule,
            StepSizes.constant(1e3), max_iters=90, rng=substream(0, "sampling"))


class TurnsInfinite:
    """A smooth term whose gradient is +inf from its ``after + 1``-th call on."""

    def __init__(self, f, after):
        self.f, self.after, self.calls = f, after, 0
        self.lipschitz = f.lipschitz

    def grad(self, z):
        self.calls += 1
        g = self.f.grad(z)
        return g if self.calls <= self.after else np.full_like(g, np.inf)


def svrg_sched_failing_at(op_index, after, **ridge_params):
    fs, L = ridge_terms(ridge(seed=0, **ridge_params))
    fs[op_index] = TurnsInfinite(fs[op_index], after)
    return build_svrg(fs, tau=4, mode="scheduled", lipschitz=L)


def steps_until_error(b, iters=2000):
    fam = b.family
    state = init_state(fam, BlockVector.zeros(fam.layout), tau_p=b.schedule.tau_p,
                       tau_d=b.schedule.tau_d, rng=substream(0, "sampling"))
    with pytest.raises(EngineError) as info:
        for _ in range(iters):
            step(state, b.law, b.graph, b.schedule, b.steps)
    return state, str(info.value)


def test_non_finite_table_write_raises_engine_error_naming_operator_iteration_block():
    # operator 3 is evaluated only for the dual table at iteration 129; this
    # used to escape step as a bare FloatingPointError naming no iteration
    state, msg = steps_until_error(svrg_sched_failing_at(3, after=30))
    assert msg == "dual value diverged at iteration 129: operator 3, block 0 is NaN or Inf"
    assert state.k == 129
    assert all(np.isfinite(blk).all() for blk in state.x.blocks)
    # the threaded executor runs the same check; with no skipped commits it
    # meets the value at commit 29
    b = svrg_sched_failing_at(3, after=30)
    fam = b.family
    with pytest.raises(WorkerFailure, match=r"EngineError\('dual value diverged at "
                       r"iteration 29: operator 3, block 0 is NaN or Inf'\)"):
        run_async(AsyncConfig(workers=1, tau_p=0, tau_d=0), fam, b.law, b.graph, b.steps,
                  BlockVector.zeros(fam.layout), max_iters=2000, seed=0)


def test_non_finite_value_of_the_drawn_operator_names_it():
    # here operator 3 is drawn at iteration 112, so its value reaches the iterate
    state, msg = steps_until_error(
        svrg_sched_failing_at(3, after=30, rows=10, dim=6, reg=0.3))
    assert msg == "iterate diverged at iteration 112: block 0 is NaN or Inf (operator 3)"
    assert state.k == 112


@pytest.mark.parametrize("preset", sorted(PRESET_PROBLEM_KINDS))
def test_a_step_builds_no_checked_block_vector(preset, monkeypatch):
    # operator values reach the engine as arrays; _apply checks what it writes
    b = bundle_for(preset, seed=0)
    fam = b.family
    state = init_state(fam, BlockVector.zeros(fam.layout), tau_p=b.schedule.tau_p,
                       tau_d=b.schedule.tau_d, rng=substream(0, "sampling"))
    built = []
    checked = BlockVector.__post_init__
    monkeypatch.setattr(BlockVector, "__post_init__",
                        lambda self: (built.append(1), checked(self)))
    for _ in range(80):
        step(state, b.law, b.graph, b.schedule, b.steps)
    assert built == []
    # a family whose duals are all pinned to zero never commits one; the
    # others commit within 80 steps (prox-smart-plus first does at step 65)
    if fam.star_pattern.any():
        assert state.dual_table.commits > 0


@pytest.mark.parametrize("kwargs", [{"max_iters": -3}, {"max_iters": 10, "trace_stride": 0},
                                    {"max_iters": 10, "trace_stride": -5}])
def test_run_rejects_a_negative_budget_and_a_stride_below_one(kwargs):
    fam = identity_family()
    with pytest.raises(ValueError, match="max_iters|trace_stride"):
        run(BlockVector(fam.layout, (np.ones(1),)), fam, trivial_law(), TriggerGraph.self_loops(1),
            DelaySchedule.zero(1, 1), StepSizes.constant(0.5), **kwargs)


def _draws_and_delays(log):
    return [(r.blocks, r.op_index, r.eps, r.d.tolist(), np.asarray(r.e).tolist()) for r in log]


@pytest.mark.parametrize("preset", ["saga", "finito", "super-saga", "svrg-avg"])
def test_run_equals_a_hand_loop_of_steps_and_repeated_draws(preset):
    # svrg-avg's law has rho < 1; 600 iterations span three draw chunks
    b = bundle_for(preset, seed=0)
    fam, iters = b.family, 600
    x0 = BlockVector.zeros(fam.layout)
    res = run(x0, fam, b.law, b.graph, b.schedule, b.steps, max_iters=iters,
              rng=substream(4, "sampling"), dual_init=b.dual_init)
    state = init_state(fam, x0, tau_p=b.schedule.tau_p, tau_d=b.schedule.tau_d,
                       rng=substream(4, "sampling"), dual_init=b.dual_init)
    recs = [step(state, b.law, b.graph, b.schedule, b.steps) for _ in range(iters)]
    assert _draws_and_delays(recs) == _draws_and_delays(res.log)
    for got, want in zip(state.x.blocks, res.x.blocks):
        np.testing.assert_array_equal(got, want)
    rng = substream(4, "sampling")
    assert [draw(b.law, rng) for _ in range(iters)] == \
        [(r.blocks, r.op_index, r.eps) for r in res.log]


def test_zero_mode_records_share_one_read_only_delay_vector():
    b = bundle_for("finito", seed=0)
    fam = b.family
    res = run(BlockVector.zeros(fam.layout), fam, b.law, b.graph, DelaySchedule.zero(fam.m, fam.n),
              b.steps, max_iters=50, rng=substream(2, "sampling"))
    d = res.log.records[0].d
    assert all(r.d is d and r.e == 0 for r in res.log)
    assert d.shape == (fam.m,) and not d.any() and not d.flags.writeable
