import io

import numpy as np
import pytest

from smartsolve.blockspace import BlockLayout, BlockVector
from smartsolve.engine import (
    DualTable,
    EngineError,
    StepSizes,
    init_state,
    run,
    step,
)
from smartsolve.operators import BlockOperator, OperatorFamily, Quadratic
from smartsolve.presets import build_kaczmarz, build_saga
from smartsolve.problems import linear_system, ridge, ridge_terms
from smartsolve.sampling import SamplingLaw, TriggerGraph, substream
from smartsolve.schedule import DelaySchedule


def identity_family(dim=1):
    layout = BlockLayout((dim,))
    op = BlockOperator(layout, full=lambda x: x)
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
    zero = BlockOperator(layout, full=lambda x: BlockVector.zeros(layout),
                         zero_blocks=(0,))
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
    op = BlockOperator(layout, full=lambda x: BlockVector(
        layout, (0.5 * (x.blocks[0] - target),)))
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
