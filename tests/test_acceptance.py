"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Criteria and tolerances:

1. coherence inequality on 10^4 random points per preset with a known
   root, max violation <= 1e-10, under 60 s;
2. mean-over-50-seed distance envelopes at the published steps/rates for
   the four classical configurations, 5% slack, under 5 min;
3. engine vs hand-coded update rules, 1e-12 over 10^3 steps on shared
   streams;
4. delayed runs at the admissible step reach residual 1e-6 within 1e5
   iterations for caps (3,3) and (8,8); read inconsistency never exceeds
   the cap; 4-worker threaded runs replay exactly;
5. transported roots of the structured presets match direct solvers to
   1e-6;
6. step bounds positive, monotone in the delays and the inconsistency,
   linear below weak; published table rows reproduce the reference
   substitutions;
7. dual zero-pattern preserved over full runs, trigger probabilities match
   Monte Carlo at 3 sigma over 1e5 draws, importance sampling yields the
   mean-constant step bound.
"""

import time

import numpy as np
import pytest

from smartsolve.blockspace import BlockVector
from smartsolve.engine import StepSizes, init_state, run, step
from smartsolve.instances import bundle_for
from smartsolve.problems import ridge
from smartsolve.sampling import draw, importance_law, substream, trigger_prob
from smartsolve.schedule import DelaySchedule, inconsistency
from smartsolve.stepsize import linear_bound, table1_preset, weak_bound
from smartsolve.verify import (
    COHERENCE_SLACK,
    coherence_suite,
    equivalence_suite,
    rates_suite,
    replay_suite,
)


def _verdict(name, ok, detail=""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    return ok


def test_criterion_1_coherence_suite():
    t0 = time.time()
    ok, report = coherence_suite(seed=0, trials=10_000)
    elapsed = time.time() - t0
    worst = max(v["max_violation"] for v in report.values())
    in_budget = elapsed <= 60.0
    assert _verdict(
        "criterion 1: coherence on 1e4 points per preset",
        ok and in_budget,
        f"worst violation {worst:.2e} <= {COHERENCE_SLACK:.0e}, {elapsed:.1f}s",
    )


def test_criterion_2_rate_envelopes():
    t0 = time.time()
    ok, report = rates_suite(seed=0, seeds=50, slack=0.05)
    elapsed = time.time() - t0
    detail = ", ".join(
        f"{k}: fit {v['fitted_factor']:.4f} vs bound {v['predicted_factor']:.4f}"
        for k, v in report.items()
    )
    in_budget = elapsed <= 300.0
    assert _verdict(
        "criterion 2: published-rate envelopes over 50 seeds",
        ok and in_budget,
        detail + f", {elapsed:.0f}s",
    )


def test_criterion_3_preset_equivalence():
    ok, report = equivalence_suite(seed=0)
    detail = ", ".join(f"{k}: {v:.1e}" for k, v in report.items())
    assert _verdict("criterion 3: engine equals hand-coded updates", ok, detail)


def test_criterion_4_asynchrony():
    ok_async, rep = replay_suite(seed=0, workers=4)
    # deterministic delayed runs at the delay-adjusted step for both cap pairs
    all_ok = ok_async
    details = [
        f"async {k}: resid {v['final_residual']:.1e}, "
        f"d<= {v['max_primal_delay']}, replay {v['replay_gap']:.1e}"
        for k, v in rep.items()
    ]
    saga_prob = ridge(rows=10, dim=6, reg=0.5, seed=0)
    for name, taus in (("kaczmarz", (3, 3)), ("saga", (8, 8))):
        problem = saga_prob if name == "saga" else None
        bundle = bundle_for(name, problem=problem, seed=0)
        tau_p, tau_d = taus
        lam = 0.98 * weak_bound(bundle.family, bundle.law, tau_p, tau_d)
        sched = DelaySchedule(
            tau_p=tau_p, tau_d=tau_d, mode="uniform-random",
            m=bundle.family.m, n=bundle.family.n,
            rng=substream(0, "delays"),
        )
        res = run(
            BlockVector.zeros(bundle.family.layout), bundle.family, bundle.law,
            bundle.graph, sched, StepSizes.constant(lam), max_iters=100_000,
            stop_resid=1e-6, rng=substream(1, "sampling"), trace_stride=200,
        )
        delta = inconsistency(rec.d for rec in res.log)
        ok_run = res.final_residual <= 1e-6 and delta <= tau_p
        details.append(
            f"delayed {name}{taus}: resid {res.final_residual:.1e} "
            f"in {res.iterations} iters, delta {delta} <= {tau_p}"
        )
        all_ok = all_ok and ok_run
    assert _verdict("criterion 4: bounded-delay and threaded runs",
                    all_ok, "; ".join(details))


def test_criterion_5_root_transport():
    tol = 1e-6
    checks = {}
    budgets = {
        "prox-saga": 8000,
        "lin-saga": 8000,
        "prox-smart": 9000,
        "prox-smart-plus": 60_000,
        "mono": 40_000,
    }
    for name, iters in budgets.items():
        bundle = bundle_for(name, seed=0)
        res = run(
            BlockVector.zeros(bundle.family.layout), bundle.family, bundle.law,
            bundle.graph, bundle.schedule, bundle.steps, max_iters=iters,
            rng=substream(2, "sampling"), trace_stride=max(iters // 4, 1),
        )
        got = np.asarray(bundle.transport(res.x)).ravel()
        want = np.asarray(bundle.transport_target).ravel()
        checks[name] = float(np.max(np.abs(got - want)))
    ok = all(err <= tol for err in checks.values())
    assert _verdict(
        "criterion 5: transported roots vs direct solvers",
        ok, ", ".join(f"{k}: {v:.1e}" for k, v in checks.items()),
    )


def test_criterion_6_stepsize_properties():
    ok = True
    details = []
    # positivity and delay monotonicity across presets
    for name in ("saga", "kaczmarz", "finito", "prox-saga", "mono"):
        bundle = bundle_for(name, seed=0)
        prev = None
        for tau in (0, 1, 3, 8):
            w = weak_bound(bundle.family, bundle.law, tau, tau)
            ok = ok and w > 0 and (prev is None or w <= prev + 1e-15)
            prev = w
        if bundle.family.mu is not None:
            lam, _, _ = linear_bound(bundle.family, bundle.law, bundle.graph,
                                     0, 0, delta=0)
            w0 = weak_bound(bundle.family, bundle.law, 0, 0)
            ok = ok and 0 < lam <= w0 + 1e-12
            l0, _, _ = linear_bound(bundle.family, bundle.law, bundle.graph,
                                    4, 4, delta=0)
            l4, _, _ = linear_bound(bundle.family, bundle.law, bundle.graph,
                                    4, 4, delta=4)
            ok = ok and l4 <= l0 + 1e-15
    details.append("bounds positive, monotone, linear <= weak")
    # the reference substitutions of the published table
    row = table1_preset("SAGA", L=1.0, mu=0.1, N=10)
    ok = ok and (row["largest"], row["best"]) == (0.5, 0.2) and abs(row["rate"] - 0.98) < 1e-15
    row = table1_preset("Kaczmarz", N=50, inv_norm=2.0)
    ok = ok and row["largest"] == 1.0 and row["best"] == 0.5 \
        and abs(row["rate"] - (1 - 1 / (2 * 50 * 4))) < 1e-15
    row = table1_preset("Finito", L=2.0, mu_hat=0.5, N=8)
    ok = ok and row["largest"] == 0.5 and row["best"] == 0.25 \
        and abs(row["rate"] - (1 - (1 - np.sqrt(0.75)) / 32)) < 1e-15
    details.append("table substitutions exact")
    assert _verdict("criterion 6: step-size formulas", ok, "; ".join(details))


def test_criterion_7_structural_checks():
    ok = True
    details = []
    # dual zero-pattern preserved over a full run
    bundle = bundle_for("prox-smart-plus", seed=1)
    state = init_state(bundle.family, BlockVector.zeros(bundle.family.layout),
                       rng=substream(3, "sampling"))
    for _ in range(2000):
        step(state, bundle.law, bundle.graph, bundle.schedule, bundle.steps)
    mask = bundle.family.star_pattern
    Y, _ = state.dual_table.current
    clean = all(
        np.all(Y[i, sl] == 0.0)
        for i in range(bundle.family.n)
        for j, sl in enumerate(state.dual_table.slices)
        if not mask[i, j]
    )
    ok = ok and clean
    details.append(f"masked dual entries exactly zero: {clean}")

    # trigger probabilities vs Monte Carlo at 3 sigma over 1e5 draws
    b = bundle_for("prox-saga", seed=0)
    draws = 100_000
    rng = substream(4, "sampling")
    n = b.family.n
    hits = np.zeros(n)
    for _ in range(draws):
        _, i, _ = draw(b.law, rng)
        for t in b.graph.triggered_by(i):
            hits[t] += 1
    mc_ok = True
    for i in range(n):
        p = trigger_prob(b.law, b.graph, i, 0)
        sigma = np.sqrt(max(p * (1 - p), 0.0) * draws)
        mc_ok = mc_ok and abs(hits[i] - p * draws) <= max(3 * sigma, 1e-9)
    ok = ok and mc_ok
    details.append(f"trigger frequencies within 3 sigma: {mc_ok}")

    # importance sampling turns the max constant into the mean constant
    L = np.array([1.0, 2.0, 5.0, 12.0])
    law = importance_law(L)
    bound = min(
        len(L) ** 2 * law.p[i, 0] * (1.0 / (len(L) * L[i])) for i in range(len(L))
    ) / 2.0
    imp_ok = abs(bound - 1.0 / (2.0 * L.mean())) < 1e-12
    ok = ok and imp_ok
    details.append(f"importance bound = 1/(2 mean L): {imp_ok}")
    assert _verdict("criterion 7: structural checks", ok, "; ".join(details))
