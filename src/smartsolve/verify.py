"""Verification suites: coherence, rate envelopes, clone equivalence, replay.

Each suite returns ``(ok, report)`` where the report is JSON-serializable.
The suites are what the command line's ``verify`` subcommand runs and what
the acceptance tests assert on; thresholds live here so both agree.
"""

from __future__ import annotations

import numpy as np

from .asyncexec import AsyncConfig, run_async
from .blockspace import BlockVector
from .diagnostics import MIN_SEEDS, envelope_test
from .engine import StepSizes, run
from .instances import bundle_for
from .operators import verify_coherence, verify_quasi_monotone
from .problems import linear_system, ridge, ridge_terms
from .reference import (
    finito_clone,
    kaczmarz_clone,
    saga_clone,
    sdca_clone,
    svrg_avg_clone,
    svrg_sched_clone,
)
from .sampling import substream
from .schedule import DelaySchedule
from .stepsize import table1_preset

COHERENCE_PRESETS = (
    "saga",
    "svrg-avg",
    "svrg-sched",
    "finito",
    "sdca",
    "kaczmarz",
    "projection",
    "prox-saga",
    "lin-saga",
    "tropic",
    "prox-smart",
    "mono",
)

COHERENCE_TRIALS = 10_000
COHERENCE_SLACK = 1e-10


def coherence_suite(seed: int = 0, trials: int = COHERENCE_TRIALS) -> tuple[bool, dict]:
    """Randomized check of the quasi-cocoercivity inequality per preset."""
    from .problems import lasso

    report = {}
    ok = True
    desk = {
        "saga": lambda: ridge(rows=10, dim=6, reg=0.3, seed=seed),
        "svrg-avg": lambda: ridge(rows=10, dim=6, reg=0.3, seed=seed),
        "svrg-sched": lambda: ridge(rows=10, dim=6, reg=0.3, seed=seed),
        "finito": lambda: ridge(rows=8, dim=5, reg=0.4, seed=seed),
        "kaczmarz": lambda: linear_system(rows=20, dim=10, seed=seed),
        "prox-saga": lambda: lasso(rows=12, dim=6, weight=0.08, seed=seed),
    }
    for name in COHERENCE_PRESETS:
        problem = desk[name]() if name in desk else None
        bundle = bundle_for(name, problem=problem, seed=seed)
        rep = verify_coherence(
            bundle.family, trials=trials, slack=COHERENCE_SLACK,
            rng=substream(seed, "verify"),
        )
        entry = {"max_violation": rep.max_violation, "pass": bool(rep)}
        if bundle.family.mu is not None and bundle.oracle is not None:
            rep2 = verify_quasi_monotone(
                bundle.family, trials=min(trials, 2000), slack=COHERENCE_SLACK,
                rng=substream(seed, "verify"),
                projector=bundle.oracle.project,
            )
            entry["mu_violation"] = rep2.max_violation
            entry["mu_pass"] = bool(rep2)
            ok = ok and bool(rep2)
        report[name] = entry
        ok = ok and bool(rep)
    return ok, report


def _mean_traces(bundle, lam, iters, seeds, stride):
    traces = []
    steps = StepSizes.constant(lam)
    x0 = BlockVector.zeros(bundle.family.layout)
    its = None
    for s in range(seeds):
        res = run(
            x0, bundle.family, bundle.law, bundle.graph, bundle.schedule, steps,
            max_iters=iters, rng=substream(1000 + s, "sampling"),
            oracle=bundle.oracle, trace_stride=stride,
        )
        traces.append(res.trace.dist_sq)
        its = res.trace.iters
    return np.asarray(its), np.asarray(traces)


def rates_suite(seed: int = 0, seeds: int = 50, slack: float = 0.05) -> tuple[bool, dict]:
    """Mean-over-seeds distance envelopes at the published steps and rates."""
    if seeds < MIN_SEEDS:
        raise ValueError(f"need at least {MIN_SEEDS} seeds, got {seeds}")
    report = {}
    ok = True

    prob = ridge(rows=10, dim=6, reg=0.35, seed=seed)
    fs, L = ridge_terms(prob)
    mu = float(prob.oracle["mu"])
    Lmax = float(L.max())
    N = len(fs)

    saga = bundle_for("saga", problem=prob)
    row = table1_preset("SAGA", L=Lmax, mu=mu, N=N)
    its, traces = _mean_traces(saga, row["best"], iters=1500, seeds=seeds, stride=25)
    rep = envelope_test(its, traces, row["rate"], slack=slack, burn_in=0)
    report["saga"] = rep.to_json()
    ok = ok and bool(rep)

    svrg = bundle_for("svrg-sched", problem=prob, tau=4)
    row = table1_preset("SVRG-sched", L=Lmax, mu=mu, tau=4)
    its, traces = _mean_traces(svrg, row["best"], iters=1200, seeds=seeds, stride=25)
    rep = envelope_test(its, traces, row["rate"], slack=slack, burn_in=0)
    report["svrg-sched"] = rep.to_json()
    ok = ok and bool(rep)

    lsys = linear_system(rows=50, dim=20, seed=seed)
    kacz = bundle_for("kaczmarz", problem=lsys)
    row = table1_preset("Kaczmarz", N=50, inv_norm=kacz.extras["inv_norm"])
    its, traces = _mean_traces(kacz, row["best"], iters=2500, seeds=seeds, stride=50)
    rep = envelope_test(its, traces, row["rate"], slack=slack, burn_in=0)
    report["kaczmarz"] = rep.to_json()
    ok = ok and bool(rep)

    fprob = ridge(rows=8, dim=5, reg=0.5, seed=seed)
    ffs, fL = ridge_terms(fprob)
    mu_hat = min(f.strong_convexity for f in ffs)
    Lf = float(fL.max())
    finito = bundle_for("finito", problem=fprob, gamma=1.0 / Lf, lam=0.25)
    row = table1_preset("Finito", L=Lf, mu_hat=mu_hat, N=len(ffs))
    its, traces = _mean_traces(finito, 0.25, iters=2000, seeds=seeds, stride=40)
    rep = envelope_test(its, traces, row["rate"], slack=slack, burn_in=0)
    report["finito"] = rep.to_json()
    ok = ok and bool(rep)

    return ok, report


EQUIV_TOL = 1e-12
EQUIV_STEPS = 1000


def equivalence_suite(seed: int = 0) -> tuple[bool, dict]:
    """Engine trajectories against the hand-coded update rules."""
    report = {}
    prob = ridge(rows=8, dim=5, reg=0.3, seed=seed)
    fs, L = ridge_terms(prob)
    mu = float(prob.oracle["mu"])
    dim = 5

    def gap(bundle, clone_states):
        x0 = BlockVector.zeros(bundle.family.layout)
        res = run(
            x0, bundle.family, bundle.law, bundle.graph, bundle.schedule,
            bundle.steps, max_iters=EQUIV_STEPS,
            rng=substream(seed + 7, "sampling"), trace_stride=EQUIV_STEPS,
        )
        return float(np.max(np.abs(res.x.flat() - np.ravel(clone_states[-1]))))

    b = bundle_for("saga", problem=prob)
    report["saga"] = gap(b, saga_clone(
        fs, np.zeros(dim), b.steps.lo, b.law, substream(seed + 7, "sampling"), EQUIV_STEPS))

    b = bundle_for("svrg-avg", problem=prob, tau=4)
    report["svrg-avg"] = gap(b, svrg_avg_clone(
        fs, np.zeros(dim), b.steps.lo, b.law, substream(seed + 7, "sampling"), EQUIV_STEPS))

    b = bundle_for("svrg-sched", problem=prob, tau=4)
    report["svrg-sched"] = gap(b, svrg_sched_clone(
        fs, np.zeros(dim), b.steps.lo, 4, b.law, substream(seed + 7, "sampling"), EQUIV_STEPS))

    b = bundle_for("finito", problem=prob)
    gamma = b.extras["gamma"]
    report["finito"] = gap(b, finito_clone(
        fs, np.zeros((len(fs), dim)), b.steps.lo, gamma, b.law,
        substream(seed + 7, "sampling"), EQUIV_STEPS))

    from .instances import sdca_quadratics

    qs, z_star, mu0 = sdca_quadratics(seed=seed)
    b = bundle_for("sdca", seed=seed)
    report["sdca"] = gap(b, sdca_clone(
        qs, np.zeros((len(qs), 4)), b.steps.lo, mu0, b.law,
        substream(seed + 7, "sampling"), EQUIV_STEPS))

    lsys = linear_system(rows=30, dim=12, seed=seed)
    b = bundle_for("kaczmarz", problem=lsys)
    report["kaczmarz"] = gap(b, kaczmarz_clone(
        b.extras["A"], b.extras["b"], np.zeros(12), b.steps.lo, b.law,
        substream(seed + 7, "sampling"), EQUIV_STEPS))

    ok = all(v <= EQUIV_TOL for v in report.values())
    return ok, report


REPLAY_TOL = 1e-12


def replay_suite(seed: int = 0, workers: int = 4) -> tuple[bool, dict]:
    """Threaded runs must replay bit-faithfully on the deterministic engine."""
    report = {}
    ok = True
    saga_prob = ridge(rows=10, dim=6, reg=0.5, seed=seed)
    for name, taus in (("kaczmarz", (3, 3)), ("saga", (8, 8))):
        problem = saga_prob if name == "saga" else None
        bundle = bundle_for(name, problem=problem, seed=seed)
        tau_p, tau_d = taus
        lam = 0.98 * _weak_lambda(bundle, tau_p, tau_d)
        cfg = AsyncConfig(workers=workers, tau_p=tau_p, tau_d=tau_d)
        x0 = BlockVector.zeros(bundle.family.layout)
        ares = run_async(
            cfg, bundle.family, bundle.law, bundle.graph,
            StepSizes.constant(lam), x0, max_iters=100_000, stop_resid=1e-6,
            seed=seed + 11,
        )
        sched = DelaySchedule(
            tau_p=tau_p, tau_d=tau_d, mode="recorded",
            m=bundle.family.m, n=bundle.family.n, log=ares.log,
        )
        rres = run(
            x0, bundle.family, bundle.law, bundle.graph, sched,
            StepSizes.constant(lam), max_iters=ares.iterations, replay=ares.log,
        )
        gap = float(np.max(np.abs(rres.x.flat() - ares.x.flat())))
        entry = {
            "iterations": ares.iterations,
            "final_residual": ares.final_residual,
            "max_primal_delay": ares.max_primal_delay,
            "max_dual_delay": ares.max_dual_delay,
            "replay_gap": gap,
            "pass": gap <= REPLAY_TOL
            and ares.final_residual <= 1e-6
            and ares.max_primal_delay <= tau_p
            and ares.max_dual_delay <= tau_d,
        }
        report[name] = entry
        ok = ok and entry["pass"]
    return ok, report


def _weak_lambda(bundle, tau_p, tau_d):
    from .stepsize import weak_bound

    return weak_bound(bundle.family, bundle.law, tau_p, tau_d)


SUITES = {
    "coherence": coherence_suite,
    "rates": rates_suite,
    "equivalence": equivalence_suite,
    "replay": replay_suite,
}
