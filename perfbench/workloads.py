"""The benchmark's four workloads: set-up, solve, and the output checks.

Every workload solves ridge problems with 50 rows, dimension 20 and
``reg=0.1`` (the size of the ROADMAP cost table) through the public API that
``smartsolve run`` uses, with its defaults: the preset's bundle step, trace
stride 50 and the oracle on.  Each solve gets its own problem seed, drawn by
the harness from the workload seed; the program only sees the generated
problem.

Why these four (each one pulls a different layer forward):

* ``saga-sync``: one cheap gradient per iteration, so sampling and engine
  bookkeeping dominate; runs to a residual of 1e-6.
* ``svrg-sched``: every iteration evaluates all 50 gradients and writes 50
  dual entries, so operator evaluation and dual commits dominate; sampling
  is a small share.  It does not reach 1e-6 in a practical budget, so a
  solve is a fixed iteration budget.
* ``finito-blocks``: the only workload with m > 1 (50 blocks of 20); each
  block evaluation recomputes an O(N d) aggregate, and the block law,
  ``delayed_read`` and ``BlockVector`` all handle 50 blocks.
* ``saga-async``: the only workload through the threaded executor and the
  replay-log write and read path (record, dump, load, replay).

Module attributes are looked up at call time (``engine.run``, not a bare
``run``) so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from smartsolve import asyncexec, engine, instances, problems, reference, schedule, stepsize
from smartsolve.blockspace import BlockVector
from smartsolve.sampling import substream

ROWS, DIM, REG = 50, 20, 0.1
TRACE_STRIDE = 50            # ``smartsolve run`` default
TOL = 1e-6                   # residual target of the solves that run to tolerance
CAP = 50_000                 # iteration cap of those solves (seen: 4.6k to 8.8k)
EQUIV_TOL = 1e-12            # engine against clone, and replay gap
ASYNC_WORKERS = 2            # one per core of the two-core reference machine
ASYNC_TAU = 2                # staleness caps tau_p = tau_d

# Faults the self-test injects into the first solve of a run; each must make
# that solve count as failed without stopping the run.
INJECT_CORRUPT_LOG = "corrupt-log"
INJECT_PERTURB_CLONE = "perturb-clone"
CLONE_PERTURBATION = 1e-2    # relative step change of the perturbed clone


class CheckFailed(Exception):
    """A solve finished but its output is wrong."""


@dataclass
class Job:
    """One generated problem with everything set up before the engine starts."""

    seed: int
    problem: object
    bundle: object


@dataclass
class Outcome:
    """What a solve produced, plus the timings the harness cannot see."""

    iterations: int
    busy_s: float            # time of the iterations ``iters_per_s`` counts
    result: object
    log: object              # the replay log written by the iterations
    extra: dict = field(default_factory=dict)

    def release_log(self):
        """Drop every reference to ``log`` (used to measure its memory)."""
        self.result.log = None
        self.log = None


def _x0(bundle) -> BlockVector:
    return BlockVector.zeros(bundle.family.layout)


def _gap(a, b) -> float:
    return float(np.max(np.abs(np.ravel(a) - np.ravel(b))))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_outputs(result, outdir: Path):
    """Write ``trace.csv`` and ``replay.bin`` as ``smartsolve run`` does."""
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "trace.csv", "w") as fh:
        result.trace.to_csv(fh)
    with open(outdir / "replay.bin", "wb") as fh:
        result.log.dump(fh)


class Workload:
    name = ""
    preset = ""
    kind = "sync"
    taus = (0, 0)            # delay caps handed to ``weak_bound``, as the CLI does

    def setup(self, seed: int) -> Job:
        problem = problems.ridge(rows=ROWS, dim=DIM, reg=REG, seed=seed)
        bundle = instances.bundle_for(self.preset, problem=problem, seed=seed)
        # ``smartsolve run`` computes the admissible step bound before it starts
        # (to warn when the preset's step exceeds it), so set-up includes it
        stepsize.weak_bound(bundle.family, bundle.law, *self.taus)
        return Job(seed, problem, bundle)


class SyncWorkload(Workload):
    """Deterministic engine runs, compared with a hand-coded clone."""

    def __init__(self, name, preset, budget, stop_resid, clone, rerun=False):
        self.name = name
        self.preset = preset
        self.budget = budget
        self.stop_resid = stop_resid
        self.clone = clone
        self.rerun = rerun

    def solve(self, job: Job, workdir: Path, inject=None) -> Outcome:
        b = job.bundle
        t0 = perf_counter()
        res = engine.run(
            _x0(b), b.family, b.law, b.graph, b.schedule, b.steps,
            max_iters=self.budget, stop_resid=self.stop_resid,
            rng=substream(job.seed, "sampling"), oracle=b.oracle,
            trace_stride=TRACE_STRIDE, dual_init=b.dual_init,
        )
        return Outcome(res.iterations, perf_counter() - t0, res, res.log)

    def check(self, job: Job, out: Outcome, workdir: Path, inject=None,
              first=False) -> dict:
        res, b = out.result, job.bundle
        if self.stop_resid is not None:
            if res.stopped_on != "residual" or res.final_residual > self.stop_resid:
                raise CheckFailed(
                    f"missed residual {self.stop_resid:g} within {self.budget} "
                    f"iterations (final {res.final_residual:.3e}, {res.stopped_on})"
                )
            # a mu-strongly monotone aggregate puts the root within res/mu
            dist = math.sqrt(res.trace.dist_sq[-1])
            if not dist <= res.final_residual / b.family.mu:
                raise CheckFailed(f"oracle distance {dist:.3e} too large for the "
                                  f"residual {res.final_residual:.3e}")

        fs, _ = problems.ridge_terms(job.problem)
        lam = b.steps.lo
        if inject == INJECT_PERTURB_CLONE:
            lam *= 1.0 + CLONE_PERTURBATION
        t0 = perf_counter()
        states = self.clone(job, fs, lam, res.iterations)
        clone_s = perf_counter() - t0
        gap = _gap(res.x.flat(), states[-1])
        if gap > EQUIV_TOL:
            raise CheckFailed(f"engine and clone differ by {gap:.3e}")

        if self.rerun and first:
            # same seed twice: byte-identical trace.csv and replay.bin
            write_outputs(res, workdir / "first")
            again = self.solve(self.setup(job.seed), workdir)
            write_outputs(again.result, workdir / "second")
            for fname in ("trace.csv", "replay.bin"):
                if _sha256(workdir / "first" / fname) != _sha256(workdir / "second" / fname):
                    raise CheckFailed(f"{fname} differs between two runs of one seed")
        return {"clone_s": clone_s}


def _saga_clone(job, fs, lam, iters):
    return reference.saga_clone(fs, np.zeros(DIM), lam, job.bundle.law,
                                substream(job.seed, "sampling"), iters)


def _svrg_sched_clone(job, fs, lam, iters):
    return reference.svrg_sched_clone(fs, np.zeros(DIM), lam, job.bundle.extras["tau"],
                                      job.bundle.law, substream(job.seed, "sampling"),
                                      iters)


def _finito_clone(job, fs, lam, iters):
    return reference.finito_clone(fs, np.zeros((ROWS, DIM)), lam,
                                  job.bundle.extras["gamma"], job.bundle.law,
                                  substream(job.seed, "sampling"), iters)


def _corrupt_last_op_index(path: Path, n: int, m: int):
    """Point the last record of a dumped log at another operator (one byte).

    A SAGA record holds one block and a scalar dual delay: op index, coin and
    block count (7 bytes), the block (2), the primal delays (m) and the dual
    delay (2).  The last record is the one changed because the first
    iteration's update does not depend on the operator drawn: the duals start
    at the operator values.
    """
    data = bytearray(path.read_bytes())
    at = len(data) - (7 + 2 + m + 2)
    data[at] = data[at] % n + 1          # op index i is stored as i + 1
    path.write_bytes(bytes(data))


class AsyncWorkload(Workload):
    """Threaded record, then dump, load and engine replay of the record."""

    kind = "async"

    def __init__(self, name):
        self.name = name
        self.preset = "saga"
        self.taus = (ASYNC_TAU, ASYNC_TAU)

    def solve(self, job: Job, workdir: Path, inject=None) -> Outcome:
        b = job.bundle
        fam = b.family
        config = asyncexec.AsyncConfig(workers=ASYNC_WORKERS, tau_p=ASYNC_TAU,
                                       tau_d=ASYNC_TAU)
        # Both workers run on one CPU (they inherit the caller's affinity).
        # Under the GIL a second core adds no throughput, and handing the GIL
        # between two vCPUs that the host schedules apart made the record's
        # rate swing by a third with the host's load.
        cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(cpus)})
        try:
            t0 = perf_counter()
            ares = asyncexec.run_async(config, fam, b.law, b.graph, b.steps, _x0(b),
                                       max_iters=CAP, stop_resid=TOL, seed=job.seed)
            record_s = perf_counter() - t0
        finally:
            os.sched_setaffinity(0, cpus)
        path = workdir / "replay.bin"
        with open(path, "wb") as fh:
            ares.log.dump(fh)
        if inject == INJECT_CORRUPT_LOG:
            _corrupt_last_op_index(path, fam.n, fam.m)
        with open(path, "rb") as fh:
            log = schedule.ReplayLog.load(fh)
        sched = schedule.DelaySchedule(tau_p=ASYNC_TAU, tau_d=ASYNC_TAU, mode="recorded",
                                       m=fam.m, n=fam.n, log=log)
        res = engine.run(_x0(b), fam, b.law, b.graph, sched, b.steps,
                         max_iters=ares.iterations, oracle=b.oracle,
                         trace_stride=TRACE_STRIDE, dual_init=b.dual_init, replay=log)
        extra = {
            "replayed": res,
            "log_bytes": path.stat().st_size,
            "max_primal_delay": ares.max_primal_delay,
            "max_dual_delay": ares.max_dual_delay,
        }
        return Outcome(ares.iterations, record_s, ares, ares.log, extra)

    def check(self, job: Job, out: Outcome, workdir: Path, inject=None,
              first=False) -> dict:
        ares, res = out.result, out.extra["replayed"]
        if res.iterations != ares.iterations:
            raise CheckFailed(f"replayed {res.iterations} of {ares.iterations} commits")
        gap = _gap(res.x.flat(), ares.x.flat())
        if gap > EQUIV_TOL:
            raise CheckFailed(f"replay gap {gap:.3e}")
        worst_d = max((int(r.d.max(initial=0)) for r in ares.log), default=0)
        worst_e = max((int(np.max(r.e)) for r in ares.log), default=0)
        if max(worst_d, ares.max_primal_delay) > ASYNC_TAU or \
                max(worst_e, ares.max_dual_delay) > ASYNC_TAU:
            raise CheckFailed(f"realized delays ({worst_d}, {worst_e}) exceed the caps")
        if ares.stopped_on != "residual" or ares.final_residual > TOL:
            raise CheckFailed(f"missed residual {TOL:g} within {CAP} commits "
                              f"(final {ares.final_residual:.3e}, {ares.stopped_on})")
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        SyncWorkload("saga-sync", "saga", budget=CAP, stop_resid=TOL,
                     clone=_saga_clone, rerun=True),
        SyncWorkload("svrg-sched", "svrg-sched", budget=400, stop_resid=None,
                     clone=_svrg_sched_clone),
        SyncWorkload("finito-blocks", "finito", budget=600, stop_resid=None,
                     clone=_finito_clone),
        AsyncWorkload("saga-async"),
    )
}
