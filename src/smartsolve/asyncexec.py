"""Shared-memory asynchronous execution with recorded, replayable behavior.

Worker threads draw their own samples, evaluate operators against
lock-free reads of the shared iterate, and serialize only the commit of
each update.  Commits define the iteration order: the k-th commit *is*
iteration k.  A worker's read of block j is some previously committed
value; the executor records its age relative to the commit counter, so the
run is described exactly by a draw-and-delay log that the deterministic
engine replays bit-for-bit (both paths run the engine's iteration helpers).

Staleness is capped by back-pressure: a commit whose reads are older than
the caps is rejected and the worker re-reads and re-evaluates.  Dual reads
grab one read-only ``(Y, sums)`` state of the copy-on-write dual table, so
their age is a single number per iteration (consistent dual reads); block
reads are per-block and may mix ages, which is the inconsistent-read regime
the delay bookkeeping models.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .blockspace import BlockVector
from .diagnostics import residual
from .engine import DualTable, _apply, _plan
from .operators import OperatorFamily
from .sampling import SamplingLaw, TriggerGraph, draw, substream
from .schedule import MAX_DELAY, ReplayLog, ReplayRecord

__all__ = ["AsyncConfig", "AsyncResult", "run_async"]


class WorkerFailure(RuntimeError):
    pass


@dataclass(frozen=True)
class AsyncConfig:
    workers: int = 1
    tau_p: int = 8
    tau_d: int = 8
    check_every: int = 200          # residual/stop cadence, in commits
    retry_serialized_after: int = 100

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if not (0 <= self.tau_p <= MAX_DELAY and 0 <= self.tau_d <= MAX_DELAY):
            raise ValueError(f"staleness caps must lie in [0, {MAX_DELAY}]")


@dataclass
class AsyncResult:
    x: BlockVector
    log: ReplayLog
    iterations: int
    final_residual: float
    stopped_on: str
    max_primal_delay: int
    max_dual_delay: int


class _Shared:
    """Everything the workers touch; writes go through one lock."""

    def __init__(self, family: OperatorFamily, x0: BlockVector, steps, law, graph,
                 config: AsyncConfig, max_iters: int, stop_resid):
        self.family = family
        self.steps = steps
        self.law = law
        self.graph = graph
        self.config = config
        self.max_iters = max_iters
        self.stop_resid = stop_resid
        self.lock = threading.Lock()
        # cell = (version, value): version is the state index at which the
        # value became current; object replacement is atomic under the GIL
        self.cells = [(0, b) for b in x0.blocks]
        self.table = DualTable(family, x0, init="operator-values")
        self.dual_cell = (0, self.table.current)
        self.commits = 0
        self.log = ReplayLog(family.m, family.n, config.tau_p, config.tau_d)
        self.stopped = None
        self.max_d = 0
        self.max_e = 0
        self.errors = []

    def current_x(self) -> BlockVector:
        return BlockVector(self.family.layout, tuple(c[1] for c in self.cells))


def _read_snapshot(shared: _Shared, needed):
    """Lock-free read: per-block state indices (the freshest state each value
    is known to be valid for), the ``needed`` evaluations at the read point,
    and one published dual state ``(Y, sums)`` with its state index."""
    versions = np.empty(shared.family.m, dtype=np.int64)
    values = []
    for j in range(shared.family.m):
        cell = shared.cells[j]
        c2 = shared.commits
        if shared.cells[j] is cell:
            # the value is current through state c2, but never claim a state
            # older than the write that produced it (the commit counter may
            # lag a freshly written cell)
            versions[j] = max(cell[0], c2)
        else:
            versions[j] = cell[0]
        values.append(cell[1])
    dcell = shared.dual_cell
    c2 = shared.commits
    dual_version = max(dcell[0], c2) if shared.dual_cell is dcell else dcell[0]
    x_read = BlockVector(shared.family.layout, tuple(values))
    evals = {(i, j): shared.family.ops[i].block(x_read, j) for i, j in needed}
    return versions, evals, dual_version, dcell[1]


def _worker(shared: _Shared, wid: int, rng):
    family, law, graph = shared.family, shared.law, shared.graph
    cfg = shared.config
    try:
        while True:
            if shared.stopped is not None:
                return
            blocks, i_k, eps = draw(law, rng)
            if not blocks:
                with shared.lock:
                    if shared.stopped is not None:
                        return
                    k = shared.commits
                    shared.commits = k + 1
                    shared.log.append(ReplayRecord((), None, int(eps),
                                                   np.zeros(family.m, dtype=np.int64), 0))
                    _post_commit(shared, k + 1)
                continue

            needed, write_at = _plan(family, graph, blocks, i_k, eps)
            attempts = 0
            while True:
                read = _read_snapshot(shared, needed)
                serialize = attempts >= cfg.retry_serialized_after
                with shared.lock:
                    if shared.stopped is not None:
                        return
                    if serialize:
                        # guaranteed-fresh path after repeated rejections
                        read = _read_snapshot(shared, needed)
                    versions, evals, dual_version, (Y, ysum) = read
                    k = shared.commits
                    d = k - versions
                    e = k - dual_version
                    if d.max(initial=0) > cfg.tau_p or e > cfg.tau_d:
                        attempts += 1
                        continue
                    new_row, writes = _apply(
                        family, law, [c[1] for c in shared.cells], blocks, i_k, evals,
                        Y[i_k], ysum, shared.steps.value(k), write_at, shared.table.slices,
                    )
                    for j in blocks:
                        shared.cells[j] = (k + 1, new_row[j])
                    if writes:
                        shared.dual_cell = (k + 1, shared.table.commit(writes))
                    shared.commits = k + 1
                    shared.max_d = max(shared.max_d, int(d.max(initial=0)))
                    shared.max_e = max(shared.max_e, int(e))
                    shared.log.append(
                        ReplayRecord(tuple(blocks), i_k, int(eps), d.astype(np.int64), int(e))
                    )
                    _post_commit(shared, k + 1)
                break
    except Exception as exc:  # noqa: BLE001 - worker panic aborts the run
        with shared.lock:
            shared.errors.append((wid, exc))
            shared.stopped = "worker-error"


def _post_commit(shared: _Shared, count: int):
    # called with the lock held
    if count >= shared.max_iters:
        shared.stopped = shared.stopped or "max-iterations"
        return
    if shared.stop_resid is not None and count % shared.config.check_every == 0:
        if residual(shared.family, shared.current_x()) <= shared.stop_resid:
            shared.stopped = "residual"


def run_async(
    config: AsyncConfig,
    family: OperatorFamily,
    law: SamplingLaw,
    graph: TriggerGraph,
    steps,
    x0: BlockVector,
    max_iters: int,
    stop_resid: float | None = None,
    seed: int = 0,
) -> AsyncResult:
    """Run workers until the budget or residual target; return the record.

    With one worker the draws come from the same named sub-stream a
    deterministic run would use, all recorded delays are zero, and the
    trajectory matches the engine bit-for-bit.
    """
    shared = _Shared(family, x0, steps, law, graph, config, max_iters, stop_resid)
    rngs = [
        substream(seed, "sampling", index=0 if config.workers == 1 else wid + 1)
        for wid in range(config.workers)
    ]
    if config.workers == 1:
        _worker(shared, 0, rngs[0])
    else:
        threads = [
            threading.Thread(target=_worker, args=(shared, wid, rngs[wid]), daemon=True)
            for wid in range(config.workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    if shared.errors:
        wid, exc = shared.errors[0]
        raise WorkerFailure(f"worker {wid} aborted the run: {exc!r}") from exc
    x = shared.current_x()
    return AsyncResult(
        x=x,
        log=shared.log,
        iterations=shared.commits,
        final_residual=residual(family, x),
        stopped_on=shared.stopped or "max-iterations",
        max_primal_delay=shared.max_d,
        max_dual_delay=shared.max_e,
    )
