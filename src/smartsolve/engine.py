"""The core iteration: sampled, delayed primal updates with a triggered dual table.

One iteration does three things.  A joint sample picks the active blocks,
one operator, and the dual-update coin.  The primal update changes only the
sampled blocks, combining a fresh (but possibly delayed-input) evaluation of
the sampled operator with stored dual values:

    x_j <- x_j - lam/(q_j m) * [ (S_i(x_read))_j / (n p_ij)
                                 - y_ij_read / (n p_ij)
                                 + (1/n) sum_i' y_i'j_read ]

where ``x_read`` mixes block ages according to the primal delay vector and
the dual reads come from a table that is ``e`` iterations old.  Finally, if
the coin came up, every dual variable triggered by the sampled operator
refreshes its sampled-block entries to the fresh evaluation at ``x_read``.

The dual table is one dense (n, D) array with its column sums; each commit
publishes a read-only copy, so the dual history holds plain references and
per-operator ages gather their rows from past states with one fancy index.

Refreshes are computed only for dual states that are read.  When every
commit of a run overwrites every supported dual entry (coin always up, every
draw covers the supported blocks, every operator triggers the supported
rows), a commit does not depend on the table before it, so a commit whose
state the schedule never reads (``DelaySchedule.reads_dual_state``) is
skipped together with the evaluations it needs.  Scheduled SVRG thus pays
for one full refresh per cycle of its cyclic dual delay, not one per
iteration.  A replay takes its delays from the log and never skips, yet
reproduces such a run byte for byte.

A step that is not a replay takes its draw from one
:func:`~smartsolve.sampling.draw_stream` kept on the state, which makes the
draws of a fixed-count law in chunks, ahead of use.  A run's draws are those
of repeated ``draw`` calls, but a run that stops on its residual leaves the
caller's rng up to a chunk further on.  No caller reads that rng again: the
command line, the verifiers and the benchmark pass each run a fresh
substream.

Under the ``zero`` delay schedule a step reads the current iterate and the
current dual state directly and records one shared read-only zero delay
vector.  A family with no supported dual entry reads the current (all-zero)
dual state under any schedule.

The engine is strictly single-threaded; all asynchrony is simulated through
the delay schedule.  Runs record their draws and delays, and a recorded run
replays bit-identically, which is the audit path for the threaded executor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .blockspace import BlockVector
from .diagnostics import residual
from .operators import OperatorFamily
from .sampling import SamplingLaw, TriggerGraph, draw_stream
from .schedule import DelaySchedule, HistoryBuffer, ReplayLog, ReplayRecord, delayed_read

__all__ = [
    "StepSizes",
    "DualTable",
    "SmartState",
    "init_state",
    "step",
    "run",
    "RunResult",
    "Trace",
]

# exact-recompute cadence for the maintained dual block sums
RESUM_EVERY = 1000
RESUM_DRIFT_TOL = 1e-9


class EngineError(RuntimeError):
    """A run cannot go on; a divergence is reported with the iteration it happened at."""


def _residual(family: OperatorFamily, x: BlockVector, k: int) -> float:
    """``diagnostics.residual`` at iteration ``k``; an operator value that is
    not finite at a finite iterate raises :class:`EngineError` naming ``k``."""
    try:
        return residual(family, x)
    except ValueError as exc:
        raise EngineError(f"residual at iteration {k} failed: {exc}") from exc


@dataclass(frozen=True)
class StepSizes:
    """Constant step or a bounded per-iteration rule ``lam_k in [lo, hi]``."""

    lo: float
    hi: float
    rule: callable = None

    def __post_init__(self):
        if not (0 < self.lo <= self.hi):
            raise ValueError("need 0 < lo <= hi")

    @classmethod
    def constant(cls, lam: float) -> "StepSizes":
        return cls(lam, lam)

    def value(self, k: int) -> float:
        if self.rule is None:
            return self.lo
        lam = float(self.rule(k))
        if not self.lo <= lam <= self.hi:
            raise EngineError(f"step rule left its band at k={k}: {lam}")
        return lam


class DualTable:
    """Stored operator blocks ``y_ij`` as one dense copy-on-write table.

    A state is a read-only pair ``(Y, sums)``: ``Y`` is (n, D), D the total
    dimension, with ``y_ij`` in row ``i`` at block ``j``'s ``slices[j]``, and
    ``sums`` its column sums.  Masked entries are zeros that are never
    written.  A commit copies the state, applies its writes in order with
    ``sums <- sums - old + new``, and publishes the copy.  Every
    ``RESUM_EVERY`` commits the sums are checked against ``Y.sum(axis=0)``;
    a commit that writes every supported entry takes ``Y.sum(axis=0)``
    outright, so its state does not depend on the table before it.
    """

    def __init__(self, family: OperatorFamily, x0: BlockVector, init: str = "operator-values"):
        self.mask = family.star_pattern
        self.supported = int(self.mask.sum())
        self.slices = [slice(a, b) for a, b in family.layout.offsets()]
        Y = np.zeros((family.n, family.layout.total_dim))
        if init == "operator-values":
            for i in range(family.n):
                val = family.ops[i](x0)
                for j, sl in enumerate(self.slices):
                    if self.mask[i, j]:
                        Y[i, sl] = val.blocks[j]
        elif init != "zero":
            raise ValueError(f"unknown dual init {init!r}")
        sums = Y.sum(axis=0)
        Y.setflags(write=False)
        sums.setflags(write=False)
        self.current = (Y, sums)
        self.commits = 0

    def commit(self, updates) -> tuple:
        """Apply ``(i, j, value)`` writes and return the new ``(Y, sums)`` state."""
        if not updates:
            return self.current
        full = (
            len(updates) >= self.supported
            and len({(i, j) for i, j, _ in updates}) == self.supported
        )
        Y, sums = self.current[0].copy(), self.current[1].copy()
        for i, j, val in updates:
            if not self.mask[i, j]:
                raise EngineError(f"write to masked dual entry ({i}, {j})")
            sl = self.slices[j]
            if not full:
                # sums <- sums - old + new, in that order and in place
                block_sum = sums[sl]
                block_sum -= Y[i, sl]
                block_sum += val
            Y[i, sl] = val
        self.commits += 1
        if full:
            sums = Y.sum(axis=0)
        elif self.commits % RESUM_EVERY == 0:
            exact = Y.sum(axis=0)
            drift = float(np.max(np.abs(exact - sums)))
            if drift > RESUM_DRIFT_TOL:
                raise EngineError(f"dual sum drift {drift:.3e} exceeds tolerance")
            sums = exact
        Y.setflags(write=False)
        sums.setflags(write=False)
        self.current = (Y, sums)
        return self.current


@dataclass
class SmartState:
    """Mutable run state: iterate histories, dual table, counter, rng."""

    family: OperatorFamily
    primal_hist: HistoryBuffer
    dual_hist: HistoryBuffer
    dual_table: DualTable
    k: int = 0
    rng: np.random.Generator = None
    # (law, graph, whether every commit under them overwrites the whole table)
    full_refresh: tuple = field(default=None, repr=False)
    # (law, its draw stream on ``rng``); a step under another law starts a new one
    draws: tuple = field(default=None, repr=False)

    @property
    def x(self) -> BlockVector:
        return BlockVector(self.family.layout, tuple(self.primal_hist.latest()))


def init_state(
    family: OperatorFamily,
    x0: BlockVector,
    tau_p: int = 0,
    tau_d: int = 0,
    rng: np.random.Generator | None = None,
    dual_init: str = "operator-values",
) -> SmartState:
    if x0.layout.dims != family.layout.dims:
        raise EngineError("initial point has the wrong layout")
    table = DualTable(family, x0, init=dual_init)
    primal = HistoryBuffer(tau_p + 1, tuple(x0.blocks))
    dual = HistoryBuffer(tau_d + 1, table.current)
    return SmartState(family, primal, dual, table, k=0, rng=rng)


@functools.lru_cache(maxsize=None)
def _zero_delays(m: int) -> np.ndarray:
    """The read-only primal delays recorded by every step that reads the current state."""
    d = np.zeros(m, dtype=np.int64)
    d.setflags(write=False)
    return d


def _resolve_dual_reads(state: SmartState, k: int, e, i_k: int):
    """Row ``i_k`` of the dual table and the column sums at the delayed age.

    ``e`` is a scalar (one age for the whole table) or an (n,) vector of
    per-operator ages, row ``i`` then coming from state ``k - e[i]``: the two
    shapes the replay log can store.
    """
    if np.isscalar(e) or np.ndim(e) == 0:
        Y, sums = state.dual_hist.read(k - int(e))
        return Y[i_k], sums
    n = state.family.n
    e = np.asarray(e)
    if e.shape != (n,):
        raise EngineError(f"dual delays must be a scalar or ({n},), got shape {e.shape}")
    lo = int(e.min())
    tables = np.stack([state.dual_hist.read(k - a)[0] for a in range(lo, int(e.max()) + 1)])
    rows = tables[e - lo, np.arange(n)]
    return rows[i_k], rows.sum(axis=0)


def _overwrites_whole_table(family: OperatorFamily, law: SamplingLaw, graph: TriggerGraph) -> bool:
    """Whether every dual commit under ``law`` and ``graph`` writes every supported entry.

    True when the coin always comes up, every draw contains each block
    holding a supported entry, and every operator triggers each row holding
    one.  Such a commit does not depend on the table before it.
    """
    mask = family.star_pattern
    rows = set(np.flatnonzero(mask.any(axis=1)).tolist())
    cols = np.flatnonzero(mask.any(axis=0))
    return (
        law.rho >= 1.0
        and bool(np.all(law.q[cols] >= 1.0))
        and all(rows.issubset(graph.triggered_by(i)) for i in range(family.n))
    )


def _plan(family: OperatorFamily, graph: TriggerGraph, blocks, i_k: int, commit):
    """The ``(i, j)`` block evaluations one iteration uses, each listed once,
    and the dual entries its commit writes, in write order.

    The drawn operator on every drawn block feeds the primal update.  A
    commit (none unless ``commit``) writes every entry on the drawn blocks
    that the drawn operator triggers and the zero pattern supports.
    """
    needed = [(i_k, j) for j in blocks]
    if not commit:
        return needed, []
    star = family.star_pattern
    write_at = [(i, j) for i in graph.triggered_by(i_k) for j in blocks if star[i, j]]
    return list(dict.fromkeys(needed + write_at)), write_at


def _apply(family: OperatorFamily, law: SamplingLaw, k: int, cur, blocks, i_k: int, evals,
           y_ik, ysum, lam: float, write_at, slices):
    """The new primal row and the ``(i, j, value)`` dual writes of iteration ``k``.

    ``evals`` holds the evaluations :func:`_plan` lists, at the read point,
    and ``y_ik``/``ysum`` the (D,) dual reads, block ``j`` at ``slices[j]``.
    The engine and the threaded executor both run this, so a threaded run
    replays exactly.  Finiteness is kept here, as reads are not re-checked: a
    drawn block (whose check covers the values it uses) or a dual value written
    for another operator that comes out NaN or Inf raises :class:`EngineError`.
    """
    n, m = family.n, family.m
    new_row = list(cur)
    for j in blocks:
        p_ij = law.p[i_k, j]
        if p_ij <= 0.0:
            raise EngineError(f"drawn operator {i_k} has zero conditional mass in block {j}")
        a = 1.0 / (n * p_ij)
        lam_over_qm = lam / (law.q[j] * m)
        sl = slices[j]
        new = cur[j] - lam_over_qm * (a * evals[i_k, j] - a * y_ik[sl] + ysum[sl] / n)
        if not np.isfinite(new).all():
            raise EngineError(
                f"iterate diverged at iteration {k}: block {j} is NaN or Inf (operator {i_k})")
        new_row[j] = new
    for i, j in write_at:
        if i != i_k and not np.isfinite(evals[i, j]).all():
            raise EngineError(
                f"dual value diverged at iteration {k}: operator {i}, block {j} is NaN or Inf")
    return new_row, [(i, j, evals[i, j]) for i, j in write_at]


def step(
    state: SmartState,
    law: SamplingLaw,
    graph: TriggerGraph,
    sched: DelaySchedule,
    steps: StepSizes,
    forced_draw=None,
    forced_delays=None,
) -> ReplayRecord:
    """Advance one iteration in place and return its replay record.

    A commit that nothing reads is skipped (see the module docstring); its
    dual state then repeats the last committed table.
    """
    family = state.family
    k = state.k
    table = state.dual_table
    if forced_draw is not None:
        blocks, i_k, eps = forced_draw
    else:
        if state.draws is None or state.draws[0] is not law:
            state.draws = (law, draw_stream(law, state.rng))
        blocks, i_k, eps = next(state.draws[1])
    direct = forced_delays is None and sched.mode == "zero"
    if forced_delays is not None:
        d, e = forced_delays
    elif direct:
        d, e = _zero_delays(family.m), 0
    else:
        d, e = sched.primal_delays(k), sched.dual_delays(k)

    lam = steps.value(k)
    cur = state.primal_hist.latest()

    if blocks:
        read = cur if direct else delayed_read(state.primal_hist, k, d)
        x_read = BlockVector._unchecked(family.layout, read)
        if direct or not table.supported:
            Y, ysum = table.current
            y_ik = Y[i_k]
        else:
            y_ik, ysum = _resolve_dual_reads(state, k, e, i_k)
        refresh = state.full_refresh
        if refresh is None or refresh[0] is not law or refresh[1] is not graph:
            refresh = state.full_refresh = (
                law, graph, _overwrites_whole_table(family, law, graph)
            )
        unread = (
            refresh[2] and forced_delays is None and not sched.reads_dual_state(k + 1)
        )
        commit = eps and not unread
        needed, write_at = _plan(family, graph, blocks, i_k, commit)
        evals = {(i, j): family.ops[i].block(x_read, j) for i, j in needed}
        new_row, writes = _apply(family, law, k, cur, blocks, i_k, evals, y_ik, ysum, lam,
                                 write_at, table.slices)
        state.primal_hist.push(tuple(new_row))
        state.dual_hist.push(table.commit(writes) if commit else table.current)
    else:
        # legal empty draw: the iteration counts but nothing moves
        state.primal_hist.push(cur)
        state.dual_hist.push(table.current)
        d, e = _zero_delays(family.m), 0

    state.k = k + 1
    return ReplayRecord(
        blocks=blocks,
        op_index=i_k,
        eps=int(eps),
        d=np.asarray(d, dtype=np.int64),
        e=e,
    )


@dataclass
class Trace:
    """Thinned per-run measurements, one row per recorded iteration."""

    iters: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    dist_sq: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    op_index: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    delay_max: list = field(default_factory=list)

    def append(self, k, res, dsq, lam, i_k, eps, dmax):
        self.iters.append(k)
        self.residual.append(res)
        self.dist_sq.append(dsq)
        self.lam.append(lam)
        self.op_index.append(i_k)
        self.eps.append(eps)
        self.delay_max.append(dmax)

    def to_csv(self, fh):
        fh.write("iter,residual,dist_sq,lambda,i_k,eps_k,delay_max\n")
        for row in zip(
            self.iters, self.residual, self.dist_sq, self.lam,
            self.op_index, self.eps, self.delay_max,
        ):
            k, res, dsq, lam, i_k, eps, dmax = row
            dsq_s = "" if dsq is None else repr(dsq)
            i_s = "" if i_k is None else str(i_k)
            fh.write(f"{k},{res!r},{dsq_s},{lam!r},{i_s},{eps},{dmax}\n")


@dataclass
class RunResult:
    """Outcome of :func:`run`.

    ``state.dual_table`` holds the table as of the last commit.  In a run
    that skips unread commits (see :func:`step`) that is the table of the
    last dual state the schedule could read, not a refresh at the final
    iterate.
    """

    x: BlockVector
    trace: Trace
    log: ReplayLog
    iterations: int
    final_residual: float
    stopped_on: str
    state: SmartState = field(repr=False, default=None)


def run(
    x0: BlockVector,
    family: OperatorFamily,
    law: SamplingLaw,
    graph: TriggerGraph,
    sched: DelaySchedule,
    steps: StepSizes,
    max_iters: int,
    stop_resid: float | None = None,
    rng: np.random.Generator | None = None,
    oracle=None,
    trace_stride: int = 50,
    dual_init: str = "operator-values",
    replay: ReplayLog | None = None,
) -> RunResult:
    """Iterate until the budget or the residual target is hit.

    ``oracle``, when given, must expose ``dist_sq(x)``; its values land in
    the trace.  ``replay`` substitutes recorded draws and delays for fresh
    ones, reproducing a recorded run exactly.  The returned log replays the
    run that was just performed.  Draws come in chunks (see the module
    docstring), so ``rng`` may end up further on than the run's draws need.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if trace_stride < 1:
        raise ValueError(f"trace_stride must be >= 1, got {trace_stride}")
    if replay is not None:
        max_iters = min(max_iters, len(replay))
    state = init_state(
        family, x0, tau_p=sched.tau_p, tau_d=sched.tau_d, rng=rng, dual_init=dual_init
    )
    log = ReplayLog(family.m, family.n, sched.tau_p, sched.tau_d)
    trace = Trace()
    stopped_on = "max-iterations"

    def observe(k, rec: ReplayRecord | None):
        x = state.x
        res = _residual(family, x, k)
        dsq = None if oracle is None else float(oracle.dist_sq(x))
        lam = steps.value(max(k - 1, 0))
        i_k = None if rec is None else rec.op_index
        eps = 0 if rec is None else rec.eps
        dmax = 0 if rec is None else rec.max_delay()
        trace.append(k, res, dsq, lam, i_k, eps, dmax)
        return res

    observe(0, None)
    last = None
    for k in range(max_iters):
        if replay is not None:
            r = replay.records[k]
            last = step(
                state, law, graph, sched, steps,
                forced_draw=(r.blocks, r.op_index, r.eps),
                forced_delays=(r.d, r.e),
            )
        else:
            last = step(state, law, graph, sched, steps)
        log.append(last)
        if (k + 1) % trace_stride == 0 or k + 1 == max_iters:
            res = observe(k + 1, last)
            if stop_resid is not None and res <= stop_resid:
                stopped_on = "residual"
                break

    final_res = trace.residual[-1]
    return RunResult(
        x=state.x,
        trace=trace,
        log=log,
        iterations=state.k,
        final_residual=final_res,
        stopped_on=stopped_on,
        state=state,
    )
