"""Primal-dual and constrained presets built on non-standard metrics.

These configurations share a pattern: the engine space is a product of a
decision block and auxiliary (dual-like) blocks, the analysis metric is the
quadratic form of a bordered matrix whose off-diagonal blocks are the
coupling maps, and a root transports back to a solution of the original
problem through a prox, a resolvent, or an affine correction.
"""

from __future__ import annotations

import numpy as np

from ..blockspace import BlockLayout, BlockVector, gram_metric
from ..diagnostics import PointOracle
from ..engine import StepSizes
from ..operators import BlockOperator, MoreauConjugate, OperatorFamily
from ..sampling import SamplingLaw, TriggerGraph
from ..schedule import DelaySchedule
from ..stepsize import weak_bound
from .classic import _max_lipschitz, _probe_zero


class ShiftedSmooth:
    """f(. + c) for a smooth handle."""

    def __init__(self, f, c):
        self.f, self.c = f, np.asarray(c, dtype=np.float64)
        self.lipschitz = f.lipschitz
        self.strong_convexity = getattr(f, "strong_convexity", 0.0)

    def value(self, z):
        return self.f.value(z + self.c)

    def grad(self, z):
        return self.f.grad(z + self.c)


class ShiftedProx:
    """g(. + c) for a proxable handle: prox(v) = prox_g(v + c) - c."""

    def __init__(self, g, c):
        self.g, self.c = g, np.asarray(c, dtype=np.float64)

    def value(self, z):
        return self.g.value(z + self.c)

    def prox(self, v, gamma):
        return self.g.prox(v + self.c, gamma) - self.c


def build_lin_saga(
    fs,
    g,
    projector,
    lipschitz_hat=None,
    variant: str = "saga",
    tau: int = 1,
    lam: float | None = None,
    root_pair=None,
    mu: float | None = None,
    transport_target=None,
):
    """Composite minimization over a subspace via a reflected prox operator.

    ``projector`` is the orthogonal projector matrix onto the constraint
    subspace.  Gradients act through the projector and the prox; one extra
    operator combines the reflected prox with the projector.  Sampling
    weights the gradient terms by their Lipschitz constants and gives the
    prox operator probability 1/2.  A root transports through the prox.
    """
    from . import PresetBundle

    P_V = np.asarray(projector, dtype=np.float64)
    L_hat = _max_lipschitz(fs, lipschitz_hat)
    N = len(fs)
    n = N + 1
    gamma = N / float(L_hat.sum())
    dim = P_V.shape[0]
    layout = BlockLayout((dim,))

    def s_grad(x: BlockVector, i: int) -> np.ndarray:
        w = g.prox(x.blocks[0], gamma)
        return (gamma / N) * (P_V @ fs[i].grad(P_V @ w))

    ops = []
    for i in range(N):
        def full(x, _i=i):
            return BlockVector(layout, (s_grad(x, _i),))
        ops.append(BlockOperator(layout, full=full))

    def s_prox(x: BlockVector) -> BlockVector:
        z = x.blocks[0]
        w = g.prox(z, gamma)
        return BlockVector(layout, (w - 2.0 * (P_V @ w) + P_V @ z,))

    ops.append(BlockOperator(layout, full=s_prox))

    beta = np.zeros((n, 1))
    beta[:N, 0] = N / (2.0 * gamma * L_hat * n)
    beta[N, 0] = (1.0 - gamma * float(L_hat.sum()) / (2.0 * N)) / n
    star = np.ones((n, 1), dtype=bool)
    root = None
    if root_pair is not None:
        z_opt, subgrad = root_pair
        root = BlockVector(layout, (np.asarray(z_opt, float) + gamma * np.asarray(subgrad, float),))
    family = OperatorFamily(layout, ops, beta, star, mu=mu, known_root=root)

    p = np.zeros((n, 1))
    p[:N, 0] = L_hat / (2.0 * L_hat.sum())
    p[N, 0] = 0.5
    if variant == "saga":
        law = SamplingLaw(q=np.ones(1), p=p, rho=1.0)
        graph = TriggerGraph.star_into_last(n)
    elif variant == "svrg":
        law = SamplingLaw(q=np.ones(1), p=p, rho=1.0 / tau)
        graph = TriggerGraph.complete(n)
    else:
        raise ValueError("variant must be 'saga' or 'svrg'")
    sched = DelaySchedule.zero(m=1, n=n)
    steps = StepSizes.constant(0.9 * n / 8.0 if lam is None else lam)
    oracle = None if root is None else PointOracle(root, family.metric)
    return PresetBundle(
        name="lin-saga" if variant == "saga" else "lin-svrg",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=lambda x: g.prox(x.blocks[0], gamma),
        transport_target=transport_target,
        provenance=(
            "subspace-constrained composite aggregation: projected gradients "
            "through the prox plus a reflected-prox operator, Lipschitz-"
            "weighted sampling with the prox drawn half the time"
        ),
        extras={"gamma": gamma, "N": N},
    )


def _mean_block_basis(M: int) -> np.ndarray:
    """Orthonormal M x M matrix whose first row is the normalized all-ones."""
    base = np.eye(M)
    base[:, 0] = 1.0 / np.sqrt(M)
    Q, _ = np.linalg.qr(base)
    if Q[0, 0] < 0:
        Q = -Q
    return Q.T  # rows are the basis vectors; row 0 = ones/sqrt(M)


def build_super_saga(
    g_list,
    fs,
    lipschitz=None,
    variant: str = "saga",
    tau: int = 1,
    lam: float | None = None,
    root_pair=None,
    schedule: DelaySchedule | None = None,
):
    """Several proximable terms at once, with duals compressed to one copy.

    The duplicated space splits orthogonally into the consensus direction
    and its complement; at any root every operator value lies in the
    consensus block, so the complement's dual column is pinned to zero and
    the engine stores exactly one copy-sized dual per operator.  This
    compression is only sound when every block is updated each iteration
    under consistent reads, so the builder accepts only synchronous or
    consistent-read schedules and samples all blocks every iteration.

    The engine works in the rotated coordinates; ``extras['to_engine']``
    and ``extras['from_engine']`` convert between them and the stacked
    copies.  Note the two-block layout halves the engine's per-block step
    factor, so the engine step equals twice the per-copy relaxation.
    """
    from . import PresetBundle
    from .composite import build_prox_saga

    M = len(g_list)
    L = _max_lipschitz(fs, lipschitz)
    N = len(fs)
    n = N + 1
    gamma = M * N / float(L.sum())
    if M == 1:
        # the duplicated space collapses: one proxable term is exactly the
        # plain composite preset
        z_star = None if root_pair is None else np.asarray(root_pair[0], float)
        bundle = build_prox_saga(
            fs, g_list[0], lipschitz=L, gamma=gamma, z_star=z_star,
            variant=variant, tau=tau,
            lam=None if lam is None else lam / 2.0,
        )
        bundle.name = "super-saga" if variant == "saga" else "super-svrg"
        bundle.extras.update({
            "M": 1, "gamma": gamma,
            "to_engine": lambda stacked: (np.asarray(stacked, float).copy(),),
            "from_engine": lambda blocks: np.asarray(blocks[0], float).copy(),
            "lam_per_copy": bundle.steps.lo,
        })
        return bundle
    d1 = np.asarray(fs[0].grad(_probe_zero(fs[0]))).size
    Q = _mean_block_basis(M)

    def to_engine(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = stacked.reshape(M, d1)
        Y = Q @ X
        return Y[0].copy(), Y[1:].reshape(-1).copy()

    def from_engine(blocks) -> np.ndarray:
        Y = np.vstack([blocks[0][None, :], blocks[1].reshape(M - 1, d1)])
        return (Q.T @ Y).reshape(-1)

    layout = BlockLayout((d1, (M - 1) * d1))

    def proxed_copies(blocks):
        x = from_engine(blocks).reshape(M, d1)
        w = np.vstack([g_list[j].prox(x[j], gamma) for j in range(M)])
        return x, w

    def grad_val(blocks, i):
        _, w = proxed_copies(blocks)
        return (gamma / (N * M)) * fs[i].grad(w.mean(axis=0))

    ops = []
    for i in range(N):
        def full(xv: BlockVector, _i=i):
            gval = grad_val(xv.blocks, _i)
            # image lies in the consensus block: sqrt(M) * mean in row 0
            return BlockVector(layout, (np.sqrt(M) * gval, np.zeros((M - 1) * d1)))
        ops.append(BlockOperator(layout, full=full, zero_blocks=(1,)))

    def prox_op_full(xv: BlockVector) -> BlockVector:
        x, w = proxed_copies(xv.blocks)
        wbar = w.mean(axis=0)
        xbar = x.mean(axis=0)
        vals = w - 2.0 * wbar[None, :] + xbar[None, :]
        Y = Q @ vals
        return BlockVector(layout, (Y[0].copy(), Y[1:].reshape(-1).copy()))

    ops.append(BlockOperator(layout, full=prox_op_full))

    beta = np.zeros((n, 2))
    beta[:N, 0] = N * M / (2.0 * gamma * L * n)
    beta[N, :] = (1.0 - gamma * float(L.sum()) / (2.0 * N * M)) / n
    star = np.zeros((n, 2), dtype=bool)
    star[:, 0] = True
    root = None
    if root_pair is not None:
        z_opt, subgrads = root_pair
        stacked = np.concatenate(
            [np.asarray(z_opt, float) + gamma * np.asarray(u, float) for u in subgrads]
        )
        root = BlockVector(layout, to_engine(stacked))
    family = OperatorFamily(layout, ops, beta, star, known_root=root)

    p = np.zeros((n, 2))
    p[:N, :] = (L / (2.0 * L.sum()))[:, None]
    p[N, :] = 0.5
    rho = 1.0 if variant == "saga" else 1.0 / tau
    law = SamplingLaw(q=np.ones(2), p=p, rho=rho, block_mode="independent-bernoulli")
    graph = TriggerGraph.star_into_last(n) if variant == "saga" else TriggerGraph.complete(n)
    if schedule is None:
        schedule = DelaySchedule.zero(m=2, n=n)
    elif schedule.mode not in ("zero", "cyclic", "constant-max"):
        raise ValueError(
            "compressed duals need consistent reads; use zero/cyclic/constant-max"
        )
    if lam is None:
        lam = 2.0 * 0.9 * n / 8.0
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, family.metric)

    def transport(xv: BlockVector) -> np.ndarray:
        x, w = proxed_copies(xv.blocks)
        return w.mean(axis=0)

    return PresetBundle(
        name="super-saga" if variant == "saga" else "super-svrg",
        family=family, law=law, graph=graph, schedule=schedule, steps=steps,
        oracle=oracle,
        transport=transport,
        provenance=(
            "multi-prox composite aggregation on duplicated copies, rotated so "
            "the consensus direction is one block; complement duals are pinned "
            "to zero, compressing the table to one copy per operator"
        ),
        extras={
            "gamma": gamma, "M": M, "N": N,
            "to_engine": to_engine, "from_engine": from_engine,
            "basis": Q, "lam_per_copy": lam / 2.0,
        },
    )


def build_tropic(
    g_list,
    f,
    A_list,
    b,
    gammas,
    delta: float = 0.25,
    lam: float | None = None,
    known_root: BlockVector | None = None,
    transport_target=None,
):
    """Linearly coupled blockwise minimization with a multiplier block.

    One operator over M decision blocks plus one multiplier block; the
    analysis metric is the bordered form with the coupling maps in the
    border.  The three step-size inequalities are validated at
    construction.  ``f`` couples the decision blocks smoothly and must
    expose ``grad_block(blocks, j)`` and ``lipschitz`` (pass None for a
    pure prox/multiplier problem).
    """
    from . import PresetBundle

    M = len(g_list)
    A_list = [np.asarray(A, dtype=np.float64) for A in A_list]
    b = np.asarray(b, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.shape != (M + 1,) or np.any(gammas <= 0):
        raise ValueError("need M+1 positive step constants")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    dims = tuple(A.shape[1] for A in A_list) + (A_list[0].shape[0],)
    layout = BlockLayout(dims)

    coupling = gammas[M] * sum(
        gammas[j] * np.linalg.norm(A_list[j], 2) ** 2 for j in range(M)
    )
    if coupling > delta + 1e-12:
        raise ValueError(
            f"multiplier step too large: coupling {coupling:.3g} > delta {delta:.3g}"
        )
    sq = np.sqrt(delta)
    L = 0.0 if f is None else float(f.lipschitz)
    gmax = float(gammas[:M].max())
    if L > 0 and gmax > 2.0 * (1.0 - sq) / L + 1e-12:
        raise ValueError("decision-block steps too large for the smooth coupling")

    def multiplier_pressure(blocks):
        acc = -b.copy()
        for j in range(M):
            acc += A_list[j] @ blocks[j]
        return acc

    def s_block(xv: BlockVector, j: int) -> np.ndarray:
        blocks = xv.blocks
        if j == M:
            return -gammas[M] * multiplier_pressure(blocks)
        u = blocks[M] + 2.0 * gammas[M] * multiplier_pressure(blocks)
        v = blocks[j] - gammas[j] * (A_list[j].T @ u)
        if f is not None:
            v = v - gammas[j] * f.grad_block(blocks[:M], j)
        return blocks[j] - g_list[j].prox(v, gammas[j])

    op = BlockOperator(layout, block=s_block)
    metric = _bordered_metric(layout, M, [(j, A_list[j].T) for j in range(M)],
                              gammas, delta)

    if L > 0:
        beta = (L * gmax / (4.0 * gammas)).reshape(1, -1)
    else:
        beta = ((1.0 - sq) / gammas).reshape(1, -1)
    star = np.zeros((1, M + 1), dtype=bool)
    family = OperatorFamily(layout, [op], beta, star, metric=metric, known_root=known_root)

    law = SamplingLaw(
        q=np.full(M + 1, 1.0 / (M + 1)), p=np.ones((1, M + 1)), rho=1.0,
    )
    graph = TriggerGraph.self_loops(1)
    sched = DelaySchedule.zero(m=M + 1, n=1)
    if lam is None:
        lam = 0.9 * (L * gmax / (4.0 * (1.0 + sq))) if L > 0 else 0.9 * (1.0 - sq) / (1.0 + sq)
    else:
        cap = L * gmax / (4.0 * (1.0 + sq)) if L > 0 else (1.0 - sq) / (1.0 + sq)
        if lam > cap + 1e-12:
            raise ValueError(f"lam {lam} exceeds the admissible {cap}")
    steps = StepSizes.constant(lam)
    oracle = None if known_root is None else PointOracle(known_root, metric)
    return PresetBundle(
        name="tropic",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=lambda x: [blk.copy() for blk in x.blocks[:M]],
        transport_target=transport_target,
        provenance=(
            "linearly coupled blockwise minimization: per-block prox steps "
            "against an extrapolated multiplier, uniform single-block sampling, "
            "bordered analysis metric"
        ),
        extras={"delta": delta, "M": M, "L": L},
    )


def _bordered_metric(layout: BlockLayout, border: int, couplings, gammas, delta):
    """Metric of the primal-dual presets: identity blocks over the step
    constants, bordered in block ``border`` by the coupling maps.

    Each ``(j, C)`` in ``couplings`` puts ``C`` in block row ``j``, block
    column ``border``, and ``C.T`` in the mirrored position.
    """
    total = layout.total_dim
    offs = layout.offsets()
    P = np.zeros((total, total))
    for j in range(layout.m):
        a, bb = offs[j]
        P[a:bb, a:bb] = np.eye(layout.dims[j]) / gammas[j]
    a0, b0 = offs[border]
    for j, C in couplings:
        a, bb = offs[j]
        P[a:bb, a0:b0] = C
        P[a0:b0, a:bb] = C.T
    sq = np.sqrt(delta)
    return gram_metric(layout, P, m_lo=(1.0 - sq) / gammas, m_hi=(1.0 + sq) / gammas)


def build_prox_smart(
    g_list,
    A_list,
    gammas,
    delta: float = 0.25,
    lam: float | None = None,
    root_pair=None,
):
    """Sum of proximable terms through linear maps, fully prox-driven.

    Block 1 holds the decision variable, blocks 2..M hold conjugate-prox
    auxiliaries of the composed terms.  ``A_list`` maps the decision block
    into the domains of ``g_2 .. g_M``.
    """
    from . import PresetBundle

    M = len(g_list)
    A_list = [np.asarray(A, dtype=np.float64) for A in A_list]
    if len(A_list) != M - 1:
        raise ValueError("need one coupling map per composed term")
    gammas = np.asarray(gammas, dtype=np.float64)
    if gammas.shape != (M,) or np.any(gammas <= 0):
        raise ValueError("need M positive step constants")
    coupling = gammas[0] * sum(
        gammas[j] * np.linalg.norm(A_list[j - 1], 2) ** 2 for j in range(1, M)
    )
    if coupling > delta + 1e-12:
        raise ValueError("step constants violate the coupling budget")
    sq = np.sqrt(delta)
    d1 = A_list[0].shape[1]
    dims = (d1,) + tuple(A.shape[0] for A in A_list)
    layout = BlockLayout(dims)
    conj = [None] + [MoreauConjugate(g_list[j]) for j in range(1, M)]

    def bar_x1(blocks):
        acc = blocks[0].copy()
        for j in range(1, M):
            acc -= gammas[0] * (A_list[j - 1].T @ blocks[j])
        return g_list[0].prox(acc, gammas[0])

    def s_block(xv: BlockVector, j: int) -> np.ndarray:
        blocks = xv.blocks
        xb = bar_x1(blocks)
        if j == 0:
            return blocks[0] - xb
        v = blocks[j] + gammas[j] * (A_list[j - 1] @ (2.0 * xb - blocks[0]))
        return blocks[j] - conj[j].prox(v, gammas[j])

    op = BlockOperator(layout, block=s_block)
    metric = _bordered_metric(layout, 0, [(j, -A_list[j - 1]) for j in range(1, M)],
                              gammas, delta)
    beta = ((1.0 - sq) / gammas).reshape(1, -1)
    star = np.zeros((1, M), dtype=bool)
    root = None
    target = None
    if root_pair is not None:
        z_opt, subgrads = root_pair
        root = BlockVector(
            layout,
            (np.asarray(z_opt, float),) + tuple(np.asarray(s, float) for s in subgrads),
        )
        target = np.asarray(z_opt, float).copy()
    family = OperatorFamily(layout, [op], beta, star, metric=metric, known_root=root)
    law = SamplingLaw(q=np.full(M, 1.0 / M), p=np.ones((1, M)), rho=1.0)
    graph = TriggerGraph.self_loops(1)
    sched = DelaySchedule.zero(m=M, n=1)
    cap = (1.0 - sq) / (1.0 + sq)
    if lam is None:
        lam = 0.9 * cap
    elif lam > cap + 1e-12:
        raise ValueError(f"lam {lam} exceeds the admissible {cap}")
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, metric)
    return PresetBundle(
        name="prox-smart",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=lambda x: x.blocks[0].copy(),
        transport_target=target,
        provenance=(
            "prox-driven primal-dual splitting: decision block against "
            "conjugate-prox auxiliaries of the composed terms, uniform "
            "single-block sampling, bordered analysis metric"
        ),
        extras={"delta": delta, "M": M},
    )


def build_prox_smart_plus(
    g_list,
    fs,
    A_list,
    gamma1: float,
    gammas_aux,
    delta: float = 0.25,
    lipschitz=None,
    lam: float | None = None,
    root_pair=None,
):
    """Composed proximable terms plus a smooth finite sum.

    ``g_list`` are the composed terms g_2..g_M, ``A_list`` their coupling
    maps, ``fs`` the smooth terms.  Gradient operators live only in the
    decision block, so the dual table stores one decision-block column;
    the sampling law couples the block and operator draws (single-block
    mode with block-dependent conditionals).
    """
    from . import PresetBundle

    Mm1 = len(g_list)
    M = Mm1 + 1
    N = len(fs)
    n = N + 1
    L = _max_lipschitz(fs, lipschitz)
    A_list = [np.asarray(A, dtype=np.float64) for A in A_list]
    gammas = np.concatenate([[gamma1], np.asarray(gammas_aux, dtype=np.float64)])
    if gammas.shape != (M,) or np.any(gammas <= 0):
        raise ValueError("need M positive step constants")
    budget = gamma1 * (
        sum(gammas[j] * np.linalg.norm(A_list[j - 1], 2) ** 2 for j in range(1, M))
        + float(L.sum()) / (2.0 * N)
    )
    if budget > delta + 1e-12:
        raise ValueError("step constants violate the coupling-plus-smoothness budget")
    sq = np.sqrt(delta)
    d1 = A_list[0].shape[1]
    dims = (d1,) + tuple(A.shape[0] for A in A_list)
    layout = BlockLayout(dims)
    conj = [None] + [MoreauConjugate(g) for g in g_list]

    def hat_x1(blocks):
        acc = blocks[0].copy()
        for j in range(1, M):
            acc -= 2.0 * gamma1 * (A_list[j - 1].T @ blocks[j])
        return acc

    ops = []
    for i in range(N):
        def grad_block(xv: BlockVector, j, _i=i):
            if j != 0:
                return np.zeros(dims[j])
            return (gamma1 / N) * fs[_i].grad(hat_x1(xv.blocks))

        def grad_full(xv: BlockVector, _i=i):
            out = [np.zeros(d) for d in dims]
            out[0] = (gamma1 / N) * fs[_i].grad(hat_x1(xv.blocks))
            return BlockVector(layout, tuple(out))

        ops.append(
            BlockOperator(layout, full=grad_full, block=grad_block,
                          zero_blocks=range(1, M))
        )

    def last_block(xv: BlockVector, j):
        blocks = xv.blocks
        if j == 0:
            acc = np.zeros(d1)
            for l in range(1, M):
                acc += A_list[l - 1].T @ blocks[l]
            return gamma1 * acc
        v = blocks[j] + gammas[j] * (A_list[j - 1] @ hat_x1(blocks))
        return blocks[j] - conj[j].prox(v, gammas[j])

    ops.append(BlockOperator(layout, block=last_block))

    metric = _bordered_metric(layout, 0, [(j, -A_list[j - 1]) for j in range(1, M)],
                              gammas, delta)
    beta = np.zeros((n, M))
    beta[:N, 0] = N * (1.0 - sq) / (2.0 * n * gamma1 * gamma1 * L)
    beta[N, :] = (1.0 - sq) / (n * gammas)
    star = np.zeros((n, M), dtype=bool)
    star[:, 0] = True
    root = None
    target = None
    if root_pair is not None:
        z_hat, subgrads = root_pair
        z_hat = np.asarray(z_hat, dtype=np.float64)
        aux = [np.asarray(s, float) for s in subgrads]
        x1 = z_hat + 2.0 * gamma1 * sum(
            A_list[j - 1].T @ aux[j - 1] for j in range(1, M)
        )
        root = BlockVector(layout, (x1,) + tuple(aux))
        target = z_hat.copy()
    family = OperatorFamily(layout, ops, beta, star, metric=metric, known_root=root)

    c = gamma1 * float(L.sum()) / N
    q1 = 1.0 / ((M - 1) / c + 1.0)
    q = np.full(M, (1.0 - q1) / (M - 1))
    q[0] = q1
    p = np.zeros((n, M))
    p[:N, 0] = gamma1 * L / (N * (c + 1.0))
    p[N, 0] = 1.0 - p[:N, 0].sum()
    p[N, 1:] = 1.0
    law = SamplingLaw(q=q, p=p, rho=1.0, block_mode="single-block")
    graph = TriggerGraph.star_into_last(n)
    sched = DelaySchedule.zero(m=M, n=n)

    published = (
        n * (1.0 - sq) * M
        / (2.0 * (1.0 + sq - float(L.sum()) / (2.0 * sq * N)) * ((M - 1) / c + 1.0))
    )
    if lam is None:
        lam = published if published > 0 else 0.9 * weak_bound(family, law, 0, 0)
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, metric)

    def transport(xv: BlockVector) -> np.ndarray:
        return hat_x1(xv.blocks)

    return PresetBundle(
        name="prox-smart-plus",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=transport,
        transport_target=target,
        provenance=(
            "composite primal-dual splitting: smooth terms act on the corrected "
            "decision block, prox auxiliaries on the rest; block draw decides "
            "between gradient and prox operators"
        ),
        extras={"delta": delta, "M": M, "N": N, "published_lam": published},
    )


def build_mono(
    A_handle,
    B_list,
    lipschitz,
    gamma: float,
    mu_A: float,
    lam: float | None = None,
    rho: float = 1.0,
    root_hint=None,
    dim: int | None = None,
):
    """Strongly monotone inclusion with Lipschitz single-valued parts.

    Every sample evaluates the resolvent, so its dual refreshes on every
    draw (star trigger graph); the single-valued parts are drawn with
    probability inversely proportional to their coherence constants.
    """
    from . import PresetBundle

    L = np.asarray(lipschitz, dtype=np.float64)
    N = len(B_list)
    n = N + 1
    Lbar = float(L.mean())
    kappa_sq = (1.0 + gamma * gamma * Lbar * Lbar) / (1.0 + gamma * mu_A) ** 2
    if kappa_sq >= 1.0:
        raise ValueError(
            "resolvent step too large: the forward-backward map is not a "
            f"contraction (choose gamma < {2 * mu_A / max(Lbar**2 - mu_A**2, 1e-300):.3g})"
        )
    kappa = float(np.sqrt(kappa_sq))
    mu = (1.0 - kappa) / n
    if dim is None:
        dim = (
            np.asarray(root_hint).size if root_hint is not None
            else _infer_mono_dim(A_handle, B_list)
        )
    layout = BlockLayout((dim,))

    def resolve(z: np.ndarray) -> np.ndarray:
        return A_handle.resolvent(z, gamma)

    ops = []
    for i in range(N):
        def full(xv: BlockVector, _i=i):
            z = resolve(xv.blocks[0])
            return BlockVector(layout, ((gamma / N) * np.asarray(B_list[_i](z)),))
        ops.append(BlockOperator(layout, full=full))

    def last(xv: BlockVector) -> BlockVector:
        z = xv.blocks[0]
        return BlockVector(layout, (z - resolve(z),))

    ops.append(BlockOperator(layout, full=last))

    beta = np.zeros((n, 1))
    beta[:N, 0] = mu * N * N / (L * L * gamma * gamma * n)
    beta[N, 0] = mu / n
    star = np.ones((n, 1), dtype=bool)
    root = None
    if root_hint is not None:
        z_opt = np.asarray(root_hint, dtype=np.float64)
        Bbar = sum(np.asarray(B(z_opt)) for B in B_list) / N
        root = BlockVector(layout, (z_opt - gamma * Bbar,))
    family = OperatorFamily(layout, ops, beta, star, mu=mu, known_root=root)

    inv_beta = np.concatenate([L * L * gamma * gamma / (N * N), [1.0]])
    p = (inv_beta / inv_beta.sum()).reshape(-1, 1)
    law = SamplingLaw(q=np.ones(1), p=p, rho=rho)
    graph = TriggerGraph.star_into_last(n)
    sched = DelaySchedule.zero(m=1, n=n)
    if lam is None:
        lam = 0.9 * weak_bound(family, law, 0, 0)
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, family.metric)
    return PresetBundle(
        name="mono",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=lambda x: resolve(x.blocks[0]),
        transport_target=None if root_hint is None else np.asarray(root_hint, float),
        provenance=(
            "resolvent-plus-forward splitting for a strongly monotone "
            "inclusion: coherence-weighted sampling, resolvent dual refreshed "
            "by every draw"
        ),
        extras={"gamma": gamma, "mu": mu, "kappa": kappa, "N": N},
    )


def _infer_mono_dim(A_handle, B_list):
    G = getattr(A_handle, "G", None)
    if G is not None:
        return np.asarray(G).shape[0]
    raise ValueError("pass root_hint to fix the space dimension")


def build_saddle(
    g1,
    g2,
    coupling,
    f_list=(),
    h_list=(),
    gamma: float = 0.1,
    mu_g1: float = 0.0,
    mu_g2: float = 0.0,
    dim_w: int | None = None,
    dim_z: int | None = None,
    **kwargs,
):
    """Convex-concave saddle front end for the monotone-inclusion preset.

    The proxable parts enter the resolvent blockwise; the bilinear coupling
    and the smooth pairs split into Lipschitz single-valued operators (the
    coupling map gets its own operator).
    """
    from ..operators import SaddleProxMap

    Lmat = np.asarray(coupling, dtype=np.float64)
    dim_z_, dim_w_ = Lmat.shape
    dim_w = dim_w_ if dim_w is None else dim_w
    dim_z = dim_z_ if dim_z is None else dim_z
    A_handle = SaddleProxMap(g1, g2, dim_w)

    B_list = []
    lipschitz = []
    for f, h in zip(f_list, h_list):
        def Bi(v, _f=f, _h=h):
            w, z = v[:dim_w], v[dim_w:]
            return np.concatenate([_f.grad(w), _h.grad(z)])
        B_list.append(Bi)
        lipschitz.append(max(f.lipschitz, h.lipschitz))

    def Bcouple(v):
        w, z = v[:dim_w], v[dim_w:]
        return np.concatenate([Lmat.T @ z, -(Lmat @ w)])

    B_list.append(Bcouple)
    lipschitz.append(np.linalg.norm(Lmat, 2))
    mu_A = min(mu_g1, mu_g2)
    bundle = build_mono(A_handle, B_list, lipschitz, gamma, mu_A, **kwargs)
    bundle.name = "saddle"
    bundle.extras.update({"dim_w": dim_w, "dim_z": dim_z})
    return bundle
