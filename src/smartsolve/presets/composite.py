"""Composite and coordinate extensions of the incremental-gradient presets."""

from __future__ import annotations

import numpy as np

from ..blockspace import BlockLayout, BlockVector
from ..diagnostics import PointOracle
from ..engine import StepSizes
from ..operators import BlockOperator, OperatorFamily
from ..sampling import SamplingLaw, TriggerGraph
from ..schedule import DelaySchedule
from .classic import _max_lipschitz, _probe_zero


def build_prox_saga(
    fs,
    g,
    lipschitz=None,
    gamma: float | None = None,
    mu_f: float = 0.0,
    mu_g: float = 0.0,
    z_star=None,
    lam: float | None = None,
    variant: str = "saga",
    tau: int = 1,
):
    """Smooth-plus-proximable minimization via an extra prox operator.

    The gradient operators act through the prox of the nonsmooth term, and
    one additional operator carries the prox residual itself.  Every sample
    triggers a refresh of that extra dual (star trigger graph), because its
    evaluation falls out of the primal step for free.  A root transports to
    a solution of the composite problem through the prox.
    """
    from . import PresetBundle

    L = _max_lipschitz(fs, lipschitz)
    Lmax = float(L.max())
    N = len(fs)
    if gamma is None:
        gamma = 1.0 / Lmax
    if gamma > 2.0 / Lmax + 1e-15:
        raise ValueError("gamma must satisfy gamma <= 2/L")
    dim = np.asarray(fs[0].grad(_probe_zero(fs[0]))).size
    layout = BlockLayout((dim,))

    def grad_through_prox(x: BlockVector, i: int) -> np.ndarray:
        w = g.prox(x.blocks[0], gamma)
        return (gamma / N) * fs[i].grad(w)

    ops = []
    for i in range(N):
        def block(x, j, _i=i):
            return grad_through_prox(x, _i)
        ops.append(BlockOperator(layout, block=block))

    def prox_residual(x: BlockVector, j: int) -> np.ndarray:
        z = x.blocks[0]
        return z - g.prox(z, gamma)

    ops.append(BlockOperator(layout, block=prox_residual))
    n = N + 1

    beta = np.zeros((n, 1))
    beta[:N, 0] = N / (2.0 * gamma * L * (n))
    beta[N, 0] = (1.0 - gamma * float(L.mean()) / 2.0) / n
    star = np.ones((n, 1), dtype=bool)
    mu = None
    if mu_f or mu_g:
        contraction = np.sqrt(max(1.0 - 2.0 * gamma * mu_f + gamma**2 * Lmax * mu_f, 0.0))
        mu = (1.0 + gamma * mu_g - contraction) / (n * (1.0 + gamma * mu_g))
    root = None
    target = None
    if z_star is not None:
        z_star = np.asarray(z_star, dtype=np.float64)
        mean_grad = sum(f.grad(z_star) for f in fs) / N
        root = BlockVector(layout, (z_star - gamma * mean_grad,))
        target = z_star.copy()
    family = OperatorFamily(layout, ops, beta, star, mu=mu, known_root=root)

    p = np.zeros((n, 1))
    p[:N, 0] = 1.0 / (2.0 * N)
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
    if lam is None:
        lam = 0.9 * (n / 8.0)
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, family.metric)
    return PresetBundle(
        name="prox-saga" if variant == "saga" else "prox-svrg",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=lambda x: g.prox(x.blocks[0], gamma),
        transport_target=target,
        provenance=(
            "composite aggregation: scaled gradients composed with the prox of "
            "the nonsmooth term plus one prox-residual operator; every sample "
            "triggers the residual dual"
        ),
        extras={"gamma": gamma, "L": Lmax, "N": N},
    )


def build_coordinate_saga(
    fs,
    layout: BlockLayout,
    lipschitz_blocks,
    sparsity: int | None = None,
    mu: float | None = None,
    x_star: BlockVector | None = None,
    lam: float | None = None,
):
    """Partial-derivative variant: one block of one term per iteration.

    ``fs`` expose ``grad_block(blocks, j)``; ``lipschitz_blocks`` is the
    (N, m) matrix of coordinatewise gradient Lipschitz constants, and
    ``sparsity`` bounds how many blocks each term's gradient actually
    couples (1 for blockwise-separable terms).
    """
    from . import PresetBundle

    N, m = len(fs), layout.m
    Lb = np.asarray(lipschitz_blocks, dtype=np.float64)
    if Lb.shape != (N, m):
        raise ValueError(f"lipschitz_blocks must be ({N}, {m})")
    s = int(sparsity) if sparsity is not None else m

    ops = []
    for f in fs:
        def block(x, j, _f=f):
            return _f.grad_block(x.blocks, j)

        ops.append(BlockOperator(layout, block=block))

    beta = 1.0 / (N * s * Lb)
    star = np.ones((N, m), dtype=bool)
    family = OperatorFamily(layout, ops, beta, star, mu=mu, known_root=x_star)
    law = SamplingLaw(
        q=np.full(m, 1.0 / m), p=np.full((N, m), 1.0 / N), rho=1.0,
        block_mode="single-block",
    )
    graph = TriggerGraph.self_loops(N)
    sched = DelaySchedule.zero(m=m, n=N)
    Lmax = float(Lb.max())
    if lam is None:
        if mu is not None:
            lam = m / (4.0 * Lmax * m + mu * N)
        else:
            lam = 0.9 / (2.0 * Lmax)
    steps = StepSizes.constant(lam)
    oracle = None if x_star is None else PointOracle(x_star, family.metric)
    return PresetBundle(
        name="coordinate-saga",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        provenance=(
            "blockwise incremental aggregated gradients: uniform block and term "
            "sampling with a per-block dual table"
        ),
        extras={
            "N": N, "m": m, "L": Lmax,
            "rate": None if mu is None else 1.0 - mu / (4.0 * Lmax * m + mu * N),
        },
    )


def build_minibatch(
    fs,
    mode: str,
    lipschitz=None,
    batches=None,
    fan_in: int | None = None,
    tau: int = 4,
    mu: float | None = None,
    x_star=None,
    lam: float | None = None,
):
    """Mini-batching, either by regrouping terms or by widening triggers.

    ``pre`` regroups the terms by the given batches (terms may repeat
    across batches; each is downweighted by its multiplicity) and runs the
    snapshot-refresh configuration over the batch gradients, which needs
    no per-batch dual memory beyond the shared snapshot.  ``post`` keeps
    the original terms and only widens the trigger graph so that each dual
    is refreshed by ``fan_in`` different samples.
    """
    from . import PresetBundle
    from .classic import build_saga

    L = _max_lipschitz(fs, lipschitz)
    N = len(fs)
    if mode == "post":
        if fan_in is None:
            raise ValueError("post mode needs fan_in")
        bundle = build_saga(fs, lipschitz=L, mu=mu, x_star=x_star, lam=lam)
        graph = TriggerGraph.ring_into(N, fan_in)
        rate = None
        if mu is not None:
            Lmax = float(L.max())
            lam_rate = 1.0 / (4.0 * Lmax + 8.0 * mu * N / fan_in)
            rate = 1.0 - mu / (4.0 * Lmax + 8.0 * mu * N / fan_in)
            if lam is None:
                bundle.steps = StepSizes.constant(lam_rate)
        bundle.name = "minibatch-post"
        bundle.graph = graph
        bundle.provenance = (
            "incremental aggregated gradients with a widened trigger graph: "
            f"each dual is refreshed by {fan_in} different samples"
        )
        bundle.extras.update({"fan_in": fan_in, "rate": rate})
        return bundle
    if mode != "pre":
        raise ValueError("mode must be 'pre' or 'post'")
    if batches is None:
        raise ValueError("pre mode needs the batch list")

    multiplicity = np.zeros(N)
    for batch in batches:
        for i in batch:
            multiplicity[i] += 1
    if np.any(multiplicity == 0):
        raise ValueError("every term must appear in at least one batch")
    nb = len(batches)
    dim = np.asarray(fs[0].grad(_probe_zero(fs[0]))).size
    layout = BlockLayout((dim,))

    class BatchTerm:
        # (nb/N) * sum_{l in B} f_l / multiplicity_l, so the batch average
        # recovers the original objective's gradient
        def __init__(self, batch):
            self.batch = list(batch)
            self.dim = dim
            self.lipschitz = (nb / N) * sum(L[l] / multiplicity[l] for l in self.batch)

        def grad(self, z):
            acc = np.zeros(dim)
            for l in self.batch:
                acc += fs[l].grad(z) / multiplicity[l]
            return (nb / N) * acc

    terms = [BatchTerm(b) for b in batches]
    from .classic import build_svrg

    bundle = build_svrg(
        terms, tau=tau, mode="avg",
        lipschitz=[t.lipschitz for t in terms],
        mu=mu, x_star=x_star, lam=lam,
    )
    bundle.name = "minibatch-pre"
    bundle.provenance = (
        "regrouped-term variance reduction: batch gradients with snapshot "
        "duals refreshed with probability 1/tau"
    )
    bundle.extras.update({"batches": len(batches)})
    return bundle
