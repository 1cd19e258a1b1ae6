"""Classical incremental methods expressed as engine configurations.

Each builder fixes the footnote-level parameters of the corresponding
update rule: operator count, block structure, sampling marginals and
conditionals, dual-update probability, trigger graph, and dual
initialization.  Coherence constants follow the per-term cocoercivity of
the operators (normalized so they are valid in the aggregated inequality,
which is what the step-size formulas consume).
"""

from __future__ import annotations

from itertools import compress
from operator import is_not

import numpy as np

from ..blockspace import BlockLayout, BlockVector, product_metric
from ..diagnostics import AffineOracle, PointOracle
from ..engine import StepSizes
from ..operators import BlockOperator, OperatorFamily, gradient_op, subgradient_projector
from ..sampling import SamplingLaw, TriggerGraph, importance_law
from ..schedule import DelaySchedule
from ..stepsize import table1_preset


def _max_lipschitz(fs, lipschitz=None):
    if lipschitz is not None:
        return np.asarray(lipschitz, dtype=np.float64)
    return np.array([f.lipschitz for f in fs], dtype=np.float64)


def build_saga(
    fs,
    lipschitz=None,
    mu: float | None = None,
    x_star=None,
    importance: bool = False,
    lam: float | None = None,
    rho: float = 1.0,
):
    """Uniform (or importance-weighted) incremental gradient aggregation.

    One gradient per iteration, one dual refreshed per iteration
    (disconnected trigger graph), duals initialized to the gradients at
    the start point.
    """
    from . import PresetBundle

    L = _max_lipschitz(fs, lipschitz)
    N = len(fs)
    dim = np.asarray(fs[0].grad(_probe_zero(fs[0]))).size
    layout = BlockLayout((dim,))
    ops = [gradient_op(f, Li, layout) for f, Li in zip(fs, L)]
    beta = (1.0 / (N * L)).reshape(-1, 1)
    star = np.ones((N, 1), dtype=bool)
    root = None if x_star is None else BlockVector(layout, (np.asarray(x_star, float),))
    family = OperatorFamily(layout, ops, beta, star, metric=product_metric(layout),
                            mu=mu, known_root=root)
    if importance:
        law = importance_law(L, rho)
    else:
        p = np.full((N, 1), 1.0 / N)
        law = SamplingLaw(q=np.ones(1), p=p, rho=rho, block_mode="single-block")
    graph = TriggerGraph.self_loops(N)
    sched = DelaySchedule.zero(m=1, n=N)
    L_eff = float(L.mean() if importance else L.max())
    if lam is None:
        if mu is not None:
            lam = table1_preset("SAGA", L=L_eff, mu=mu, N=N)["best"]
        else:
            lam = 0.9 / (2.0 * L_eff)
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, family.metric)
    mode = "importance-weighted" if importance else "uniform"
    return PresetBundle(
        name="saga",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        provenance=(
            f"incremental aggregated gradients, {mode} sampling, "
            "self-loop trigger graph, dual coin always on"
        ),
        extras={"L": L_eff, "N": N},
    )


def build_svrg(
    fs,
    tau: int,
    mode: str = "avg",
    lipschitz=None,
    mu: float | None = None,
    x_star=None,
    lam: float | None = None,
):
    """Variance reduction with a shared snapshot gradient.

    ``avg`` refreshes the whole dual table with probability 1/tau
    (complete trigger graph); ``scheduled`` reads it through a cyclic delay
    of period tau + 1, so the table actually used advances once per cycle.
    Refreshes are computed only for dual states that are read: the engine
    skips the unread ones, so ``scheduled`` evaluates all gradients once
    per cycle, as SVRG takes one full gradient per epoch.
    """
    from . import PresetBundle

    if mode not in ("avg", "scheduled"):
        raise ValueError("mode must be 'avg' or 'scheduled'")
    if tau < 1:
        raise ValueError("refresh period must be >= 1")
    L = _max_lipschitz(fs, lipschitz)
    N = len(fs)
    dim = np.asarray(fs[0].grad(_probe_zero(fs[0]))).size
    layout = BlockLayout((dim,))
    ops = [gradient_op(f, Li, layout) for f, Li in zip(fs, L)]
    beta = (1.0 / (N * L)).reshape(-1, 1)
    star = np.ones((N, 1), dtype=bool)
    root = None if x_star is None else BlockVector(layout, (np.asarray(x_star, float),))
    family = OperatorFamily(layout, ops, beta, star, mu=mu, known_root=root)
    graph = TriggerGraph.complete(N)
    p = np.full((N, 1), 1.0 / N)
    L_eff = float(L.max())
    if mode == "avg":
        law = SamplingLaw(q=np.ones(1), p=p, rho=1.0 / tau)
        sched = DelaySchedule.zero(m=1, n=N)
        default = (
            table1_preset("SVRG-avg", L=L_eff, mu=mu, tau=tau)["best"]
            if mu is not None else 0.9 / (2.0 * L_eff)
        )
    else:
        law = SamplingLaw(q=np.ones(1), p=p, rho=1.0)
        sched = DelaySchedule(tau_p=0, tau_d=tau, mode="cyclic", m=1, n=N)
        default = (
            table1_preset("SVRG-sched", L=L_eff, mu=mu, tau=tau)["best"]
            if mu is not None else 0.9 / ((tau + 2.0) * L_eff)
        )
    steps = StepSizes.constant(default if lam is None else lam)
    oracle = None if root is None else PointOracle(root, family.metric)
    return PresetBundle(
        name=f"svrg-{mode}",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        provenance=(
            "variance-reduced gradients with snapshot duals, complete trigger "
            + ("graph, refresh coin 1/tau" if mode == "avg"
               else "graph, cyclic dual-read delay of period tau+1")
        ),
        extras={"tau": tau, "L": L_eff, "N": N},
    )


def _row_sum(N: int, d: int, row):
    """Sum over ``l`` of ``row(l, blocks[l])``, recomputing only moved rows.

    Row ``l + 1`` of the table holds ``row(l, sources[l])``; a row is
    recomputed when its block array is not ``sources[l]``, matched by
    identity (blocks are never written in place).  Row 0 stays zero, so the
    prefix sum of the rows starts at +0.0 and runs in row order, giving the
    bits of a plain running sum (``np.add.reduce`` would sum one-dimensional
    rows pairwise).  The ``(sources, table, sum)`` triple is replaced whole,
    never changed, so concurrent evaluations each use a consistent triple,
    and a call with the very tuple of the last one returns its sum at once,
    which keeps a whole-image evaluation at O(N).
    """
    cached = ((None,) * N, np.zeros((N + 1, d)), None)

    def row_sum(blocks: tuple) -> np.ndarray:
        nonlocal cached
        sources, table, total = cached
        if blocks is sources:
            return total
        # the rows whose block object is not the one they were made from
        moved = list(compress(range(N), map(is_not, blocks, sources)))
        if moved:
            table = table.copy()
            for l in moved:
                table[l + 1] = row(l, blocks[l])
            total = np.add.accumulate(table, axis=0)[-1]
        cached = (blocks, table, total)
        return total

    return row_sum


def build_finito(
    fs,
    gamma: float | None = None,
    lipschitz=None,
    mu_hat: float | None = None,
    x0_star=None,
    lam: float | None = None,
):
    """Duplicated-variable aggregation: one operator, one block per term.

    The space carries one copy of the decision variable per function; the
    sole operator moves a sampled copy toward the average of the
    gradient-corrected copies.  All operator values vanish at roots, so
    the dual table is empty.

    As in the published method, the corrected copies
    ``x_l - gamma grad f_l(x_l)`` live in a table that an evaluation
    updates only where a copy moved (see ``_row_sum``).
    """
    from . import PresetBundle

    L = _max_lipschitz(fs, lipschitz)
    Lmax = float(L.max())
    N = len(fs)
    if gamma is None:
        gamma = 1.0 / Lmax
    if gamma > 2.0 / Lmax + 1e-15:
        raise ValueError(f"gamma must satisfy gamma <= 2/L = {2.0 / Lmax}")
    d0 = np.asarray(fs[0].grad(_probe_zero(fs[0]))).size
    layout = BlockLayout((d0,) * N)

    corrected_sum = _row_sum(N, d0, lambda l, xl: xl - gamma * fs[l].grad(xl))

    def block(x: BlockVector, j: int) -> np.ndarray:
        return x.blocks[j] - corrected_sum(x.blocks) / N

    op = BlockOperator(layout, block=block)
    beta = np.full((1, N), gamma * Lmax / 4.0)
    star = np.zeros((1, N), dtype=bool)
    mu = None
    if mu_hat is not None:
        mu = 1.0 - np.sqrt(1.0 - 2.0 * gamma * mu_hat + gamma * gamma * mu_hat * Lmax)
    root = None
    if x0_star is not None:
        x0_star = np.asarray(x0_star, dtype=np.float64)
        root = BlockVector(layout, tuple(x0_star.copy() for _ in range(N)))
    family = OperatorFamily(layout, [op], beta, star, mu=mu, known_root=root)
    law = SamplingLaw(q=np.full(N, 1.0 / N), p=np.ones((1, N)), rho=1.0)
    graph = TriggerGraph.self_loops(1)
    sched = DelaySchedule.zero(m=N, n=1)
    if lam is None:
        lam = 0.9 * gamma * Lmax / 4.0
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, family.metric)
    return PresetBundle(
        name="finito",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=lambda x: x.blocks[0].copy(),
        transport_target=None if x0_star is None else x0_star.copy(),
        provenance=(
            "duplicated-variable incremental method: sampled copy moves to the "
            "average gradient-corrected copy; single operator, zero duals"
        ),
        extras={"gamma": gamma, "L": Lmax, "N": N},
    )


def build_sdca(
    fs,
    mu0: float,
    lipschitz=None,
    z_star=None,
    lam: float | None = None,
):
    """Dual coordinate ascent as a forward-backward sweep on duplicated duals.

    Works on one dual vector per term; a sampled coordinate takes a
    conjugate-prox step against the sum of all coordinates.  The sole
    operator vanishes at roots, so no duals are stored.  The recovered
    primal point is ``sum_j x_j / (mu0 N)``.
    """
    from . import PresetBundle

    L = _max_lipschitz(fs, lipschitz)
    Lmax = float(L.max())
    N = len(fs)
    if mu0 <= 0:
        raise ValueError("the quadratic regularization weight must be positive")
    d0 = np.asarray(fs[0].grad(_probe_zero(fs[0]))).size
    layout = BlockLayout((d0,) * N)
    gamma = mu0 * N

    def backward(j: int, v: np.ndarray) -> np.ndarray:
        # prox of h_j = f_j^*(-.) via prox_{gamma f_j^*}(v) = -prox(-v)
        conj = fs[j].conjugate_prox if hasattr(fs[j], "conjugate_prox") else None
        if conj is None:
            raise ValueError("sdca needs terms exposing conjugate_prox")
        return -conj(-v, gamma)

    running_sum = _row_sum(N, d0, lambda l, xl: xl)

    def block(x: BlockVector, j: int) -> np.ndarray:
        return x.blocks[j] - backward(j, x.blocks[j] - running_sum(x.blocks))

    op = BlockOperator(layout, block=block)
    beta = np.full((1, N), 0.75)
    star = np.zeros((1, N), dtype=bool)
    mu = mu0 * N / (mu0 * N + Lmax)
    root = None
    target = None
    if z_star is not None:
        z_star = np.asarray(z_star, dtype=np.float64)
        root = BlockVector(layout, tuple(-f.grad(z_star) for f in fs))
        target = z_star.copy()
    family = OperatorFamily(layout, [op], beta, star, mu=mu, known_root=root)
    law = SamplingLaw(q=np.full(N, 1.0 / N), p=np.ones((1, N)), rho=1.0)
    graph = TriggerGraph.self_loops(1)
    sched = DelaySchedule.zero(m=N, n=1)
    if lam is None:
        lam = table1_preset("SDCA", L=Lmax, mu0=mu0, N=N)["best"]
    steps = StepSizes.constant(lam)
    oracle = None if root is None else PointOracle(root, family.metric)

    def recover_primal(x: BlockVector) -> np.ndarray:
        return sum(x.blocks) / (mu0 * N)

    return PresetBundle(
        name="sdca",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        transport=recover_primal,
        transport_target=target,
        provenance=(
            "dual coordinate ascent: sampled coordinate takes a conjugate-prox "
            "step against the coordinate sum; single operator, zero duals"
        ),
        extras={"mu0": mu0, "L": Lmax, "N": N},
    )


def build_projection(
    sets=(),
    functions=(),
    dim: int | None = None,
    mu: float | None = None,
    feasible_point=None,
    lam: float = 0.5,
):
    """Randomized projections/subgradient projections for feasibility.

    ``sets`` are projectable handles (``.project``); ``functions`` are
    ``(value, subgradient)`` pairs for sublevel-set constraints.  All
    operator values vanish on the intersection, so no duals are stored.
    """
    from . import PresetBundle

    if dim is None:
        if feasible_point is None:
            raise ValueError("pass dim or a feasible point")
        dim = np.asarray(feasible_point).size
    layout = BlockLayout((dim,))
    ops = []
    for c in sets:
        def block(x, j, _c=c):
            z = x.blocks[0]
            return z - _c.project(z)
        ops.append(BlockOperator(layout, block=block))
    for fv, fg in functions:
        ops.append(subgradient_projector(fv, fg, layout))
    N = len(ops)
    if N == 0:
        raise ValueError("need at least one set or function")
    beta = np.full((N, 1), 1.0 / N)
    star = np.zeros((N, 1), dtype=bool)
    root = None
    if feasible_point is not None:
        root = BlockVector(layout, (np.asarray(feasible_point, float),))
    family = OperatorFamily(layout, ops, beta, star, mu=mu, known_root=root)
    law = SamplingLaw(q=np.ones(1), p=np.full((N, 1), 1.0 / N), rho=1.0)
    graph = TriggerGraph.self_loops(N)
    sched = DelaySchedule.zero(m=1, n=N)
    steps = StepSizes.constant(lam)
    return PresetBundle(
        name="projection",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        provenance=(
            "randomized alternating projections with relaxed subgradient "
            "projectors for functional constraints; zero duals"
        ),
        extras={"N": N},
    )


def build_kaczmarz(A, b, lam: float = 0.5, x0_hint=None):
    """Randomized row-action solver for a consistent linear system.

    Rows are normalized at construction (right-hand side rescaled to
    match); a sampled row projects the iterate onto its hyperplane,
    relaxed by the step size.
    """
    from . import PresetBundle

    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    N, dim = A.shape
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("zero rows are not allowed")
    An = A / norms[:, None]
    bn = b / norms
    x_ln = np.linalg.pinv(An) @ bn
    if np.linalg.norm(An @ x_ln - bn) > 1e-8 * max(1.0, np.linalg.norm(bn)):
        raise ValueError("system is not consistent")
    layout = BlockLayout((dim,))
    ops = []
    for i in range(N):
        def block(x, j, _a=An[i], _b=bn[i]):
            return (float(_a @ x.blocks[0]) - _b) * _a
        ops.append(BlockOperator(layout, block=block))
    beta = np.full((N, 1), 1.0 / N)
    star = np.zeros((N, 1), dtype=bool)
    sigma_min = np.linalg.svd(An, compute_uv=False)[-1]
    inv_norm = 1.0 / sigma_min if sigma_min > 0 else np.inf
    mu = None if not np.isfinite(inv_norm) else sigma_min**2 / N
    root = BlockVector(layout, (x_ln,))
    family = OperatorFamily(layout, ops, beta, star, mu=mu, known_root=root)
    law = SamplingLaw(q=np.ones(1), p=np.full((N, 1), 1.0 / N), rho=1.0)
    graph = TriggerGraph.self_loops(N)
    sched = DelaySchedule.zero(m=1, n=N)
    steps = StepSizes.constant(lam)
    oracle = AffineOracle(An, bn, layout)
    return PresetBundle(
        name="kaczmarz",
        family=family, law=law, graph=graph, schedule=sched, steps=steps,
        oracle=oracle,
        provenance=(
            "randomized row projections onto the hyperplanes of a normalized "
            "consistent linear system; zero duals"
        ),
        extras={"N": N, "inv_norm": float(inv_norm), "A": An, "b": bn},
    )


def _probe_zero(f):
    dim = getattr(f, "dim", None)
    if dim is not None:
        return np.zeros(int(dim))
    c = getattr(f, "c", None)
    if c is not None:
        return np.zeros(np.asarray(c).size)
    a = getattr(f, "a", None)
    if a is not None and not np.isscalar(a):
        return np.zeros(np.asarray(a).size)
    A = getattr(f, "A", None)
    if A is not None:
        return np.zeros(np.asarray(A).shape[1])
    raise ValueError("cannot infer the domain dimension of the smooth term")
