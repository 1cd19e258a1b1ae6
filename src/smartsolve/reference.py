"""Hand-coded update rules used as equivalence oracles for the engine.

Each function here implements one published update formula directly, with
its own state and no engine machinery: these are the independent sides of
the engine-vs-clone equivalence checks.  They share the sampling
``draw_stream`` so both sides consume one rng stream identically; everything
downstream of the draw is written out by hand.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .engine import RESUM_EVERY
from .sampling import SamplingLaw, TriggerGraph, draw_stream

__all__ = [
    "saga_clone",
    "svrg_avg_clone",
    "svrg_sched_clone",
    "finito_clone",
    "sdca_clone",
    "kaczmarz_clone",
    "super_saga_compressed",
]


def saga_clone(fs, x0, lam, law: SamplingLaw, rng, iters: int):
    """x <- x - lam (grad_i(x) - y_i + mean(y)); y_i <- grad_i(x)."""
    x = np.asarray(x0, dtype=np.float64).copy()
    N = len(fs)
    y = np.array([f.grad(x) for f in fs])
    ysum = np.sum(y, axis=0)
    out = [x.copy()]
    for k, (_, i, _) in enumerate(islice(draw_stream(law, rng), iters)):
        g = fs[i].grad(x)
        a = 1.0 / (N * law.p[i, 0])
        x = x - lam * (a * g - a * y[i] + ysum / N)
        ysum = ysum - y[i] + g
        y[i] = g
        if (k + 1) % RESUM_EVERY == 0:
            ysum = np.sum(y, axis=0)
        out.append(x.copy())
    return out


def svrg_avg_clone(fs, x0, lam, law: SamplingLaw, rng, iters: int):
    """Primal step as above; with probability rho a new full-gradient
    snapshot is taken at the iterate the step started from."""
    x = np.asarray(x0, dtype=np.float64).copy()
    N = len(fs)
    y = np.array([f.grad(x) for f in fs])
    ysum = np.sum(y, axis=0)
    out = [x.copy()]
    for _, i, eps in islice(draw_stream(law, rng), iters):
        g = fs[i].grad(x)
        x_prev = x
        x = x - lam * (g - y[i] + ysum / N)
        if eps:
            y = np.array([f.grad(x_prev) for f in fs])
            ysum = np.sum(y, axis=0)
        out.append(x.copy())
    return out


def svrg_sched_clone(fs, x0, lam, tau, law: SamplingLaw, rng, iters: int):
    """SVRG with a full-gradient snapshot every ``tau + 1`` iterations
    (Johnson & Zhang 2013).

    At each iteration k with ``k % (tau + 1) == 0`` the snapshot is taken at
    the iterate the previous step started from (``x0`` when k = 0).  That is
    the dual table the engine, which refreshes every iteration, reads through
    its cyclic delay.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    x_prev = x
    N = len(fs)
    out = [x.copy()]
    for k, (_, i, _) in enumerate(islice(draw_stream(law, rng), iters)):
        if k % (tau + 1) == 0:
            y = np.array([f.grad(x_prev) for f in fs])
            ysum = np.sum(y, axis=0)
        g = fs[i].grad(x)
        x_prev = x
        x = x - lam * (g - y[i] + ysum / N)
        out.append(x.copy())
    return out


def finito_clone(fs, x0_copies, lam, gamma, law: SamplingLaw, rng, iters: int):
    """Sampled copy moves to the average of gradient-corrected copies.

    ``C[l + 1]`` holds the corrected copy ``X[l] - gamma grad f_l(X[l])``;
    only the row of the copy that moved is recomputed.  ``C[0]`` stays zero,
    so the last prefix sum is the running sum ``0 + C[1] + ... + C[N]``.
    """
    X = np.asarray(x0_copies, dtype=np.float64).copy()  # (N, d)
    N = X.shape[0]
    C = np.zeros((N + 1, X.shape[1]))
    for l in range(N):
        C[l + 1] = X[l] - gamma * fs[l].grad(X[l])
    out = [X.copy()]
    for blocks, _, _ in islice(draw_stream(law, rng), iters):
        j = blocks[0]
        corrected = np.add.accumulate(C, axis=0)[-1]
        X[j] = (1.0 - lam) * X[j] + (lam / N) * corrected
        C[j + 1] = X[j] - gamma * fs[j].grad(X[j])
        out.append(X.copy())
    return out


def sdca_clone(fs, x0_copies, lam, mu0, law: SamplingLaw, rng, iters: int):
    """Sampled dual coordinate takes a conjugate-prox step against the sum."""
    X = np.asarray(x0_copies, dtype=np.float64).copy()
    N = X.shape[0]
    gamma = mu0 * N
    out = [X.copy()]
    for blocks, _, _ in islice(draw_stream(law, rng), iters):
        j = blocks[0]
        v = X[j] - X.sum(axis=0)
        # prox of f_j^*(-.) at v via the conjugate identity
        target = v + gamma * fs[j].prox(-v / gamma, 1.0 / gamma)
        X[j] = X[j] - lam * (X[j] - target)
        out.append(X.copy())
    return out


def kaczmarz_clone(A, b, x0, lam, law: SamplingLaw, rng, iters: int):
    """x <- x + lam (b_i - <a_i, x>) a_i on normalized rows."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x0, dtype=np.float64).copy()
    out = [x.copy()]
    for _, i, _ in islice(draw_stream(law, rng), iters):
        x = x + lam * (b[i] - float(A[i] @ x)) * A[i]
        out.append(x.copy())
    return out


def super_saga_compressed(
    g_list, fs, gamma, lam, law: SamplingLaw, graph: TriggerGraph, rng,
    x0_copies, iters: int,
):
    """Multi-prox aggregation with one copy-sized dual per operator.

    Implements the compressed form directly on the stacked copies:
    per-copy relaxation ``lam`` (half the two-block engine step), duals
    ``ybar_i`` living in a single copy of the decision space.
    """
    X = np.asarray(x0_copies, dtype=np.float64).copy()  # (M, d1)
    M, d1 = X.shape
    N = len(fs)
    n = N + 1
    W = np.vstack([g_list[j].prox(X[j], gamma) for j in range(M)])
    ybar = np.zeros((n, d1))
    for i in range(N):
        ybar[i] = (gamma / (M * N)) * fs[i].grad(W.mean(axis=0))
    ybar[N] = (X - W).mean(axis=0)
    ysum = np.sum(ybar, axis=0)
    out = [X.copy()]
    for _, i, eps in islice(draw_stream(law, rng), iters):
        p_i = law.p[i, 0]
        wbar = W.mean(axis=0)
        if i < N:
            incr = (
                (gamma / (M * N * n * p_i)) * fs[i].grad(wbar)
                - ybar[i] / (n * p_i)
                + ysum / n
            )
            Xn = X - lam * incr[None, :]
        else:
            pressure = (2.0 * W - X).mean(axis=0)
            incr = (W - pressure[None, :]) / (n * p_i) - (
                ybar[N] / (n * p_i) - ysum / n
            )[None, :]
            Xn = X - lam * incr
        if eps:
            for t in graph.triggered_by(i):
                if t < N:
                    val = (gamma / (M * N)) * fs[t].grad(wbar)
                else:
                    val = (X - W).mean(axis=0)
                ysum = ysum - ybar[t] + val
                ybar[t] = val
        X = Xn
        W = np.vstack([g_list[j].prox(X[j], gamma) for j in range(M)])
        out.append(X.copy())
    return out
