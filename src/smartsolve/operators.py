"""Operators on the block space and the families the engine iterates on.

A family bundles ``n`` maps ``S_1, ..., S_n`` together with the constants
that drive step sizes: the quasi-cocoercivity matrix ``beta`` (one entry
per operator/block pair), the zero pattern of operator values at a root
(which lets dual storage be pinned to zero), the metric the analysis uses
on the total space, and, when known, the essential strong quasi-monotonicity
modulus ``mu`` and a root.

The verifiers at the bottom turn the two structural inequalities into
randomized checks against a known root: the coherence condition

    sum_ij beta[i][j] * |(S_i(x))_j - (S_i(x*))_j|_j^2  <=  <S(x), x - x*>

and the quasi-monotonicity lower bound

    <S(x), x - P(x)>  >=  mu * |x - P(x)|^2

with all total-space inner products taken in the family metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockspace import (
    BlockLayout,
    BlockVector,
    DimensionError,
    Metric,
    inner,
    norm_sq,
    product_metric,
)

__all__ = [
    "BlockOperator",
    "OperatorFamily",
    "aggregate",
    "gradient_op",
    "subgradient_projector",
    "verify_coherence",
    "verify_quasi_monotone",
    "Quadratic",
    "LinearLeastSquaresTerm",
    "LogisticTerm",
    "ZeroFunction",
    "L1Norm",
    "SquaredL2",
    "HalfspaceIndicator",
    "MoreauConjugate",
    "AffineMonotoneMap",
    "SaddleProxMap",
]


class CapabilityError(NotImplementedError):
    """Requested handle does not support the needed operation."""


class DegeneracyError(ValueError):
    """A subgradient vanished where the projector needs it nonzero."""


# ---------------------------------------------------------------------------
# operators


class BlockOperator:
    """A map from the block space to itself, given by its per-block evaluator.

    ``block(x, j)`` evaluates output block ``j`` as an unchecked array, which
    is what the engine touches on a sparse iteration (and checks as it
    writes).  ``zero_blocks`` marks output blocks that are identically zero;
    they are never evaluated.  ``op(x)`` assembles every block into a
    checked BlockVector.
    """

    def __init__(self, layout: BlockLayout, block, zero_blocks=()):
        self.layout = layout
        self._block = block
        self.zero_blocks = frozenset(int(j) for j in zero_blocks)
        bad = sorted(j for j in self.zero_blocks if not 0 <= j < layout.m)
        if bad:
            raise DimensionError(f"zero_blocks {bad} outside [0, {layout.m})")

    def __call__(self, x: BlockVector) -> BlockVector:
        return BlockVector(self.layout, self._values(x))

    def _values(self, x: BlockVector) -> tuple:
        return tuple(np.zeros(d) if j in self.zero_blocks else self._block(x, j)
                     for j, d in enumerate(self.layout.dims))

    def block(self, x: BlockVector, j: int) -> np.ndarray:
        if j in self.zero_blocks:
            return np.zeros(self.layout.dims[j])
        return self._block(x, j)


@dataclass
class OperatorFamily:
    """``n`` operators plus the constants entering the convergence theory.

    ``beta`` and ``star_pattern`` are (n, m) arrays; ``star_pattern[i, j]``
    is False exactly where the operator value at any root vanishes in
    block ``j`` (so the corresponding dual entry is pinned to zero).
    """

    layout: BlockLayout
    ops: list[BlockOperator]
    beta: np.ndarray
    star_pattern: np.ndarray
    metric: Metric = None
    mu: float | None = None
    known_root: BlockVector | None = None
    root_tol: float = 1e-9

    def __post_init__(self):
        if self.metric is None:
            self.metric = product_metric(self.layout)
        n, m = self.n, self.layout.m
        self.beta = np.asarray(self.beta, dtype=np.float64)
        self.star_pattern = np.asarray(self.star_pattern, dtype=bool)
        if self.beta.shape != (n, m):
            raise DimensionError(f"beta must have shape ({n}, {m})")
        if self.star_pattern.shape != (n, m):
            raise DimensionError(f"star_pattern must have shape ({n}, {m})")
        for i, op in enumerate(self.ops):
            if op.layout.dims != self.layout.dims:
                raise DimensionError(f"operator {i} built for a different layout")
        if self.known_root is not None:
            self._validate_root()

    @property
    def n(self) -> int:
        return len(self.ops)

    @property
    def m(self) -> int:
        return self.layout.m

    def _validate_root(self):
        x = self.known_root
        agg = aggregate(self, x)
        res = np.sqrt(norm_sq(self.metric, agg))
        if res > self.root_tol:
            raise ValueError(f"claimed root has residual {res:.3e} > {self.root_tol:.1e}")
        for i, op in enumerate(self.ops):
            val = op(x)
            for j in range(self.m):
                if not self.star_pattern[i, j]:
                    blk = np.linalg.norm(val.blocks[j])
                    if blk > self.root_tol:
                        raise ValueError(
                            f"star_pattern[{i},{j}] claims zero but |S_i(x*)_j| = {blk:.3e}"
                        )

    def root_values(self) -> list[BlockVector] | None:
        """Operator values at the known root, None when no root is known."""
        if self.known_root is None:
            return None
        return [op(self.known_root) for op in self.ops]


def aggregate(family: OperatorFamily, x: BlockVector) -> BlockVector:
    """The averaged map ``(1/n) sum_i S_i`` evaluated at ``x``, checked once as a sum."""
    if x.layout.dims != family.layout.dims:
        raise DimensionError("vector layout does not match family layout")
    acc = [np.zeros(d) for d in family.layout.dims]
    for op in family.ops:
        val = op._values(x)
        for j in range(family.m):
            acc[j] += val[j]
    scale = 1.0 / family.n
    return BlockVector(family.layout, tuple(scale * a for a in acc))


# ---------------------------------------------------------------------------
# smooth function handles


class Quadratic:
    """f(z) = (a/2)|z - c|^2 with scalar or SPD-matrix curvature."""

    def __init__(self, center, curvature=1.0):
        self.c = np.asarray(center, dtype=np.float64)
        if np.isscalar(curvature):
            self.a = float(curvature)
            self.Q = None
            self.lipschitz = self.a
            self.strong_convexity = self.a
        else:
            self.Q = np.asarray(curvature, dtype=np.float64)
            eigs = np.linalg.eigvalsh(0.5 * (self.Q + self.Q.T))
            self.a = None
            self.lipschitz = float(eigs[-1])
            self.strong_convexity = float(eigs[0])

    def value(self, z):
        d = np.asarray(z) - self.c
        if self.Q is None:
            return 0.5 * self.a * float(d @ d)
        return 0.5 * float(d @ (self.Q @ d))

    def grad(self, z):
        d = np.asarray(z) - self.c
        if self.Q is None:
            return self.a * d
        return self.Q @ d

    def prox(self, v, gamma):
        if self.Q is None:
            return (v + gamma * self.a * self.c) / (1.0 + gamma * self.a)
        n = self.c.size
        return np.linalg.solve(np.eye(n) + gamma * self.Q, v + gamma * (self.Q @ self.c))

    def conjugate_prox(self, v, gamma):
        return MoreauConjugate(self).prox(v, gamma)

    def minimizer(self):
        return self.c.copy()


class LinearLeastSquaresTerm:
    """f(z) = (1/2)|A z - b|^2 + (1/2) <K z, z> for one block row A."""

    def __init__(self, A, b, K=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        self.b = np.atleast_1d(np.asarray(b, dtype=np.float64))
        self.K = None if K is None else np.asarray(K, dtype=np.float64)
        gram = self.A.T @ self.A
        if self.K is not None:
            gram = gram + self.K
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        self.lipschitz = float(eigs[-1])
        self.strong_convexity = float(eigs[0])

    def value(self, z):
        r = self.A @ z - self.b
        v = 0.5 * float(r @ r)
        if self.K is not None:
            v += 0.5 * float(z @ (self.K @ z))
        return v

    def grad(self, z):
        g = self.A.T @ (self.A @ z - self.b)
        if self.K is not None:
            g = g + self.K @ z
        return g


class LogisticTerm:
    """f(z) = log(1 + exp(-y <a, z>)) for one labelled data point."""

    def __init__(self, a, y=1.0):
        self.a = np.asarray(a, dtype=np.float64)
        self.y = float(y)
        # psi''(t) <= 1/4, so the gradient Lipschitz constant is |a|^2 / 4
        self.lipschitz = 0.25 * float(self.a @ self.a)
        self.strong_convexity = 0.0

    def value(self, z):
        t = self.y * float(self.a @ z)
        return float(np.logaddexp(0.0, -t))

    def grad(self, z):
        t = self.y * float(self.a @ z)
        sig = 1.0 / (1.0 + np.exp(t))
        return (-self.y * sig) * self.a


def gradient_op(f, lipschitz: float, layout: BlockLayout | None = None) -> BlockOperator:
    """Wrap a smooth handle's gradient as a single-block operator.

    ``lipschitz``, the gradient's Lipschitz constant, must be positive.  A
    gradient of the wrong shape raises DimensionError; finiteness is not checked.
    """
    if lipschitz <= 0:
        raise ValueError("Lipschitz constant must be positive")
    if layout is None:
        dim = np.asarray(f.grad(np.zeros(_probe_dim(f)))).size
        layout = BlockLayout((dim,))
    if layout.m != 1:
        raise DimensionError(f"gradient_op needs a one-block layout, got {layout.dims}")

    def block(x: BlockVector, j: int) -> np.ndarray:
        g = np.asarray(f.grad(x.blocks[0]), dtype=np.float64)
        if g.shape != layout.dims:
            raise DimensionError(f"gradient has shape {g.shape}, expected {layout.dims}")
        return g

    return BlockOperator(layout, block=block)


def _probe_dim(f):
    c = getattr(f, "c", None)
    if c is not None:
        return np.asarray(c).size
    a = getattr(f, "a", None)
    if a is not None and not np.isscalar(a):
        return np.asarray(a).size
    raise CapabilityError("cannot infer dimension; pass layout explicitly")


# ---------------------------------------------------------------------------
# prox catalog


class ZeroFunction:
    """g = 0; prox is the identity."""

    def value(self, z):
        return 0.0

    def prox(self, v, gamma):
        return np.asarray(v, dtype=np.float64).copy()

    def subgrad_residual(self, z, target):
        return float(np.linalg.norm(np.asarray(target)))


class L1Norm:
    """g(z) = w |z|_1; prox is soft thresholding."""

    def __init__(self, weight=1.0):
        self.weight = float(weight)

    def value(self, z):
        return self.weight * float(np.abs(z).sum())

    def prox(self, v, gamma):
        v = np.asarray(v, dtype=np.float64)
        t = gamma * self.weight
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)

    def subgrad_residual(self, z, target, tol=1e-9):
        """Distance of ``target`` from w * subdifferential of |.|_1 at z."""
        z = np.asarray(z)
        t = np.asarray(target)
        w = self.weight
        res = np.where(
            np.abs(z) > tol,
            np.abs(t - w * np.sign(z)),
            np.maximum(np.abs(t) - w, 0.0),
        )
        return float(np.linalg.norm(res))


class SquaredL2:
    """g(z) = (a/2)|z - c|^2, same closed-form prox as Quadratic."""

    def __init__(self, center=None, curvature=1.0, dim=None):
        if center is None:
            center = np.zeros(dim)
        self._q = Quadratic(center, curvature)
        self.strong_convexity = self._q.strong_convexity
        self.lipschitz = self._q.lipschitz

    def value(self, z):
        return self._q.value(z)

    def grad(self, z):
        return self._q.grad(z)

    def prox(self, v, gamma):
        return self._q.prox(v, gamma)

    def subgrad_residual(self, z, target):
        return float(np.linalg.norm(np.asarray(target) - self.grad(z)))


class HalfspaceIndicator:
    """Indicator of {z : <a, z> <= b}; prox projects only from outside."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=np.float64)
        self.b = float(b)
        self._nrm2 = float(self.a @ self.a)
        if self._nrm2 == 0.0:
            raise ValueError("halfspace normal must be nonzero")

    def value(self, z):
        return 0.0 if float(self.a @ z) <= self.b + 1e-10 else np.inf

    def prox(self, v, gamma=None):
        v = np.asarray(v, dtype=np.float64)
        gap = float(self.a @ v) - self.b
        if gap <= 0.0:
            return v.copy()
        return v - (gap / self._nrm2) * self.a

    project = prox


class MoreauConjugate:
    """prox of the convex conjugate g* via the Moreau identity,

    prox_{gamma g*}(v) = v - gamma * prox_{g/gamma}(v / gamma).
    """

    def __init__(self, base):
        self.base = base

    def prox(self, v, gamma):
        v = np.asarray(v, dtype=np.float64)
        return v - gamma * self.base.prox(v / gamma, 1.0 / gamma)

    def value(self, z):
        raise CapabilityError("conjugate values are not tabulated; use the prox")


# ---------------------------------------------------------------------------
# subgradient projector


def subgradient_projector(f_value, f_subgrad, layout: BlockLayout) -> BlockOperator:
    """Operator ``x -> x - G(x)`` for the relaxed sublevel-set projection

    G(x) = x - f(x)/|g(x)|^2 * g(x)  when f(x) > 0, else x.
    """

    def block(x: BlockVector, j: int) -> np.ndarray:
        z = x.blocks[0]
        fx = float(f_value(z))
        if fx <= 0.0:
            return np.zeros(layout.dims[0])
        g = np.asarray(f_subgrad(z), dtype=np.float64)
        gg = float(g @ g)
        if gg == 0.0:
            raise DegeneracyError("zero subgradient at a strictly infeasible point")
        return (fx / gg) * g

    return BlockOperator(layout, block=block)


# ---------------------------------------------------------------------------
# resolvents


class AffineMonotoneMap:
    """A(x) = G x + h with monotone G; resolvent solves (I + gamma G)."""

    def __init__(self, G, h=None):
        self.G = np.asarray(G, dtype=np.float64)
        self.h = np.zeros(self.G.shape[0]) if h is None else np.asarray(h, np.float64)
        sym = 0.5 * (self.G + self.G.T)
        self.strong_monotonicity = float(np.linalg.eigvalsh(sym)[0])

    def __call__(self, x):
        return self.G @ x + self.h

    def resolvent(self, v, gamma):
        n = self.G.shape[0]
        return np.linalg.solve(np.eye(n) + gamma * self.G, v - gamma * self.h)


class SaddleProxMap:
    """Blockwise resolvent for a separable saddle term: componentwise proxes.

    For M(w, z) = g1(w) - g2(z) the resolvent acts as
    (w, z) -> (prox_{gamma g1}(w), prox_{gamma g2}(z)).
    """

    def __init__(self, g1, g2, dim_w: int):
        self.g1, self.g2, self.dim_w = g1, g2, int(dim_w)

    def resolvent(self, v, gamma):
        v = np.asarray(v, dtype=np.float64)
        w, z = v[: self.dim_w], v[self.dim_w:]
        return np.concatenate([self.g1.prox(w, gamma), self.g2.prox(z, gamma)])


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    ok: bool
    max_violation: float
    witness: BlockVector | None
    trials: int
    detail: str = ""

    def __bool__(self):
        return self.ok


def _random_points(family: OperatorFamily, trials: int, rng: np.random.Generator):
    """Gaussian clouds around the known root at a few spread-out radii."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    x0 = family.known_root
    scales = (0.1, 1.0, 10.0)
    for t in range(trials):
        s = scales[t % len(scales)]
        blocks = tuple(
            b + s * rng.standard_normal(b.shape) for b in x0.blocks
        )
        yield BlockVector(family.layout, blocks)


def verify_coherence(
    family: OperatorFamily,
    trials: int = 1000,
    slack: float = 1e-10,
    rng: np.random.Generator | None = None,
) -> VerificationReport:
    """Sample random points and check the coherence inequality.

    Requires a known root.  Violation at a point is
    ``sum_ij beta_ij |(S_i(x))_j - (S_i(x*))_j|^2 - <S(x), x - x*>``;
    the report carries the maximum over all trials and the witnessing point.
    """
    if family.known_root is None:
        raise CapabilityError("coherence check needs a known root")
    rng = np.random.default_rng(0) if rng is None else rng
    root_vals = family.root_values()
    x_star = family.known_root
    worst = -np.inf
    witness = None
    for x in _random_points(family, trials, rng):
        lhs = 0.0
        agg = [np.zeros(d) for d in family.layout.dims]
        for i, op in enumerate(family.ops):
            val = op._values(x)
            for j in range(family.m):
                agg[j] += val[j]
                if family.beta[i, j] != 0.0:
                    diff = val[j] - root_vals[i].blocks[j]
                    lhs += family.beta[i, j] * float(diff @ diff)
        s_of_x = BlockVector(family.layout, tuple(a / family.n for a in agg))
        rhs = inner(family.metric, s_of_x, x - x_star)
        violation = lhs - rhs
        if violation > worst:
            worst, witness = violation, x
    return VerificationReport(
        ok=bool(worst <= slack),
        max_violation=float(worst),
        witness=witness,
        trials=trials,
        detail="coherence",
    )


def verify_quasi_monotone(
    family: OperatorFamily,
    trials: int = 1000,
    slack: float = 1e-10,
    rng: np.random.Generator | None = None,
    projector=None,
) -> VerificationReport:
    """Check ``<S(x), x - P(x)> >= mu |x - P(x)|^2`` on random points.

    ``projector`` maps a point to its nearest element of the solution set;
    when omitted, the known root is used (valid when the root is unique).
    """
    if family.mu is None:
        raise CapabilityError("family declares no quasi-monotonicity modulus")
    if projector is None:
        if family.known_root is None:
            raise CapabilityError("need a known root or a solution-set projector")
        projector = lambda x: family.known_root  # noqa: E731
    rng = np.random.default_rng(0) if rng is None else rng
    worst = -np.inf
    witness = None
    for x in _random_points(family, trials, rng):
        px = projector(x)
        gap = x - px
        lhs = family.mu * norm_sq(family.metric, gap)
        rhs = inner(family.metric, aggregate(family, x), gap)
        violation = lhs - rhs
        if violation > worst:
            worst, witness = violation, x
    return VerificationReport(
        ok=bool(worst <= slack),
        max_violation=float(worst),
        witness=witness,
        trials=trials,
        detail="quasi-monotone",
    )
