"""Desk-scale problem generators, each carrying an independent oracle.

Every generator that admits a direct solve computes the reference solution
at generation time with standard dense linear algebra (normal equations,
KKT systems, pseudoinverses) or, for the nonsmooth cases, a deliberately
simple high-precision iterative oracle (coordinate descent for the
l1-regularized least squares instance).  The oracles never touch the
engine; they are what the engine is tested against.

Problems serialize to JSON dictionaries with a ``kind`` tag so the command
line can generate, store and reload them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .operators import (
    L1Norm,
    LinearLeastSquaresTerm,
    LogisticTerm,
    Quadratic,
    SquaredL2,
)

__all__ = [
    "Problem",
    "generate",
    "load_problem",
    "save_problem",
    "ridge",
    "lasso",
    "logistic",
    "linear_system",
    "halfspace_feasibility",
    "equality_qp",
    "fused_composite",
    "tropic_instance",
    "ChainBlockQuadratic",
]

GENERATORS = {}


def _register(fn):
    GENERATORS[fn.__name__] = fn
    return fn


@dataclass
class Problem:
    kind: str
    data: dict
    oracle: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def conv(v):
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, (np.floating, np.integer)):
                return v.item()
            return v

        return {
            "kind": self.kind,
            "data": {k: conv(v) for k, v in self.data.items()},
            "oracle": {k: conv(v) for k, v in self.oracle.items()},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Problem":
        def conv(v):
            if isinstance(v, list):
                return np.asarray(v, dtype=np.float64)
            return v

        return cls(
            kind=obj["kind"],
            data={k: conv(v) for k, v in obj["data"].items()},
            oracle={k: conv(v) for k, v in obj.get("oracle", {}).items()},
        )


def save_problem(problem: Problem, path):
    with open(path, "w") as fh:
        json.dump(problem.to_json(), fh)


def load_problem(path) -> Problem:
    with open(path) as fh:
        return Problem.from_json(json.load(fh))


def generate(kind: str, **params) -> Problem:
    if kind not in GENERATORS:
        raise KeyError(f"unknown problem kind {kind!r}; have {sorted(GENERATORS)}")
    return GENERATORS[kind](**params)


@_register
def ridge(rows: int = 50, dim: int = 20, reg: float = 0.1, seed: int = 0) -> Problem:
    """Row-split regularized least squares with a normal-equations oracle.

    Term i is ``(1/2)(a_i . x - b_i)^2 + (1/2) reg |x|^2``; the oracle
    solves ``(A^T A / N + reg I) x = A^T b / N`` directly.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, dim))
    b = rng.standard_normal(rows)
    K = reg * np.eye(dim)
    H = A.T @ A / rows + K
    x_star = np.linalg.solve(H, A.T @ b / rows)
    eigs = np.linalg.eigvalsh(H)
    return Problem(
        kind="ridge",
        data={"A": A, "b": b, "reg": reg},
        oracle={"x_star": x_star, "mu": eigs[0], "L_mean_hessian": eigs[-1]},
    )


def ridge_terms(problem: Problem):
    """Smooth per-row terms and their gradient Lipschitz constants."""
    A, b = problem.data["A"], problem.data["b"]
    reg = float(problem.data["reg"])
    K = reg * np.eye(A.shape[1])
    fs = [LinearLeastSquaresTerm(A[i], b[i : i + 1], K) for i in range(A.shape[0])]
    return fs, np.array([f.lipschitz for f in fs])


def lasso_cd_oracle(A, b, weight, iters=20000, tol=1e-14):
    """Cyclic coordinate descent on (1/(2N))|Ax-b|^2 + weight |x|_1."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    N, dim = A.shape
    x = np.zeros(dim)
    col_sq = (A * A).sum(axis=0) / N
    r = A @ x - b
    for _ in range(iters):
        delta = 0.0
        for j in range(dim):
            if col_sq[j] == 0.0:
                continue
            rho = x[j] - (A[:, j] @ r) / (N * col_sq[j])
            t = weight / col_sq[j]
            new = np.sign(rho) * max(abs(rho) - t, 0.0)
            if new != x[j]:
                r = r + A[:, j] * (new - x[j])
                delta = max(delta, abs(new - x[j]))
                x[j] = new
        if delta < tol:
            break
    return x


@_register
def lasso(rows: int = 40, dim: int = 15, weight: float = 0.05, seed: int = 0) -> Problem:
    """l1-regularized least squares with a coordinate-descent oracle."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, dim))
    truth = rng.standard_normal(dim) * (rng.random(dim) < 0.4)
    b = A @ truth + 0.01 * rng.standard_normal(rows)
    z_star = lasso_cd_oracle(A, b, weight)
    return Problem(
        kind="lasso",
        data={"A": A, "b": b, "weight": weight},
        oracle={"z_star": z_star},
    )


def lasso_terms(problem: Problem):
    A, b = problem.data["A"], problem.data["b"]
    fs = [LinearLeastSquaresTerm(A[i], b[i : i + 1]) for i in range(A.shape[0])]
    g = L1Norm(float(problem.data["weight"]))
    return fs, g, np.array([f.lipschitz for f in fs])


@_register
def logistic(rows: int = 30, dim: int = 8, seed: int = 0) -> Problem:
    """Binary logistic terms; no closed-form oracle is recorded."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, dim))
    y = np.sign(rng.standard_normal(rows))
    y[y == 0] = 1.0
    return Problem(kind="logistic", data={"A": A, "y": y})


def logistic_terms(problem: Problem):
    A, y = problem.data["A"], problem.data["y"]
    fs = [LogisticTerm(A[i], y[i]) for i in range(A.shape[0])]
    return fs, np.array([f.lipschitz for f in fs])


@_register
def linear_system(rows: int = 50, dim: int = 20, seed: int = 0) -> Problem:
    """Consistent overdetermined system built from a planted solution."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, dim))
    x_plant = rng.standard_normal(dim)
    b = A @ x_plant
    return Problem(
        kind="linear_system",
        data={"A": A, "b": b},
        oracle={"x_plant": x_plant},
    )


@_register
def halfspace_feasibility(count: int = 12, dim: int = 6, margin: float = 0.5,
                          seed: int = 0) -> Problem:
    """Halfspaces all containing a ball around a certified interior point."""
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(dim)
    normals = rng.standard_normal((count, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = normals @ center + margin
    return Problem(
        kind="halfspace_feasibility",
        data={"normals": normals, "offsets": offsets},
        oracle={"interior_point": center, "margin": margin},
    )


@_register
def equality_qp(dim: int = 12, constraints: int = 4, seed: int = 0) -> Problem:
    """Strongly convex quadratic over an affine subspace, KKT oracle."""
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((dim, dim))
    Q = R @ R.T / dim + 0.5 * np.eye(dim)
    c = rng.standard_normal(dim)
    A = rng.standard_normal((constraints, dim))
    b = rng.standard_normal(constraints)
    kkt = np.block([[Q, A.T], [A, np.zeros((constraints, constraints))]])
    rhs = np.concatenate([-c, b])
    sol = np.linalg.solve(kkt, rhs)
    return Problem(
        kind="equality_qp",
        data={"Q": Q, "c": c, "A": A, "b": b},
        oracle={"x_star": sol[:dim], "nu_star": sol[dim:]},
    )


@_register
def fused_composite(dim: int = 10, pieces: int = 3, seed: int = 0) -> Problem:
    """Quadratic-plus-l1-of-rows instance built solution-first.

    The solution ``z_star`` and subgradients ``s_j`` of the composed terms
    are chosen first; the quadratic center then makes stationarity exact,
    so the recorded oracle is exact by construction.
    """
    rng = np.random.default_rng(seed)
    z_star = rng.standard_normal(dim)
    rows = []
    subs = []
    for _ in range(pieces):
        a = rng.standard_normal((1, dim))
        val = float((a @ z_star)[0])
        rows.append(a)
        if abs(val) > 1e-9:
            subs.append(np.array([np.sign(val)]))
        else:
            subs.append(np.array([rng.uniform(-1, 1)]))
    center = z_star + sum(r.T @ s for r, s in zip(rows, subs)).ravel()
    return Problem(
        kind="fused_composite",
        data={"center": center, "rows": np.vstack(rows)},
        oracle={"z_star": z_star, "subgradients": np.concatenate(subs)},
    )


@_register
def tropic_instance(M: int = 3, block_dim: int = 4, coupling_dim: int = 3,
                    seed: int = 0) -> Problem:
    """Quadratic blocks with a linear coupling constraint; KKT oracle.

    Objective ``sum_j (1/2)|x_j - c_j|^2 + f`` subject to
    ``sum_j A_j x_j = b``, with ``f`` a smooth quadratic coupling.
    """
    rng = np.random.default_rng(seed)
    A_list = [rng.standard_normal((coupling_dim, block_dim)) for _ in range(M)]
    centers = [rng.standard_normal(block_dim) for _ in range(M)]
    C_list = [rng.standard_normal((2, block_dim)) * 0.4 for _ in range(M)]
    r = rng.standard_normal(2)
    total = M * block_dim
    # KKT of: sum_j (1/2)|x_j-c_j|^2 + (1/2)|sum C_j x_j - r|^2, sum A_j x_j = b
    C = np.hstack(C_list)
    H = np.eye(total) + C.T @ C
    lin = np.concatenate(centers) + C.T @ r
    A = np.hstack(A_list)
    b = rng.standard_normal(coupling_dim)
    kkt = np.block([[H, A.T], [A, np.zeros((coupling_dim, coupling_dim))]])
    sol = np.linalg.solve(kkt, np.concatenate([lin, b]))
    x_star = sol[:total]
    nu_star = sol[total:]
    return Problem(
        kind="tropic_instance",
        data={
            "A_stack": A, "b": b, "centers": np.concatenate(centers),
            "C_stack": C, "r": r, "M": M, "block_dim": block_dim,
        },
        oracle={"x_star": x_star, "nu_star": nu_star},
    )


def tropic_parts(problem: Problem):
    """Unpack a coupled-blocks instance into handles for the preset builder."""
    M = int(problem.data["M"])
    bd = int(problem.data["block_dim"])
    A = problem.data["A_stack"]
    A_list = [A[:, j * bd : (j + 1) * bd] for j in range(M)]
    centers = problem.data["centers"].reshape(M, bd)
    g_list = [SquaredL2(center=centers[j], curvature=1.0) for j in range(M)]
    C = problem.data["C_stack"]
    C_list = [C[:, j * bd : (j + 1) * bd] for j in range(M)]
    f = QuadraticCoupling(C_list, problem.data["r"])
    return g_list, f, A_list, problem.data["b"]


# ---------------------------------------------------------------------------
# smooth handles over block spaces


class ChainBlockQuadratic:
    """Nearest-neighbour coupled quadratic: each gradient block touches at
    most three blocks (sparsity 3 in the coherence bookkeeping).

    f(x) = sum_j (a_j/2)|x_j - c_j|^2 + (w/2) sum_{j<m-1} |x_{j+1} - x_j|^2
    (blocks must share one dimension).
    """

    def __init__(self, centers, curvatures, weight):
        self.parts = [Quadratic(c, a) for c, a in zip(centers, curvatures)]
        self.w = float(weight)
        m = len(self.parts)
        self.sparsity = 3
        self.block_lipschitz = np.array(
            [p.lipschitz + self.w * (2 if 0 < j < m - 1 else 1) for j, p in enumerate(self.parts)]
        )

    def grad_block(self, blocks, j):
        m = len(blocks)
        g = self.parts[j].grad(blocks[j])
        if j > 0:
            g = g + self.w * (blocks[j] - blocks[j - 1])
        if j < m - 1:
            g = g + self.w * (blocks[j] - blocks[j + 1])
        return g

    def grad_full(self, blocks):
        return [self.grad_block(blocks, j) for j in range(len(blocks))]

    def value(self, blocks):
        v = sum(p.value(b) for p, b in zip(self.parts, blocks))
        for j in range(len(blocks) - 1):
            d = blocks[j + 1] - blocks[j]
            v += 0.5 * self.w * float(d @ d)
        return v


class QuadraticCoupling:
    """f(x_1..x_M) = (1/2)|sum_j C_j x_j - r|^2 across decision blocks."""

    def __init__(self, C_list, r):
        self.C_list = [np.asarray(C, float) for C in C_list]
        self.r = np.asarray(r, float)
        stacked = np.hstack(self.C_list)
        self.lipschitz = float(np.linalg.norm(stacked, 2) ** 2)

    def _residual(self, blocks):
        acc = -self.r.copy()
        for C, b in zip(self.C_list, blocks):
            acc += C @ b
        return acc

    def grad_block(self, blocks, j):
        return self.C_list[j].T @ self._residual(blocks)

    def value(self, blocks):
        res = self._residual(blocks)
        return 0.5 * float(res @ res)
