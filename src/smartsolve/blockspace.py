"""Block-structured vectors and the metrics placed on them.

The ambient space is a direct sum of ``m`` real coordinate blocks.  All
per-block inner products are the standard Euclidean ones; what varies is
the inner product on the *total* space, which may be the plain product
metric, a blockwise weighted metric, or the quadratic form of an explicit
symmetric positive-definite matrix.  Every metric carries per-block
equivalence constants ``(m_lo[j], m_hi[j])`` sandwiching the total norm
between weighted sums of block norms:

    sum_j m_lo[j] * |x_j|^2  <=  |x|^2  <=  sum_j m_hi[j] * |x_j|^2.

Those constants feed the step-size formulas, so each metric must supply
valid ones (tight where a closed form exists, conservative otherwise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BlockLayout",
    "BlockVector",
    "Metric",
    "product_metric",
    "block_weighted_metric",
    "gram_metric",
    "inner",
    "norm_sq",
    "block_norm_sq",
    "equivalence_constants",
]


class DimensionError(ValueError):
    """Raised when vectors, layouts or metrics disagree on shapes."""


@dataclass(frozen=True)
class BlockLayout:
    """Shape of the block space: ``m`` blocks with the given dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) == 0:
            raise DimensionError("layout needs at least one block")
        if any(int(d) < 1 for d in self.dims):
            raise DimensionError(f"block dimensions must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return int(sum(self.dims))

    def offsets(self) -> list[tuple[int, int]]:
        """Half-open index ranges of each block inside a flat vector."""
        out, pos = [], 0
        for d in self.dims:
            out.append((pos, pos + d))
            pos += d
        return out

    def to_json(self) -> dict:
        return {"dims": list(self.dims)}

    @classmethod
    def from_json(cls, obj: dict) -> "BlockLayout":
        return cls(tuple(obj["dims"]))


def _as_blocks(layout: BlockLayout, blocks) -> tuple[np.ndarray, ...]:
    if len(blocks) != layout.m:
        raise DimensionError(f"expected {layout.m} blocks, got {len(blocks)}")
    out = []
    for j, (blk, d) in enumerate(zip(blocks, layout.dims)):
        arr = np.asarray(blk, dtype=np.float64)
        if arr.shape != (d,):
            raise DimensionError(f"block {j} has shape {arr.shape}, expected ({d},)")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"block {j} contains NaN or Inf")
        out.append(arr)
    return tuple(out)


@dataclass(frozen=True)
class BlockVector:
    """An element of the block space, stored as one array per block.

    Construction is the single choke point rejecting NaN/Inf; everything
    downstream may assume finite entries.  Instances are treated as
    immutable; operations return fresh vectors.
    """

    layout: BlockLayout
    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", _as_blocks(self.layout, self.blocks))

    @classmethod
    def zeros(cls, layout: BlockLayout) -> "BlockVector":
        return cls(layout, tuple(np.zeros(d) for d in layout.dims))

    @classmethod
    def from_flat(cls, layout: BlockLayout, flat) -> "BlockVector":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (layout.total_dim,):
            raise DimensionError(
                f"flat vector has shape {flat.shape}, expected ({layout.total_dim},)"
            )
        return cls(layout, tuple(flat[a:b].copy() for a, b in layout.offsets()))

    def flat(self) -> np.ndarray:
        return np.concatenate(self.blocks)

    def copy(self) -> "BlockVector":
        return BlockVector(self.layout, tuple(b.copy() for b in self.blocks))

    def replace_block(self, j: int, value: np.ndarray) -> "BlockVector":
        """Copy-on-write single-block substitution (shares the other blocks)."""
        blocks = list(self.blocks)
        blocks[j] = value
        return BlockVector(self.layout, tuple(blocks))

    def __add__(self, other: "BlockVector") -> "BlockVector":
        self._check_same_layout(other)
        return BlockVector(
            self.layout, tuple(a + b for a, b in zip(self.blocks, other.blocks))
        )

    def __sub__(self, other: "BlockVector") -> "BlockVector":
        self._check_same_layout(other)
        return BlockVector(
            self.layout, tuple(a - b for a, b in zip(self.blocks, other.blocks))
        )

    def __mul__(self, scalar: float) -> "BlockVector":
        return BlockVector(self.layout, tuple(scalar * b for b in self.blocks))

    __rmul__ = __mul__

    def _check_same_layout(self, other: "BlockVector"):
        if self.layout.dims != other.layout.dims:
            raise DimensionError(
                f"layout mismatch: {self.layout.dims} vs {other.layout.dims}"
            )

    def to_json(self) -> dict:
        return {"blocks": [b.tolist() for b in self.blocks]}

    @classmethod
    def from_json(cls, obj: dict) -> "BlockVector":
        blocks = [np.asarray(b, dtype=np.float64) for b in obj["blocks"]]
        layout = BlockLayout(tuple(len(b) for b in blocks))
        return cls(layout, tuple(blocks))


@dataclass(frozen=True)
class Metric:
    """Inner product on the total space together with its sandwich constants.

    ``kind`` is one of ``"product"``, ``"block_weighted"``, ``"gram"``.
    ``m_lo``/``m_hi`` are the per-block equivalence constants.  For the
    gram kind, ``matrix`` holds the SPD matrix and ``chol`` its (lower)
    Cholesky factor; inner products go through the factor so the induced
    quadratic form is exactly nonnegative.
    """

    kind: str
    layout: BlockLayout
    m_lo: np.ndarray
    m_hi: np.ndarray
    weights: np.ndarray | None = None
    matrix: np.ndarray | None = None
    chol: np.ndarray | None = field(default=None, repr=False)

    def is_product(self) -> bool:
        return self.kind == "product"


def product_metric(layout: BlockLayout) -> Metric:
    ones = np.ones(layout.m)
    return Metric("product", layout, ones, ones.copy())


def block_weighted_metric(layout: BlockLayout, weights) -> Metric:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (layout.m,):
        raise DimensionError(f"need {layout.m} weights, got shape {w.shape}")
    if np.any(w <= 0):
        raise ValueError("block weights must be strictly positive")
    return Metric("block_weighted", layout, w.copy(), w.copy(), weights=w)


def gram_metric(layout: BlockLayout, matrix, m_lo=None, m_hi=None) -> Metric:
    """Metric induced by an explicit SPD matrix on the flattened space.

    Fails fast on non-symmetric or non-positive-definite input.  When no
    explicit sandwich constants are supplied, the (valid, generally loose)
    spectral bounds ``m_lo = lambda_min``, ``m_hi = lambda_max`` are used
    for every block; structured metrics should pass their closed forms.
    """
    P = np.asarray(matrix, dtype=np.float64)
    n = layout.total_dim
    if P.shape != (n, n):
        raise DimensionError(f"matrix has shape {P.shape}, expected ({n}, {n})")
    if not np.allclose(P, P.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(P).max())):
        raise ValueError("metric matrix is not symmetric within 1e-12")
    P = 0.5 * (P + P.T)
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise ValueError("metric matrix is not positive definite") from exc
    if m_lo is None or m_hi is None:
        eigs = np.linalg.eigvalsh(P)
        if eigs[0] <= 0:
            raise ValueError("metric matrix has a nonpositive eigenvalue")
        m_lo = np.full(layout.m, eigs[0]) if m_lo is None else m_lo
        m_hi = np.full(layout.m, eigs[-1]) if m_hi is None else m_hi
    m_lo = np.asarray(m_lo, dtype=np.float64)
    m_hi = np.asarray(m_hi, dtype=np.float64)
    if m_lo.shape != (layout.m,) or m_hi.shape != (layout.m,):
        raise DimensionError("sandwich constants must have one entry per block")
    return Metric("gram", layout, m_lo, m_hi, matrix=P, chol=L)


def _check_metric_vector(metric: Metric, x: BlockVector):
    if metric.layout.dims != x.layout.dims:
        raise DimensionError(
            f"metric layout {metric.layout.dims} does not match vector "
            f"layout {x.layout.dims}"
        )


def inner(metric: Metric, x: BlockVector, y: BlockVector) -> float:
    """Inner product of ``x`` and ``y`` under ``metric``."""
    _check_metric_vector(metric, x)
    _check_metric_vector(metric, y)
    if metric.kind == "product":
        return float(sum(a @ b for a, b in zip(x.blocks, y.blocks)))
    if metric.kind == "block_weighted":
        return float(
            sum(w * (a @ b) for w, a, b in zip(metric.weights, x.blocks, y.blocks))
        )
    # gram: <x, y>_P = (L^T x) . (L^T y) with P = L L^T
    lx = metric.chol.T @ x.flat()
    ly = metric.chol.T @ y.flat()
    return float(lx @ ly)


def norm_sq(metric: Metric, x: BlockVector) -> float:
    return inner(metric, x, x)


def block_norm_sq(x: BlockVector, j: int) -> float:
    """Squared Euclidean norm of block ``j`` (1-indexed blocks not used;
    ``j`` is a 0-based index like everywhere else in this package)."""
    if not 0 <= j < x.layout.m:
        raise IndexError(f"block index {j} out of range for m={x.layout.m}")
    b = x.blocks[j]
    return float(b @ b)


def equivalence_constants(metric: Metric, layout: BlockLayout):
    """Per-block sandwich constants ``(m_lo, m_hi)`` of the metric."""
    if metric.layout.dims != layout.dims:
        raise DimensionError("metric was built for a different layout")
    return metric.m_lo.copy(), metric.m_hi.copy()

