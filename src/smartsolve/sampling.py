"""Joint randomization of one iteration: block set, operator index, dual coin.

A :class:`SamplingLaw` stores the block marginals ``q_j``, the conditional
operator probabilities ``p[i, j]`` given that block ``j`` was sampled, and
the dual-update probability ``rho``.  Three block mechanisms are shipped:

* ``single-block``   -- exactly one block per iteration, ``q`` sums to 1;
* ``independent-bernoulli`` -- each block enters independently with
  probability ``q_j`` (the empty draw is a legal no-op iteration);
* ``fixed-size-k``   -- a uniformly random subset of ``k`` blocks
  (``q_j = k/m`` for all j).

When several blocks are drawn, the operator index comes from the uniform
mixture of the per-block conditionals over the drawn set.  For laws whose
``p[:, j]`` does not depend on ``j`` (every shipped preset with multi-block
draws) the mixture coincides with each conditional, so the drawn index has
exactly the conditional law the update formula divides by.  Laws with
genuinely block-dependent conditionals must use single-block mode, where the
conditional is exact; the constructor enforces this.

All draws consume a caller-owned :class:`numpy.random.Generator`.  Every
categorical draw spends exactly one uniform through an inverse-CDF lookup,
so consumption is reproducible across platforms and versions.

A draw does not depend on the iterate, so :func:`draw_stream` makes draws
ahead of use.  When every draw of a law spends the same number ``c`` of
uniforms (single-block, fixed-size-k, and independent-bernoulli with every
``q_j = 1``; one more with a dual coin), the stream fills ``CHUNK`` draws
from one ``rng.random((CHUNK, c))`` call with vectorised inverse-CDF
lookups.  numpy's ``Generator`` gives the same doubles for one
``random(K)`` call as for ``K`` ``random()`` calls, so the stream equals
repeated :func:`draw` calls draw for draw; any other law is streamed
through :func:`draw` itself.  A consumer that stops early leaves the
generator up to ``CHUNK - 1`` draws further on than :func:`draw` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SamplingLaw",
    "TriggerGraph",
    "draw",
    "draw_stream",
    "trigger_prob",
    "importance_law",
    "substream",
]

BLOCK_MODES = ("single-block", "independent-bernoulli", "fixed-size-k")

# named sub-streams: one root seed fans out to independent generators so the
# sampling, delay and problem-generation randomness stay mutually independent
_STREAM_TAGS = {"sampling": 1, "delays": 2, "problem": 3, "init": 4, "verify": 5}

# draws that one generator call of a fixed-count draw stream makes
CHUNK = 256


def substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Named, splittable child stream of a single root seed."""
    tag = _STREAM_TAGS.get(name)
    if tag is None:
        raise KeyError(f"unknown stream name {name!r}; use one of {sorted(_STREAM_TAGS)}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(tag, int(index)))
    return np.random.Generator(np.random.PCG64(ss))


def _categorical(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw of one index from the cumulative weights ``cdf``."""
    u = rng.random() * cdf[-1]
    return min(int(cdf.searchsorted(u, side="right")), len(cdf) - 1)


@dataclass(frozen=True)
class SamplingLaw:
    """Block marginals, conditional operator law, and the dual coin.

    ``q_cdf`` is ``cumsum(q)`` and row ``j`` of ``p_cdf`` is ``cumsum(p[:, j])``,
    both computed once for the inverse-CDF draws.
    """

    q: np.ndarray
    p: np.ndarray
    rho: float
    block_mode: str = "single-block"
    subset_size: int = 1
    support: np.ndarray = field(default=None, repr=False)
    q_cdf: np.ndarray = field(init=False, repr=False, compare=False)
    p_cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        p = np.asarray(self.p, dtype=np.float64)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if self.block_mode not in BLOCK_MODES:
            raise ValueError(f"unknown block mode {self.block_mode!r}")
        if p.ndim != 2 or p.shape[1] != q.shape[0]:
            raise ValueError("p must be (n, m) with m matching q")
        if np.any(q <= 0.0) or np.any(q > 1.0):
            raise ValueError("block probabilities must lie in (0, 1]")
        if np.any(p < 0.0):
            raise ValueError("conditional probabilities must be nonnegative")
        colsums = p.sum(axis=0)
        if not np.allclose(colsums, 1.0, rtol=0.0, atol=1e-12):
            raise ValueError(f"conditional columns must sum to 1, got {colsums}")
        if self.block_mode == "single-block":
            if not np.isclose(q.sum(), 1.0, rtol=0.0, atol=1e-12):
                raise ValueError("single-block mode needs q summing to 1")
        if self.block_mode == "fixed-size-k":
            k = int(self.subset_size)
            if not 1 <= k <= self.m:
                raise ValueError("subset size out of range")
            if not np.allclose(q, k / self.m, atol=1e-12):
                raise ValueError("fixed-size-k mode implies q_j = k/m for all j")
        if self.m > 1 and self.block_mode != "single-block":
            # mixture draw is exact only for block-constant conditionals
            if not np.allclose(p, p[:, [0]], rtol=0.0, atol=1e-12):
                raise ValueError(
                    "block-dependent conditionals require single-block mode"
                )
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("dual-update probability must lie in (0, 1]")
        object.__setattr__(self, "support", p > 0.0)
        object.__setattr__(self, "q_cdf", np.cumsum(q))
        object.__setattr__(self, "p_cdf", np.ascontiguousarray(np.cumsum(p, axis=0).T))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @property
    def m(self) -> int:
        return self.q.shape[0]

    def to_json(self) -> dict:
        out = {
            "q": self.q.tolist(),
            "p": self.p.tolist(),
            "rho": self.rho,
            "block_mode": self.block_mode,
        }
        if self.block_mode == "fixed-size-k":
            out["subset_size"] = self.subset_size
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "SamplingLaw":
        return cls(
            q=np.asarray(obj["q"], dtype=np.float64),
            p=np.asarray(obj["p"], dtype=np.float64),
            rho=float(obj["rho"]),
            block_mode=obj.get("block_mode", "single-block"),
            subset_size=int(obj.get("subset_size", 1)),
        )


@dataclass(frozen=True)
class TriggerGraph:
    """Directed graph on operators: sampling i refreshes everything i points at.

    Self-loops are mandatory; construction rejects graphs missing one.
    ``triggered_by[i]`` lists, in sorted order, the dual indices refreshed
    when operator ``i`` fires.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a}, {b}) out of range for n={self.n}")
        for i in range(self.n):
            if (i, i) not in edges:
                raise ValueError(f"trigger graph is missing self-loop ({i}, {i})")
        table = tuple(
            tuple(sorted(b for a, b in edges if a == i)) for i in range(self.n)
        )
        object.__setattr__(self, "_table", table)

    def triggered_by(self, i: int) -> tuple[int, ...]:
        return self._table[i]

    def triggers_of(self, i: int) -> tuple[int, ...]:
        """Operators whose sampling refreshes dual ``i`` (reverse adjacency)."""
        return tuple(sorted(a for a, b in self.edges if b == i))

    @classmethod
    def self_loops(cls, n: int) -> "TriggerGraph":
        return cls(n, frozenset((i, i) for i in range(n)))

    @classmethod
    def complete(cls, n: int) -> "TriggerGraph":
        return cls(n, frozenset((a, b) for a in range(n) for b in range(n)))

    @classmethod
    def star_into_last(cls, n: int) -> "TriggerGraph":
        edges = {(i, i) for i in range(n)} | {(i, n - 1) for i in range(n)}
        return cls(n, frozenset(edges))

    @classmethod
    def ring_into(cls, n: int, fan_in: int) -> "TriggerGraph":
        """Each node is triggered by itself and the ``fan_in - 1`` nodes before it."""
        if not 1 <= fan_in <= n:
            raise ValueError("fan-in out of range")
        edges = set()
        for i in range(n):
            for step in range(fan_in):
                edges.add(((i - step) % n, i))
        return cls(n, frozenset(edges))

    def to_json(self) -> dict:
        return {"edges": sorted([list(e) for e in self.edges])}

    @classmethod
    def from_json(cls, obj: dict, n: int) -> "TriggerGraph":
        if "preset" in obj:
            name = obj["preset"]
            builders = {
                "self-loops": cls.self_loops,
                "complete": cls.complete,
                "star-into-last": cls.star_into_last,
            }
            if name not in builders:
                raise ValueError(f"unknown trigger preset {name!r}")
            return builders[name](n)
        return cls(n, frozenset(tuple(e) for e in obj["edges"]))


def draw(law: SamplingLaw, rng: np.random.Generator):
    """One joint sample ``(blocks, op_index, dual_coin)``.

    ``blocks`` is a sorted tuple of block indices (possibly empty under
    independent-bernoulli mode, in which case ``op_index`` is None and the
    iteration is a no-op).  ``dual_coin`` is 0/1; a law with ``rho == 1``
    spends no randomness on it.
    """
    m = law.m
    if law.block_mode == "single-block":
        blocks = (_categorical(law.q_cdf, rng),)
    elif law.block_mode == "independent-bernoulli":
        u = rng.random(m)
        blocks = tuple(int(j) for j in np.nonzero(u < law.q)[0])
    else:  # fixed-size-k
        u = rng.random(m)
        picked = np.argpartition(u, law.subset_size - 1)[: law.subset_size]
        blocks = tuple(int(j) for j in np.sort(picked))

    if len(blocks) == 1:
        i = _categorical(law.p_cdf[blocks[0]], rng)
    elif blocks:
        i = _categorical(np.cumsum(law.p[:, list(blocks)].mean(axis=1)), rng)
    else:
        i = None

    if law.rho >= 1.0:
        eps = 1
    else:
        eps = 1 if rng.random() < law.rho else 0
    return blocks, i, eps


def _uniforms_per_draw(law: SamplingLaw) -> int | None:
    """Uniforms that every :func:`draw` of ``law`` spends, None when the count varies."""
    coin = 0 if law.rho >= 1.0 else 1
    if law.block_mode == "single-block":
        return 2 + coin
    if law.block_mode == "fixed-size-k" or bool(np.all(law.q >= 1.0)):
        return law.m + 1 + coin
    return None


def _categoricals(cdfs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`_categorical` of each uniform in ``u``; ``cdfs`` is one CDF or one row per uniform.

    The count of CDF entries at most ``u * cdf[-1]`` is ``searchsorted``'s
    right-side index, as the CDFs are nondecreasing.
    """
    cdfs = np.atleast_2d(cdfs)
    idx = (cdfs <= (u * cdfs[:, -1])[:, None]).sum(axis=1)
    return np.minimum(idx, cdfs.shape[1] - 1)


def _chunk(law: SamplingLaw, rng: np.random.Generator, width: int) -> list:
    """The next ``CHUNK`` draws of a law spending ``width`` uniforms per draw."""
    u = rng.random((CHUNK, width))
    m = law.m
    if law.block_mode == "single-block":
        picked, col = _categoricals(law.q_cdf, u[:, 0])[:, None], 1
    else:
        k = law.subset_size if law.block_mode == "fixed-size-k" else m
        picked, col = np.sort(np.argpartition(u[:, :m], k - 1, axis=1)[:, :k], axis=1), m
    blocks = [tuple(row) for row in picked.tolist()]
    if picked.shape[1] == 1:
        cdfs = law.p_cdf[picked[:, 0]]
    else:
        # draw's mixture expression: a mean of equal columns can round away from one
        mixtures = {}
        for b in blocks:
            if b not in mixtures:
                mixtures[b] = np.cumsum(law.p[:, list(b)].mean(axis=1))
        cdfs = np.stack([mixtures[b] for b in blocks])
    ops = _categoricals(cdfs, u[:, col]).tolist()
    if law.rho >= 1.0:
        coins = [1] * CHUNK
    else:
        coins = (u[:, col + 1] < law.rho).astype(np.int64).tolist()
    return list(zip(blocks, ops, coins))


def draw_stream(law: SamplingLaw, rng: np.random.Generator):
    """Endless iterator of joint samples, equal draw for draw to calls of :func:`draw`.

    A law whose draws all spend the same number of uniforms is drawn
    ``CHUNK`` at a time (see the module docstring); any other law one
    :func:`draw` call at a time.
    """
    width = _uniforms_per_draw(law)
    if width is None:
        while True:
            yield draw(law, rng)
    while True:
        yield from _chunk(law, rng, width)


def trigger_prob(law: SamplingLaw, graph: TriggerGraph, i: int, j: int) -> float:
    """Probability that dual ``i`` refreshes in block ``j`` on one draw,

    i.e. ``q_j * sum over operators i' triggering i of p[i', j]``.
    """
    if not 0 <= i < law.n or not 0 <= j < law.m:
        raise IndexError(f"index ({i}, {j}) out of range for ({law.n}, {law.m})")
    total = sum(law.p[ip, j] for ip in graph.triggers_of(i))
    return float(law.q[j] * total)


def min_trigger_prob(law: SamplingLaw, graph: TriggerGraph) -> float:
    """min over supported (i, j) of the trigger probability."""
    vals = [
        trigger_prob(law, graph, i, j)
        for i in range(law.n)
        for j in range(law.m)
        if law.support[i, j]
    ]
    return float(min(vals))


def importance_law(lipschitz, rho: float = 1.0) -> SamplingLaw:
    """Single-block law over one block, operators weighted by their constants.

    Sampling frequencies proportional to the per-operator Lipschitz
    constants replace the max of the constants by their mean in the
    resulting step-size bound.
    """
    L = np.asarray(lipschitz, dtype=np.float64)
    if np.any(L <= 0):
        raise ValueError("Lipschitz constants must be positive")
    p = (L / L.sum()).reshape(-1, 1)
    return SamplingLaw(q=np.ones(1), p=p, rho=rho, block_mode="single-block")
