"""Delay schedules, history ring buffers, and the replay log format.

Delays are what make the engine asynchronous without threads: at iteration
``k`` the primal update reads the mixed-age vector whose block ``j`` is the
``d[j]``-iterations-old value, and the dual terms read a table that is
``e``-iterations old (optionally per operator).  The measure of read
inconsistency is the largest within-iteration spread of the primal delay
vector; consistent-read schedules have spread zero.

A recorded schedule replays bit-identically, which is how genuinely
concurrent executions are audited on the deterministic engine: the executor
records what happened, the engine reruns it.
"""

from __future__ import annotations

import io
import itertools
import json
import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DelaySchedule",
    "HistoryBuffer",
    "MAX_BLOCKS",
    "MAX_DELAY",
    "delayed_read",
    "inconsistency",
    "ReplayRecord",
    "ReplayLog",
]

DELAY_MODES = ("zero", "constant-max", "cyclic", "uniform-random", "recorded")

# largest delay the replay log can hold: it stores d and per-operator e as uint8
MAX_DELAY = 255
# most blocks the replay log can index: it stores block indices as uint16
MAX_BLOCKS = 65535

_MAGIC = b"SMRL"


@dataclass(frozen=True)
class ReplayRecord:
    """Everything one iteration consumed: the draw and the delays."""

    blocks: tuple[int, ...]
    op_index: int | None
    eps: int
    d: np.ndarray                     # (m,) primal delays
    e: int | np.ndarray               # scalar or (n,) dual delays

    def max_delay(self) -> int:
        dmax = int(self.d.max()) if self.d.size else 0
        emax = int(np.max(self.e))
        return max(dmax, emax)


class ReplayLog:
    """Append-only record of a run, serializable to a compact binary form."""

    def __init__(self, m: int, n: int, tau_p: int, tau_d: int, mode: str = "recorded"):
        if int(m) > MAX_BLOCKS:
            raise ValueError(f"the replay log indexes at most {MAX_BLOCKS} blocks, got m={m}")
        self.m, self.n = int(m), int(n)
        self.tau_p, self.tau_d = int(tau_p), int(tau_d)
        self.mode = mode
        self.records: list[ReplayRecord] = []

    def append(self, record: ReplayRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- binary round trip ---------------------------------------------------

    def dump(self, fh: io.BufferedWriter):
        """Write the log; a delay outside ``[0, MAX_DELAY]`` or a block or
        operator index outside ``[0, m)``/``[0, n)`` raises before any byte is written."""
        recs = self.records
        blocks = np.fromiter(itertools.chain.from_iterable(r.blocks for r in recs), np.int64)
        ops = np.fromiter((r.op_index for r in recs if r.op_index is not None), np.int64)
        for name, idx, size in (("block", blocks, self.m), ("operator", ops, self.n)):
            if idx.size and (idx.min() < 0 or idx.max() >= size):
                raise ValueError(
                    f"{name} indices in [{idx.min()}, {idx.max()}] do not index the "
                    f"log's {size} {name}s"
                )
        es = [r.e for r in recs]
        delays = np.concatenate([
            *(r.d for r in recs),
            np.asarray([e for e in es if np.ndim(e) == 0], dtype=np.int64),
            *(e for e in es if np.ndim(e) != 0),
        ])
        if delays.size and (delays.min() < 0 or delays.max() > MAX_DELAY):
            raise ValueError(
                f"delays in [{delays.min()}, {delays.max()}] do not fit the replay "
                f"log's [0, {MAX_DELAY}] fields"
            )
        header = {
            "m": self.m, "n": self.n,
            "tau_p": self.tau_p, "tau_d": self.tau_d, "mode": self.mode,
        }
        fh.write(_MAGIC)
        blob = json.dumps(header).encode()
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(self.records)))
        for r in self.records:
            i_enc = 0 if r.op_index is None else r.op_index + 1
            fh.write(struct.pack("<IBH", i_enc, r.eps, len(r.blocks)))
            fh.write(struct.pack(f"<{len(r.blocks)}H", *r.blocks))
            fh.write(np.asarray(r.d, dtype=np.uint8).tobytes())
            if np.isscalar(r.e) or np.ndim(r.e) == 0:
                fh.write(struct.pack("<BB", 1, int(r.e)))
            else:
                e = np.asarray(r.e, dtype=np.uint8)
                fh.write(struct.pack("<B", 2))
                fh.write(e.tobytes())

    def dumps(self) -> bytes:
        buf = io.BytesIO()
        self.dump(buf)
        return buf.getvalue()

    @classmethod
    def load(cls, fh: io.BufferedReader) -> "ReplayLog":
        """Read a log; a short read or an out-of-range index raises ``ValueError``."""

        def read(size):
            data = fh.read(size)
            if len(data) != size:
                raise ValueError(f"replay log ends early: wanted {size} bytes, got {len(data)}")
            return data

        if fh.read(4) != _MAGIC:
            raise ValueError("not a replay log")
        (hlen,) = struct.unpack("<I", read(4))
        header = json.loads(read(hlen).decode())
        log = cls(**header)
        (count,) = struct.unpack("<I", read(4))
        for _ in range(count):
            i_enc, eps, ns = struct.unpack("<IBH", read(7))
            blocks = struct.unpack(f"<{ns}H", read(2 * ns)) if ns else ()
            if i_enc > log.n or (blocks and max(blocks) >= log.m):
                raise ValueError(f"record {len(log)} indexes outside n={log.n}, m={log.m}")
            d = np.frombuffer(read(log.m), dtype=np.uint8).astype(np.int64)
            (ekind,) = struct.unpack("<B", read(1))
            if ekind == 1:
                (e,) = struct.unpack("<B", read(1))
                e = int(e)
            else:
                e = np.frombuffer(read(log.n), dtype=np.uint8).astype(np.int64)
            log.append(
                ReplayRecord(
                    blocks=tuple(int(b) for b in blocks),
                    op_index=None if i_enc == 0 else i_enc - 1,
                    eps=int(eps),
                    d=d,
                    e=e,
                )
            )
        return log

    @classmethod
    def loads(cls, data: bytes) -> "ReplayLog":
        return cls.load(io.BytesIO(data))


@dataclass
class DelaySchedule:
    """Per-iteration emitters for the primal and dual delay vectors.

    ``mode`` is one of ``zero``, ``constant-max``, ``cyclic``,
    ``uniform-random`` (independent uniform entries drawn from the delay
    sub-stream) or ``recorded`` (replays a log verbatim).  Emitted values
    always lie in ``[0, tau_p]`` resp. ``[0, tau_d]``; both caps are at most
    ``MAX_DELAY`` so that every emitted delay fits the replay log.
    """

    tau_p: int
    tau_d: int
    mode: str = "zero"
    m: int = 1
    n: int = 1
    rng: np.random.Generator | None = None
    log: ReplayLog | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in DELAY_MODES:
            raise ValueError(f"unknown delay mode {self.mode!r}")
        if self.tau_p < 0 or self.tau_d < 0:
            raise ValueError("delay caps must be nonnegative")
        if self.tau_p > MAX_DELAY or self.tau_d > MAX_DELAY:
            raise ValueError(
                f"delay caps must not exceed {MAX_DELAY}, the replay log's field width"
            )
        if self.mode == "uniform-random" and self.rng is None:
            raise ValueError("uniform-random mode needs its own rng stream")
        if self.mode == "recorded" and self.log is None:
            raise ValueError("recorded mode needs a log")

    def primal_delays(self, k: int) -> np.ndarray:
        if self.mode == "zero":
            return np.zeros(self.m, dtype=np.int64)
        if self.mode == "constant-max":
            return np.full(self.m, self.tau_p, dtype=np.int64)
        if self.mode == "cyclic":
            return np.full(self.m, k % (self.tau_p + 1), dtype=np.int64)
        if self.mode == "uniform-random":
            return self.rng.integers(0, self.tau_p + 1, size=self.m)
        return np.asarray(self.log.records[k].d, dtype=np.int64)

    def dual_delays(self, k: int):
        """Scalar (all operators) or (n,) array of dual table ages."""
        if self.mode == "zero":
            return 0
        if self.mode == "constant-max":
            return self.tau_d
        if self.mode == "cyclic":
            return k % (self.tau_d + 1)
        if self.mode == "uniform-random":
            return self.rng.integers(0, self.tau_d + 1, size=self.n)
        return self.log.records[k].e

    def reads_dual_state(self, t: int) -> bool:
        """Whether some iteration may read dual state ``t`` (the table after ``t`` iterations).

        Only ``cyclic`` rules states out: iteration ``k`` reads state
        ``k - k mod (tau_d + 1)``, always a multiple of ``tau_d + 1``.
        """
        if self.mode == "cyclic":
            return t % (self.tau_d + 1) == 0
        return True

    @classmethod
    def zero(cls, m: int = 1, n: int = 1) -> "DelaySchedule":
        return cls(tau_p=0, tau_d=0, mode="zero", m=m, n=n)


class HistoryBuffer:
    """Ring of the last ``capacity`` states, indexed by state number.

    Row ``t`` is the state after ``t`` completed iterations; row 0 is the
    initial state.  Reads of nonpositive state numbers return row 0
    (iterates before the start are defined to equal the initial point).
    Rows older than ``capacity - 1`` behind the newest are evicted.
    """

    def __init__(self, capacity: int, initial):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rows = [None] * self.capacity
        self._rows[0] = initial
        self.newest = 0

    def push(self, row):
        self.newest += 1
        self._rows[self.newest % self.capacity] = row

    def latest(self):
        return self._rows[self.newest % self.capacity]

    def read(self, t: int):
        t = max(int(t), 0)
        if t > self.newest:
            raise IndexError(f"state {t} not yet produced (newest {self.newest})")
        if t <= self.newest - self.capacity:
            raise IndexError(
                f"state {t} evicted (window is {self.newest - self.capacity + 1}"
                f"..{self.newest})"
            )
        return self._rows[t % self.capacity]


def delayed_read(buffer: HistoryBuffer, k: int, d) -> tuple:
    """Mixed-age tuple of blocks: entry ``j`` comes from state ``k - d[j]``.

    Rows must be tuples/lists of per-block arrays.  ``d = 0`` returns the
    state-``k`` row's blocks verbatim (same array objects, no copies).
    """
    d = np.asarray(d, dtype=np.int64)
    if np.any(d < 0) or np.any(d > buffer.capacity - 1):
        raise ValueError(f"delays {d} exceed buffer capacity {buffer.capacity}")
    if not d.any():
        return tuple(buffer.read(k))
    rows = {}
    blocks = []
    for j, dj in enumerate(d):
        t = k - int(dj)
        if t not in rows:
            rows[t] = buffer.read(t)
        blocks.append(rows[t][j])
    return tuple(blocks)


def inconsistency(delay_vectors) -> int:
    """Largest within-iteration spread ``max_j d[j] - min_j d[j]`` observed."""
    worst = 0
    seen = False
    for d in delay_vectors:
        d = np.asarray(d)
        seen = True
        if d.size > 1:
            worst = max(worst, int(d.max() - d.min()))
    if not seen:
        raise ValueError("need at least one delay vector")
    return worst
