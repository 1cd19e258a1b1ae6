"""Golden SHA-256 hashes of ``trace.csv`` and ``replay.bin`` for fixed runs.

Each run mirrors ``smartsolve run`` (zero start, sampling sub-stream of the
seed, the bundle's oracle and dual init, trace stride 50) on the preset's
default problem.  An engine change that alters the arithmetic of these
presets, even at the rounding level, changes a hash; the hashes are only
ever updated together with a note of why the bytes moved.
"""

import hashlib
import io

import pytest

from smartsolve.blockspace import BlockVector
from smartsolve.engine import run
from smartsolve.instances import bundle_for
from smartsolve.sampling import substream
from smartsolve.schedule import DelaySchedule

SEED = 1
ITERS = 1000
TAU = 2

# (preset, delay mode) -> (sha256 of trace.csv, sha256 of replay.bin)
GOLDEN = {
    ("saga", "zero"): (
        "b3efc787bf5cdaf087c73b4c5679c37ad0dd3f07260233864240bc3fe9b334da",
        "24534c0ddc9c9cd4e5416ef373c3282c25f20eea0c4122f571b730b3e1ed4521",
    ),
    ("saga", "constant-max"): (
        "a02fc8149aa10d754160e0fca99f9d997143b8672fca9bc3fc366709f4c6afc5",
        "9d0837506fec1c3dc07c9a3f7eacb2fb77534953c18a3f4ce05161f6fb5132a2",
    ),
    ("saga", "cyclic"): (
        "dba4ffa9664816a76e5e23a8addd48bad2b166719b85e8b58aeb5412620140a9",
        "e2dba143dc700e5b9ef2589c4b704a9fd9e5718b55b3da7a4a90daafd786c3f8",
    ),
    ("kaczmarz", "zero"): (
        "e8cb104c315172ebc602c38ebb300d6bea6e49cf54e215e88ebe207cc35315a2",
        "24534c0ddc9c9cd4e5416ef373c3282c25f20eea0c4122f571b730b3e1ed4521",
    ),
    ("kaczmarz", "constant-max"): (
        "0f62d5d176c475d6da7e84a47bf5700ee1fbd61b8df4ecdb3c2a801efb88571e",
        "9d0837506fec1c3dc07c9a3f7eacb2fb77534953c18a3f4ce05161f6fb5132a2",
    ),
    ("kaczmarz", "cyclic"): (
        "9c9973f8b56fe2007a56b612752ec11c3d6bbb5ce9d81095244397d8c1046143",
        "e2dba143dc700e5b9ef2589c4b704a9fd9e5718b55b3da7a4a90daafd786c3f8",
    ),
    ("coordinate-saga", "zero"): (
        "ed2fe1ff6910f56ebce2cd7f28a9a8c1eb733b1cca9f625a77c9afcc97437603",
        "3dbf9793aac9e265c91cb34c8145b24733ff07a5c7d1382ef0ae65a08892a18b",
    ),
    ("coordinate-saga", "constant-max"): (
        "71142b2404e7b9c638d4ab6ed550db26d2069a10ca8756728c50e26ac17e1c17",
        "334e9e7ec9ced7e5e57501539b35fe45187d060ec1961b22af15e85ed878750f",
    ),
    ("coordinate-saga", "cyclic"): (
        "a048d2778931e2ad8234e17e692796dfbd068a96f2c55e904407ddf4da33a4ce",
        "4d696ff93cbc5aec99eeb85cbe497fe4e12416a701135a07c8d890c21a4c7b0c",
    ),
}


def _artifacts(preset, mode):
    b = bundle_for(preset, seed=SEED)
    fam = b.family
    tau = 0 if mode == "zero" else TAU
    sched = DelaySchedule(tau_p=tau, tau_d=tau, mode=mode, m=fam.m, n=fam.n)
    res = run(BlockVector.zeros(fam.layout), fam, b.law, b.graph, sched, b.steps,
              max_iters=ITERS, rng=substream(SEED, "sampling"), oracle=b.oracle,
              trace_stride=50, dual_init=b.dual_init)
    csv = io.StringIO()
    res.trace.to_csv(csv)
    return (hashlib.sha256(csv.getvalue().encode()).hexdigest(),
            hashlib.sha256(res.log.dumps()).hexdigest())


@pytest.mark.parametrize("preset,mode", sorted(GOLDEN))
def test_golden_trace_and_replay_bytes(preset, mode):
    assert _artifacts(preset, mode) == GOLDEN[(preset, mode)]
