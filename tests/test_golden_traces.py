"""Golden SHA-256 hashes of ``trace.csv`` and ``replay.bin`` for fixed runs.

Each run mirrors ``smartsolve run`` (zero start, sampling sub-stream of the
seed, the bundle's oracle and dual init, trace stride 50) on the preset's
default problem; ``uniform-random`` draws its delays from the seed's delay
sub-stream, as the CLI does.  An engine change that alters the arithmetic of these
presets, even at the rounding level, changes a hash; the hashes are only
ever updated together with a note of why the bytes moved.
"""

import hashlib
import io

import pytest

from smartsolve.blockspace import BlockVector
from smartsolve.engine import run
from smartsolve.instances import PRESET_PROBLEM_KINDS, bundle_for
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
    # per-operator dual ages: each operator reads its own table state
    ("saga", "uniform-random"): (
        "16eef2be908ae4eb37e1854ac58ebfbc977103ea1aa9dd80695746f6114d061a",
        "4549c2a3705ac0ade9321c765ad7c5f72325111bd522123abc22a001d6323c61",
    ),
    ("kaczmarz", "uniform-random"): (
        "4ef03415f4285c8ac5705f4635004391b16eeecfad96e3e7556a7654f1a85483",
        "4549c2a3705ac0ade9321c765ad7c5f72325111bd522123abc22a001d6323c61",
    ),
    ("coordinate-saga", "uniform-random"): (
        "19a43b82a8337d42596f6f013ed19aef8b71c09f289c6044b6903c4b142a1ce4",
        "8186d90fe58d2f9070751c3d9c1e08c7dc434d662d9256e8373bdeb5c2a756da",
    ),
    # every other registered preset, zero mode only
    ("finito", "zero"): (
        "55e61cb31f497191dc26d5b0d7e148b439743b3c82e588282ccd230e7840ac8a",
        "660148d0174b1dd9d53e12b14a135f140415da5ccda30a778b22f5b4cee27cf0",
    ),
    ("lin-saga", "zero"): (
        "8377f034623597fd8b65c60308b23b2a702589dfdfbd1d9c3819eb1a8449fc51",
        "0837bfe76f1fb4b78138636cf42bb5e52dcc1ec028da756f79f4aede1730a667",
    ),
    ("minibatch-post", "zero"): (
        "a06f196b81169b85fea0d6ff820d67926d5d0ebf7e2536e50620fac789eafafb",
        "24534c0ddc9c9cd4e5416ef373c3282c25f20eea0c4122f571b730b3e1ed4521",
    ),
    ("minibatch-pre", "zero"): (
        "9224a1390f3208b386c94ab402789ccb1f7f0c467aa24122021a041e0d8e4638",
        "5ba2f7a776b46fff6c930cc57a1c8758cf4de7930e95f9203a03d6b45bd47631",
    ),
    ("mono", "zero"): (
        "6ca9099e5e7f63a7f1460511ac9380152da6afa413893887934278c3836c6d60",
        "a915ede586b344ec4f4dd6d09e601c20238eb01380988796566746a86351d285",
    ),
    ("projection", "zero"): (
        "245cca98e098ec11ee7023a1111e1b9de64e20ac722238ee3071d4b5f313423f",
        "7b7daffdb571ae838f589a513f2bdecd15e79199827e65b6daace88336e34b70",
    ),
    ("prox-saga", "zero"): (
        "f89aebd49116fa45490e6ab494b2a0b5611d47a23da0fe294384e2845ab1e773",
        "d340f3cabbf32cf3d454b103353bdaa6d911b8349a5ffdbc9e216a7da8b1801e",
    ),
    ("prox-smart-plus", "zero"): (
        "f7623603dbd2e6cb56ea6f28207f2d62e481ac372349d4b5f2925c465d637920",
        "5505f93d1ebab68b4537afeaef1266414ee7419069d5e88d6e7bad91c9dc7222",
    ),
    ("prox-smart", "zero"): (
        "c8d1aae8bfa9961548f3b9920268d6dbb3c34c107fbb0eeffa3c2aab29f7b67b",
        "32f303022a7287f177fedb2d3e1b7a549ca8efd66889add1d6ad38e552ff040e",
    ),
    ("prox-svrg", "zero"): (
        "46ac0447966234904cc6609b62f5fe7ea457c3f1416e9265c95ad47ea317e81e",
        "d340f3cabbf32cf3d454b103353bdaa6d911b8349a5ffdbc9e216a7da8b1801e",
    ),
    ("saddle", "zero"): (
        "261c9a7b822c665be47f7b812bf0d173e10ad0e9a4f70631bee568583c6a3bbf",
        "1cfdc1e10b2cb29ac4857110041083c74f8463c699e684183bc94ea89998c69b",
    ),
    ("sdca", "zero"): (
        "1412fc1c851c400ac3e6e63102730a68c07131a6fbbe36dcc2385413f07e72ed",
        "5cbe00653bb1d22cf796a1420b86ab2ff11525fa94f088cacaed3a16435a5219",
    ),
    ("super-saga", "zero"): (
        "e55b38fb4e48811ae8adf24347b7ce3742a1ea24ad76a8bed4f9d65f85337db4",
        "51d2aa09c3b19f6105c16bedb9f9b6c43c0ce4f78ca6aeb619f38220fd03234f",
    ),
    ("svrg-avg", "zero"): (
        "c0188e4b11262775f9b6121a04d4dd35b3868be71dc55c4a2527b5ba34fca765",
        "aabf181aca80b8fdc30e65c5213740f04c2a175ea56d02a44ccdbde7b3a97a6d",
    ),
    ("svrg-sched", "zero"): (
        "94991289a9449d4747cd0475c97a4420ce9e6b9bd2581bf4dfce08cb6e9be5e3",
        "24534c0ddc9c9cd4e5416ef373c3282c25f20eea0c4122f571b730b3e1ed4521",
    ),
    ("tropic", "zero"): (
        "12663024845b50d7ab1687d41de9c374eb57826663d20f5bf7fd9b3030101d74",
        "32f303022a7287f177fedb2d3e1b7a549ca8efd66889add1d6ad38e552ff040e",
    ),
}


def _artifacts(preset, mode):
    b = bundle_for(preset, seed=SEED)
    fam = b.family
    tau = 0 if mode == "zero" else TAU
    sched = DelaySchedule(tau_p=tau, tau_d=tau, mode=mode, m=fam.m, n=fam.n,
                          rng=substream(SEED, "delays"))
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


def test_every_registered_preset_has_a_zero_mode_hash():
    assert {p for p, mode in GOLDEN if mode == "zero"} == set(PRESET_PROBLEM_KINDS)
