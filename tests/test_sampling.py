import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smartsolve.instances import bundle_for
from smartsolve.problems import ridge
from smartsolve.sampling import (
    CHUNK,
    SamplingLaw,
    TriggerGraph,
    draw,
    draw_stream,
    importance_law,
    min_trigger_prob,
    substream,
    trigger_prob,
)


def uniform_single_block_law(n, m, rho=1.0):
    return SamplingLaw(q=np.full(m, 1.0 / m), p=np.full((n, m), 1.0 / n), rho=rho)


# ---------------------------------------------------------------------------
# law validation


def test_law_invariants_enforced():
    with pytest.raises(ValueError):
        SamplingLaw(q=np.array([0.0, 1.0]), p=np.ones((1, 2)), rho=1.0)
    with pytest.raises(ValueError):
        SamplingLaw(q=np.ones(1), p=np.array([[0.4], [0.4]]), rho=1.0)  # col != 1
    with pytest.raises(ValueError):
        SamplingLaw(q=np.ones(1), p=np.ones((1, 1)), rho=0.0)
    with pytest.raises(ValueError):
        # single-block mode needs q summing to one
        SamplingLaw(q=np.array([0.9, 0.9]), p=np.full((2, 2), 0.5), rho=1.0)
    with pytest.raises(ValueError):
        # block-dependent conditionals are only exact with single-block draws
        SamplingLaw(
            q=np.ones(2), p=np.array([[0.2, 0.8], [0.8, 0.2]]), rho=1.0,
            block_mode="independent-bernoulli",
        )


def test_law_json_round_trip():
    law = SamplingLaw(q=np.array([0.25, 0.75]),
                      p=np.array([[0.1, 0.1], [0.9, 0.9]]), rho=0.5)
    back = SamplingLaw.from_json(law.to_json())
    np.testing.assert_array_equal(back.q, law.q)
    np.testing.assert_array_equal(back.p, law.p)
    assert back.rho == law.rho and back.block_mode == law.block_mode


# ---------------------------------------------------------------------------
# draws


def test_single_block_frequencies_match_law():
    # empirical frequencies over 1e5 draws within 3 sigma binomial bounds
    n, m, draws = 3, 4, 100_000
    q = np.array([0.1, 0.2, 0.3, 0.4])
    p = np.array([[0.5, 0.5, 0.5, 0.5], [0.3, 0.3, 0.3, 0.3], [0.2, 0.2, 0.2, 0.2]])
    law = SamplingLaw(q=q, p=p, rho=1.0)
    rng = substream(42, "sampling")
    block_counts = np.zeros(m)
    op_counts = np.zeros(n)
    for _ in range(draws):
        blocks, i, eps = draw(law, rng)
        assert eps == 1
        block_counts[blocks[0]] += 1
        op_counts[i] += 1
    for j in range(m):
        sigma = np.sqrt(q[j] * (1 - q[j]) * draws)
        assert abs(block_counts[j] - q[j] * draws) <= 3 * sigma
    for i in range(n):
        pi = p[i, 0]
        sigma = np.sqrt(pi * (1 - pi) * draws)
        assert abs(op_counts[i] - pi * draws) <= 3 * sigma


def test_rho_one_never_draws_coin():
    law = uniform_single_block_law(2, 1, rho=1.0)
    rng = substream(0, "sampling")
    assert all(draw(law, rng)[2] == 1 for _ in range(100))


def test_bernoulli_mode_allows_empty_draws():
    law = SamplingLaw(q=np.array([0.2, 0.2]), p=np.full((2, 2), 0.5), rho=1.0,
                      block_mode="independent-bernoulli")
    rng = substream(1, "sampling")
    seen_empty = False
    for _ in range(200):
        blocks, i, _ = draw(law, rng)
        if not blocks:
            assert i is None
            seen_empty = True
    assert seen_empty


def test_fixed_size_mode_draws_exact_subsets():
    law = SamplingLaw(q=np.full(5, 2.0 / 5.0), p=np.full((2, 5), 0.5), rho=1.0,
                      block_mode="fixed-size-k", subset_size=2)
    rng = substream(2, "sampling")
    counts = np.zeros(5)
    draws = 50_000
    for _ in range(draws):
        blocks, _, _ = draw(law, rng)
        assert len(blocks) == 2 and len(set(blocks)) == 2
        for j in blocks:
            counts[j] += 1
    for j in range(5):
        sigma = np.sqrt(0.4 * 0.6 * draws)
        assert abs(counts[j] - 0.4 * draws) <= 3 * sigma


def test_saga_preset_law_is_uniform():
    bundle = bundle_for("saga", problem=ridge(rows=6, dim=4, seed=0))
    law = bundle.law
    assert law.m == 1 and law.q[0] == 1.0 and law.rho == 1.0
    np.testing.assert_allclose(law.p[:, 0], 1.0 / 6.0)
    rng = substream(3, "sampling")
    counts = np.zeros(6)
    for _ in range(60_000):
        _, i, _ = draw(law, rng)
        counts[i] += 1
    sigma = np.sqrt((1 / 6) * (5 / 6) * 60_000)
    assert np.all(np.abs(counts - 10_000) <= 3 * sigma)


def test_draws_are_reproducible():
    law = uniform_single_block_law(4, 3, rho=0.5)
    a = [draw(law, substream(9, "sampling")) for _ in range(1)]
    seq1 = [draw(law, rng) for rng in [substream(9, "sampling")] for _ in range(50)]
    rng1, rng2 = substream(9, "sampling"), substream(9, "sampling")
    seq1 = [draw(law, rng1) for _ in range(200)]
    seq2 = [draw(law, rng2) for _ in range(200)]
    assert seq1 == seq2


def _draw_with_per_call_cdfs(law, rng):
    """``draw`` as written before the laws stored their CDFs."""

    def categorical(weights):
        cdf = np.cumsum(weights)
        u = rng.random() * cdf[-1]
        return int(np.searchsorted(cdf, u, side="right").clip(0, len(weights) - 1))

    if law.block_mode == "single-block":
        blocks = (categorical(law.q),)
    elif law.block_mode == "independent-bernoulli":
        u = rng.random(law.m)
        blocks = tuple(int(j) for j in np.nonzero(u < law.q)[0])
    else:
        u = rng.random(law.m)
        picked = np.argpartition(u, law.subset_size - 1)[: law.subset_size]
        blocks = tuple(int(j) for j in np.sort(picked))
    i = None
    if blocks:
        weights = law.p[:, blocks[0]]
        if len(blocks) > 1:
            weights = law.p[:, list(blocks)].mean(axis=1)
        i = categorical(weights)
    eps = 1 if law.rho >= 1.0 else int(rng.random() < law.rho)
    return blocks, i, eps


@st.composite
def sampling_laws(draw_):
    mode = draw_(st.sampled_from(["single-block", "independent-bernoulli", "fixed-size-k"]))
    n, m = draw_(st.integers(1, 6)), draw_(st.integers(1, 6))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    # multi-block draws need block-constant conditionals
    cols = 1 if mode != "single-block" else m
    p = np.array(draw_(st.lists(st.lists(mass, min_size=n, max_size=n),
                                min_size=cols, max_size=cols))).T
    p[0, p.sum(axis=0) == 0.0] = 1.0
    p = np.repeat(p / p.sum(axis=0), m // cols, axis=1)
    k = 1
    if mode == "single-block":
        q = np.array(draw_(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
        q = q / q.sum()
    elif mode == "independent-bernoulli":
        q = np.array(draw_(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m)))
    else:
        k = draw_(st.integers(1, m))
        q = np.full(m, k / m)
    rho = draw_(st.one_of(st.just(1.0), st.floats(0.05, 0.95)))
    return SamplingLaw(q=q, p=p, rho=rho, block_mode=mode, subset_size=k)


@settings(max_examples=150, deadline=None)
@given(sampling_laws(), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_draw_with_stored_cdfs_equals_the_per_call_formula(law, seed, count):
    rng_a, rng_b = substream(seed, "sampling"), substream(seed, "sampling")
    for _ in range(count):
        assert draw(law, rng_a) == _draw_with_per_call_cdfs(law, rng_b)
    # both spent the same randomness
    assert rng_a.random() == rng_b.random()


@settings(max_examples=40, deadline=None)
@given(sampling_laws(), st.integers(0, 2**32 - 1), st.integers(1, 3 * CHUNK))
@example(SamplingLaw(q=np.ones(3), p=np.full((4, 3), 0.25), rho=0.5,
                     block_mode="independent-bernoulli"), 0, CHUNK + 1)
@example(SamplingLaw(q=np.full(5, 0.6), p=np.full((3, 5), 1 / 3), rho=1.0,
                     block_mode="fixed-size-k", subset_size=3), 1, 2 * CHUNK)
def test_draw_stream_equals_repeated_per_call_draws(law, seed, count):
    rng_a, rng_b = substream(seed, "sampling"), substream(seed, "sampling")
    stream = draw_stream(law, rng_a)
    for _ in range(count):
        assert next(stream) == _draw_with_per_call_cdfs(law, rng_b)
    # at the end of a chunk both generators sit at the same position
    for _ in range(-count % CHUNK):
        assert next(stream) == _draw_with_per_call_cdfs(law, rng_b)
    assert rng_a.random() == rng_b.random()


def test_substreams_are_independent_and_named():
    a = substream(5, "sampling").random(4)
    b = substream(5, "delays").random(4)
    assert not np.allclose(a, b)
    with pytest.raises(KeyError):
        substream(5, "nonsense")


# ---------------------------------------------------------------------------
# trigger graphs


def test_trigger_graph_requires_self_loops():
    with pytest.raises(ValueError):
        TriggerGraph(2, frozenset({(0, 0)}))


def test_trigger_prob_examples():
    # disconnected graph, uniform conditionals: refresh chance is 1/N
    n = 5
    law = uniform_single_block_law(n, 1)
    graph = TriggerGraph.self_loops(n)
    assert trigger_prob(law, graph, 2, 0) == pytest.approx(1.0 / n)
    # complete graph: every draw refreshes every dual
    graph = TriggerGraph.complete(n)
    assert trigger_prob(law, graph, 2, 0) == pytest.approx(1.0)
    # ring graph with fan-in 2 over 8 nodes: 2/8 per dual
    law8 = uniform_single_block_law(8, 1)
    ring = TriggerGraph.ring_into(8, 2)
    for i in range(8):
        assert trigger_prob(law8, ring, i, 0) == pytest.approx(0.25)


def test_trigger_prob_monte_carlo_agreement():
    # empirical trigger frequency over 1e5 draws within 3 sigma, for each
    # preset graph shape
    n = 6
    law = uniform_single_block_law(n, 1)
    draws = 100_000
    # one stream over the four graphs: its draws are those of repeated
    # ``draw(law, rng)`` calls
    stream = draw_stream(law, substream(11, "sampling"))
    for graph in (TriggerGraph.self_loops(n), TriggerGraph.complete(n),
                  TriggerGraph.star_into_last(n), TriggerGraph.ring_into(n, 3)):
        target = 4  # an arbitrary dual index
        p_t = trigger_prob(law, graph, target, 0)
        triggers = set(graph.triggers_of(target))
        hits = sum(i in triggers for _, i, _ in itertools.islice(stream, draws))
        sigma = np.sqrt(p_t * (1 - p_t) * draws) if 0 < p_t < 1 else 0.0
        assert abs(hits - p_t * draws) <= max(3 * sigma, 1e-9)


def test_min_trigger_prob():
    n = 4
    law = uniform_single_block_law(n, 1)
    graph = TriggerGraph.star_into_last(n)
    # the last dual refreshes always; the others only on their own draw
    assert min_trigger_prob(law, graph) == pytest.approx(1.0 / n)
    assert trigger_prob(law, graph, n - 1, 0) == pytest.approx(1.0)


def test_graph_json_round_trip_and_presets():
    g = TriggerGraph.star_into_last(3)
    back = TriggerGraph.from_json(g.to_json(), 3)
    assert back.edges == g.edges
    assert TriggerGraph.from_json({"preset": "complete"}, 3).edges == \
        TriggerGraph.complete(3).edges
    with pytest.raises(ValueError):
        TriggerGraph.from_json({"preset": "bogus"}, 3)


# ---------------------------------------------------------------------------
# importance sampling


def test_importance_law_examples():
    law = importance_law([1.0, 1.0])
    np.testing.assert_allclose(law.p[:, 0], [0.5, 0.5])
    law = importance_law([1.0, 3.0])
    np.testing.assert_allclose(law.p[:, 0], [0.25, 0.75])
    with pytest.raises(ValueError):
        importance_law([1.0, 0.0])


def test_importance_step_bound_beats_uniform():
    # 1/(2 mean L) >= 1/(2 max L) for any constants
    rng = np.random.default_rng(1)
    for _ in range(50):
        L = rng.uniform(0.1, 10.0, size=8)
        assert 1.0 / (2.0 * L.mean()) >= 1.0 / (2.0 * L.max())
