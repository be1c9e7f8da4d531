from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoinf.deepwalk import (
    _BUCKETS,
    _draw_negatives,
    _negative_table,
    _pair_positions,
    deepwalk_embed,
)
from egoinf.errors import ConfigError
from egoinf.features import DeepWalkConfig, FeatureStore, influence_features
from egoinf.graphs import EgoSample, UndirectedGraph
from egoinf.layers import attention_layout, normalized_adjacency
from egoinf.rng import stream
from egoinf.sampling import rwr_sample

from .oracles import (
    oracle_deepwalk_embed,
    oracle_skipgram_pairs,
    oracle_skipgram_sgd,
    random_adjacency,
    random_walks,
)


def skipgram_pairs(walk, window):
    """(center, context) pairs of one walk in the library's pair order."""
    tokens = np.asarray(walk)
    center, context = _pair_positions(tokens.size, window)
    return list(zip(tokens[center].tolist(), tokens[context].tolist()))


def graph_from_edges(n, edges):
    return UndirectedGraph.from_edges(n, edges)


def make_sample(adj, ego=0, state=None, sid="s"):
    adj = np.asarray(adj, dtype=np.int8)
    n = adj.shape[0]
    return EgoSample(
        graph=UndirectedGraph(adj),
        ego=ego,
        influence_state=np.zeros(n, dtype=np.int8) if state is None else np.asarray(state),
        label=0,
        sample_id=sid,
    )


class TestRwrSample:
    def test_complete_graph_reaches_target(self):
        g = graph_from_edges(10, [(i, j) for i in range(10) for j in range(i + 1, 10)])
        out = rwr_sample(g, ego=3, n_target=5, restart_p=0.8, rng=stream(0, "rwr"))
        assert out.graph.n == 5
        assert not out.truncated
        assert 3 in out.node_ids
        assert out.node_ids[out.ego] == 3

    def test_isolated_ego_returns_singleton_with_flag(self):
        g = graph_from_edges(4, [(1, 2)])
        out = rwr_sample(g, ego=0, n_target=3, restart_p=0.8, rng=stream(1, "rwr"))
        assert out.graph.n == 1
        assert out.truncated

    def test_star_center_collects_leaves(self):
        g = graph_from_edges(6, [(0, i) for i in range(1, 6)])
        out = rwr_sample(g, ego=0, n_target=4, restart_p=0.8, rng=stream(2, "rwr"))
        assert out.graph.n == 4
        assert 0 in out.node_ids
        # everything except the ego must be a leaf of the star
        for nid in out.node_ids:
            if nid != 0:
                assert 1 <= nid <= 5

    def test_induced_subgraph_preserves_edges(self):
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        out = rwr_sample(g, ego=0, n_target=5, restart_p=0.8, rng=stream(3, "rwr"))
        ids = out.node_ids
        for a in range(len(ids)):
            for b in range(len(ids)):
                assert out.graph.adjacency[a, b] == g.adjacency[ids[a], ids[b]]


class TestDeepwalk:
    def test_skipgram_pairs_window_one(self):
        assert set(skipgram_pairs(["a", "b", "c"], window=1)) == {
            ("a", "b"),
            ("b", "a"),
            ("b", "c"),
            ("c", "b"),
        }

    def test_walks_stay_on_edges(self):
        g = graph_from_edges(6, [(0, 1), (1, 2), (3, 4)])
        for walk in random_walks(g, 2, 8, stream(0, "w")):
            for a, b in zip(walk, walk[1:]):
                assert g.adjacency[a, b] == 1

    def test_same_stream_same_embeddings(self):
        g = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        cfg = DeepWalkConfig(dim=6, walks_per_node=3, walk_length=10)
        e1 = deepwalk_embed(g, cfg, stream(5, "dw"))
        e2 = deepwalk_embed(g, cfg, stream(5, "dw"))
        np.testing.assert_array_equal(e1, e2)

    def test_disconnected_cliques_are_separable(self):
        edges = []
        for base in (0, 5):
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append((base + i, base + j))
        g = graph_from_edges(10, edges)
        cfg = DeepWalkConfig(dim=8, walks_per_node=8, walk_length=20, window=3, negatives=4, epochs=6)
        emb = deepwalk_embed(g, cfg, stream(11, "dw"))
        norm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        sim = norm @ norm.T
        intra, inter = [], []
        for i in range(10):
            for j in range(i + 1, 10):
                (intra if (i < 5) == (j < 5) else inter).append(sim[i, j])
        assert np.mean(intra) > np.mean(inter)

    def test_isolated_node_keeps_initialization(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)])
        cfg = DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6)
        emb = deepwalk_embed(g, cfg, stream(7, "dw"))
        # node 3 never enters a walk pair: its row stays at the uniform init scale
        assert np.all(np.abs(emb[3]) <= 0.5 / 4 + 1e-12)


class TestInfluenceFeatures:
    def test_direct_construction(self):
        s = make_sample(np.zeros((3, 3)), ego=1, state=[1, 0, 0])
        np.testing.assert_array_equal(
            influence_features(s), [[1, 0], [0, 1], [0, 0]]
        )

    def test_zero_state_zero_column(self):
        s = make_sample(np.zeros((4, 4)), ego=2)
        feats = influence_features(s)
        np.testing.assert_array_equal(feats[:, 0], np.zeros(4))

    def test_exactly_one_ego_marker(self):
        for ego in range(5):
            s = make_sample(np.zeros((5, 5)), ego=ego, state=[1, 1, 0, 0, 1])
            feats = influence_features(s)
            assert feats[:, 1].sum() == 1
            assert feats[ego, 1] == 1


class TestFeatureStore:
    def test_bundle_widths_and_cache(self):
        s = make_sample([[0, 1], [1, 0]], sid="w")
        store = FeatureStore(0, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6))
        fb = store.bundle(s)
        assert fb.encoder_input.shape == (2, 6)
        assert fb.width == 6
        assert store.bundle(s) is fb

    def test_bundle_builds_encoder_input_and_layout_once(self):
        s = make_sample([[0, 1, 0], [1, 0, 0], [0, 0, 0]], sid="once")
        fb = FeatureStore(0, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6)).bundle(s)
        np.testing.assert_array_equal(fb.encoder_input[:, :2], influence_features(s))
        np.testing.assert_array_equal(fb.a_hat, normalized_adjacency(fb.adjacency))
        for got, want in zip(fb.layout, attention_layout(fb.adjacency)):
            np.testing.assert_array_equal(got, want)
        # the isolated node attends to itself
        np.testing.assert_array_equal(fb.layout.counts, [2, 2, 1])

    def test_bundle_shares_the_graphs_read_only_int8_adjacency(self):
        s = make_sample(random_adjacency(12, np.random.default_rng(3)), sid="share")
        fb = FeatureStore(0, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6)).bundle(s)
        assert fb.adjacency is s.graph.adjacency
        assert fb.adjacency.dtype == np.int8 and not fb.adjacency.flags.writeable
        # nothing derived yet: no float copy of the adjacency, no a_hat, no layout
        assert set(vars(fb)) == {"encoder_input", "adjacency"}

    def test_each_derived_field_is_built_once_on_first_read(self, monkeypatch):
        from egoinf import features

        built = {}

        def counting(name):
            real = getattr(features, name)

            def wrapper(adj):
                built[name] = built.get(name, 0) + 1
                return real(adj)

            monkeypatch.setattr(features, name, wrapper)

        for name in ("degree_scale", "attention_layout", "reconstruction_terms"):
            counting(name)
        s = make_sample(random_adjacency(9, np.random.default_rng(4)), sid="lazy")
        fb = FeatureStore(0, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6)).bundle(s)
        assert built == {}
        for field in ("layout", "recon_terms"):
            first = getattr(fb, field)
            assert getattr(fb, field) is first
        # a_hat is derived on each read, from the degree scale the
        # adjacency's one check builds
        want = normalized_adjacency(fb.adjacency).tobytes()
        reads = [fb.a_hat for _ in range(3)]
        assert all(a.tobytes() == want for a in reads)
        assert reads[0] is not reads[1]
        assert built == {"degree_scale": 1, "attention_layout": 1, "reconstruction_terms": 1}

    def test_same_id_different_graph_not_conflated(self):
        a = make_sample([[0, 1], [1, 0]], sid="same")
        b = make_sample([[0, 0], [0, 0]], sid="same")
        store = FeatureStore(0, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6))
        fa, fb = store.bundle(a), store.bundle(b)
        assert not np.array_equal(fa.adjacency, fb.adjacency)

    def test_same_id_and_graph_with_another_ego_or_state_not_conflated(self):
        # two datasets name their egos alike; one store may serve both
        adj = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
        samples = [
            make_sample(adj, ego=0, state=[0, 1, 0], sid="s00000"),
            make_sample(adj, ego=1, state=[0, 1, 0], sid="s00000"),
            make_sample(adj, ego=0, state=[0, 0, 1], sid="s00000"),
        ]
        store = FeatureStore(0, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6))
        for s in samples:
            np.testing.assert_array_equal(store.bundle(s).encoder_input[:, :2], influence_features(s))
        again = make_sample(adj, ego=1, state=[0, 1, 0], sid="s00000")
        assert store.bundle(again) is store.bundle(samples[1])


@st.composite
def small_graphs(draw, symmetric=True):
    """Random adjacency on 1-7 nodes; asymmetric ones are built directly,
    as UndirectedGraph(adj) allows."""
    n = draw(st.integers(min_value=1, max_value=7))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    adj = np.array(bits, dtype=np.int8).reshape(n, n)
    np.fill_diagonal(adj, 0)
    if symmetric:
        adj = np.triu(adj, 1)
        adj = adj + adj.T
    return UndirectedGraph(adj)


walk_args = dict(
    walks_per_node=st.integers(min_value=1, max_value=3),
    walk_length=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestRandomWalkProperties:
    @given(g=st.one_of(small_graphs(), small_graphs(symmetric=False)), **walk_args)
    @settings(max_examples=60, deadline=None)
    def test_every_step_follows_an_edge_and_stops_only_at_sinks(
        self, g, walks_per_node, walk_length, seed
    ):
        walks = random_walks(g, walks_per_node, walk_length, stream(seed, "w"))
        assert len(walks) == walks_per_node * g.n
        for i, walk in enumerate(walks):
            assert walk[0] == i % g.n
            assert 1 <= len(walk) <= walk_length
            for a, b in zip(walk, walk[1:]):
                assert g.adjacency[a, b] == 1
            if len(walk) < walk_length:
                assert not g.adjacency[walk[-1]].any()

    @given(g=small_graphs(), **walk_args)
    @settings(max_examples=40, deadline=None)
    def test_isolated_starts_give_no_pairs(self, g, walks_per_node, walk_length, seed):
        isolated = np.flatnonzero(g.adjacency.sum(axis=1) == 0)
        walks = random_walks(g, walks_per_node, walk_length, stream(seed, "w"))
        for walk in walks:
            if walk[0] in isolated:
                assert walk == [walk[0]]
                assert skipgram_pairs(walk, 3) == []
        cfg = DeepWalkConfig(dim=3, walks_per_node=walks_per_node, walk_length=walk_length,
                             window=2, negatives=2, epochs=2)
        emb = deepwalk_embed(g, cfg, stream(seed, "dw"))
        init = (stream(seed, "dw").random((g.n, 3)) - 0.5) / 3
        np.testing.assert_array_equal(emb[isolated], init[isolated])

    @given(g=st.one_of(small_graphs(), small_graphs(symmetric=False)), **walk_args)
    @settings(max_examples=40, deadline=None)
    def test_same_stream_same_walks(self, g, walks_per_node, walk_length, seed):
        assert random_walks(g, walks_per_node, walk_length, stream(seed, "w")) == (
            random_walks(g, walks_per_node, walk_length, stream(seed, "w"))
        )

    @given(
        graphs=st.lists(small_graphs(), min_size=2, max_size=4),
        pick=st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_bundle_independent_of_embedding_order(self, graphs, pick):
        samples = [
            make_sample(g.adjacency, sid=f"s{i}") for i, g in enumerate(graphs)
        ]
        target = samples[pick % len(samples)]
        cfg = DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6, window=2, epochs=2)
        first = FeatureStore(3, cfg).bundle(target)
        store = FeatureStore(3, cfg)
        for s in samples:
            store.bundle(s)
        later = store.bundle(target)
        np.testing.assert_array_equal(first.encoder_input, later.encoder_input)
        np.testing.assert_array_equal(first.a_hat, later.a_hat)


def graph_with_isolated_node(n, seed):
    adj = random_adjacency(n, np.random.default_rng(seed), p=0.2)
    adj[n // 2, :] = adj[:, n // 2] = 0
    return UndirectedGraph(adj)


@pytest.mark.parametrize("bad", [
    dict(walks_per_node=-1), dict(negatives=-1), dict(walk_length=-1), dict(window=-1),
    dict(epochs=-1), dict(lr=-0.05),
])
def test_negative_walk_or_negative_count_is_config_error(bad):
    (name,) = bad
    with pytest.raises(ConfigError, match=f"deepwalk {name} must be >= 0"):
        DeepWalkConfig(dim=2, **bad)


class TestDeepwalkOracle:
    @pytest.mark.parametrize("length", range(0, 12))
    @pytest.mark.parametrize("window", [1, 2, 3, 5])
    def test_skipgram_pairs_follow_nested_loop_order(self, length, window):
        walk = np.random.default_rng(length).integers(0, 6, size=length).tolist()
        assert skipgram_pairs(walk, window) == oracle_skipgram_pairs(walk, window)

    @pytest.mark.parametrize(
        "g, dw",
        [
            # the acceptance-test DeepWalk sizes on a 30-node ego-sized graph
            (
                UndirectedGraph(random_adjacency(30, np.random.default_rng(1), p=0.15)),
                dict(dim=8, walks_per_node=3, walk_length=15, window=3, negatives=3, epochs=2),
            ),
            (
                UndirectedGraph(random_adjacency(50, np.random.default_rng(2), p=0.1)),
                dict(dim=16, walks_per_node=2, walk_length=20, window=4, negatives=4, epochs=2),
            ),
            (
                graph_with_isolated_node(12, 3),
                dict(dim=6, walks_per_node=3, walk_length=10, window=2, negatives=3, epochs=3),
            ),
        ],
        ids=["n30", "n50", "isolated"],
    )
    def test_dense_update_matches_per_pair_oracle(self, g, dw):
        # same stream, same draw order: init, walks, then per epoch the
        # negatives and the permutation
        rng = stream(9, "dw")
        w_in = (rng.random((g.n, dw["dim"])) - 0.5) / dw["dim"]
        walks = random_walks(g, dw["walks_per_node"], dw["walk_length"], rng)
        want = oracle_skipgram_sgd(
            w_in, walks, dw["window"], dw["negatives"], dw["epochs"], 0.05, rng
        )
        got = deepwalk_embed(g, DeepWalkConfig(lr=0.05, **dw), stream(9, "dw"))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert not np.array_equal(got, w_in)


def asymmetric_with_sink(n, seed):
    """A directed adjacency: node 1 has no out-edge but several in-edges, and
    a few edges run one way only."""
    rng = np.random.default_rng(seed)
    adj = random_adjacency(n, rng, p=0.25)
    adj[1, :] = 0
    adj[rng.integers(2, n, size=4), 1] = 1
    adj[0, 2], adj[2, 0] = 1, 0
    np.fill_diagonal(adj, 0)
    return UndirectedGraph(adj)


def two_matched_edges():
    """Edges 0-1 and 2-3: every walk alternates between the ends of one edge,
    so all four nodes are visited equally often and the noise cdf is
    exactly 0.25, 0.5, 0.75, 1: entries on slice edges of the table."""
    return graph_from_edges(4, [(0, 1), (2, 3)])


ACCEPT_DW = dict(dim=8, walks_per_node=3, walk_length=15, window=3, negatives=3, epochs=2)
KERNEL_CASES = {
    "n30": (
        UndirectedGraph(random_adjacency(30, np.random.default_rng(1), p=0.15)), ACCEPT_DW,
    ),
    "n50": (
        UndirectedGraph(random_adjacency(50, np.random.default_rng(2), p=0.1)),
        dict(dim=16, walks_per_node=2, walk_length=20, window=4, negatives=4, epochs=2),
    ),
    "isolated": (
        graph_with_isolated_node(12, 3),
        dict(dim=6, walks_per_node=3, walk_length=10, window=2, negatives=3, epochs=3),
    ),
    "no negatives": (
        UndirectedGraph(random_adjacency(30, np.random.default_rng(4), p=0.15)),
        dict(ACCEPT_DW, negatives=0),
    ),
    "no walks": (
        UndirectedGraph(random_adjacency(30, np.random.default_rng(5), p=0.15)),
        dict(ACCEPT_DW, walks_per_node=0),
    ),
    "asymmetric with sink": (asymmetric_with_sink(25, 6), ACCEPT_DW),
    "cdf on slice edges": (two_matched_edges(), dict(ACCEPT_DW, walks_per_node=40)),
    "one node": (graph_from_edges(1, []), dict(ACCEPT_DW, dim=1)),
    "dim one": (UndirectedGraph(random_adjacency(9, np.random.default_rng(7), p=0.4)),
                dict(ACCEPT_DW, dim=1, epochs=3)),
    # steps so large that scores leave [-30, 30], where the clip decides
    "large steps": (UndirectedGraph(random_adjacency(12, np.random.default_rng(8), p=0.3)),
                    dict(ACCEPT_DW, dim=4, epochs=4, lr=5.0)),
}


@st.composite
def ego_sized_graphs(draw):
    """Random graphs of 1-40 nodes, symmetric or not, sparse or dense."""
    n = draw(st.integers(min_value=1, max_value=40))
    p = draw(st.sampled_from([0.0, 0.05, 0.15, 0.4, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    adj = random_adjacency(n, np.random.default_rng(seed), p=p)
    if draw(st.booleans()):
        adj = np.triu(adj)  # directed: every edge one way only, some sinks
    return UndirectedGraph(adj)


class TestKernelBitIdentical:
    """deepwalk_embed reproduces the dense oracle byte for byte: the same
    draws, and the same floating-point operations in the same order."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_matches_dense_oracle_bytes(self, case):
        g, dw = KERNEL_CASES[case]
        dw = {"lr": 0.05, **dw}
        got = deepwalk_embed(g, DeepWalkConfig(**dw), stream(9, "dw"))
        want = oracle_deepwalk_embed(g, rng=stream(9, "dw"), **dw)
        assert got.tobytes() == want.tobytes()

    def test_slice_edge_case_puts_cdf_on_slice_edges(self):
        g, dw = KERNEL_CASES["cdf on slice edges"]
        rng = stream(9, "dw")
        rng.random((g.n, dw["dim"]))
        walks = random_walks(g, dw["walks_per_node"], dw["walk_length"], rng)
        visits = np.bincount(np.concatenate(walks), minlength=g.n)
        assert np.all(visits == visits[0])
        noise = visits.astype(np.float64) ** 0.75
        cdf, _ = _negative_table(noise / noise.sum())
        np.testing.assert_array_equal(cdf, [1024, 2048, 3072, 4096])

    @given(
        g=st.one_of(small_graphs(), small_graphs(symmetric=False), ego_sized_graphs()),
        dim=st.integers(min_value=1, max_value=6),
        walks_per_node=st.integers(min_value=0, max_value=3),
        walk_length=st.integers(min_value=0, max_value=10),
        window=st.integers(min_value=1, max_value=4),
        negatives=st.integers(min_value=0, max_value=4),
        epochs=st.integers(min_value=0, max_value=3),
        lr=st.sampled_from([0.01, 0.05, 0.5]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_oracle_on_random_graphs(
        self, g, dim, walks_per_node, walk_length, window, negatives, epochs, lr, seed
    ):
        dw = dict(dim=dim, walks_per_node=walks_per_node, walk_length=walk_length,
                  window=window, negatives=negatives, epochs=epochs, lr=lr)
        got = deepwalk_embed(g, DeepWalkConfig(**dw), stream(seed, "dw"))
        want = oracle_deepwalk_embed(g, rng=stream(seed, "dw"), **dw)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "visits",
    [[1, 1, 1, 1], [3, 0, 1, 5, 0, 0, 2], [0, 0, 4], [7], [1] * 3 + [2] * 5, list(range(40))],
)
def test_negative_draws_match_generator_choice(visits):
    noise = np.asarray(visits, dtype=np.float64) ** 0.75
    noise /= noise.sum()
    cdf, table = _negative_table(noise)
    # uniforms on every slice edge, just below each, on and around every cdf entry
    edges = np.arange(_BUCKETS) / _BUCKETS
    entries = np.clip(cdf / _BUCKETS, 0.0, np.nextafter(1.0, 0.0))
    u = np.concatenate([
        edges, np.nextafter(edges[1:], 0.0), entries,
        np.nextafter(entries, 0.0), np.nextafter(entries, 1.0), [np.nextafter(1.0, 0.0)],
    ])
    u = u[u < 1.0]
    choice_cdf = np.cumsum(noise)
    choice_cdf /= choice_cdf[-1]
    want = np.searchsorted(choice_cdf, u, side="right")
    np.testing.assert_array_equal(_draw_negatives(u.copy(), cdf, table), want)
    # and the draws themselves: the same uniforms Generator.choice consumes
    got = _draw_negatives(stream(3, "neg").random((200, 3)), cdf, table)
    np.testing.assert_array_equal(got, stream(3, "neg").choice(len(visits), (200, 3), p=noise))


class TestBundleOutputsMatchEagerFloatBundle:
    """A store's bundle (int8 adjacency, fields derived on first read) gives
    the encoders, the head and the decoder the same bytes as a bundle built
    as before: a float64 copy of the adjacency, with the normalized
    adjacency and attention layout derived up front, and a reconstruction
    loss over a float target and a full weights array."""

    @pytest.mark.parametrize("n", [5, 30])
    def test_encoder_head_and_decoder_outputs_are_byte_identical(self, n):
        from egoinf.augment import edge_probabilities
        from egoinf.autodiff import Tape
        from egoinf.autoenc import (
            GaeModel,
            VgaeModel,
            gae_encode,
            reconstruction_ce,
            stacked_decode,
            vgae_encode,
        )
        from egoinf.layers import build_prediction_net, ego_nll, prediction_forward

        rng = np.random.default_rng(n)
        s = make_sample(random_adjacency(n, rng, p=0.3), sid="eager")
        lazy = FeatureStore(1, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6)).bundle(s)
        adj = s.graph.adjacency.astype(np.float64)
        eager = SimpleNamespace(
            encoder_input=lazy.encoder_input, adjacency=adj, n=n, width=lazy.width,
            a_hat=normalized_adjacency(adj), layout=attention_layout(adj),
        )
        width = lazy.width
        gae = GaeModel.create(width, 8, 4, rng)
        vgae = VgaeModel.create(width, 8, 4, rng)
        noise = rng.standard_normal((n, 4))
        heads = {v: build_prediction_net(v, width, 8, 2, 0.0, rng) for v in ("gat", "gcn")}

        def eager_recon_ce(t, z, fb):
            # the loss over terms built up front: float target, weights array, mask
            target, mask = fb.adjacency, 1.0 - np.eye(n)
            ones = (target * mask).sum()
            weights = np.where(target > 0, (n * (n - 1) - ones) / ones, 1.0)
            return t.bce_mean(stacked_decode(t, z, n), target, weights, mask)

        def outputs(fb, recon_ce):
            t = Tape()
            z = gae_encode(t, gae, fb)
            vz, mu, logvar = vgae_encode(t, vgae, fb, noise=noise)
            ce = recon_ce(t, vz, fb)
            logits = [prediction_forward(t, net, t.leaf(fb.encoder_input), fb) for net in heads.values()]
            loss = t.add(ce, recon_ce(t, z, fb))
            for lg in logits:
                loss = t.add(loss, ego_nll(t, lg, s.ego, 1))
            t.backward(loss)
            params = [gae.w0, vgae.w0, vgae.w1_mu, vgae.w1_logvar]
            params += [p for net in heads.values() for p in net.parameters().values()]
            out = [z, vz, mu, logvar, stacked_decode(t, z, fb.n), ce, *logits]
            return [o.values for o in out] + [t.grad(p) for p in params] + [edge_probabilities(vgae, fb)]

        got_all = outputs(lazy, reconstruction_ce)
        for got, want in zip(got_all, outputs(eager, eager_recon_ce), strict=True):
            assert got.tobytes() == want.tobytes()
