import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoinf.deepwalk import deepwalk_embed, random_walks, skipgram_pairs
from egoinf.errors import ConfigError
from egoinf.features import DeepWalkConfig, FeatureStore, influence_features
from egoinf.graphs import EgoSample, UndirectedGraph
from egoinf.rng import stream
from egoinf.sampling import rwr_sample

from .oracles import oracle_skipgram_pairs, oracle_skipgram_sgd, random_adjacency


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
        out = rwr_sample(g, ego=3, n_target=5, rng=stream(0, "rwr"))
        assert out.graph.n == 5
        assert not out.truncated
        assert 3 in out.node_ids
        assert out.node_ids[out.ego] == 3

    def test_isolated_ego_returns_singleton_with_flag(self):
        g = graph_from_edges(4, [(1, 2)])
        out = rwr_sample(g, ego=0, n_target=3, rng=stream(1, "rwr"))
        assert out.graph.n == 1
        assert out.truncated

    def test_star_center_collects_leaves(self):
        g = graph_from_edges(6, [(0, i) for i in range(1, 6)])
        out = rwr_sample(g, ego=0, n_target=4, rng=stream(2, "rwr"))
        assert out.graph.n == 4
        assert 0 in out.node_ids
        # everything except the ego must be a leaf of the star
        for nid in out.node_ids:
            if nid != 0:
                assert 1 <= nid <= 5

    def test_induced_subgraph_preserves_edges(self):
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
        out = rwr_sample(g, ego=0, n_target=5, rng=stream(3, "rwr"))
        ids = out.node_ids
        for a in range(len(ids)):
            for b in range(len(ids)):
                assert out.graph.adjacency[a, b] == g.adjacency[ids[a], ids[b]]

    def test_requires_explicit_rng(self):
        g = graph_from_edges(3, [(0, 1)])
        with pytest.raises(ConfigError):
            rwr_sample(g, 0, 2)


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
        e1 = deepwalk_embed(g, dim=6, walks_per_node=3, walk_length=10, rng=stream(5, "dw"))
        e2 = deepwalk_embed(g, dim=6, walks_per_node=3, walk_length=10, rng=stream(5, "dw"))
        np.testing.assert_array_equal(e1, e2)

    def test_disconnected_cliques_are_separable(self):
        edges = []
        for base in (0, 5):
            for i in range(5):
                for j in range(i + 1, 5):
                    edges.append((base + i, base + j))
        g = graph_from_edges(10, edges)
        emb = deepwalk_embed(
            g, dim=8, walks_per_node=8, walk_length=20, window=3,
            negatives=4, rng=stream(11, "dw"), epochs=6,
        )
        norm = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        sim = norm @ norm.T
        intra, inter = [], []
        for i in range(10):
            for j in range(i + 1, 10):
                (intra if (i < 5) == (j < 5) else inter).append(sim[i, j])
        assert np.mean(intra) > np.mean(inter)

    def test_isolated_node_keeps_initialization(self):
        g = graph_from_edges(4, [(0, 1), (1, 2)])
        emb = deepwalk_embed(g, dim=4, walks_per_node=2, walk_length=6, rng=stream(7, "dw"))
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

    def test_same_id_different_graph_not_conflated(self):
        a = make_sample([[0, 1], [1, 0]], sid="same")
        b = make_sample([[0, 0], [0, 0]], sid="same")
        store = FeatureStore(0, DeepWalkConfig(dim=4, walks_per_node=2, walk_length=6))
        fa, fb = store.bundle(a), store.bundle(b)
        assert not np.array_equal(fa.adjacency, fb.adjacency)


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
        emb = deepwalk_embed(
            g, dim=3, walks_per_node=walks_per_node, walk_length=walk_length,
            window=2, negatives=2, rng=stream(seed, "dw"), epochs=2,
        )
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
        np.testing.assert_array_equal(first.deepwalk, later.deepwalk)
        np.testing.assert_array_equal(first.encoder_input, later.encoder_input)
        np.testing.assert_array_equal(first.a_hat, later.a_hat)


def graph_with_isolated_node(n, seed):
    adj = random_adjacency(n, np.random.default_rng(seed), p=0.2)
    adj[n // 2, :] = adj[:, n // 2] = 0
    return UndirectedGraph(adj)


@pytest.mark.parametrize("bad", [dict(walks_per_node=-1), dict(negatives=-1)])
def test_negative_walk_or_negative_count_is_config_error(bad):
    g = graph_from_edges(3, [(0, 1)])
    with pytest.raises(ConfigError):
        deepwalk_embed(g, dim=2, rng=stream(0, "dw"), **bad)


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
        got = deepwalk_embed(g, rng=stream(9, "dw"), lr=0.05, **dw)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert not np.array_equal(got, w_in)
