import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoinf.augment import (
    AugmentationConfig,
    candidate_edges,
    edge_probabilities,
    generate_augmentations,
    sample_augmentation,
)
from egoinf.autoenc import VgaeModel
from egoinf.errors import ConfigError
from egoinf.graphs import EgoSample, UndirectedGraph
from egoinf.rng import stream

from .oracles import one_hot_bundle, oracle_sample_augmentation
from .test_cascade import generator_state


def make_sample(adj, ego=0, sid="s0"):
    adj = np.asarray(adj, dtype=np.int8)
    return EgoSample(
        graph=UndirectedGraph(adj),
        ego=ego,
        influence_state=np.zeros(adj.shape[0], dtype=np.int8),
        label=1,
        sample_id=sid,
    )


def prob_matrix(probs):
    return np.asarray(probs, dtype=np.float64)


def random_sample(n, rng, sid="r"):
    a = (rng.random((n, n)) < 0.3).astype(np.int8)
    a = np.triu(a, 1)
    return make_sample(a + a.T, sid=sid)


class TestEdgeProbabilities:
    def test_zero_weights_give_half_everywhere(self):
        vgae = VgaeModel(w0=np.zeros((4, 3)), w1_mu=np.zeros((3, 2)), w1_logvar=np.zeros((3, 2)))
        s = random_sample(4, np.random.default_rng(0))
        m = edge_probabilities(vgae, one_hot_bundle(s.graph.adjacency))
        np.testing.assert_array_equal(m, np.full((4, 4), 0.5))
        assert not m.flags.writeable

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(1)
        vgae = VgaeModel.create(5, 4, 2, rng)
        s = random_sample(5, rng)
        m1 = edge_probabilities(vgae, one_hot_bundle(s.graph.adjacency))
        m2 = edge_probabilities(vgae, one_hot_bundle(s.graph.adjacency))
        np.testing.assert_array_equal(m1, m2)

    def test_matches_sigmoid_of_mean_inner_product(self):
        from egoinf.autodiff import Tape
        from egoinf.autoenc import vgae_encode

        rng = np.random.default_rng(2)
        vgae = VgaeModel.create(6, 4, 3, rng)
        s = random_sample(6, rng)
        t = Tape()
        _, mu, _ = vgae_encode(t, vgae, one_hot_bundle(s.graph.adjacency))
        expected = 1.0 / (1.0 + np.exp(-(mu.values @ mu.values.T)))
        m = edge_probabilities(vgae, one_hot_bundle(s.graph.adjacency))
        np.testing.assert_allclose(m, expected, atol=1e-12)


class TestCandidateEdges:
    def test_threshold_one_gives_empty_set(self):
        m = prob_matrix(np.full((4, 4), 1.0))
        assert candidate_edges(m, np.zeros((4, 4)), 1.0) == []

    def test_existing_edges_excluded(self):
        probs = np.zeros((3, 3))
        probs[0, 2] = probs[2, 0] = 0.9
        probs[1, 2] = probs[2, 1] = 0.3
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1
        assert candidate_edges(prob_matrix(probs), adj, 0.8) == [(0, 2)]

    def test_threshold_zero_on_uniform_half_gives_all_pairs(self):
        n = 5
        m = prob_matrix(np.full((n, n), 0.5))
        assert len(candidate_edges(m, np.zeros((n, n)), 0.0)) == n * (n - 1) // 2

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_threshold_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        n = 6
        probs = rng.random((n, n))
        probs = (probs + probs.T) / 2
        m = prob_matrix(probs)
        adj = np.zeros((n, n))
        t1, t2 = sorted(rng.random(2))
        c1 = set(candidate_edges(m, adj, t1))
        c2 = set(candidate_edges(m, adj, t2))
        assert c2 <= c1


class TestSampleAugmentation:
    def test_empty_candidates_identity(self):
        s = make_sample([[0, 1], [1, 0]])
        m = prob_matrix(np.full((2, 2), 0.5))
        out = sample_augmentation(s.graph, [], m, stream(0, "t"))
        np.testing.assert_array_equal(out.adjacency, s.graph.adjacency)

    def test_near_certain_edge_always_added(self):
        s = make_sample(np.zeros((3, 3)))
        probs = np.full((3, 3), 1 - 1e-9)
        m = prob_matrix(probs)
        cands = [(0, 1)]
        for k in range(1000):
            out = sample_augmentation(s.graph, cands, m, stream(k, "trial"))
            assert out.adjacency[0, 1] == 1

    def test_fixed_stream_reproduces_augmentation(self):
        rng = np.random.default_rng(5)
        s = random_sample(6, rng)
        probs = rng.random((6, 6))
        probs = (probs + probs.T) / 2
        m = prob_matrix(probs)
        cands = candidate_edges(m, s.graph.adjacency, 0.3)
        a1 = sample_augmentation(s.graph, cands, m, stream(9, "x"))
        a2 = sample_augmentation(s.graph, cands, m, stream(9, "x"))
        np.testing.assert_array_equal(a1.adjacency, a2.adjacency)


def candidate_lists(n, probs, adj, rng):
    """Empty, partial and all-pair candidate lists for one graph: the
    candidates at thresholds 0, 0.5 and 1, a random subset of all pairs in
    shuffled order, and every pair, edges included."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    subset = [pairs[k] for k in rng.permutation(len(pairs))[: rng.integers(len(pairs) + 1)]]
    return [candidate_edges(probs, adj, t) for t in (0.0, 0.5, 1.0)] + [[], subset, pairs]


class TestSampleAugmentationOracle:
    @pytest.mark.parametrize("block", range(4))
    def test_matches_the_per_candidate_loop_byte_for_byte(self, block):
        rng = np.random.default_rng(100 + block)
        for trial in range(50):
            n = int(rng.integers(2, 41))
            s = random_sample(n, rng)
            probs = rng.random((n, n))
            probs = (probs + probs.T) / 2
            for k, cands in enumerate(candidate_lists(n, probs, s.graph.adjacency, rng)):
                got_rng, want_rng = stream(block, "oracle", trial, k), stream(block, "oracle", trial, k)
                got = sample_augmentation(s.graph, cands, probs, got_rng)
                want = oracle_sample_augmentation(s.graph, cands, probs, want_rng)
                assert got.adjacency.dtype == want.adjacency.dtype
                assert got.adjacency.tobytes() == want.adjacency.tobytes()
                assert generator_state(got_rng) == generator_state(want_rng)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 40])
    def test_a_copy_reads_one_double_per_pair_whatever_its_candidates(self, n):
        rng = np.random.default_rng(n)
        s = random_sample(n, rng)
        probs = np.full((n, n), 0.5)
        pairs = n * (n - 1) // 2
        for cands in candidate_lists(n, probs, s.graph.adjacency, rng):
            used, ref = stream(n, "advance"), stream(n, "advance")
            sample_augmentation(s.graph, cands, probs, used)
            ref.random(pairs)
            assert generator_state(used) == generator_state(ref)


class TestGenerateAugmentations:
    def vgae_and_sample(self, seed=0, n=8):
        rng = np.random.default_rng(seed)
        vgae = VgaeModel.create(n, 4, 3, rng)
        s = random_sample(n, rng, sid=f"g{seed}")
        return vgae, s, one_hot_bundle(s.graph.adjacency)

    def test_count_zero_gives_empty_list(self):
        vgae, s, fb = self.vgae_and_sample()
        assert generate_augmentations(s, vgae, AugmentationConfig(count=0), fb) == []

    def test_fixed_seed_reproduces_triple(self):
        vgae, s, fb = self.vgae_and_sample(1)
        cfg = AugmentationConfig(threshold=0.4, count=3, seed=77)
        runs = [generate_augmentations(s, vgae, cfg, fb) for _ in range(2)]
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a.graph.adjacency, b.graph.adjacency)
            assert a.sample_id == b.sample_id

    def test_edge_superset_and_threshold_guarantee(self):
        vgae, s, fb = self.vgae_and_sample(2)
        cfg = AugmentationConfig(threshold=0.5, count=5, seed=3)
        m = edge_probabilities(vgae, fb)
        for aug in generate_augmentations(s, vgae, cfg, fb):
            diff = aug.graph.adjacency.astype(int) - s.graph.adjacency.astype(int)
            assert (diff >= 0).all()  # superset, never removes
            for i, j in zip(*np.nonzero(np.triu(diff, 1))):
                assert m[i, j] > cfg.threshold

    def test_metadata_fields_untouched(self):
        vgae, s, fb = self.vgae_and_sample(3)
        cfg = AugmentationConfig(threshold=0.2, count=2)
        for aug in generate_augmentations(s, vgae, cfg, fb):
            assert aug.ego == s.ego
            assert aug.label == s.label
            np.testing.assert_array_equal(aug.influence_state, s.influence_state)

    def test_mean_added_edge_count_matches_probability_mass(self):
        vgae, s, fb = self.vgae_and_sample(4)
        m = edge_probabilities(vgae, fb)
        threshold = 0.5
        cands = candidate_edges(m, s.graph.adjacency, threshold)
        assert cands, "need a nonempty candidate set for this check"
        expected = sum(m[i, j] for i, j in cands)
        var = sum(m[i, j] * (1 - m[i, j]) for i, j in cands)
        trials = 1000
        base_edges = s.graph.num_edges
        total_added = 0
        for k in range(trials):
            cfg = AugmentationConfig(threshold=threshold, count=1, seed=k)
            (aug,) = generate_augmentations(s, vgae, cfg, fb)
            total_added += aug.graph.num_edges - base_edges
        mean_added = total_added / trials
        stderr = np.sqrt(var / trials)
        assert abs(mean_added - expected) <= 3 * stderr + 1e-9


class TestConfigValidation:
    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(threshold=1.5)

    def test_negative_count(self):
        with pytest.raises(ConfigError):
            AugmentationConfig(count=-1)


def test_augmented_samples_serialize_with_provenance(tmp_path):
    from egoinf.graphs import Dataset, load_dataset, save_dataset

    rng = np.random.default_rng(8)
    vgae = VgaeModel.create(6, 4, 2, rng)
    s = random_sample(6, rng, sid="base")
    cfg = AugmentationConfig(threshold=0.3, count=2, seed=5)
    augs = generate_augmentations(s, vgae, cfg, one_hot_bundle(s.graph.adjacency))
    ds = Dataset(
        samples=augs,
        splits={"train": list(range(len(augs)))},
        metadata={"source": "augmented", "augmenter": "vgae-d2", "base": "base"},
    )
    path = tmp_path / "aug.jsonl"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert back.metadata["augmenter"] == "vgae-d2"
    for a, b in zip(augs, back.samples):
        assert a.sample_id == b.sample_id
        np.testing.assert_array_equal(a.graph.adjacency, b.graph.adjacency)
