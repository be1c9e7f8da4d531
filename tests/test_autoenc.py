import math

import numpy as np
import pytest

from egoinf.autodiff import Tape
from egoinf.autoenc import (
    PRETRAIN_CHUNK,
    AutoencTrainConfig,
    GaeModel,
    VgaeModel,
    _chunks,
    gae_encode,
    reconstruction_ce,
    stacked_decode,
    train_gae,
    train_vgae,
    vgae_encode,
)
from egoinf.cascade import CascadeConfig, generate_dataset
from egoinf.deepwalk import DeepWalkConfig
from egoinf.errors import ConfigError
from egoinf.features import FeatureBundle, FeatureStore
from egoinf.layers import normalized_adjacency
from egoinf.optim import Adagrad, mean_gradient_step

from .oracles import grad_check, one_hot_bundle, per_graph_pretrain


def rng_for(seed):
    return np.random.default_rng(seed)


def random_graph(n, rng, p=0.4):
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class TestGaeEncode:
    def test_zero_features_give_zero_embedding(self):
        rng = rng_for(0)
        m = GaeModel.create(4, 3, 2, rng)
        t = Tape()
        z = gae_encode(t, m, FeatureBundle(np.zeros((5, 4)), random_graph(5, rng)))
        np.testing.assert_array_equal(z.values, np.zeros((5, 2)))

    def test_single_node_identity_weights(self):
        m = GaeModel(w0=np.eye(1), w1=np.eye(1))
        t = Tape()
        z = gae_encode(t, m, FeatureBundle(np.array([[2.5]]), np.zeros((1, 1))))
        assert z.values[0, 0] == pytest.approx(2.5)

    def test_matches_dense_oracle(self):
        for seed in range(30):
            rng = rng_for(seed)
            n = 4
            adj = random_graph(n, rng)
            a_hat = normalized_adjacency(adj)
            x = rng.standard_normal((n, 3))
            m = GaeModel.create(3, 4, 2, rng)
            t = Tape()
            z = gae_encode(t, m, FeatureBundle(x, adj))
            expected = a_hat @ np.maximum(a_hat @ x @ m.w0, 0.0) @ m.w1
            np.testing.assert_allclose(z.values, expected, atol=1e-12)


class TestDecode:
    def test_zero_embedding_gives_half(self):
        t = Tape()
        m = stacked_decode(t, t.leaf(np.zeros((3, 2))), 3)
        np.testing.assert_array_equal(m.values, np.full((3, 3), 0.5))

    def test_identity_embedding(self):
        t = Tape()
        m = stacked_decode(t, t.leaf(np.eye(2)), 2)
        s1 = sigmoid(1.0)
        np.testing.assert_allclose(m.values, [[s1, 0.5], [0.5, s1]], atol=1e-9)

    def test_matches_oracle_and_exactly_symmetric(self):
        for seed in range(30):
            rng = rng_for(seed)
            z = rng.standard_normal((5, 3))
            t = Tape()
            m = stacked_decode(t, t.leaf(z), 5).values
            np.testing.assert_allclose(m, sigmoid(z @ z.T), atol=1e-12)
            assert np.array_equal(m, m.T)


class TestReconstructionCe:
    def test_saturated_correct_prediction_is_tiny(self):
        t = Tape()
        a = random_graph(4, rng_for(1), p=0.5)
        m = t.leaf(np.where(a > 0, 1 - 1e-9, 1e-9))
        target, pos_weight = FeatureBundle(np.eye(4), a).recon_terms
        loss = t.bce_mean(m, target, np.where(target > 0, pos_weight, 1.0), 1.0 - np.eye(4))
        assert loss.values[0, 0] <= 2.1e-8

    def test_weighted_hand_summed_value(self):
        # 3 nodes, 1 edge: 6 off-diagonal entries, 2 positive, pos_weight = 2;
        # a zero embedding decodes to 0.5 everywhere
        t = Tape()
        a = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float)
        loss = reconstruction_ce(t, t.leaf(np.zeros((3, 2))), FeatureBundle(np.eye(3), a))
        expected = (2 * 2.0 * math.log(2) + 4 * math.log(2)) / 6
        assert loss.values[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_no_positives_is_config_error(self):
        t = Tape()
        edgeless = FeatureBundle(np.eye(3), np.zeros((3, 3)))  # building it does not raise
        with pytest.raises(ConfigError, match="pos_weight"):
            reconstruction_ce(t, t.leaf(np.zeros((3, 2))), edgeless)


class TestKld:
    def test_standard_normal_is_zero(self):
        t = Tape()
        out = t.gaussian_kl(t.leaf(np.zeros((3, 2))), t.leaf(np.zeros((3, 2))))
        assert out.values[0, 0] == 0.0

    def test_single_entry_value(self):
        t = Tape()
        out = t.gaussian_kl(t.leaf(np.array([[1.0]])), t.leaf(np.array([[0.0]])))
        assert out.values[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_on_random_inputs(self):
        for seed in range(50):
            rng = rng_for(seed)
            t = Tape()
            out = t.gaussian_kl(
                t.leaf(rng.standard_normal((4, 3))),
                t.leaf(rng.standard_normal((4, 3)) * 2),
            )
            assert out.values[0, 0] >= 0.0

    def test_zero_only_at_standard_normal(self):
        t = Tape()
        out = t.gaussian_kl(t.leaf(np.full((2, 2), 0.01)), t.leaf(np.zeros((2, 2))))
        assert out.values[0, 0] > 1e-12


class TestVgaeEncode:
    def test_eval_mode_returns_mean(self):
        rng = rng_for(3)
        m = VgaeModel.create(3, 4, 2, rng)
        adj = random_graph(5, rng)
        fb = FeatureBundle(rng.standard_normal((5, 3)), adj)
        t = Tape()
        z, mu, _ = vgae_encode(t, m, fb)
        np.testing.assert_array_equal(z.values, mu.values)

    def test_fixed_stream_reproduces_z(self):
        rng = rng_for(4)
        m = VgaeModel.create(3, 4, 2, rng)
        adj = random_graph(5, rng)
        fb = FeatureBundle(rng.standard_normal((5, 3)), adj)
        outs = []
        for _ in range(2):
            t = Tape()
            eps = np.random.default_rng(123).standard_normal((5, 2))
            z, _, _ = vgae_encode(t, m, fb, noise=eps)
            outs.append(z.values)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_sample_mean_approaches_mu(self):
        rng = rng_for(5)
        m = VgaeModel.create(3, 4, 2, rng)
        adj = random_graph(4, rng)
        fb = FeatureBundle(rng.standard_normal((4, 3)), adj)
        draws = 10_000
        acc = np.zeros((4, 2))
        noise_rng = np.random.default_rng(7)
        t0 = Tape()
        _, mu, logvar = vgae_encode(t0, m, fb)
        for _ in range(draws):
            t = Tape()
            eps = noise_rng.standard_normal((4, 2))
            z, _, _ = vgae_encode(t, m, fb, noise=eps)
            acc += z.values
        sample_mean = acc / draws
        stderr = np.exp(0.5 * logvar.values) / math.sqrt(draws)
        assert (np.abs(sample_mean - mu.values) <= 3 * stderr + 1e-12).all()

    def test_gradients_with_frozen_noise(self):
        rng = rng_for(6)
        adj = random_graph(4, rng)
        fb = FeatureBundle(rng.standard_normal((4, 3)), adj)
        noise = rng.standard_normal((4, 2))
        model = VgaeModel.create(3, 4, 2, rng)
        live = model.parameters()

        def f(params):
            for name in live:
                live[name][...] = params[name]
            t = Tape()
            z, mu, logvar = vgae_encode(t, model, fb, noise=noise)
            loss = t.add(reconstruction_ce(t, z, fb), t.gaussian_kl(mu, logvar))
            t.backward(loss)
            return float(loss.values[0, 0]), {k: t.grad(v) for k, v in live.items()}

        report = grad_check(f, {k: v.copy() for k, v in live.items()}, tol=1e-4)
        assert report.passed, report


def toy_two_cluster_graph():
    # two 10-node clusters bridged by two edges; fixed structure
    n = 20
    a = np.zeros((n, n))
    for block in (range(0, 10), range(10, 20)):
        block = list(block)
        for i in block:
            for j in block:
                if i < j and (i + j) % 3 != 0:
                    a[i, j] = a[j, i] = 1.0
    a[0, 10] = a[10, 0] = 1.0
    a[5, 15] = a[15, 5] = 1.0
    return a


def pretrain_cfg(epochs, lr, seed):
    """Pretraining settings at TrainConfig's default Adagrad eps."""
    return AutoencTrainConfig(epochs=epochs, lr=lr, adagrad_eps=1e-10, seed=seed)


class TestTraining:
    def test_vgae_reduces_reconstruction_on_toy_graph(self):
        adj = toy_two_cluster_graph()
        model = VgaeModel.create(20, 16, 8, rng_for(0))
        _, trace = train_vgae(model, [one_hot_bundle(adj)], pretrain_cfg(200, 0.1, 0))
        assert trace[-1]["ce"] <= 0.7 * trace[0]["ce"]
        assert all(row["kld"] >= 0.0 for row in trace)

    def test_zero_learning_rate_freezes_loss(self):
        adj = toy_two_cluster_graph()
        model = VgaeModel.create(20, 8, 4, rng_for(1))
        _, trace = train_vgae(model, [one_hot_bundle(adj)], pretrain_cfg(5, 0.0, 3))
        totals = {round(row["ce"], 12) for row in trace}
        assert len(totals) == 1

    def test_same_seed_same_trace(self):
        adj = toy_two_cluster_graph()
        traces = []
        for _ in range(2):
            model = VgaeModel.create(20, 8, 4, rng_for(2))
            _, trace = train_vgae(model, [one_hot_bundle(adj)], pretrain_cfg(10, 0.05, 9))
            traces.append([row["total"] for row in trace])
        assert traces[0] == traces[1]

    def test_gae_training_reduces_loss(self):
        adj = toy_two_cluster_graph()
        model = GaeModel.create(20, 16, 8, rng_for(3))
        _, trace = train_gae(model, [one_hot_bundle(adj)], pretrain_cfg(150, 0.1, 0))
        assert trace[-1]["ce"] < trace[0]["ce"]

    @pytest.mark.parametrize(
        "train,model_cls", [(train_gae, GaeModel), (train_vgae, VgaeModel)], ids=["gae", "vgae"]
    )
    def test_empty_dataset_rejected(self, train, model_cls):
        with pytest.raises(ConfigError, match=f"^{train.__name__}: empty dataset$"):
            train(model_cls.create(2, 2, 2, rng_for(4)), [], pretrain_cfg(1, 0.1, 0))

    @pytest.mark.parametrize(
        "train,model_cls,name",
        [(train_gae, GaeModel, "GAE"), (train_vgae, VgaeModel, "VGAE")],
        ids=["gae", "vgae"],
    )
    def test_divergence_aborts_with_epoch_index(self, train, model_cls, name):
        from egoinf.errors import DivergenceError

        adj = toy_two_cluster_graph()
        model = model_cls.create(20, 8, 4, rng_for(5))
        model.w0[...] = 1e200  # forces an overflow on the first forward pass
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=f"^{name} diverged at epoch 0: "):
                train(model, [one_hot_bundle(adj)], pretrain_cfg(3, 0.1, 0))


# the C5 acceptance configuration's pretraining: DeepWalk width 8, GAE
# hidden 16, embedding 8, 40 epochs at lr 0.1
C5_DEEPWALK = DeepWalkConfig(
    dim=8, walks_per_node=3, walk_length=15, window=3, negatives=3, epochs=2
)
MODELS = {"gae": (GaeModel, train_gae), "vgae": (VgaeModel, train_vgae)}


def c5_bundles(seed, samples=48):
    """Bundles of C5-shaped ego graphs: 30 nodes, DeepWalk features."""
    ds = generate_dataset(CascadeConfig(samples=samples, activation_p=0.3, seed=seed))
    store = FeatureStore(seed, C5_DEEPWALK)
    return [store.bundle(s) for s in ds.samples]


def twin_models(kind, width, seed):
    cls = MODELS[kind][0]
    return cls.create(width, 16, 8, rng_for(seed)), cls.create(width, 16, 8, rng_for(seed))


class TestStackedPretraining:
    @pytest.mark.parametrize("kind", MODELS)
    def test_first_epoch_loss_is_the_mean_of_per_graph_losses(self, kind):
        bundles = c5_bundles(1)
        stacked, per_graph = twin_models(kind, bundles[0].width, 11)
        cfg = pretrain_cfg(1, 0.1, 5)
        _, trace = MODELS[kind][1](stacked, bundles, cfg)
        expected = per_graph_pretrain(per_graph, bundles, cfg, kind == "vgae")
        assert trace[0].keys() == expected[0].keys()
        for key, value in expected[0].items():
            assert trace[0][key] == pytest.approx(value, rel=1e-14, abs=0.0), key

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("kind", MODELS)
    def test_c5_config_weights_match_the_per_graph_path(self, kind, seed):
        bundles = c5_bundles(seed)
        assert PRETRAIN_CHUNK < len(bundles) < 2 * PRETRAIN_CHUNK  # a full chunk, a partial one
        stacked, per_graph = twin_models(kind, bundles[0].width, seed)
        cfg = pretrain_cfg(40, 0.1, seed)
        _, trace = MODELS[kind][1](stacked, bundles, cfg)
        expected = per_graph_pretrain(per_graph, bundles, cfg, kind == "vgae")
        for name, arr in stacked.parameters().items():
            np.testing.assert_allclose(arr, per_graph.parameters()[name], rtol=0, atol=1e-12)
        for got, want in zip(trace, expected):
            assert got["total"] == pytest.approx(want["total"], rel=1e-12)

    @pytest.mark.parametrize("graphs", [5, PRETRAIN_CHUNK + 1, 2 * PRETRAIN_CHUNK + 3])
    @pytest.mark.parametrize("kind", MODELS)
    def test_one_tape_per_chunk_per_epoch(self, kind, graphs, monkeypatch):
        from egoinf import optim

        made, steps = [], []

        class CountingTape(optim.Tape):
            def __init__(self, *args, **kwargs):
                made.append(1)
                super().__init__(*args, **kwargs)

        real_step = optim.Adagrad.step
        monkeypatch.setattr(optim, "Tape", CountingTape)
        monkeypatch.setattr(optim.Adagrad, "step", lambda opt, g: steps.append(real_step(opt, g)))
        bundles = [one_hot_bundle(toy_two_cluster_graph())] * graphs
        cls, train = MODELS[kind]
        train(cls.create(20, 8, 4, rng_for(0)), bundles, pretrain_cfg(3, 0.1, 0))
        assert len(made) == 3 * math.ceil(graphs / PRETRAIN_CHUNK)
        assert len(steps) == 3

    def test_one_chunk_takes_the_unweighted_step(self):
        # a training set of one chunk: one tape over the stack, its mean
        # gradient taken as it is, no share weighting
        bundles = c5_bundles(3, samples=PRETRAIN_CHUNK)
        chunked, plain = twin_models("gae", bundles[0].width, 3)
        cfg = pretrain_cfg(5, 0.1, 3)
        _, trace = train_gae(chunked, bundles, cfg)
        (stack,) = _chunks(bundles, "GAE")

        def loss_of(tape, st):
            ce = reconstruction_ce(tape, gae_encode(tape, plain, st), st)
            return ce, {"ce": float(ce.values[0, 0])}

        opt = Adagrad(plain.parameters(), lr=cfg.lr, eps=cfg.adagrad_eps)
        for row in trace:
            (record,) = mean_gradient_step(opt, [stack], loss_of, lambda *_: "diverged")
            assert row == {**record, "total": record["ce"]}
        for name, arr in chunked.parameters().items():
            assert arr.tobytes() == plain.parameters()[name].tobytes()

    @pytest.mark.parametrize("kind", MODELS)
    def test_graphs_of_mixed_sizes_rejected(self, kind):
        cls, train = MODELS[kind]
        rng = rng_for(8)
        small = FeatureBundle(np.zeros((5, 3)), random_graph(5, rng, p=0.9))
        large = FeatureBundle(np.zeros((6, 3)), random_graph(6, rng, p=0.9))
        with pytest.raises(ConfigError, match=r"graphs of \[5, 6\] nodes"):
            train(cls.create(3, 2, 2, rng), [small, large], pretrain_cfg(1, 0.1, 0))

    def test_each_graph_keeps_its_pos_weight(self):
        rng = rng_for(9)
        bundles = [FeatureBundle(np.eye(6), random_graph(6, rng, p=p)) for p in (0.2, 0.5, 0.9)]
        (chunk,) = _chunks(bundles, "GAE")
        targets, row_weights = chunk.recon_terms
        np.testing.assert_array_equal(targets, np.vstack([fb.adjacency for fb in bundles]))
        pos_weights = [fb.recon_terms[1] for fb in bundles]
        np.testing.assert_array_equal(row_weights, np.repeat(pos_weights, 6)[:, None])
        assert len(set(pos_weights)) == 3  # each graph's own
        with pytest.raises(ConfigError, match="no positive entries"):
            _chunks([bundles[0], FeatureBundle(np.eye(6), np.zeros((6, 6)))], "GAE")


class TestPretrainingMemory:
    """Pretraining memory grows with a chunk of graphs, not with the
    training set: at the published sizes (DeepWalk width 64, hidden and
    embedding 64) on 30-node graphs, a fit over four chunks peaks within
    twice a one-chunk fit's peak under tracemalloc. One tape over the whole
    set would take about four times."""

    @staticmethod
    def fit_peak(bundles):
        import tracemalloc

        model = VgaeModel.create(bundles[0].width, 64, 64, rng_for(0))
        tracemalloc.start()
        try:
            train_vgae(model, bundles, pretrain_cfg(1, 0.01, 0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_grows_with_a_chunk_not_the_training_set(self):
        rng = rng_for(12)
        bundles = [
            FeatureBundle(rng.standard_normal((30, 66)), random_graph(30, rng, p=0.2))
            for _ in range(4 * PRETRAIN_CHUNK)
        ]
        one_chunk = self.fit_peak(bundles[:PRETRAIN_CHUNK])
        assert self.fit_peak(bundles) < 2 * one_chunk
