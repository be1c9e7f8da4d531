import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest

from egoinf import features
from egoinf.ablation import run_arm
from egoinf.augment import AugmentationConfig, edge_probabilities, generate_augmentations
from egoinf.autodiff import Tape
from egoinf.cascade import CascadeConfig, generate_dataset
from egoinf.errors import ConfigError
from egoinf.features import DeepWalkConfig, FeatureStore
from egoinf.graphs import EgoSample, UndirectedGraph
from egoinf.rng import stream
from egoinf.training import (
    ARM_FLAGS,
    AblationConfig,
    JointModel,
    ModelConfig,
    TrainConfig,
    augmented_copies,
    average_class1,
    frozen_encode,
    predict,
    pretrain_augmenter,
    run_config_with_seed,
    sample_loss,
    train_joint,
)

from .oracles import recording_edge_probabilities, recording_frozen_encode, recording_predict

TINY_DW = DeepWalkConfig(dim=6, walks_per_node=2, walk_length=10, window=2, negatives=2, epochs=1)
TINY_MODEL = ModelConfig(variant="gat", hidden=8, heads=2, embed_dim=4, gae_hidden=6)


def tiny_dataset():
    return generate_dataset(
        CascadeConfig(graph_nodes=90, ws_k=8, seed_set_size=10, samples=24, n_target=10, seed=3)
    )


def tiny_config(**kw):
    base = dict(
        epochs=3,
        lr=0.1,
        dropout=0.2,
        seed=0,
        pretrain_epochs=5,
        aug=AugmentationConfig(threshold=0.5, count=2),
        model=TINY_MODEL,
        deepwalk=TINY_DW,
    )
    base.update(kw)
    return TrainConfig(**base)


DATASET = tiny_dataset()


class TestArmTable:
    def test_all_eight_arms_map_uniquely(self):
        seen = set()
        for arm in range(1, 9):
            abl = AblationConfig.from_arm(arm)
            assert abl.arm == arm
            seen.add((abl.joint, abl.train_aug, abl.test_aug))
        assert len(seen) == 8

    def test_flag_semantics_of_key_arms(self):
        assert ARM_FLAGS[1] == (False, False, False)
        assert ARM_FLAGS[2] == (True, False, False)
        assert ARM_FLAGS[5] == (False, True, True)
        assert ARM_FLAGS[8] == (True, True, True)

    def test_bad_arm_rejected(self):
        with pytest.raises(ConfigError):
            AblationConfig.from_arm(9)

    @pytest.mark.parametrize("arm", [True, 1.0, "1", None])
    def test_arm_that_is_no_int_rejected(self, arm):
        # JSON true once loaded silently as arm 1: True == 1 as a dict key
        with pytest.raises(ConfigError, match="arm must be 1..8"):
            AblationConfig.from_arm(arm)


@pytest.mark.parametrize("variant,heads", [("gat", 2), ("gat", 4), ("gcn", 3)])
def test_model_shapes_match_the_built_model(variant, heads):
    cfg = replace(TrainConfig(), model=replace(TINY_MODEL, variant=variant, heads=heads, hidden=12))
    built = JointModel.create(cfg, feature_width=7, seed=0).parameters(include_gae=True)
    assert JointModel.shapes(cfg, 7) == {name: arr.shape for name, arr in built.items()}


class TestTrainJoint:
    def test_zero_lr_freezes_parameters_and_trace(self):
        cfg = tiny_config(lr=0.0, dropout=0.0, epochs=4)
        cfg = run_config_with_seed(cfg, 1)
        store = FeatureStore(1, cfg.deepwalk)
        train = DATASET.split_samples("train")
        model = JointModel.create(cfg, feature_width=features.feature_width(cfg.deepwalk), seed=1)
        before = {k: v.copy() for k, v in model.parameters().items()}
        _, trace = train_joint(model, train, cfg, AblationConfig.from_arm(2), store=store)
        for k, v in model.parameters().items():
            np.testing.assert_array_equal(v, before[k])
        losses = {round(r["loss"], 14) for r in trace}
        assert len(losses) == 1

    def test_train_aug_with_zero_count_matches_plain(self):
        train = DATASET.split_samples("train")
        traces = []
        for arm in (1, 3):  # same flags except train_aug
            cfg = run_config_with_seed(tiny_config(aug=AugmentationConfig(count=0)), 2)
            store = FeatureStore(2, cfg.deepwalk)
            abl = AblationConfig.from_arm(arm)
            vgae = (
                pretrain_augmenter(train, cfg, store, 2)
                if (abl.train_aug or abl.test_aug)
                else None
            )
            model = JointModel.create(
                cfg, feature_width=features.feature_width(cfg.deepwalk), seed=2
            )
            _, trace = train_joint(model, train, cfg, abl, vgae=vgae, store=store)
            traces.append([r["loss"] for r in trace])
        assert traces[0] == traces[1]

    def test_augmented_labels_match_sources(self):
        cfg = run_config_with_seed(tiny_config(), 3)
        store = FeatureStore(3, cfg.deepwalk)
        train = DATASET.split_samples("train")
        vgae = pretrain_augmenter(train, cfg, store, 3)
        for s in train:
            for aug in generate_augmentations(s, vgae, cfg.aug, store.bundle(s)):
                assert aug.label == s.label
                assert aug.ego == s.ego

    def test_loss_decreases_on_trainable_problem(self):
        cfg = run_config_with_seed(tiny_config(epochs=12, dropout=0.0, batch_size=8), 4)
        store = FeatureStore(4, cfg.deepwalk)
        train = DATASET.split_samples("train")
        model = JointModel.create(cfg, feature_width=features.feature_width(cfg.deepwalk), seed=4)
        _, trace = train_joint(model, train, cfg, AblationConfig.from_arm(1), store=store)
        assert trace[-1]["loss"] < trace[0]["loss"]

    def test_empty_training_set_rejected(self):
        cfg = tiny_config()
        model = JointModel.create(cfg, feature_width=features.feature_width(cfg.deepwalk), seed=0)
        with pytest.raises(ConfigError):
            train_joint(model, [], cfg, AblationConfig.from_arm(1), store=FeatureStore(0, TINY_DW))

    def test_adagrad_eps_reaches_both_pretrainings(self):
        train = DATASET.split_samples("train")
        weights = []
        for eps in (1e-10, 0.1):
            cfg = run_config_with_seed(tiny_config(epochs=1, adagrad_eps=eps), 7)
            store = FeatureStore(7, cfg.deepwalk)
            vgae = pretrain_augmenter(train, cfg, store, 7)
            model = JointModel.create(
                cfg, feature_width=features.feature_width(cfg.deepwalk), seed=7
            )
            train_joint(model, train, cfg, AblationConfig.from_arm(1), store=store)
            weights.append((vgae.w0.copy(), model.gae.w0.copy()))
        (vgae_a, gae_a), (vgae_b, gae_b) = weights
        assert not np.array_equal(vgae_a, vgae_b)  # the augmenter
        assert not np.array_equal(gae_a, gae_b)  # the frozen GAE branch

    def test_divergence_names_epoch_and_sample(self):
        from egoinf.errors import DivergenceError

        cfg = run_config_with_seed(tiny_config(epochs=2), 6)
        store = FeatureStore(6, cfg.deepwalk)
        train = DATASET.split_samples("train")
        model = JointModel.create(cfg, feature_width=features.feature_width(cfg.deepwalk), seed=6)
        model.gae.w0[...] = 1e200  # overflow in the first joint forward
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch 0, sample"):
                train_joint(model, train, cfg, AblationConfig.from_arm(2), store=store)


class TestAveraging:
    def test_constant_probabilities(self):
        assert average_class1([np.array([0.6, 0.4])] * 5) == pytest.approx(0.4)

    def test_two_path_mean(self):
        probs = [np.array([0.6, 0.4]), np.array([0.8, 0.2])]
        assert average_class1(probs) == pytest.approx(0.3)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        raw = rng.random((5, 2))
        probs = [r / r.sum() for r in raw]
        base = average_class1(probs)
        for perm in itertools.permutations(range(5)):
            assert abs(average_class1([probs[i] for i in perm]) - base) <= 1e-15


class TestPredict:
    def setup_trained(self, arm, seed=5, count=2):
        cfg = run_config_with_seed(
            tiny_config(aug=AugmentationConfig(threshold=0.5, count=count)), seed
        )
        store = FeatureStore(seed, cfg.deepwalk)
        abl = AblationConfig.from_arm(arm)
        train = DATASET.split_samples("train")
        vgae = (
            pretrain_augmenter(train, cfg, store, seed)
            if (abl.train_aug or abl.test_aug)
            else None
        )
        model = JointModel.create(
            cfg, feature_width=features.feature_width(cfg.deepwalk), seed=seed
        )
        train_joint(model, train, cfg, abl, vgae=vgae, store=store)
        return model, cfg, abl, vgae, store

    def test_zero_count_tta_equals_plain(self):
        model, cfg, abl, vgae, store = self.setup_trained(arm=4, count=0)
        plain = AblationConfig.from_arm(1)
        s = DATASET.split_samples("test")[0]
        assert predict(model, s, abl, vgae, cfg, store) == predict(
            model, s, plain, vgae, cfg, store
        )

    def test_tta_is_mean_over_variants(self):
        model, cfg, abl, vgae, store = self.setup_trained(arm=4, count=3)
        plain = AblationConfig.from_arm(1)
        s = DATASET.split_samples("test")[0]
        variants = [s] + generate_augmentations(s, vgae, cfg.aug, store.bundle(s))
        manual = np.mean([predict(model, v, plain, None, cfg, store) for v in variants])
        assert predict(model, s, abl, vgae, cfg, store) == pytest.approx(manual, abs=1e-15)

    def test_inference_matches_a_recording_tape_bit_for_bit(self):
        model, cfg, abl, vgae, store = self.setup_trained(arm=8, count=3)
        added = 0
        for s in DATASET.split_samples("test"):
            fb = store.bundle(s)
            assert predict(model, s, abl, vgae, cfg, store) == recording_predict(
                model, s, abl, vgae, cfg, store
            )
            np.testing.assert_array_equal(
                frozen_encode(model.gae, fb), recording_frozen_encode(model.gae, fb)
            )
            np.testing.assert_array_equal(
                edge_probabilities(vgae, fb), recording_edge_probabilities(vgae, fb)
            )
            added += sum(c.graph.num_edges - s.graph.num_edges
                         for c in augmented_copies(s, vgae, cfg.aug, store))
        assert added > 0  # the test-time copies differ from their samples

    def test_inference_builds_only_no_grad_tapes(self, monkeypatch):
        # a guard: putting recording tapes back on an inference path, or a
        # no-grad tape on a training step, fails here
        model, cfg, abl, vgae, store = self.setup_trained(arm=8, count=2)
        s = DATASET.split_samples("test")[0]
        fb = store.bundle(s)
        built = []
        init = Tape.__init__

        def spy(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            built.append(tape.grad_enabled)

        monkeypatch.setattr(Tape, "__init__", spy)
        predict(model, s, abl, vgae, cfg, store)
        frozen_encode(model.gae, fb)
        edge_probabilities(vgae, fb)
        assert len(built) >= 3 and not any(built)
        built.clear()
        train = DATASET.split_samples("train")
        train_joint(model, train, replace(cfg, epochs=1), AblationConfig.from_arm(2), store=store)
        assert len(built) == len(train) and all(built)

    def test_an_edgeless_graph_is_scored_without_reconstruction_terms(self, monkeypatch):
        # the terms are built lazily: scoring never reads them, so a test
        # graph without edges, which has no pos_weight, still gets a score
        model, cfg, abl, vgae, store = self.setup_trained(arm=8, count=2)
        s = DATASET.split_samples("test")[0]
        edgeless = replace(s, graph=UndirectedGraph(np.zeros_like(s.graph.adjacency)))

        def fail(adjacency):
            raise AssertionError("reconstruction terms were built")

        monkeypatch.setattr(features, "reconstruction_terms", fail)
        assert 0.0 < predict(model, edgeless, abl, vgae, cfg, store) < 1.0
        assert "recon_terms" not in vars(store.bundle(edgeless))

    def test_tta_without_augmenter_rejected(self):
        model, cfg, _, _, store = self.setup_trained(arm=1, count=2)
        abl = AblationConfig.from_arm(4)
        with pytest.raises(ConfigError):
            predict(model, DATASET.split_samples("test")[0], abl, None, cfg, store)


def test_each_bundle_normalizes_its_adjacency_once(monkeypatch):
    # every encoder reads A_hat from the sample's bundle: augmenter
    # pretraining, frozen GAE pretraining, train-time copies and test-time
    # averaging add no normalization beyond the one each new bundle makes
    normalized = []
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "egoinf" and hasattr(module, "normalized_adjacency"):
            real = module.normalized_adjacency
            monkeypatch.setattr(module, "normalized_adjacency",
                                lambda adj, real=real: normalized.append(1) or real(adj))
    built = []
    embed = features.deepwalk_embed  # called once per bundle the store builds
    monkeypatch.setattr(features, "deepwalk_embed", lambda *a: built.append(1) or embed(*a))
    cfg = run_config_with_seed(tiny_config(), 12)
    store = FeatureStore(12, cfg.deepwalk)
    train = DATASET.split_samples("train")
    vgae = pretrain_augmenter(train, cfg, store, 12)
    model = JointModel.create(cfg, feature_width=features.feature_width(cfg.deepwalk), seed=12)
    train_joint(model, train, cfg, AblationConfig.from_arm(3), vgae=vgae, store=store)
    for s in DATASET.split_samples("test"):
        predict(model, s, AblationConfig.from_arm(8), vgae, cfg, store)
    assert len(normalized) == len(built) > len(DATASET.samples)


def test_joint_training_builds_reconstruction_terms_once_per_bundle(monkeypatch):
    # the terms depend only on the adjacency, so N training bundles over
    # E epochs build them N times, not N * E
    built = []
    real = features.reconstruction_terms
    monkeypatch.setattr(features, "reconstruction_terms",
                        lambda adj: built.append(1) or real(adj))
    cfg = run_config_with_seed(tiny_config(epochs=3), 4)
    store = FeatureStore(4, cfg.deepwalk)
    train = DATASET.split_samples("train")
    model = JointModel.create(cfg, feature_width=features.feature_width(cfg.deepwalk), seed=4)
    _, trace = train_joint(model, train, cfg, AblationConfig.from_arm(2), store=store)
    assert len(trace) == 3 and all(row["recon"] > 0 for row in trace)
    assert len(built) == len(train)


def test_joint_backward_peak_stays_near_what_the_forward_holds():
    # published head (128 x 8, embed and gae_hidden 64, DeepWalk width 66)
    # on a 30-node ego: the sweep frees each rule's arrays as it passes, so
    # backward peaks near 1.47x the forward tape under tracemalloc; with
    # every rule alive until the tape died it peaked near 1.95x
    import tracemalloc

    rng = np.random.default_rng(8)
    n = 30
    adj = np.triu((rng.random((n, n)) < 0.2).astype(np.int8), 1)
    adj += adj.T
    state = (rng.random(n) < 0.3).astype(np.int8)
    state[0] = 0
    sample = EgoSample(graph=UndirectedGraph(adj), ego=0, influence_state=state, label=1,
                       sample_id="m")
    cfg = TrainConfig()
    width = features.feature_width(cfg.deepwalk)
    fb = features.FeatureBundle(rng.standard_normal((n, width)), adj)
    fb.a_hat, fb.layout, fb.recon_terms  # derived first: the peak counts only the tape
    model = JointModel.create(cfg, feature_width=width, seed=1)
    drop_rng = stream(1, "dropout", 0, sample.sample_id)
    tracemalloc.start()
    try:
        tape = Tape()
        loss, _, _ = sample_loss(tape, model, sample, fb, True, drop_rng)
        held = tracemalloc.get_traced_memory()[0]
        tape.backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * held


class TestDeterminismAndIsolation:
    def test_same_seed_reproduces_metrics_bitwise(self):
        cfg = tiny_config(epochs=2)
        recs = [run_arm(DATASET, cfg, AblationConfig.from_arm(8), seed=9) for _ in range(2)]
        assert recs[0] == recs[1]

    def test_arm1_ignores_supplied_augmenter(self):
        cfg = run_config_with_seed(tiny_config(epochs=2), 10)
        store = FeatureStore(10, cfg.deepwalk)
        abl = AblationConfig.from_arm(1)
        train = DATASET.split_samples("train")
        test = DATASET.split_samples("test")
        vgae = pretrain_augmenter(train, cfg, store, 10)
        model = JointModel.create(cfg, feature_width=features.feature_width(cfg.deepwalk), seed=10)
        train_joint(model, train, cfg, abl, vgae=None, store=store)
        with_v = [predict(model, s, abl, vgae, cfg, store) for s in test]
        without = [predict(model, s, abl, None, cfg, store) for s in test]
        assert with_v == without

    def test_arm5_with_zero_count_equals_arm1(self):
        cfg = tiny_config(aug=AugmentationConfig(threshold=0.5, count=0), epochs=2)
        r1 = run_arm(DATASET, cfg, AblationConfig.from_arm(1), seed=11)
        r5 = run_arm(DATASET, cfg, AblationConfig.from_arm(5), seed=11)
        assert (r1.auc, r1.f1) == (r5.auc, r5.f1)
