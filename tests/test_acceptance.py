"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criterion
(C5) trains on the default synthetic dataset and takes several minutes;
everything else is fast. C5 carries the `slow` marker, so
`pytest -m "not slow"` skips it.
"""
import math
import time

import numpy as np
import pytest

from egoinf.ablation import Study, run_arm, run_ablation
from egoinf.augment import (
    AugmentationConfig,
    candidate_edges,
    edge_probabilities,
    generate_augmentations,
)
from egoinf.autodiff import Tape
from egoinf.autoenc import (
    AutoencTrainConfig,
    GaeModel,
    VgaeModel,
    gae_encode,
    reconstruction_ce,
    stacked_decode,
    train_vgae,
    vgae_encode,
)
from egoinf.cascade import CascadeConfig, generate_dataset
from egoinf.cli import main as cli_main
from egoinf.features import (
    DeepWalkConfig,
    FeatureBundle,
    FeatureStore,
    feature_width,
    influence_features,
)
from egoinf.graphs import EgoSample, UndirectedGraph
from egoinf.layers import (
    GatLayer,
    GcnLayer,
    attention_layout,
    build_prediction_net,
    ego_nll,
    gat_forward,
    gcn_forward,
    normalized_adjacency,
)
from egoinf.metrics import auc, f1
from egoinf.training import (
    AblationConfig,
    JointModel,
    ModelConfig,
    TrainConfig,
    predict,
    pretrain_augmenter,
    sample_loss,
    train_joint,
)

from .oracles import (
    gat_attention,
    gat_head,
    grad_check,
    oracle_auc,
    oracle_gat_attention,
    oracle_gcn,
    oracle_normalized_adjacency,
    oracle_sigmoid,
    one_hot_bundle,
    random_adjacency,
    tape_mean,
    toy_two_cluster_graph,
)


def report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# configuration used for the desk-scale training criteria; model family and
# augmentation settings follow the defaults, sizes are cut down for runtime
ACCEPT_TRAIN = TrainConfig(
    epochs=10,
    lr=0.1,
    batch_size=64,
    dropout=0.2,
    seed=0,
    pretrain_epochs=40,
    pretrain_lr=0.1,
    aug=AugmentationConfig(threshold=0.8, count=3),
    model=ModelConfig(variant="gat", hidden=32, heads=4, embed_dim=8, gae_hidden=16),
    deepwalk=DeepWalkConfig(dim=8, walks_per_node=3, walk_length=15, window=3, negatives=3, epochs=2),
)

SMALL_TRAIN = TrainConfig(
    epochs=4,
    lr=0.1,
    batch_size=32,
    dropout=0.2,
    seed=0,
    pretrain_epochs=10,
    pretrain_lr=0.1,
    aug=AugmentationConfig(threshold=0.6, count=2),
    model=ModelConfig(variant="gat", hidden=16, heads=2, embed_dim=6, gae_hidden=8),
    deepwalk=DeepWalkConfig(dim=6, walks_per_node=2, walk_length=10, window=2, negatives=2, epochs=1),
)


@pytest.fixture(scope="module")
def default_dataset():
    return generate_dataset(CascadeConfig())


@pytest.fixture(scope="module")
def small_dataset():
    return generate_dataset(
        CascadeConfig(graph_nodes=150, ws_k=8, seed_set_size=15, samples=120, n_target=16, seed=2)
    )


def _fd_case_gcn(rng):
    n = int(rng.integers(3, 9))
    adj = random_adjacency(n, rng)
    a_hat = normalized_adjacency(adj)
    h = rng.standard_normal((n, 3))
    layer = GcnLayer.create(3, 2, rng)
    live = layer.parameters()

    def f(params):
        for k in live:
            live[k][...] = params[k]
        t = Tape()
        out = t.elu(gcn_forward(t, layer, t.leaf(h), t.leaf(a_hat)))
        loss = tape_mean(t, out)
        t.backward(loss)
        return float(loss.values[0, 0]), {k: t.grad(v) for k, v in live.items()}

    return f, live


def _fd_case_gat(rng, heads):
    n = int(rng.integers(3, 9))
    layout = attention_layout(random_adjacency(n, rng))
    h = rng.standard_normal((n, 3))
    layer = GatLayer.create(3, 2, heads, rng, concat=True)
    live = layer.parameters()

    def f(params):
        for k in live:
            live[k][...] = params[k]
        t = Tape()
        out = t.elu(gat_forward(t, layer, t.leaf(h), layout))
        loss = tape_mean(t, out)
        t.backward(loss)
        return float(loss.values[0, 0]), {k: t.grad(v) for k, v in live.items()}

    return f, live


def _fd_case_gae(rng):
    n = int(rng.integers(3, 9))
    adj = random_adjacency(n, rng, p=0.6) if n > 2 else np.array([[0.0, 1.0], [1.0, 0.0]])
    if adj.sum() == 0:
        adj[0, 1] = adj[1, 0] = 1.0
    fb = FeatureBundle(rng.standard_normal((n, 3)), adj)
    model = GaeModel.create(3, 3, 2, rng)
    live = model.parameters()

    def f(params):
        for k in live:
            live[k][...] = params[k]
        t = Tape()
        loss = reconstruction_ce(t, gae_encode(t, model, fb), fb)
        t.backward(loss)
        return float(loss.values[0, 0]), {k: t.grad(v) for k, v in live.items()}

    return f, live


def _fd_case_vgae(rng):
    n = int(rng.integers(3, 9))
    adj = random_adjacency(n, rng, p=0.6)
    if adj.sum() == 0:
        adj[0, 1] = adj[1, 0] = 1.0
    fb = FeatureBundle(rng.standard_normal((n, 3)), adj)
    noise = rng.standard_normal((n, 2))
    model = VgaeModel.create(3, 3, 2, rng)
    live = model.parameters()

    def f(params):
        for k in live:
            live[k][...] = params[k]
        t = Tape()
        z, mu, logvar = vgae_encode(t, model, fb, noise=noise)
        loss = t.add(reconstruction_ce(t, z, fb), t.gaussian_kl(mu, logvar))
        t.backward(loss)
        return float(loss.values[0, 0]), {k: t.grad(v) for k, v in live.items()}

    return f, live


def _fd_case_joint(rng):
    n = int(rng.integers(3, 9))
    adj = random_adjacency(n, rng, p=0.6)
    if adj.sum() == 0:
        adj[0, 1] = adj[1, 0] = 1.0
    dw = rng.standard_normal((n, 2))
    state = (rng.random(n) < 0.5).astype(np.int8)
    ego = int(rng.integers(n))
    state[ego] = 0
    sample = EgoSample(
        graph=UndirectedGraph(adj.astype(np.int8)),
        ego=ego,
        influence_state=state,
        label=int(rng.integers(2)),
        sample_id="fd",
    )
    fb = FeatureBundle(np.hstack([influence_features(sample), dw]), adj)
    gae = GaeModel.create(4, 3, 2, rng)
    head = build_prediction_net("gat", 2 + 4, hidden=4, heads=2, dropout=0.0, rng=rng)
    model = JointModel(gae=gae, head=head)
    live = model.parameters(include_gae=True)

    def f(params):
        for k in live:
            live[k][...] = params[k]
        t = Tape()
        loss, _, _ = sample_loss(t, model, sample, fb, joint=True, drop_rng=None)
        t.backward(loss)
        return float(loss.values[0, 0]), {k: t.grad(v) for k, v in live.items()}

    return f, live


def test_c1_gradient_suite():
    t0 = time.time()
    cases = {
        "gcn": _fd_case_gcn,
        "gat-1head": lambda rng: _fd_case_gat(rng, 1),
        "gat-2head": lambda rng: _fd_case_gat(rng, 2),
        "gae": _fd_case_gae,
        "vgae": _fd_case_vgae,
        "joint": _fd_case_joint,
    }
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, make in cases.items():
            f, live = make(rng)
            rep = grad_check(f, {k: v.copy() for k, v in live.items()}, step=1e-5, tol=1e-4)
            worst = max(worst, rep.max_rel_err)
            assert rep.passed, f"{name} seed {seed}: {rep}"
    elapsed = time.time() - t0
    report(
        "C1 gradient suite",
        worst <= 1e-4 and elapsed < 60,
        f"max rel err {worst:.2e}, {elapsed:.1f}s over 100 seeds x {len(cases)} layers",
    )


def test_c2_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    rng = np.random.default_rng(123)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        adj = random_adjacency(n, rng)
        a_hat = normalized_adjacency(adj)
        worst = max(worst, np.abs(a_hat - oracle_normalized_adjacency(adj)).max())

        h = rng.standard_normal((n, 3))
        w = rng.standard_normal((3, 2))
        t = Tape()
        got = gcn_forward(t, GcnLayer(weight=w), t.leaf(h), t.leaf(a_hat))
        worst = max(worst, np.abs(got.values - oracle_gcn(h, w, a_hat)).max())

        layer = GatLayer.create(3, 2, 1, rng)
        t = Tape()
        (alpha,) = gat_attention(t, layer, t.leaf(h), adj)
        expected = oracle_gat_attention(h, *gat_head(layer, 0), adj)
        worst = max(worst, np.abs(alpha.values - expected).max())

        z = rng.standard_normal((n, 2))
        t = Tape()
        decoded = stacked_decode(t, t.leaf(z), n)
        worst = max(worst, np.abs(decoded.values - oracle_sigmoid(z @ z.T)).max())

        m = int(rng.integers(4, 20))
        labels = rng.integers(0, 2, size=m)
        if labels.sum() in (0, m):
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(m), 1)
        worst = max(
            worst, abs(auc(scores, labels) - oracle_auc(scores.tolist(), labels.tolist()))
        )
    elapsed = time.time() - t0
    report(
        "C2 oracle equivalence",
        worst <= 1e-12 and elapsed < 60,
        f"max abs deviation {worst:.2e} over 1000 instances, {elapsed:.1f}s",
    )


def test_c3_vgae_learning():
    t0 = time.time()
    adj = toy_two_cluster_graph()
    model = VgaeModel.create(20, 16, 8, np.random.default_rng(0))
    pre = AutoencTrainConfig(epochs=200, lr=0.1, adagrad_eps=1e-10, seed=0)
    _, trace = train_vgae(model, [one_hot_bundle(adj)], pre)
    drop = 1.0 - trace[-1]["ce"] / trace[0]["ce"]
    kld_ok = all(row["kld"] >= 0.0 for row in trace)
    elapsed = time.time() - t0
    report(
        "C3 VGAE learning",
        drop >= 0.30 and kld_ok and elapsed < 10,
        f"reconstruction CE drop {drop:.1%} over 200 epochs, KLD >= 0 throughout, {elapsed:.1f}s",
    )


def test_c4_augmentation_properties():
    t0 = time.time()
    rng = np.random.default_rng(5)
    n = 12
    adj = random_adjacency(n, rng, p=0.25).astype(np.int8)
    sample = EgoSample(
        graph=UndirectedGraph(adj),
        ego=0,
        influence_state=np.zeros(n, dtype=np.int8),
        label=0,
        sample_id="acc4",
    )
    vgae = VgaeModel.create(n, 6, 4, rng)
    fb = one_hot_bundle(adj)
    m = edge_probabilities(vgae, fb)
    threshold = 0.5
    cands = candidate_edges(m, sample.graph.adjacency, threshold)
    assert cands, "acceptance case needs a nonempty candidate set"

    base_edges = sample.graph.num_edges
    expected = sum(m[i, j] for i, j in cands)
    var = sum(m[i, j] * (1 - m[i, j]) for i, j in cands)
    total_added = 0
    superset_ok = True
    threshold_ok = True
    trials = 1000
    for k in range(trials):
        cfg = AugmentationConfig(threshold=threshold, count=1, seed=k)
        (aug,) = generate_augmentations(sample, vgae, cfg, fb)
        diff = aug.graph.adjacency.astype(int) - sample.graph.adjacency.astype(int)
        superset_ok &= bool((diff >= 0).all())
        for i, j in zip(*np.nonzero(np.triu(diff, 1))):
            threshold_ok &= bool(m[i, j] > threshold)
        total_added += aug.graph.num_edges - base_edges
    mean_added = total_added / trials
    stderr = math.sqrt(var / trials)
    mean_ok = abs(mean_added - expected) <= 3 * stderr

    # threshold sweep on a fixed seed: added-edge percentage nonincreasing
    pcts = []
    for t_val in (0.3, 0.5, 0.7, 0.9):
        cfg = AugmentationConfig(threshold=t_val, count=4, seed=77)
        added = sum(
            a.graph.num_edges - base_edges
            for a in generate_augmentations(sample, vgae, cfg, fb)
        )
        pcts.append(added / (4 * base_edges) * 100.0)
    monotone_ok = all(a >= b for a, b in zip(pcts, pcts[1:]))
    elapsed = time.time() - t0
    report(
        "C4 augmentation properties",
        superset_ok and threshold_ok and mean_ok and monotone_ok and elapsed < 60,
        f"mean added {mean_added:.2f} vs sum(M)={expected:.2f} (3se={3*stderr:.2f}), "
        f"sweep pcts {[round(p, 2) for p in pcts]}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_c5_end_to_end_synthetic(default_dataset):
    t0 = time.time()
    pos = default_dataset.metadata["positives"]
    total = len(default_dataset.samples)
    minority = min(pos, total - pos) / total
    assert 0 < pos < total and minority >= 0.10, f"minority share {minority:.1%}"
    aucs = []
    for seed in (1, 2, 3, 4, 5):
        rec = run_arm(default_dataset, ACCEPT_TRAIN, AblationConfig.from_arm(8), seed=seed)
        aucs.append(rec.auc)
        print(f"[acceptance] C5 seed {seed}: auc {rec.auc:.4f}")
    mean = float(np.mean(aucs))
    std = float(np.std(aucs, ddof=1))
    margin = (mean - 0.5) / max(std, 1e-12)
    elapsed = time.time() - t0
    report(
        "C5 end-to-end synthetic",
        mean >= 0.60 and margin >= 3.0 and elapsed < 1800,
        f"mean auc {mean:.4f} over 5 seeds (std {std:.4f}, {margin:.1f} paired-std above chance), "
        f"{elapsed/60:.1f} min",
    )


def test_c6_ablation_harness(small_dataset):
    t0 = time.time()
    arms = [AblationConfig.from_arm(a) for a in range(1, 9)]
    report_obj = run_ablation(small_dataset, SMALL_TRAIN, Study(tuple(arms), (21, 22)))
    all_rows = report_obj.records
    rows_ok = len(all_rows) == 16 and all(0.0 <= r.auc <= 1.0 for r in all_rows)
    deltas = report_obj.paired_deltas(1)
    deltas_ok = set(deltas) == set(range(2, 9))

    # arm #1 ignores any supplied augmenter
    cfg_run = SMALL_TRAIN
    from egoinf.training import run_config_with_seed

    cfg1 = run_config_with_seed(cfg_run, 21)
    store = FeatureStore(21, cfg_run.deepwalk)
    train_samples = small_dataset.split_samples("train")
    test_samples = small_dataset.split_samples("test")
    vgae = pretrain_augmenter(train_samples, cfg1, store, 21)
    abl1 = AblationConfig.from_arm(1)
    model = JointModel.create(cfg1, feature_width=feature_width(cfg_run.deepwalk), seed=21)
    train_joint(model, train_samples, cfg1, abl1, vgae=None, store=store)
    with_vgae = [predict(model, s, abl1, vgae, cfg1, store) for s in test_samples]
    without = [predict(model, s, abl1, None, cfg1, store) for s in test_samples]
    arm1_ok = with_vgae == without

    # arm #5 with Q=0 equals arm #1, per seed
    import dataclasses

    cfg_q0 = dataclasses.replace(SMALL_TRAIN, aug=AugmentationConfig(threshold=0.6, count=0))
    q0_ok = True
    for seed in (21, 22):
        r1 = run_arm(small_dataset, cfg_q0, AblationConfig.from_arm(1), seed=seed)
        r5 = run_arm(small_dataset, cfg_q0, AblationConfig.from_arm(5), seed=seed)
        q0_ok &= (r1.auc, r1.f1) == (r5.auc, r5.f1)

    elapsed = time.time() - t0
    print("[acceptance] C6 paired deltas vs arm 1 (auc):")
    for arm in sorted(deltas):
        d = deltas[arm]
        print(
            f"[acceptance]   arm {arm}: {d['auc_delta_mean']:+.4f} "
            f"(std {d['auc_delta_std']:.4f})"
        )
    report(
        "C6 ablation harness",
        rows_ok and deltas_ok and arm1_ok and q0_ok,
        f"8 arms x 2 seeds complete, arm1 augmenter-invariant, arm5(Q=0)=arm1, {elapsed/60:.1f} min",
    )


def test_c7_rerun_determinism(tmp_path):
    t0 = time.time()
    synth = tmp_path / "synth"
    code = cli_main([
        "synth", "--out", str(synth), "--nodes", "90", "--ws-k", "8",
        "--seed-set-size", "10", "--samples", "24", "--subgraph-size", "10", "--seed", "3",
    ])
    assert code == 0
    abl_out = tmp_path / "abl"
    flags = [
        "--epochs", "2", "--lr", "0.1", "--hidden", "8", "--heads", "2",
        "--embed-dim", "4", "--gae-hidden", "6", "--pretrain-epochs", "4",
        "--dw-dim", "6", "--dw-walks", "2", "--dw-length", "8", "--dw-window", "2",
        "--dw-negatives", "2", "--dw-epochs", "1", "--aug-count", "1",
        "--aug-threshold", "0.5",
    ]
    code = cli_main([
        "ablate", "--data", str(synth / "dataset.jsonl"), "--out", str(abl_out),
        "--arms", "1,8", "--runs", "1", "--seed", "13", *flags,
    ])
    assert code == 0
    redo = tmp_path / "redo"
    code = cli_main(["rerun", "--manifest", str(abl_out / "manifest.json"), "--out", str(redo)])
    metrics_same = (abl_out / "metrics.jsonl").read_bytes() == (redo / "metrics.jsonl").read_bytes()
    elapsed = time.time() - t0
    report(
        "C7 rerun determinism",
        code == 0 and metrics_same,
        f"metric records bit-identical on rerun from manifest, {elapsed:.0f}s",
    )


def test_c8_metric_spot_values():
    auc_ok = auc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0]) == pytest.approx(0.75, abs=1e-15)
    f1_ok = f1([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    t = Tape()
    nll = ego_nll(t, t.leaf(np.zeros((3, 2))), ego=1, label=1)
    nll_ok = nll.values[0, 0] == pytest.approx(math.log(2), abs=1e-12)
    report(
        "C8 metric spot values",
        auc_ok and f1_ok and nll_ok,
        "auc=0.75, perfect f1=1.0, uniform ego nll=ln 2",
    )
