import math

import numpy as np
import pytest

from egoinf.autodiff import Tape
from egoinf.errors import ConfigError, DimensionError
from egoinf.features import DeepWalkConfig, FeatureBundle, feature_width
from egoinf.layers import (
    EdgeLayout,
    GatLayer,
    GcnLayer,
    attention_layout,
    build_prediction_net,
    ego_nll,
    gat_forward,
    gcn_forward,
    glorot,
    normalized_adjacency,
    prediction_forward,
    softmax_row,
)
from egoinf.training import ModelConfig


from .oracles import (
    gat_attention,
    gat_head,
    grad_check,
    oracle_elu,
    oracle_gat_attention,
    oracle_gat_chain,
    oracle_gcn,
    oracle_layer,
    oracle_normalized_adjacency,
    random_adjacency,
    tape_sum,
)


def rng_for(seed):
    return np.random.default_rng(seed)


class TestNormalizedAdjacency:
    def test_single_node(self):
        np.testing.assert_allclose(normalized_adjacency(np.zeros((1, 1))), [[1.0]])

    def test_two_nodes_one_edge(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(normalized_adjacency(a), np.full((2, 2), 0.5))

    def test_path_entry(self):
        a = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        out = normalized_adjacency(a)
        assert out[0, 1] == pytest.approx(1 / math.sqrt(6), abs=1e-12)

    def test_asymmetric_rejected(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = 1.0
        with pytest.raises(ConfigError):
            normalized_adjacency(bad)

    def test_matches_oracle_on_random_graphs(self):
        for seed in range(50):
            rng = rng_for(seed)
            a = random_adjacency(int(rng.integers(2, 8)), rng)
            np.testing.assert_allclose(
                normalized_adjacency(a), oracle_normalized_adjacency(a), atol=1e-12
            )

    def test_symmetric_with_unit_spectral_radius(self):
        # largest |eigenvalue| via power iteration stays within 1 + 1e-9
        for seed in range(20):
            rng = rng_for(seed)
            a = random_adjacency(int(rng.integers(2, 9)), rng)
            m = normalized_adjacency(a)
            np.testing.assert_array_equal(m, m.T)
            v = rng.standard_normal(m.shape[0])
            for _ in range(200):
                nv = m @ v
                norm = np.linalg.norm(nv)
                if norm == 0:
                    break
                v = nv / norm
            radius = abs(v @ m @ v) / (v @ v)
            assert radius <= 1.0 + 1e-9


class TestGcnForward:
    def test_identity_weight_edgeless_graph(self):
        n = 3
        h = rng_for(0).standard_normal((n, n))
        layer = GcnLayer(weight=np.eye(n))
        t = Tape()
        a_hat = t.leaf(normalized_adjacency(np.zeros((n, n))))
        out = gcn_forward(t, layer, t.leaf(h), a_hat)
        np.testing.assert_allclose(out.values, h, atol=1e-15)

    def test_zero_input_zero_output(self):
        layer = GcnLayer(weight=rng_for(1).standard_normal((4, 2)))
        t = Tape()
        a_hat = t.leaf(normalized_adjacency(random_adjacency(5, rng_for(2))))
        out = gcn_forward(t, layer, t.leaf(np.zeros((5, 4))), a_hat)
        np.testing.assert_array_equal(out.values, np.zeros((5, 2)))

    def test_matches_dense_oracle(self):
        for seed in range(30):
            rng = rng_for(seed)
            n, fi, fo = 4, 3, 2
            h = rng.standard_normal((n, fi))
            w = rng.standard_normal((fi, fo))
            a_hat = normalized_adjacency(random_adjacency(n, rng))
            t = Tape()
            out = gcn_forward(t, GcnLayer(weight=w), t.leaf(h), t.leaf(a_hat))
            np.testing.assert_allclose(out.values, oracle_gcn(h, w, a_hat), atol=1e-12)


class TestGatAttention:
    def test_identical_features_on_clique(self):
        n = 4  # 3-clique plus self gives 4 attended entries per row
        adj = 1.0 - np.eye(n)
        h = np.ones((n, 3))
        layer = GatLayer.create(3, 2, heads=1, rng=rng_for(3))
        t = Tape()
        (alpha,) = gat_attention(t, layer, t.leaf(h), adj)
        np.testing.assert_allclose(alpha.values, np.full((n, n), 0.25), atol=1e-12)

    def test_edgeless_graph_gives_identity(self):
        n = 5
        layer = GatLayer.create(3, 2, heads=1, rng=rng_for(4))
        t = Tape()
        (alpha,) = gat_attention(
            t, layer, t.leaf(rng_for(5).standard_normal((n, 3))), np.zeros((n, n))
        )
        np.testing.assert_allclose(alpha.values, np.eye(n), atol=1e-15)

    def test_matches_bruteforce_oracle(self):
        for seed in range(30):
            rng = rng_for(seed)
            n = 5
            adj = random_adjacency(n, rng)
            h = rng.standard_normal((n, 3))
            layer = GatLayer.create(3, 2, heads=2, rng=rng)
            t = Tape()
            alphas = gat_attention(t, layer, t.leaf(h), adj)
            for k, alpha in enumerate(alphas):
                expected = oracle_gat_attention(h, *gat_head(layer, k), adj)
                np.testing.assert_allclose(alpha.values, expected, atol=1e-12)

    def test_rows_sum_to_one_over_attended_set(self):
        rng = rng_for(17)
        adj = random_adjacency(6, rng)
        layer = GatLayer.create(4, 3, heads=3, rng=rng)
        t = Tape()
        for alpha in gat_attention(t, layer, t.leaf(rng.standard_normal((6, 4))), adj):
            np.testing.assert_allclose(alpha.values.sum(axis=1), np.ones(6), atol=1e-12)
            outside = (adj == 0) & ~np.eye(6, dtype=bool)
            assert (alpha.values[outside] == 0).all()


def assert_fused_matches_chain(adj, f_in, f_out, heads, concat, rng):
    """gat_forward against the per-head oracle chain on one graph: values,
    the input gradient and the w/a gradients under a random probe, at 1e-12."""
    n = adj.shape[0]
    h = rng.standard_normal((n, f_in))
    layer = GatLayer.create(f_in, f_out, heads, rng, concat=concat)
    probe = rng.standard_normal((n, f_out * heads if concat else f_out))
    results = []
    for forward, graph in ((gat_forward, attention_layout(adj)), (oracle_gat_chain, adj)):
        t = Tape()
        x = t.leaf(h)
        out = forward(t, layer, x, graph)
        t.backward(tape_sum(t, t.hadamard(out, t.leaf(probe))))
        grads = {k: t.grad(v) for k, v in layer.parameters().items()}
        results.append((out.values, t.grad(x), grads))
    (got, got_dx, got_grads), (want, want_dx, want_grads) = results
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got_dx, want_dx, rtol=0, atol=1e-12)
    assert set(got_grads) == {"w", "a"}
    for name in want_grads:
        np.testing.assert_allclose(
            got_grads[name], want_grads[name], rtol=0, atol=1e-12, err_msg=name
        )


def ego_net(n, density, rng):
    """Random symmetric adjacency whose attention mask (edges plus
    self-loops) has about the given density."""
    p = (density - 1.0 / n) * n / (n - 1)
    adj = random_adjacency(n, rng, p=p)
    mask_density = (np.count_nonzero(adj) + n) / n**2
    assert 0.1 <= mask_density <= 0.25, mask_density
    return adj


class TestGatAtEgoNetShapes:
    """The edge-wise kernel against the dense per-head oracle at the sizes
    the benchmarks train on (30 nodes x 4 heads, 50 nodes x 8 heads, mask
    densities 0.1-0.25), where the oracle's dense row sums run longer than
    numpy's 8-way pairwise block, and at the mask's corner cases."""

    @pytest.mark.parametrize("concat", [True, False])
    @pytest.mark.parametrize(
        "n,heads,f_out,density",
        [(30, 4, 8, 0.14), (30, 4, 8, 0.21), (50, 8, 16, 0.13), (50, 8, 16, 0.18)],
    )
    def test_benchmark_shapes(self, n, heads, f_out, density, concat):
        for seed in range(3):
            rng = rng_for(1000 * n + seed)
            assert_fused_matches_chain(ego_net(n, density, rng), 12, f_out, heads, concat, rng)

    @pytest.mark.parametrize("concat", [True, False])
    def test_single_node(self, concat):
        assert_fused_matches_chain(np.zeros((1, 1)), 4, 3, 2, concat, rng_for(51))

    @pytest.mark.parametrize("concat", [True, False])
    def test_node_attending_only_to_itself(self, concat):
        rng = rng_for(52)
        adj = ego_net(30, 0.2, rng)
        adj[7, :] = adj[:, 7] = 0.0
        assert_fused_matches_chain(adj, 6, 4, 3, concat, rng)
        t = Tape()
        h = t.leaf(rng.standard_normal((30, 6)))
        for alpha in gat_attention(t, GatLayer.create(6, 4, 3, rng), h, adj):
            np.testing.assert_array_equal(alpha.values[7], np.eye(30)[7])

    @pytest.mark.parametrize("concat", [True, False])
    def test_complete_graph(self, concat):
        assert_fused_matches_chain(1.0 - np.eye(20), 6, 4, 4, concat, rng_for(53))

    @pytest.mark.parametrize("concat", [True, False])
    def test_non_unit_mask_values_count_as_edges(self, concat):
        rng = rng_for(54)
        adj = ego_net(30, 0.2, rng)
        weights = rng.uniform(0.1, 5.0, adj.shape)
        adj = adj * (weights + weights.T)
        assert_fused_matches_chain(adj, 6, 4, 3, concat, rng)


class TestGatForward:
    def test_single_head_identity_on_edgeless(self):
        n, f = 4, 3
        h = rng_for(6).standard_normal((n, f))
        layer = GatLayer(weight=np.eye(f), att=np.zeros((2 * f, 1)))
        t = Tape()
        out = gat_forward(t, layer, t.leaf(h), attention_layout(np.zeros((n, n))))
        np.testing.assert_allclose(out.values, h, atol=1e-15)

    def test_duplicate_heads_repeat_output(self):
        rng = rng_for(7)
        n, f, fp = 5, 3, 2
        w = rng.standard_normal((f, fp))
        a = rng.standard_normal((2 * fp, 1))
        layout = attention_layout(random_adjacency(n, rng))
        h = rng.standard_normal((n, f))
        single = GatLayer(weight=w, att=a)
        double = GatLayer(weight=np.hstack([w, w]), att=np.hstack([a, a]))
        t = Tape()
        one = gat_forward(t, single, t.leaf(h), layout).values
        two = gat_forward(t, double, t.leaf(h), layout).values
        np.testing.assert_allclose(two, np.hstack([one, one]), atol=1e-15)

    def test_matches_matmul_oracle(self):
        for seed in range(20):
            rng = rng_for(seed)
            n = 5
            adj = random_adjacency(n, rng)
            h = rng.standard_normal((n, 3))
            layer = GatLayer.create(3, 2, heads=2, rng=rng)
            t = Tape()
            out = gat_forward(t, layer, t.leaf(h), attention_layout(adj))
            pieces = []
            for k in range(2):
                w, a = gat_head(layer, k)
                alpha = oracle_gat_attention(h, w, a, adj)
                pieces.append(alpha @ (h @ w))
            np.testing.assert_allclose(out.values, np.hstack(pieces), atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("concat", [True, False])
    @pytest.mark.parametrize("edgeless", [False, True])
    def test_fused_heads_match_per_head_chain(self, heads, concat, edgeless):
        for seed in range(10):
            rng = rng_for(100 * heads + seed)
            n = int(rng.integers(2, 9))
            adj = np.zeros((n, n)) if edgeless else random_adjacency(n, rng)
            assert_fused_matches_chain(adj, 5, 3, heads, concat, rng)

    @pytest.mark.parametrize("concat", [True, False])
    def test_layer_nodes_independent_of_heads(self, concat):
        rng = rng_for(9)
        layout = attention_layout(random_adjacency(6, rng))
        h = rng.standard_normal((6, 4))
        recorded = []
        for heads in (1, 2, 3, 4):
            layer = GatLayer.create(4, 2, heads, rng, concat=concat)
            t = Tape()
            x = t.leaf(h)
            gat_forward(t, layer, x, layout)
            recorded.append(len(t) - 1)  # the input leaf is not the layer's
        # two parameter leaves, the projection and the attention; the mean
        # adds the averaging leaf and its matmul. The head, not the layer,
        # records the ELU after a hidden layer.
        assert recorded == [4 if concat else 6] * 4

    def test_create_stacks_per_head_glorot_draws(self):
        # the draw order fixes every initial weight, so trained scores too
        f_in, f_out, heads = 5, 3, 4
        layer = GatLayer.create(f_in, f_out, heads, rng_for(11))
        rng = rng_for(11)
        ws = [glorot(f_in, f_out, rng) for _ in range(heads)]
        atts = [glorot(2 * f_out, 1, rng) for _ in range(heads)]
        np.testing.assert_array_equal(layer.weight, np.hstack(ws))
        np.testing.assert_array_equal(layer.att, np.hstack(atts))
        assert (layer.heads, layer.f_out) == (heads, f_out)
        assert set(layer.parameters()) == {"w", "a"}

    def test_averaged_output_layer_width(self):
        rng = rng_for(8)
        layer = GatLayer.create(6, 2, heads=4, rng=rng, concat=False)
        t = Tape()
        h = t.leaf(rng.standard_normal((5, 6)))
        out = gat_forward(t, layer, h, attention_layout(random_adjacency(5, rng)))
        assert out.shape == (5, 2)


class TestEdgeLayout:
    def test_fully_masked_row_fails_when_built(self):
        # the first fully masked row is named, wherever it sits
        mask = np.ones((30, 30))
        mask[[13, 20]] = 0.0
        with pytest.raises(ConfigError, match="row 13 fully masked"):
            EdgeLayout.from_mask(mask)
        with pytest.raises(DimensionError):
            EdgeLayout.from_mask(np.ones((3, 4)))

    def test_layout_rejects_features_of_another_size(self):
        rng = rng_for(60)
        layer = GatLayer.create(4, 2, 3, rng)
        layout = attention_layout(random_adjacency(5, rng))
        t = Tape()
        with pytest.raises(DimensionError, match="layout of 5 nodes for 6"):
            gat_forward(t, layer, t.leaf(rng.standard_normal((6, 4))), layout)

    def test_lists_neighbours_plus_self_row_by_row(self):
        rng = rng_for(61)
        adj = ego_net(50, 0.13, rng)
        layout = attention_layout(adj)
        rows, cols = np.nonzero(adj + np.eye(50))
        np.testing.assert_array_equal(layout.rows, rows)
        np.testing.assert_array_equal(layout.cols, cols)
        np.testing.assert_array_equal(layout.flat, rows * 50 + cols)
        np.testing.assert_array_equal(layout.counts, np.count_nonzero(adj, axis=1) + 1)
        np.testing.assert_array_equal(layout.starts, np.searchsorted(rows, np.arange(50)))
        # compact: one entry per edge or per node, never the n x n square
        assert all(a.ndim == 1 and a.size in (rows.size, 50) for a in layout)

    def test_one_layout_shared_by_the_head_matches_one_per_layer(self):
        rng = rng_for(62)
        n = 30
        adj = ego_net(n, 0.2, rng)
        net = build_prediction_net("gat", 12, hidden=16, heads=4, dropout=0.0, rng=rng)
        h = rng.standard_normal((n, 12))
        shared = attention_layout(adj)
        before = [a.copy() for a in shared]

        def run(layout_of):
            t = Tape()
            x = t.leaf(h)
            for i, layer in enumerate(net.layers):
                x = gat_forward(t, layer, t.elu(x) if i else x, layout_of())
            t.backward(tape_sum(t, t.slice_rows(x, 0, 1)))
            return x.values, [t.grad(v) for v in net.parameters().values()]

        got, got_grads = run(lambda: shared)
        want, want_grads = run(lambda: attention_layout(adj))
        np.testing.assert_array_equal(got, want)
        for g, w in zip(got_grads, want_grads):
            np.testing.assert_array_equal(g, w)
        for a, b in zip(shared, before):
            np.testing.assert_array_equal(a, b)


class TestHeadOracle:
    """prediction_forward against plain numpy at the published head sizes:
    ELU after the first and second layers, none after the third, whose GAT
    heads are averaged."""

    @pytest.mark.parametrize("variant", ["gat", "gcn"])
    @pytest.mark.parametrize("n", [30, 50])
    def test_matches_numpy_composition(self, variant, n):
        mc = ModelConfig()
        f_in = mc.embed_dim + feature_width(DeepWalkConfig())
        rng = rng_for(n)
        net = build_prediction_net(variant, f_in, mc.hidden, mc.heads, dropout=0.2, rng=rng)
        adj = ego_net(n, 0.15, rng)
        h = rng.standard_normal((n, f_in))
        t = Tape()
        got = prediction_forward(t, net, t.leaf(h), FeatureBundle(h, adj))
        l1, l2, l3 = net.layers
        x = oracle_elu(oracle_layer(l1, h, adj))
        x = oracle_elu(oracle_layer(l2, x, adj))
        want = oracle_layer(l3, x, adj)
        assert got.shape == want.shape == (n, 2)
        assert (want < 0).any()  # an output ELU would change these
        np.testing.assert_allclose(got.values, want, rtol=1e-10, atol=1e-12)


class TestEgoNll:
    def test_uniform_logits_give_ln2(self):
        t = Tape()
        loss = ego_nll(t, t.leaf(np.zeros((3, 2))), ego=1, label=0)
        assert loss.values[0, 0] == pytest.approx(math.log(2), abs=1e-12)

    def test_saturated_logits_near_zero_loss(self):
        t = Tape()
        logits = np.zeros((2, 2))
        logits[0] = [20.0, -20.0]
        loss = ego_nll(t, t.leaf(logits), ego=0, label=0)
        assert loss.values[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        t = Tape()
        logits = np.zeros((1, 2))
        logits[0] = [1.0, 3.0]
        loss = ego_nll(t, t.leaf(logits), ego=0, label=1)
        assert loss.values[0, 0] == pytest.approx(math.log(1 + math.exp(-2)), abs=1e-12)

    def test_ego_out_of_range(self):
        t = Tape()
        with pytest.raises(ConfigError):
            ego_nll(t, t.leaf(np.zeros((3, 2))), ego=3, label=0)


class TestPermutationEquivariance:
    def test_loss_invariant_under_node_relabeling(self):
        for seed in range(10):
            rng = rng_for(seed)
            n = 6
            adj = random_adjacency(n, rng)
            feats = rng.standard_normal((n, 4))
            net = build_prediction_net("gat", 4, hidden=8, heads=2, dropout=0.0, rng=rng)
            ego, label = 2, 1

            def loss_for(a, f, e):
                t = Tape()
                logits = prediction_forward(t, net, t.leaf(f), FeatureBundle(f, a), None)
                return ego_nll(t, logits, e, label).values[0, 0]

            perm = rng.permutation(n)
            padj = adj[np.ix_(perm, perm)]
            pfeats = feats[perm]
            pego = int(np.flatnonzero(perm == ego)[0])
            assert loss_for(adj, feats, ego) == pytest.approx(
                loss_for(padj, pfeats, pego), abs=1e-10
            )


class TestEndToEndGradients:
    def test_head_gradients_pass_finite_differences(self):
        rng = rng_for(40)
        n = 5
        adj = random_adjacency(n, rng)
        feats = rng.standard_normal((n, 3))
        fb = FeatureBundle(feats, adj)
        for variant in ("gat", "gcn"):
            net = build_prediction_net(variant, 3, hidden=4, heads=2, dropout=0.0, rng=rng)
            live = net.parameters()

            def f(params):
                for name in live:
                    live[name][...] = params[name]
                t = Tape()
                logits = prediction_forward(t, net, t.leaf(feats), fb, None)
                loss = ego_nll(t, logits, 1, 1)
                t.backward(loss)
                return float(loss.values[0, 0]), {k: t.grad(v) for k, v in live.items()}

            report = grad_check(f, {k: v.copy() for k, v in live.items()}, step=1e-5, tol=1e-4)
            assert report.passed, (variant, report)


def test_softmax_row_matches_exp_normalization():
    rng = rng_for(9)
    logits = rng.standard_normal((4, 2))
    p = softmax_row(logits, 2)
    expected = np.exp(logits[2]) / np.exp(logits[2]).sum()
    np.testing.assert_allclose(p, expected, atol=1e-12)
    assert p.sum() == pytest.approx(1.0)
