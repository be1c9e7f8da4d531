import math

import numpy as np
import pytest

from egoinf.autodiff import Tape, _sigmoid
from egoinf.errors import ConfigError, DimensionError, NumericsError
from egoinf.layers import EdgeLayout

from .oracles import (
    grad_check,
    oracle_masked_sigmoid,
    leaky_relu,
    oracle_backward,
    row_softmax_masked,
    tape_mean,
    tape_sum,
    tape_transpose,
)


def toy(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


class TestPrimitiveValues:
    def test_sigmoid_of_zero_matrix_is_half(self):
        t = Tape()
        out = t.sigmoid(t.leaf(np.zeros((2, 3))))
        np.testing.assert_array_equal(out.values, np.full((2, 3), 0.5))

    def test_masked_softmax_equal_logits(self):
        t = Tape()
        mask = np.array([[1.0, 1.0, 1.0, 0.0]])
        out = row_softmax_masked(t, t.leaf(np.zeros((1, 4))), mask)
        np.testing.assert_allclose(out.values, [[1 / 3, 1 / 3, 1 / 3, 0.0]])

    def test_elu_at_minus_one(self):
        t = Tape()
        out = t.elu(t.leaf(np.array([[-1.0]])))
        assert out.values[0, 0] == pytest.approx(math.exp(-1) - 1, abs=1e-12)

    def test_masked_softmax_rows_sum_to_one_and_masked_are_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            mask = (rng.random((n, n)) < 0.5).astype(float)
            np.fill_diagonal(mask, 1.0)  # keep every row attendable
            t = Tape()
            out = row_softmax_masked(t, t.leaf(rng.standard_normal((n, n))), mask)
            np.testing.assert_allclose(out.values.sum(axis=1), np.ones(n), atol=1e-12)
            assert (out.values[mask == 0] == 0.0).all()

    def test_masked_softmax_rejects_fully_masked_row(self):
        t = Tape()
        with pytest.raises(ConfigError, match="row 1"):
            row_softmax_masked(t, t.leaf(np.zeros((2, 2))), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_gat_heads_rejects_fully_masked_row_and_bad_shapes(self):
        # a fully masked row never reaches gat_heads: its layout fails to build
        with pytest.raises(ConfigError, match="row 1"):
            EdgeLayout.from_mask(np.array([[1.0, 0.0], [0.0, 0.0]]))
        t = Tape()
        hw, att = t.leaf(np.zeros((2, 4))), t.leaf(np.zeros((4, 2)))
        eye2 = EdgeLayout.from_mask(np.eye(2))
        with pytest.raises(DimensionError):
            t.gat_heads(hw, att, eye2, 1, 0.2)
        with pytest.raises(DimensionError):
            t.gat_heads(hw, t.leaf(np.zeros((6, 2))), eye2, 2, 0.2)
        with pytest.raises(DimensionError):
            t.gat_heads(hw, att, EdgeLayout.from_mask(np.eye(3)), 2, 0.2)

    def test_shape_mismatch_names_both_shapes(self):
        t = Tape()
        a, b = t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((2, 3)))
        with pytest.raises(DimensionError, match=r"\(2, 3\) @ \(2, 3\)"):
            t.matmul(a, b)

    def test_nonfinite_result_is_an_error(self):
        t = Tape()
        big = t.leaf(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            t.hadamard(big, big)


class TestDropout:
    def test_eval_mode_is_identity(self):
        t = Tape()
        x = t.leaf(toy((4, 4)))
        assert t.dropout(x, 0.5, rng=None) is x

    def test_p_out_of_range(self):
        t = Tape()
        x = t.leaf(np.ones((2, 2)))
        with pytest.raises(ConfigError):
            t.dropout(x, 1.0, rng=np.random.default_rng(0))

    def test_train_mode_preserves_mean(self):
        # E[output] = input; empirical check over 1e4 draws, 2% tolerance on
        # the mean estimate (per entry the estimator's std is 1%, so the
        # entry-level bound is looser)
        rng = np.random.default_rng(42)
        total = np.zeros((1, 100))
        draws = 10_000
        ones = np.ones((1, 100))
        for _ in range(draws):
            t = Tape()
            total += t.dropout(t.leaf(ones), 0.5, rng).values
        est = total / draws
        assert abs(est.mean() - 1.0) <= 0.02
        np.testing.assert_allclose(est, ones, atol=0.05)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        w = toy((2, 2))
        t = Tape()
        loss = tape_sum(t, t.leaf(w))
        t.backward(loss)
        np.testing.assert_array_equal(t.grad(w), np.ones((2, 2)))

    def test_hadamard_square_gradient(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        t = Tape()
        wt = t.leaf(w)
        loss = tape_sum(t, t.hadamard(wt, wt))
        t.backward(loss)
        np.testing.assert_allclose(t.grad(w), 2 * w)

    def test_non_scalar_loss_rejected(self):
        t = Tape()
        with pytest.raises(ConfigError):
            t.backward(t.leaf(np.zeros((2, 2))))

    def test_fanout_gradients_accumulate(self):
        w = toy((3, 3), 5)
        t = Tape()
        wt = t.leaf(w)
        loss = tape_sum(t, t.add(wt, wt))
        t.backward(loss)
        np.testing.assert_array_equal(t.grad(w), 2 * np.ones((3, 3)))

    def test_unused_leaf_gets_zero_gradient(self):
        w = toy((2, 2))
        other = toy((2, 2), 1)
        t = Tape()
        t.leaf(other)
        loss = tape_sum(t, t.leaf(w))
        t.backward(loss)
        np.testing.assert_array_equal(t.grad(other), np.zeros((2, 2)))


class TestSigmoid:
    def test_branch_free_form_matches_the_masked_form_bitwise(self):
        rng = np.random.default_rng(4)
        special = np.array([[0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.0, -36.0,
                             745.0, -745.0, 746.0, -746.0, 1e308, -1e308]])
        for x in (special, rng.standard_normal((30, 30)) * 40, rng.standard_normal((720, 30))):
            got, want = _sigmoid(x), oracle_masked_sigmoid(x)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def stacks(rng, blocks, n, f):
    """A row-stack of symmetric (n, n) blocks and a (blocks*n, f) matrix."""
    a = rng.standard_normal((blocks, n, n))
    return (a + a.transpose(0, 2, 1)).reshape(blocks * n, n), rng.standard_normal((blocks * n, f))


class TestBlockOps:
    def test_block_matmul_is_each_blocks_product_bitwise(self):
        a, h = stacks(np.random.default_rng(5), 4, 6, 3)
        t = Tape()
        out = t.block_matmul(t.leaf(a), t.leaf(h)).values
        for b in range(4):
            rows = slice(6 * b, 6 * (b + 1))
            assert np.array_equal(out[rows], a[rows] @ h[rows])

    def test_block_gram_is_each_blocks_symmetrized_gram_bitwise(self):
        _, z = stacks(np.random.default_rng(6), 3, 5, 4)
        t = Tape()
        out = t.block_gram(t.leaf(z), 5).values
        assert out.shape == (15, 5)
        for b in range(3):
            zb = z[5 * b : 5 * (b + 1)]
            s = zb @ zb.T.copy()
            block = out[5 * b : 5 * (b + 1)]
            assert np.array_equal(block, (s + s.T.copy()) * 0.5)
            assert np.array_equal(block, block.T)

    def test_shape_errors(self):
        t = Tape()
        with pytest.raises(DimensionError):
            t.block_matmul(t.leaf(np.zeros((6, 3))), t.leaf(np.zeros((3, 2))))
        with pytest.raises(DimensionError):
            t.block_matmul(t.leaf(np.zeros((5, 2))), t.leaf(np.zeros((5, 2))))
        with pytest.raises(DimensionError):
            t.block_gram(t.leaf(np.zeros((5, 2))), 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_pass_finite_differences(self, seed):
        rng = np.random.default_rng(300 + seed)
        a, h = stacks(rng, 3, 4, 2)
        weight = rng.standard_normal((4, 4))

        def f(p):
            t = Tape()
            z = t.block_matmul(t.leaf(a * 0.3), t.leaf(p["h"]))
            gram = t.block_gram(t.leaf(p["z"]), 4)
            loss = t.add(
                tape_sum(t, t.hadamard(z, z)),
                tape_sum(t, t.hadamard(t.sigmoid(gram), t.leaf(np.tile(weight, (3, 1))))),
            )
            t.backward(loss)
            return float(loss.values[0, 0]), {"h": t.grad(p["h"]), "z": t.grad(p["z"])}

        report = grad_check(f, {"h": h, "z": rng.standard_normal((12, 3))})
        assert report.max_rel_err < 1e-7, report


def every_op_forward(t, x, w, mask):
    """Every primitive the models use, chained on tape t; returns the final node."""
    xt, wt = t.leaf(x), t.leaf(w)
    h = t.elu(t.matmul(xt, wt))
    h = t.add(t.hadamard(h, t.sigmoid(h)), t.relu(t.scale(h, -0.5)))
    h = t.gat_heads(h, t.leaf(np.ones((2, 3))), EdgeLayout.from_mask(mask), 3, 0.2)
    h = t.dropout(t.exp(t.clip(t.block_matmul(t.leaf(mask), h), -5.0, 5.0)), 0.5, None)
    z = t.concat_cols([h, t.slice_cols(h, 0, 1)])
    kl = t.gaussian_kl(t.slice_rows(z, 0, 2), t.slice_rows(z, 2, 4))
    bce = t.bce_mean(t.sigmoid(z), np.ones(z.shape), np.ones(z.shape), np.ones(z.shape))
    head = t.add(tape_mean(t, z), tape_sum(t, t.slice_rows(z, 0, 1)))
    head = t.add(head, t.logsumexp(t.block_gram(z, 2)))
    return t.add(head, t.add(kl, t.add(bce, t.logsumexp(z))))


class TestOneSweep:
    """backward is a tape's one sweep: each node it passes loses its rule
    and parent links, every gradient stays readable, a second call fails."""

    @staticmethod
    def record():
        rng = np.random.default_rng(31)
        x, w = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        mask = np.eye(4) + (rng.random((4, 4)) < 0.5)
        t = Tape()
        t.exp(t.leaf(w))  # a branch the loss does not reach
        dropped = t.dropout(t.matmul(t.leaf(x), t.leaf(w)), 0.5, np.random.default_rng(3))
        loss = t.add(every_op_forward(t, x, w, mask), tape_sum(t, dropped))
        return t, loss, x, w

    def test_gradients_match_a_sweep_that_keeps_every_rule(self):
        t, loss, x, w = self.record()
        want = oracle_backward(t, loss)
        t, loss, x, w = self.record()
        t.backward(loss)
        for node in t._nodes:
            ref = want[node.idx] if want[node.idx] is not None else np.zeros(node.shape)
            assert t.grad(node).tobytes() == ref.tobytes()
        for leaf in (x, w):
            assert t.grad(leaf).tobytes() == want[t.leaf(leaf).idx].tobytes()

    def test_no_node_keeps_a_rule_or_parent_links(self):
        t, loss, _, _ = self.record()
        assert sum(node.grad_fn is not None for node in t._nodes) > 20
        t.backward(loss)
        assert all(node.grad_fn is None and node.parents == () for node in t._nodes)

    def test_second_backward_is_a_config_error(self):
        t, loss, x, _ = self.record()
        with pytest.raises(ConfigError, match="scalar"):
            t.backward(t.leaf(x))  # a rejected loss leaves the tape unswept
        t.backward(loss)
        dx = t.grad(x).copy()
        with pytest.raises(ConfigError, match="already swept"):
            t.backward(loss)
        np.testing.assert_array_equal(t.grad(x), dx)


class TestNoGradTape:
    def test_same_values_and_no_nodes(self):
        rng = np.random.default_rng(21)
        x, w = rng.standard_normal((4, 5)), rng.standard_normal((5, 3))
        mask = np.eye(4) + (rng.random((4, 4)) < 0.5)
        recording, no_grad = Tape(), Tape(grad=False)
        want = every_op_forward(recording, x, w, mask).values
        got = every_op_forward(no_grad, x, w, mask).values
        np.testing.assert_array_equal(got, want)
        assert len(recording) > 20
        assert len(no_grad) == 0

    def test_nonfinite_result_is_still_an_error(self):
        t = Tape(grad=False)
        big = t.leaf(np.full((1, 1), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NumericsError):
            t.hadamard(big, big)
        with pytest.raises(NumericsError):
            t.leaf(np.array([[np.nan]]))

    def test_backward_is_a_config_error(self):
        t = Tape(grad=False)
        loss = tape_sum(t, t.leaf(toy((2, 2))))
        with pytest.raises(ConfigError, match="no-grad"):
            t.backward(loss)


def composite_loss(params, x, mask, drop=None):
    t = Tape()
    w = t.leaf(params["w"])
    v = t.leaf(params["v"])
    h = t.elu(t.matmul(t.leaf(x), w))
    h = t.hadamard(h, t.sigmoid(h))
    att = row_softmax_masked(t, t.matmul(h, tape_transpose(t, h)), mask)
    out = t.matmul(att, t.matmul(h, v))
    z = t.concat_cols([out, leaky_relu(t, out, 0.2)])
    z = t.slice_cols(z, 0, z.cols - 1)
    loss = t.add(
        tape_mean(t, z),
        t.add(
            t.logsumexp(t.slice_rows(z, 0, 1)),
            t.scale(tape_sum(t, t.clip(out, -0.9, 0.9)), 0.3),
        ),
    )
    t.backward(loss)
    return float(loss.values[0, 0]), {k: t.grad(p) for k, p in params.items()}


class TestGradCheck:
    def test_composite_passes_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 3))
        mask = np.ones((4, 4))
        params = {"w": rng.standard_normal((3, 3)), "v": rng.standard_normal((3, 2))}
        report = grad_check(lambda p: composite_loss(p, x, mask), params, step=1e-5, tol=1e-4)
        assert report.passed, report

    def test_every_primitive_gradient(self):
        # one shared dense composite plus the ops it cannot reach
        rng = np.random.default_rng(11)

        def bce(p):
            t = Tape()
            pred = t.sigmoid(t.leaf(p["s"]))
            target = np.array([[1.0, 0.0], [0.0, 1.0]])
            loss = t.bce_mean(pred, target, np.where(target > 0, 2.0, 1.0), 1 - np.eye(2))
            t.backward(loss)
            return float(loss.values[0, 0]), {"s": t.grad(p["s"])}

        def kl(p):
            t = Tape()
            loss = t.gaussian_kl(t.leaf(p["mu"]), t.leaf(p["lv"]))
            t.backward(loss)
            return float(loss.values[0, 0]), {"mu": t.grad(p["mu"]), "lv": t.grad(p["lv"])}

        def expsum(p):
            t = Tape()
            loss = tape_sum(t, t.exp(t.leaf(p["x"])))
            t.backward(loss)
            return float(loss.values[0, 0]), {"x": t.grad(p["x"])}

        def relu_sum(p):
            t = Tape()
            loss = tape_sum(t, t.relu(t.leaf(p["x"])))
            t.backward(loss)
            return float(loss.values[0, 0]), {"x": t.grad(p["x"])}

        assert grad_check(bce, {"s": rng.standard_normal((2, 2))}).passed
        assert grad_check(
            kl, {"mu": rng.standard_normal((3, 2)), "lv": rng.standard_normal((3, 2))}
        ).passed
        assert grad_check(expsum, {"x": rng.standard_normal((2, 3))}).passed
        assert grad_check(relu_sum, {"x": rng.standard_normal((3, 3)) + 0.2}).passed

    def test_gat_heads_gradient(self):
        rng = np.random.default_rng(12)
        mask = (rng.random((5, 5)) < 0.5).astype(float)
        np.fill_diagonal(mask, 1.0)
        layout = EdgeLayout.from_mask(mask)
        probe = rng.standard_normal((5, 6))

        def f(p):
            t = Tape()
            out = t.gat_heads(t.leaf(p["hw"]), t.leaf(p["att"]), layout, 3, 0.2)
            loss = tape_sum(t, t.hadamard(out, t.leaf(probe)))
            t.backward(loss)
            return float(loss.values[0, 0]), {k: t.grad(v) for k, v in p.items()}

        for seed in range(5):
            r = np.random.default_rng(seed)
            params = {"hw": r.standard_normal((5, 6)), "att": r.standard_normal((4, 3))}
            report = grad_check(f, params)
            assert report.passed, report

    def test_dropout_gradient_with_frozen_mask(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4, 4))

        def f(p):
            t = Tape()
            out = t.dropout(t.leaf(p["x"]), 0.4, np.random.default_rng(99))
            loss = tape_sum(t, t.hadamard(out, out))
            t.backward(loss)
            return float(loss.values[0, 0]), {"x": t.grad(p["x"])}

        assert grad_check(f, {"x": x}).passed

    def test_corrupted_backward_rule_fails(self):
        def f(p):
            t = Tape()
            loss = tape_sum(t, t.sigmoid(t.leaf(p["x"])))
            t.backward(loss)
            return float(loss.values[0, 0]), {"x": t.grad(p["x"]) * 1.5}

        report = grad_check(f, {"x": toy((3, 3))})
        assert not report.passed

    def test_linear_function_matches_to_machine_precision(self):
        def f(p):
            t = Tape()
            loss = tape_sum(t, t.scale(t.leaf(p["x"]), 2.5))
            t.backward(loss)
            return float(loss.values[0, 0]), {"x": t.grad(p["x"])}

        report = grad_check(f, {"x": toy((3, 2))})
        assert report.max_rel_err < 1e-9

    def test_smooth_primitive_sweep_over_100_seeds(self):
        # central differences at step 1e-5 / tol 1e-4 across the smooth
        # primitives; relu, elu and the attention's leaky-ReLU get their
        # own 100-seed sweep through the layer gradient suite, where a
        # finite-difference probe cannot straddle a kink picked by this
        # composite
        def with_ops(p, x, mask, eps_arr, drop_seed):
            t = Tape()
            w = t.leaf(p["w"])
            v = t.leaf(p["v"])
            mu = t.leaf(p["mu"])
            lv = t.leaf(p["lv"])
            eps = t.leaf(eps_arr)
            h = t.sigmoid(t.matmul(t.leaf(x), w))
            h = t.hadamard(h, h)
            h = t.dropout(h, 0.3, np.random.default_rng(drop_seed))
            att = row_softmax_masked(t, t.matmul(h, tape_transpose(t, h)), mask)
            out = t.matmul(att, t.matmul(h, v))
            z = t.concat_cols([out, t.scale(out, -1.5)])
            z = t.slice_cols(z, 0, z.cols - 1)
            z = t.slice_rows(z, 0, z.rows - 1)
            # keep the decoder away from saturation: finite differences lose
            # accuracy where log(1-p) curvature explodes, analytic grads don't
            zs = t.scale(z, 0.3)
            pred = t.sigmoid(t.matmul(zs, tape_transpose(t, zs)))
            target = (np.arange(pred.rows * pred.cols).reshape(pred.shape) % 2).astype(float)
            bce = t.bce_mean(pred, target, 1.0 + target, np.ones(pred.shape))
            sigma_term = tape_sum(t, t.exp(t.clip(lv, -30.0, 30.0)))
            pieces = t.add(tape_mean(t, z), t.logsumexp(t.slice_rows(z, 0, 1)))
            loss = t.add(
                t.add(pieces, t.scale(sigma_term, 0.01)),
                t.add(bce, t.gaussian_kl(mu, t.hadamard(lv, t.hadamard(eps, eps)))),
            )
            t.backward(loss)
            return float(loss.values[0, 0]), {k: t.grad(p[k]) for k in p}

        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            x = rng.standard_normal((4, 3))
            mask = np.ones((4, 4))
            eps_arr = rng.standard_normal((3, 2))
            params = {
                "w": rng.standard_normal((3, 3)),
                "v": rng.standard_normal((3, 2)),
                "mu": rng.standard_normal((3, 2)),
                "lv": rng.standard_normal((3, 2)) * 0.5,
            }
            rep = grad_check(
                lambda p: with_ops(p, x, mask, eps_arr, seed),
                params,
                step=1e-5,
                tol=1e-4,
            )
            worst = max(worst, rep.max_rel_err)
            assert rep.passed, (seed, rep)
        assert worst <= 1e-4
