import numpy as np
import pytest

from egoinf.errors import DimensionError
from egoinf.optim import Adagrad


def test_first_step_moves_by_lr():
    p = np.zeros((1, 1))
    opt = Adagrad({"p": p}, lr=0.1, eps=1e-10)
    opt.step({"p": np.ones((1, 1))})
    assert p[0, 0] == pytest.approx(-0.1, rel=1e-8)


def test_zero_gradient_leaves_params_unchanged():
    p = np.full((2, 2), 3.0)
    opt = Adagrad({"p": p}, lr=0.5, eps=1e-10)
    opt.step({"p": np.zeros((2, 2))})
    np.testing.assert_array_equal(p, np.full((2, 2), 3.0))


def test_repeated_identical_gradient_shrinks_steps():
    p = np.zeros((1, 1))
    opt = Adagrad({"p": p}, lr=0.1, eps=1e-10)
    opt.step({"p": np.ones((1, 1))})
    first = abs(p[0, 0])
    before = p[0, 0]
    opt.step({"p": np.ones((1, 1))})
    second = abs(p[0, 0] - before)
    assert second < first
    # scalar recurrence: second step is lr / sqrt(2)
    assert second == pytest.approx(0.1 / np.sqrt(2), rel=1e-6)


def test_weight_decay_folds_into_gradient():
    p = np.full((1, 1), 2.0)
    opt = Adagrad({"p": p}, lr=0.1, weight_decay=0.5, eps=1e-10)
    opt.step({"p": np.zeros((1, 1))})
    # g = 0 + 0.5 * 2 = 1, first step is -lr
    assert p[0, 0] == pytest.approx(1.9, rel=1e-8)


def test_accumulators_never_decrease():
    rng = np.random.default_rng(0)
    p = rng.standard_normal((3, 3))
    opt = Adagrad({"p": p}, lr=0.05, weight_decay=1e-3, eps=1e-10)
    prev = opt.acc["p"].copy()
    for _ in range(25):
        opt.step({"p": rng.standard_normal((3, 3))})
        assert (opt.acc["p"] >= prev - 1e-15).all()
        prev = opt.acc["p"].copy()


def test_shape_mismatch_rejected():
    opt = Adagrad({"p": np.zeros((2, 2))}, lr=0.1, eps=1e-10)
    with pytest.raises(DimensionError):
        opt.step({"p": np.zeros((3, 2))})
