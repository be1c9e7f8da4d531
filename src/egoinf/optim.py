"""Adagrad with decoupled-into-gradient weight decay, and the one
gradient step every trainer in the package takes.

Update per parameter matrix: g <- grad + wd * p, acc <- acc + g*g,
p <- p - lr * g / (sqrt(acc) + eps). Accumulators never decrease, so the
effective step size shrinks over time coordinate-wise.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .autodiff import Tape
from .errors import DimensionError, DivergenceError, NumericsError


class Adagrad:
    def __init__(
        self,
        params: dict[str, np.ndarray],
        lr: float,
        eps: float,
        weight_decay: float = 0.0,
    ):
        self.params = params
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.eps = float(eps)
        self.acc = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """Apply one update in place."""
        for name, p in self.params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise DimensionError(
                    f"adagrad: grad {g.shape} vs param {p.shape} for '{name}'"
                )
            if self.weight_decay:
                g = g + self.weight_decay * p
            self.acc[name] += g * g
            p -= self.lr * g / (np.sqrt(self.acc[name]) + self.eps)


def mean_gradient_step(
    opt: Adagrad,
    items: Sequence,
    loss_of: Callable,
    diverged: Callable[..., str],
    weights: Sequence[float] | None = None,
) -> list:
    """One ``opt`` step on the mean, or weighted mean, gradient of per-item
    losses.

    Each item gets a fresh tape: ``loss_of(tape, item)`` returns the scalar
    loss node and a record of its parts, and the loss is differentiated.
    Gradients of ``opt.params`` are summed in item order and divided by
    the item count, or, given ``weights`` (one per item, summing to 1),
    each is scaled by its item's weight before the sum. Only one item's
    tape is alive at a time. A non-finite value on the way raises
    ``DivergenceError(diverged(item, exc))``. Returns the records in item
    order.
    """
    grads: dict[str, np.ndarray] = {}
    records = []
    for i, item in enumerate(items):
        tape = Tape()
        try:
            loss, record = loss_of(tape, item)
            tape.backward(loss)
        except NumericsError as exc:
            raise DivergenceError(diverged(item, exc)) from exc
        records.append(record)
        for name, arr in opt.params.items():
            g = tape.grad(arr) if weights is None else weights[i] * tape.grad(arr)
            grads[name] = grads.get(name, 0.0) + g
        del tape, loss  # free this item's graph before the next is built
    if weights is None:
        grads = {k: v / len(records) for k, v in grads.items()}
    opt.step(grads)
    return records
