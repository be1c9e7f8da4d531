"""Graph autoencoders: deterministic (GAE) and variational (VGAE).

Both use a two-layer graph convolution encoder, Z = A_hat ReLU(A_hat X W0) W1,
and an inner-product decoder sigmoid(Z Z^T). The VGAE shares W0 between its
mean and log-variance heads and samples Z by reparameterization during
training; in eval mode Z is the mean.

Pretraining stacks the training graphs, which share one size n, by rows:
features (B*n, f), normalized adjacencies and decoded probabilities
(B*n, n). Each epoch is one tape over the stack; only the products with
each graph's adjacency and the decoder work block by block
(``Tape.block_matmul``, ``Tape.block_gram``). One graph is a stack of one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError
from .features import FeatureBundle
from .layers import glorot
from .optim import Adagrad, mean_gradient_step
from .rng import stream

LOGVAR_CLAMP = 10.0  # |log variance| bound, guards exp overflow


@dataclass
class GaeModel:
    w0: np.ndarray  # (f_in, hidden)
    w1: np.ndarray  # (hidden, d)

    @classmethod
    def create(cls, f_in: int, hidden: int, d: int, rng) -> "GaeModel":
        return cls(w0=glorot(f_in, hidden, rng), w1=glorot(hidden, d, rng))

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def in_width(self) -> int:
        return self.w0.shape[0]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w0": self.w0, "w1": self.w1}


@dataclass
class VgaeModel:
    w0: np.ndarray
    w1_mu: np.ndarray
    w1_logvar: np.ndarray

    @classmethod
    def create(cls, f_in: int, hidden: int, d: int, rng) -> "VgaeModel":
        return cls(
            w0=glorot(f_in, hidden, rng),
            w1_mu=glorot(hidden, d, rng),
            w1_logvar=glorot(hidden, d, rng),
        )

    @property
    def d(self) -> int:
        return self.w1_mu.shape[1]

    @property
    def in_width(self) -> int:
        return self.w0.shape[0]

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w0": self.w0, "w1_mu": self.w1_mu, "w1_logvar": self.w1_logvar}


def gae_encode(tape: Tape, m: GaeModel, x: Tensor, a_hat: Tensor) -> Tensor:
    """Z for one graph, or for a stack of equal-size graphs laid out by rows:
    x (B*n, f) and a_hat (B*n, n) (see ``Tape.block_matmul``)."""
    hidden = tape.relu(tape.matmul(tape.block_matmul(a_hat, x), tape.leaf(m.w0)))
    return tape.matmul(tape.block_matmul(a_hat, hidden), tape.leaf(m.w1))


def vgae_encode(
    tape: Tape,
    m: VgaeModel,
    x: Tensor,
    a_hat: Tensor,
    noise: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Return (z, mu, logvar) for one graph or a stack, laid out as in
    ``gae_encode``. noise is the standard-normal epsilon of the
    reparameterization, shaped like mu; None means eval mode (z = mu)."""
    hidden = tape.relu(tape.matmul(tape.block_matmul(a_hat, x), tape.leaf(m.w0)))
    ah = tape.block_matmul(a_hat, hidden)
    mu = tape.matmul(ah, tape.leaf(m.w1_mu))
    logvar = tape.clip(tape.matmul(ah, tape.leaf(m.w1_logvar)), -LOGVAR_CLAMP, LOGVAR_CLAMP)
    if noise is None:
        return mu, mu, logvar
    sigma = tape.exp(tape.scale(logvar, 0.5))
    z = tape.add(mu, tape.hadamard(sigma, tape.leaf(np.asarray(noise, dtype=np.float64))))
    return z, mu, logvar


def stacked_decode(tape: Tape, z: Tensor, n: int) -> Tensor:
    """sigmoid(Z_b Z_b^T) for each graph's block of n rows of z, stacked by
    rows as (B*n, n); symmetrized so each block equals its transpose bitwise."""
    return tape.sigmoid(tape.block_gram(z, n))


def inner_product_decode(tape: Tape, z: Tensor) -> Tensor:
    """sigmoid(Z Z^T) of one graph: the stacked decoder on a stack of one."""
    return stacked_decode(tape, z, z.rows)


def reconstruction_terms(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The constant target, weights and mask of ``reconstruction_ce`` for
    one (n, n) adjacency or B of them stacked by rows, (B*n, n). The mask
    selects every off-diagonal entry; each graph's positives are up-weighted
    by its own pos_weight = #off-diagonal zeros / #off-diagonal ones."""
    target = np.asarray(adjacency, dtype=np.float64)
    if target.ndim != 2 or not target.shape[1] or target.shape[0] % target.shape[1]:
        raise ConfigError(f"reconstruction_ce: target {target.shape} is no stack of square blocks")
    n = target.shape[1]
    mask = np.tile(1.0 - np.eye(n), (target.shape[0] // n, 1))
    ones = (target * mask).reshape(-1, n * n).sum(axis=1)
    if not ones.all():
        raise ConfigError("reconstruction_ce: target has no positive entries; pos_weight undefined")
    pos_weight = (n * (n - 1) - ones) / ones
    weights = np.where(target > 0, pos_weight.repeat(n)[:, None], 1.0)
    return target, weights, mask


def reconstruction_ce(tape: Tape, m: Tensor, a_target: np.ndarray) -> Tensor:
    """Mean weighted binary cross-entropy between decoded probabilities and
    the adjacency over all off-diagonal entries (``reconstruction_terms``)."""
    return tape.bce_mean(m, *reconstruction_terms(a_target))


@dataclass
class AutoencTrainConfig:
    epochs: int
    lr: float
    adagrad_eps: float
    seed: int


class _Stack(NamedTuple):
    """Equal-size graphs' bundles stacked by rows, built once per fit."""

    n: int  # nodes per graph
    x: np.ndarray  # (B*n, width) encoder inputs
    a_hat: np.ndarray  # (B*n, n) normalized adjacencies
    terms: tuple  # reconstruction_terms of the (B*n, n) adjacencies


def _stack(bundles: list[FeatureBundle], name: str) -> _Stack:
    if not bundles:
        raise ConfigError(f"train_{name.lower()}: empty dataset")
    sizes = sorted({fb.n for fb in bundles})
    if len(sizes) > 1:
        raise ConfigError(
            f"train_{name.lower()}: graphs of {sizes} nodes; pretraining stacks one size"
        )
    return _Stack(
        sizes[0],
        np.vstack([fb.encoder_input for fb in bundles]),
        np.vstack([fb.a_hat for fb in bundles]),
        reconstruction_terms(np.vstack([fb.adjacency for fb in bundles])),
    )


def _fit(model, stack: _Stack, cfg: AutoencTrainConfig, name: str, loss_of):
    """Full-batch Adagrad, one step and one tape per epoch over the stacked
    graphs. loss_of(tape, stack) returns the loss node and its parts by
    name, each a mean over the graphs; a trace row holds the parts and
    their sum as total."""
    opt = Adagrad(model.parameters(), lr=cfg.lr, eps=cfg.adagrad_eps)

    def diverged(_, exc):
        return f"{name} diverged at epoch {epoch}: {exc}"

    trace: list[dict[str, float]] = []
    for epoch in range(cfg.epochs):
        (record,) = mean_gradient_step(opt, [stack], loss_of, diverged)
        trace.append({**record, "total": sum(record.values())})
    return model, trace


def train_vgae(model: VgaeModel, bundles: list[FeatureBundle], cfg: AutoencTrainConfig):
    """Fit the VGAE on the graphs' bundles with the reconstruction plus KL
    loss. Returns (model, trace) where trace has one dict per epoch with
    keys ce, kld, total."""
    stack = _stack(bundles, "VGAE")
    # one fixed noise draw per graph, made once: traces are reproducible and
    # a frozen model yields a frozen loss trace
    noise = np.vstack([
        stream(cfg.seed, "vgae-eps", gi).standard_normal((stack.n, model.d))
        for gi in range(len(bundles))
    ])

    def loss_of(tape, st):
        z, mu, logvar = vgae_encode(
            tape, model, tape.leaf(st.x), tape.leaf(st.a_hat), noise=noise
        )
        ce = tape.bce_mean(stacked_decode(tape, z, st.n), *st.terms)
        kl = tape.gaussian_kl(mu, logvar)
        return tape.add(ce, kl), {"ce": float(ce.values[0, 0]), "kld": float(kl.values[0, 0])}

    return _fit(model, stack, cfg, "VGAE", loss_of)


def train_gae(model: GaeModel, bundles: list[FeatureBundle], cfg: AutoencTrainConfig):
    """Fit a plain GAE on the graphs' bundles with the reconstruction loss
    only. Trace rows have keys ce and total."""

    def loss_of(tape, st):
        z = gae_encode(tape, model, tape.leaf(st.x), tape.leaf(st.a_hat))
        ce = tape.bce_mean(stacked_decode(tape, z, st.n), *st.terms)
        return ce, {"ce": float(ce.values[0, 0])}

    return _fit(model, _stack(bundles, "GAE"), cfg, "GAE", loss_of)
