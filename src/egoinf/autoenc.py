"""Graph autoencoders: deterministic (GAE) and variational (VGAE).

Both use a two-layer graph convolution encoder, Z = A_hat ReLU(A_hat X W0) W1,
and an inner-product decoder sigmoid(Z Z^T). The VGAE shares W0 between its
mean and log-variance heads and samples Z by reparameterization during
training; in eval mode Z is the mean.

The encoders and the reconstruction loss take one graph argument: a
``FeatureBundle`` or pretraining's row-stack of equal-size bundles under
the same field names, one graph being a stack of one. Each epoch of
pretraining is one tape over the stack; only the products with each
graph's adjacency and the decoder work block by block
(``Tape.block_matmul``, ``Tape.block_gram``).
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


def gae_encode(tape: Tape, m: GaeModel, graphs: FeatureBundle | _Stack) -> Tensor:
    """Z for one bundle, or for a row-stack of equal-size bundles."""
    x, a_hat = tape.leaf(graphs.encoder_input), tape.leaf(graphs.a_hat)
    hidden = tape.relu(tape.matmul(tape.block_matmul(a_hat, x), tape.leaf(m.w0)))
    return tape.matmul(tape.block_matmul(a_hat, hidden), tape.leaf(m.w1))


def vgae_encode(
    tape: Tape, m: VgaeModel, graphs: FeatureBundle | _Stack, noise: np.ndarray | None = None
) -> tuple[Tensor, Tensor, Tensor]:
    """Return (z, mu, logvar) for one bundle or a row-stack. noise is the
    standard-normal epsilon of the reparameterization, shaped like mu;
    None means eval mode (z = mu)."""
    x, a_hat = tape.leaf(graphs.encoder_input), tape.leaf(graphs.a_hat)
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


def reconstruction_ce(tape: Tape, z: Tensor, graphs: FeatureBundle | _Stack) -> Tensor:
    """Mean weighted binary cross-entropy between each graph's decoded
    probabilities and its adjacency off the diagonal (``recon_terms``)."""
    return tape.bce_mean(stacked_decode(tape, z, graphs.n), *graphs.recon_terms)


@dataclass
class AutoencTrainConfig:
    epochs: int
    lr: float
    adagrad_eps: float
    seed: int


class _Stack(NamedTuple):
    """Equal-size bundles stacked by rows once per fit, under their field names."""

    n: int  # nodes per graph
    encoder_input: np.ndarray  # (B*n, width)
    a_hat: np.ndarray  # (B*n, n) normalized adjacencies
    recon_terms: tuple  # the bundles' recon_terms, each stacked to (B*n, n)


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
        tuple(np.vstack(part) for part in zip(*(fb.recon_terms for fb in bundles))),
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
        z, mu, logvar = vgae_encode(tape, model, st, noise=noise)
        ce = reconstruction_ce(tape, z, st)
        kl = tape.gaussian_kl(mu, logvar)
        return tape.add(ce, kl), {"ce": float(ce.values[0, 0]), "kld": float(kl.values[0, 0])}

    return _fit(model, stack, cfg, "VGAE", loss_of)


def train_gae(model: GaeModel, bundles: list[FeatureBundle], cfg: AutoencTrainConfig):
    """Fit a plain GAE on the graphs' bundles with the reconstruction loss
    only. Trace rows have keys ce and total."""

    def loss_of(tape, st):
        z = gae_encode(tape, model, st)
        ce = reconstruction_ce(tape, z, st)
        return ce, {"ce": float(ce.values[0, 0])}

    return _fit(model, _stack(bundles, "GAE"), cfg, "GAE", loss_of)
