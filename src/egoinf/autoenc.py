"""Graph autoencoders: deterministic (GAE) and variational (VGAE).

Both use a two-layer graph convolution encoder, Z = A_hat ReLU(A_hat X W0) W1,
and an inner-product decoder sigmoid(Z Z^T). The VGAE shares W0 between its
mean and log-variance heads and samples Z by reparameterization during
training; in eval mode Z is the mean.

The encoders and the reconstruction loss take one graph argument: a
``FeatureBundle`` or pretraining's row-stack of equal-size bundles under
the same field names, one graph being a stack of one. Pretraining stacks
the training graphs in chunks of ``PRETRAIN_CHUNK`` and records one tape
per chunk, so its memory grows with a chunk, not with the training set;
each epoch is still one optimizer step on the mean over all graphs. Only
the products with each graph's adjacency and the decoder work block by
block (``Tape.block_matmul``, ``Tape.block_gram``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError
from .features import FeatureBundle, off_diagonal
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
    probabilities and its adjacency off the diagonal, the positives weighted
    by the graph's pos_weight (``recon_terms``)."""
    target, pos_weight = graphs.recon_terms
    n = graphs.n
    weights = np.where(target > 0, pos_weight, 1.0)
    mask = off_diagonal(n, target.shape[0] // n)
    return tape.bce_mean(stacked_decode(tape, z, n), target, weights, mask)


@dataclass
class AutoencTrainConfig:
    epochs: int
    lr: float
    adagrad_eps: float
    seed: int


PRETRAIN_CHUNK = 32  # graphs per pretraining tape; memory grows with this, not the training set


class _Stack(NamedTuple):
    """Equal-size bundles stacked by rows once per fit, under their field names."""

    graphs: range  # the stacked graphs' indices in the training set
    n: int  # nodes per graph
    encoder_input: np.ndarray  # (B*n, width)
    a_hat: np.ndarray  # (B*n, n) normalized adjacencies
    recon_terms: tuple  # the bundles' targets stacked, (B*n, n); pos_weights per row, (B*n, 1)


def _chunks(bundles: list[FeatureBundle], name: str) -> list[_Stack]:
    """The bundles stacked in training-set order, PRETRAIN_CHUNK graphs per stack."""
    if not bundles:
        raise ConfigError(f"train_{name.lower()}: empty dataset")
    sizes = sorted({fb.n for fb in bundles})
    if len(sizes) > 1:
        raise ConfigError(
            f"train_{name.lower()}: graphs of {sizes} nodes; pretraining stacks one size"
        )
    n, chunks = sizes[0], []
    for start in range(0, len(bundles), PRETRAIN_CHUNK):
        part = bundles[start : start + PRETRAIN_CHUNK]
        targets, pos_weights = zip(*(fb.recon_terms for fb in part))
        chunks.append(_Stack(
            range(start, start + len(part)),
            n,
            np.vstack([fb.encoder_input for fb in part]),
            np.vstack([fb.a_hat for fb in part]),
            (np.vstack(targets), np.repeat(pos_weights, n)[:, None]),
        ))
    return chunks


def _fit(model, chunks: list[_Stack], cfg: AutoencTrainConfig, name: str, loss_of):
    """Full-batch Adagrad, one step per epoch and one tape per chunk.
    loss_of(tape, chunk) returns the loss node and its parts by name, each
    a mean over the chunk's graphs. Chunk gradients and parts are weighted
    by the chunk's share of the graphs and summed in order, so the step
    and a trace row's parts are means over all graphs; a trace row also
    holds the parts' sum as total."""
    opt = Adagrad(model.parameters(), lr=cfg.lr, eps=cfg.adagrad_eps)
    shares = [len(c.graphs) / chunks[-1].graphs.stop for c in chunks]

    def diverged(_, exc):
        return f"{name} diverged at epoch {epoch}: {exc}"

    trace: list[dict[str, float]] = []
    for epoch in range(cfg.epochs):
        records = mean_gradient_step(opt, chunks, loss_of, diverged, shares)
        row = {k: sum(w * r[k] for w, r in zip(shares, records)) for k in records[0]}
        trace.append({**row, "total": sum(row.values())})
    return model, trace


def train_vgae(model: VgaeModel, bundles: list[FeatureBundle], cfg: AutoencTrainConfig):
    """Fit the VGAE on the graphs' bundles with the reconstruction plus KL
    loss. Returns (model, trace) where trace has one dict per epoch with
    keys ce, kld, total."""
    chunks = _chunks(bundles, "VGAE")
    n = chunks[0].n
    # one fixed noise draw per graph, made once: traces are reproducible and
    # a frozen model yields a frozen loss trace
    noise = np.vstack([
        stream(cfg.seed, "vgae-eps", gi).standard_normal((n, model.d))
        for gi in range(len(bundles))
    ])

    def loss_of(tape, st):
        eps = noise[st.graphs.start * n : st.graphs.stop * n]
        z, mu, logvar = vgae_encode(tape, model, st, noise=eps)
        ce = reconstruction_ce(tape, z, st)
        kl = tape.gaussian_kl(mu, logvar)
        return tape.add(ce, kl), {"ce": float(ce.values[0, 0]), "kld": float(kl.values[0, 0])}

    return _fit(model, chunks, cfg, "VGAE", loss_of)


def train_gae(model: GaeModel, bundles: list[FeatureBundle], cfg: AutoencTrainConfig):
    """Fit a plain GAE on the graphs' bundles with the reconstruction loss
    only. Trace rows have keys ce and total."""

    def loss_of(tape, st):
        z = gae_encode(tape, model, st)
        ce = reconstruction_ce(tape, z, st)
        return ce, {"ce": float(ce.values[0, 0])}

    return _fit(model, _chunks(bundles, "GAE"), cfg, "GAE", loss_of)
