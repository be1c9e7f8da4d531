"""Graph autoencoders: deterministic (GAE) and variational (VGAE).

Both use a two-layer graph convolution encoder, Z = A_hat ReLU(A_hat X W0) W1,
and an inner-product decoder sigmoid(Z Z^T). The VGAE shares W0 between its
mean and log-variance heads and samples Z by reparameterization during
training; in eval mode Z is the mean.
"""
from __future__ import annotations

from dataclasses import dataclass

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
    hidden = tape.relu(tape.matmul(tape.matmul(a_hat, x), tape.leaf(m.w0)))
    return tape.matmul(tape.matmul(a_hat, hidden), tape.leaf(m.w1))


def vgae_encode(
    tape: Tape,
    m: VgaeModel,
    x: Tensor,
    a_hat: Tensor,
    noise: np.ndarray | None = None,
) -> tuple[Tensor, Tensor, Tensor]:
    """Return (z, mu, logvar). noise is the standard-normal epsilon of the
    reparameterization, shaped like mu; None means eval mode (z = mu)."""
    hidden = tape.relu(tape.matmul(tape.matmul(a_hat, x), tape.leaf(m.w0)))
    ah = tape.matmul(a_hat, hidden)
    mu = tape.matmul(ah, tape.leaf(m.w1_mu))
    logvar = tape.clip(tape.matmul(ah, tape.leaf(m.w1_logvar)), -LOGVAR_CLAMP, LOGVAR_CLAMP)
    if noise is None:
        return mu, mu, logvar
    sigma = tape.exp(tape.scale(logvar, 0.5))
    z = tape.add(mu, tape.hadamard(sigma, tape.leaf(np.asarray(noise, dtype=np.float64))))
    return z, mu, logvar


def inner_product_decode(tape: Tape, z: Tensor) -> Tensor:
    """sigmoid(Z Z^T), symmetrized so M equals its transpose bitwise."""
    s = tape.matmul(z, tape.transpose(z))
    s = tape.scale(tape.add(s, tape.transpose(s)), 0.5)
    return tape.sigmoid(s)


def reconstruction_ce(tape: Tape, m: Tensor, a_target: np.ndarray) -> Tensor:
    """Mean binary cross-entropy between decoded probabilities and the
    adjacency over all off-diagonal entries, positives up-weighted by
    pos_weight = #off-diagonal zeros / #off-diagonal ones."""
    target = np.asarray(a_target, dtype=np.float64)
    n = target.shape[0]
    if target.shape != (n, n) or m.shape != (n, n):
        raise ConfigError(f"reconstruction_ce: M {m.shape} vs target {target.shape}")
    mask = 1.0 - np.eye(n)
    ones = float((target * mask).sum())
    zeros = float(mask.sum() - ones)
    if ones == 0:
        raise ConfigError("reconstruction_ce: target has no positive entries; pos_weight undefined")
    weights = np.where(target > 0, zeros / ones, 1.0)
    return tape.bce_mean(m, target, weights, mask)


@dataclass
class AutoencTrainConfig:
    epochs: int
    lr: float
    adagrad_eps: float
    seed: int


def _fit(model, bundles: list[FeatureBundle], cfg: AutoencTrainConfig, name: str, loss_of):
    """Full-batch Adagrad over the graphs' bundles, one step per epoch.
    loss_of(tape, (index, bundle)) returns the loss node and its parts by
    name; each trace row holds the parts' means over the graphs and their
    sum as total."""
    if not bundles:
        raise ConfigError(f"train_{name.lower()}: empty dataset")
    items = list(enumerate(bundles))
    opt = Adagrad(model.parameters(), lr=cfg.lr, eps=cfg.adagrad_eps)

    def diverged(_, exc):
        return f"{name} diverged at epoch {epoch}: {exc}"

    trace: list[dict[str, float]] = []
    for epoch in range(cfg.epochs):
        sums: dict[str, float] = {}
        for record in mean_gradient_step(opt, items, loss_of, diverged):
            for key, value in record.items():
                sums[key] = sums.get(key, 0.0) + value
        sums["total"] = sum(sums.values())
        trace.append({key: value / len(bundles) for key, value in sums.items()})
    return model, trace


def train_vgae(model: VgaeModel, bundles: list[FeatureBundle], cfg: AutoencTrainConfig):
    """Fit the VGAE on the graphs' bundles with the reconstruction plus KL
    loss. Returns (model, trace) where trace has one dict per epoch with
    keys ce, kld, total."""
    # one fixed noise draw per graph, made once: traces are reproducible and
    # a frozen model yields a frozen loss trace
    noise = [
        stream(cfg.seed, "vgae-eps", gi).standard_normal((fb.n, model.d))
        for gi, fb in enumerate(bundles)
    ]

    def loss_of(tape, item):
        gi, fb = item
        z, mu, logvar = vgae_encode(
            tape, model, tape.leaf(fb.encoder_input), tape.leaf(fb.a_hat), noise=noise[gi]
        )
        ce = reconstruction_ce(tape, inner_product_decode(tape, z), fb.adjacency)
        kl = tape.gaussian_kl(mu, logvar)
        return tape.add(ce, kl), {"ce": float(ce.values[0, 0]), "kld": float(kl.values[0, 0])}

    return _fit(model, bundles, cfg, "VGAE", loss_of)


def train_gae(model: GaeModel, bundles: list[FeatureBundle], cfg: AutoencTrainConfig):
    """Fit a plain GAE on the graphs' bundles with the reconstruction loss
    only. Trace rows have keys ce and total."""

    def loss_of(tape, item):
        _, fb = item
        z = gae_encode(tape, model, tape.leaf(fb.encoder_input), tape.leaf(fb.a_hat))
        ce = reconstruction_ce(tape, inner_product_decode(tape, z), fb.adjacency)
        return ce, {"ce": float(ce.values[0, 0])}

    return _fit(model, bundles, cfg, "GAE", loss_of)
