"""Joint model, training loop, and prediction with optional test-time
augmentation.

The model couples an autoencoder branch with a GNN prediction head. Under
joint training the per-sample loss is the ego classification loss plus the
branch's reconstruction loss, and gradients flow through both. Otherwise
the branch is pretrained on the training graphs, frozen, and only feeds
the head its embedding slice.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .augment import AugmentationConfig, generate_augmentations
from .autodiff import Tape
from .autoenc import (
    AutoencTrainConfig,
    GaeModel,
    VgaeModel,
    gae_encode,
    reconstruction_ce,
    train_gae,
)
from .errors import ConfigError
from .deepwalk import DeepWalkConfig
from .features import FeatureBundle, FeatureStore, feature_width
from .graphs import EgoSample
from .layers import (
    PredictionNet,
    build_prediction_net,
    ego_nll,
    prediction_forward,
    prediction_net_shapes,
    softmax_row,
)
from .optim import Adagrad, mean_gradient_step
from .rng import check_seed, derive_seed, stream

ARM_FLAGS: dict[int, tuple[bool, bool, bool]] = {
    1: (False, False, False),
    2: (True, False, False),
    3: (False, True, False),
    4: (False, False, True),
    5: (False, True, True),
    6: (True, True, False),
    7: (True, False, True),
    8: (True, True, True),
}


@dataclass(frozen=True)
class AblationConfig:
    """A study arm, one of ARM_FLAGS' keys, and its switches: joint loss,
    train-time and test-time augmentation."""

    arm: int

    def __post_init__(self):
        if type(self.arm) is not int or self.arm not in ARM_FLAGS:
            raise ConfigError(f"arm must be {min(ARM_FLAGS)}..{max(ARM_FLAGS)}, got {self.arm!r}")

    joint = property(lambda self: ARM_FLAGS[self.arm][0])
    train_aug = property(lambda self: ARM_FLAGS[self.arm][1])
    test_aug = property(lambda self: ARM_FLAGS[self.arm][2])

    @classmethod
    def from_arm(cls, arm: int) -> "AblationConfig":
        return cls(arm)


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "gat"  # or "gcn"
    hidden: int = 128
    heads: int = 8
    embed_dim: int = 64
    gae_hidden: int = 64

    def __post_init__(self):
        if self.variant not in ("gat", "gcn"):
            raise ConfigError(f"unknown model variant '{self.variant}'")
        for name in ("hidden", "heads", "embed_dim", "gae_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.variant == "gat" and self.hidden % self.heads != 0:
            raise ConfigError(f"hidden={self.hidden} not divisible by heads={self.heads}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    lr: float = 0.05
    weight_decay: float = 5e-4
    adagrad_eps: float = 1e-10
    dropout: float = 0.2
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    pretrain_epochs: int = 150
    pretrain_lr: float = 0.05
    aug: AugmentationConfig = field(default_factory=AugmentationConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    deepwalk: DeepWalkConfig = field(default_factory=DeepWalkConfig)

    def __post_init__(self):
        for name in ("epochs", "pretrain_epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("lr", "weight_decay", "pretrain_lr"):
            if not getattr(self, name) >= 0:  # written so that NaN fails too
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not self.adagrad_eps > 0:
            raise ConfigError(f"adagrad_eps must be > 0, got {self.adagrad_eps}")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        check_seed(self.seed)


@dataclass
class JointModel:
    gae: GaeModel
    head: PredictionNet

    @classmethod
    def create(cls, cfg: TrainConfig, feature_width: int, seed: int) -> "JointModel":
        mc = cfg.model
        gae = GaeModel.create(
            feature_width, mc.gae_hidden, mc.embed_dim, stream(seed, "init", "gae")
        )
        head = build_prediction_net(
            mc.variant,
            f_in=mc.embed_dim + feature_width,
            hidden=mc.hidden,
            heads=mc.heads,
            dropout=cfg.dropout,
            rng=stream(seed, "init", "head"),
        )
        return cls(gae=gae, head=head)

    @staticmethod
    def shapes(cfg: TrainConfig, feature_width: int) -> dict[str, tuple[int, int]]:
        """The shape of each of ``parameters()``' matrices for a model that
        create(cfg, feature_width, ...) builds, without building it."""
        mc = cfg.model
        head = prediction_net_shapes(mc.variant, mc.embed_dim + feature_width, mc.hidden, mc.heads)
        out = {f"head.{k}": v for k, v in head.items()}
        out["gae.w0"] = (feature_width, mc.gae_hidden)
        out["gae.w1"] = (mc.gae_hidden, mc.embed_dim)
        return out

    def parameters(self, include_gae: bool = True) -> dict[str, np.ndarray]:
        out = {f"head.{k}": v for k, v in self.head.parameters().items()}
        if include_gae:
            out.update({f"gae.{k}": v for k, v in self.gae.parameters().items()})
        return out


def frozen_encode(gae: GaeModel, fb: FeatureBundle) -> np.ndarray:
    """Eval-mode embedding from a frozen branch, on a no-grad tape."""
    return gae_encode(Tape(grad=False), gae, fb).values


def _forward_logits(tape, model, fb, z, drop_rng):
    h0 = tape.concat_cols([z, tape.leaf(fb.encoder_input)])
    return prediction_forward(tape, model.head, h0, fb, drop_rng)


def sample_loss(
    tape: Tape,
    model: JointModel,
    sample: EgoSample,
    fb: FeatureBundle,
    joint: bool,
    drop_rng,
    frozen_z: np.ndarray | None = None,
):
    """Per-sample loss node plus its scalar components (nll, recon). A joint
    loss encodes through the branch on the tape; otherwise frozen_z is the
    frozen branch's embedding (``frozen_encode``)."""
    if joint:
        z = gae_encode(tape, model.gae, fb)
    else:
        z = tape.leaf(frozen_z)
    logits = _forward_logits(tape, model, fb, z, drop_rng)
    nll = ego_nll(tape, logits, sample.ego, sample.label)
    if not joint:
        return nll, float(nll.values[0, 0]), 0.0
    recon = reconstruction_ce(tape, z, fb)
    loss = tape.add(nll, recon)
    return loss, float(nll.values[0, 0]), float(recon.values[0, 0])


def augmented_copies(
    sample: EgoSample, vgae: VgaeModel | None, aug: AugmentationConfig, store: FeatureStore
) -> list[EgoSample]:
    """The sample's augmented copies under ``aug``, decoded from its bundle
    in the store."""
    if vgae is None:
        raise ConfigError("augmentation requires a trained augmenter model")
    return generate_augmentations(sample, vgae, aug, store.bundle(sample))


def train_joint(
    model: JointModel,
    samples: list[EgoSample],
    cfg: TrainConfig,
    abl: AblationConfig,
    vgae: VgaeModel | None = None,
    *,
    store: FeatureStore,
):
    """Fit the model on the given samples under the arm's switches, with
    features from the caller's store.

    Returns (model, trace); trace rows carry the per-epoch mean loss and
    its components over the effective training set.
    """
    if not samples:
        raise ConfigError("train_joint: empty training set")
    effective = list(samples)
    if abl.train_aug and cfg.aug.count > 0:
        effective += [c for s in samples for c in augmented_copies(s, vgae, cfg.aug, store)]

    if not abl.joint:
        _pretrain(train_gae, model.gae, samples, cfg, store, cfg.seed, "gae")

    params = model.parameters(include_gae=abl.joint)
    opt = Adagrad(params, cfg.lr, weight_decay=cfg.weight_decay, eps=cfg.adagrad_eps)
    frozen_z: dict[str, np.ndarray] = {}

    # loss_of and diverged read the current epoch of the loop below
    def loss_of(tape, s):
        fb = store.bundle(s)
        if not abl.joint and s.sample_id not in frozen_z:
            frozen_z[s.sample_id] = frozen_encode(model.gae, fb)
        drop_rng = (
            stream(cfg.seed, "dropout", epoch, s.sample_id) if cfg.dropout > 0 else None
        )
        loss, nll_v, recon_v = sample_loss(
            tape, model, s, fb, abl.joint, drop_rng, frozen_z.get(s.sample_id)
        )
        return loss, (float(loss.values[0, 0]), nll_v, recon_v)

    def diverged(s, _):
        return f"non-finite loss at epoch {epoch}, sample {s.sample_id}"

    trace: list[dict[str, float]] = []
    n_eff = len(effective)
    for epoch in range(cfg.epochs):
        if cfg.batch_size is None:
            batches = [effective]
        else:
            order = stream(cfg.seed, "shuffle", epoch).permutation(n_eff).tolist()
            batches = [
                [effective[i] for i in order[lo : lo + cfg.batch_size]]
                for lo in range(0, n_eff, cfg.batch_size)
            ]
        epoch_loss = epoch_nll = epoch_recon = 0.0
        for batch in batches:
            for loss_v, nll_v, recon_v in mean_gradient_step(opt, batch, loss_of, diverged):
                epoch_loss += loss_v
                epoch_nll += nll_v
                epoch_recon += recon_v
        trace.append({"epoch": epoch, "loss": epoch_loss / n_eff,
                      "nll": epoch_nll / n_eff, "recon": epoch_recon / n_eff})
    return model, trace


def average_class1(probs: list[np.ndarray]) -> float:
    """Mean probability of class 1 across per-variant softmax outputs."""
    return float(np.mean([p[1] for p in probs]))


def predict(
    model: JointModel,
    sample: EgoSample,
    abl: AblationConfig,
    vgae: VgaeModel | None,
    cfg: TrainConfig,
    store: FeatureStore,
) -> float:
    """Probability that the ego takes the action, with features from the
    caller's store. With test-time augmentation on, class probabilities are
    averaged over the original plus its Q augmented variants."""
    variants = [sample]
    if abl.test_aug and cfg.aug.count > 0:
        variants += augmented_copies(sample, vgae, cfg.aug, store)
    tape = Tape(grad=False)  # nothing differentiates a score
    probs = []
    for v in variants:
        fb = store.bundle(v)
        logits = _forward_logits(tape, model, fb, gae_encode(tape, model.gae, fb), drop_rng=None)
        probs.append(softmax_row(logits.values, v.ego))
    return average_class1(probs)


def _pretrain(fit, model, samples, cfg: TrainConfig, store, seed: int, name: str):
    """Fit an autoencoder on the samples' graphs with the run's pretraining
    settings and the seed keyed '<name>-pretrain'."""
    pre = AutoencTrainConfig(
        epochs=cfg.pretrain_epochs,
        lr=cfg.pretrain_lr,
        adagrad_eps=cfg.adagrad_eps,
        seed=derive_seed(seed, f"{name}-pretrain"),
    )
    return fit(model, [store.bundle(s) for s in samples], pre)


def pretrain_augmenter(
    samples: list[EgoSample], cfg: TrainConfig, store: FeatureStore, seed: int
) -> VgaeModel:
    """Train the variational augmenter once over the training graphs."""
    from .autoenc import train_vgae

    vgae = VgaeModel.create(
        feature_width(cfg.deepwalk),
        cfg.model.gae_hidden,
        cfg.model.embed_dim,
        stream(seed, "init", "vgae"),
    )
    _pretrain(train_vgae, vgae, samples, cfg, store, seed, "vgae")
    return vgae


def run_config_with_seed(cfg: TrainConfig, seed: int) -> TrainConfig:
    """Bind a run seed: the master seed and the augmentation stream key both
    derive from it, so one integer fully determines a run."""
    return replace(
        cfg,
        seed=seed,
        aug=replace(cfg.aug, seed=derive_seed(seed, "augmentation", cfg.aug.seed)),
    )
