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
    inner_product_decode,
    reconstruction_ce,
    train_gae,
)
from .errors import ConfigError, DivergenceError, NumericsError
from .features import DeepWalkConfig, FeatureBundle, FeatureStore, feature_width
from .graphs import EgoSample
from .layers import (
    PredictionNet,
    build_prediction_net,
    ego_nll,
    prediction_forward,
    softmax_row,
)
from .optim import Adagrad
from .rng import derive_seed, stream

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
    """Study-arm switches: joint loss, train-time and test-time augmentation."""

    joint: bool = False
    train_aug: bool = False
    test_aug: bool = False

    @property
    def arm_id(self) -> int:
        for arm, flags in ARM_FLAGS.items():
            if flags == (self.joint, self.train_aug, self.test_aug):
                return arm
        raise ConfigError("unreachable: flag combination not in the arm table")

    @classmethod
    def from_arm(cls, arm: int) -> "AblationConfig":
        if arm not in ARM_FLAGS:
            raise ConfigError(f"arm must be 1..8, got {arm}")
        joint, train_aug, test_aug = ARM_FLAGS[arm]
        return cls(joint=joint, train_aug=train_aug, test_aug=test_aug)


@dataclass(frozen=True)
class ModelConfig:
    variant: str = "gat"  # or "gcn"
    hidden: int = 128
    heads: int = 8
    embed_dim: int = 64
    gae_hidden: int = 64


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
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")


@dataclass
class JointModel:
    gae: GaeModel
    head: PredictionNet

    @property
    def variant(self) -> str:
        return self.head.variant

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

    def parameters(self, include_gae: bool = True) -> dict[str, np.ndarray]:
        out = {f"head.{k}": v for k, v in self.head.parameters().items()}
        if include_gae:
            out.update({f"gae.{k}": v for k, v in self.gae.parameters().items()})
        return out


def frozen_encode(gae: GaeModel, fb: FeatureBundle) -> np.ndarray:
    """Eval-mode embedding from a frozen branch (scratch tape, no grads kept)."""
    tape = Tape()
    z = gae_encode(tape, gae, tape.leaf(fb.encoder_input), tape.leaf(fb.a_hat))
    return z.values


def _forward_logits(tape, model, fb, z, drop_rng):
    h0 = tape.concat_cols([z, tape.leaf(fb.influence), tape.leaf(fb.deepwalk)])
    return prediction_forward(
        tape, model.head, h0, fb.adjacency, tape.leaf(fb.a_hat), drop_rng
    )


def sample_loss(
    tape: Tape,
    model: JointModel,
    sample: EgoSample,
    fb: FeatureBundle,
    joint: bool,
    drop_rng,
    frozen_z: np.ndarray | None = None,
):
    """Per-sample loss node plus its scalar components (nll, recon)."""
    if joint:
        z = gae_encode(tape, model.gae, tape.leaf(fb.encoder_input), tape.leaf(fb.a_hat))
    else:
        if frozen_z is None:
            frozen_z = frozen_encode(model.gae, fb)
        z = tape.leaf(frozen_z)
    logits = _forward_logits(tape, model, fb, z, drop_rng)
    nll = ego_nll(tape, logits, sample.ego, sample.label)
    if not joint:
        return nll, float(nll.values[0, 0]), 0.0
    recon = reconstruction_ce(tape, inner_product_decode(tape, z), fb.adjacency)
    loss = tape.add(nll, recon)
    return loss, float(nll.values[0, 0]), float(recon.values[0, 0])


def _augmented_training_set(
    samples: list[EgoSample],
    vgae: VgaeModel | None,
    cfg: TrainConfig,
    store: FeatureStore,
) -> list[EgoSample]:
    if cfg.aug.count == 0:
        return list(samples)
    if vgae is None:
        raise ConfigError("train-time augmentation requires a trained augmenter model")
    out = list(samples)
    for s in samples:
        fb = store.bundle(s)
        out.extend(generate_augmentations(s, vgae, cfg.aug, features=fb.encoder_input))
    return out


def train_joint(
    model: JointModel,
    samples: list[EgoSample],
    cfg: TrainConfig,
    abl: AblationConfig,
    vgae: VgaeModel | None = None,
    store: FeatureStore | None = None,
):
    """Fit the model on the given samples under the arm's switches.

    Returns (model, trace); trace rows carry the per-epoch mean loss and
    its components over the effective training set.
    """
    if not samples:
        raise ConfigError("train_joint: empty training set")
    if store is None:
        store = FeatureStore(cfg.seed, cfg.deepwalk)
    effective = (
        _augmented_training_set(samples, vgae, cfg, store)
        if abl.train_aug
        else list(samples)
    )

    frozen_z: dict[str, np.ndarray] = {}
    if not abl.joint:
        data = [
            (store.bundle(s).encoder_input, store.bundle(s).adjacency) for s in samples
        ]
        pre = AutoencTrainConfig(
            epochs=cfg.pretrain_epochs,
            lr=cfg.pretrain_lr,
            seed=derive_seed(cfg.seed, "gae-pretrain"),
        )
        train_gae(model.gae, data, pre)

    params = model.parameters(include_gae=abl.joint)
    opt = Adagrad(params, cfg.lr, weight_decay=cfg.weight_decay, eps=cfg.adagrad_eps)
    trace: list[dict[str, float]] = []
    n_eff = len(effective)
    for epoch in range(cfg.epochs):
        if cfg.batch_size is None:
            batches = [list(range(n_eff))]
        else:
            order = stream(cfg.seed, "shuffle", epoch).permutation(n_eff).tolist()
            batches = [
                order[i : i + cfg.batch_size]
                for i in range(0, n_eff, cfg.batch_size)
            ]
        epoch_loss = epoch_nll = epoch_recon = 0.0
        for batch in batches:
            grads: dict[str, np.ndarray] = {}
            for i in batch:
                s = effective[i]
                fb = store.bundle(s)
                if not abl.joint and s.sample_id not in frozen_z:
                    frozen_z[s.sample_id] = frozen_encode(model.gae, fb)
                drop_rng = (
                    stream(cfg.seed, "dropout", epoch, s.sample_id)
                    if cfg.dropout > 0
                    else None
                )
                tape = Tape()
                try:
                    loss, nll_v, recon_v = sample_loss(
                        tape, model, s, fb, abl.joint, drop_rng,
                        frozen_z.get(s.sample_id),
                    )
                    tape.backward(loss)
                except NumericsError as exc:
                    raise DivergenceError(
                        f"non-finite loss at epoch {epoch}, sample {s.sample_id}"
                    ) from exc
                epoch_loss += float(loss.values[0, 0])
                epoch_nll += nll_v
                epoch_recon += recon_v
                for name, arr in params.items():
                    g = tape.grad(arr)
                    grads[name] = grads.get(name, 0.0) + g
            opt.step({k: v / len(batch) for k, v in grads.items()})
        trace.append(
            {
                "epoch": epoch,
                "loss": epoch_loss / n_eff,
                "nll": epoch_nll / n_eff,
                "recon": epoch_recon / n_eff,
            }
        )
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
    store: FeatureStore | None = None,
) -> float:
    """Probability that the ego takes the action. With test-time
    augmentation on, class probabilities are averaged over the original
    plus its Q augmented variants."""
    if store is None:
        store = FeatureStore(cfg.seed, cfg.deepwalk)
    variants = [sample]
    if abl.test_aug and cfg.aug.count > 0:
        if vgae is None:
            raise ConfigError("test-time augmentation requires a trained augmenter model")
        fb = store.bundle(sample)
        variants += generate_augmentations(sample, vgae, cfg.aug, features=fb.encoder_input)
    probs = []
    for v in variants:
        fb = store.bundle(v)
        tape = Tape()
        z = gae_encode(tape, model.gae, tape.leaf(fb.encoder_input), tape.leaf(fb.a_hat))
        logits = _forward_logits(tape, model, fb, z, drop_rng=None)
        probs.append(softmax_row(logits.values, v.ego))
    return average_class1(probs)


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
    data = [(store.bundle(s).encoder_input, store.bundle(s).adjacency) for s in samples]
    pre = AutoencTrainConfig(
        epochs=cfg.pretrain_epochs,
        lr=cfg.pretrain_lr,
        seed=derive_seed(seed, "vgae-pretrain"),
    )
    train_vgae(vgae, data, pre)
    return vgae


def run_config_with_seed(cfg: TrainConfig, seed: int) -> TrainConfig:
    """Bind a run seed: the master seed and the augmentation stream key both
    derive from it, so one integer fully determines a run."""
    return replace(
        cfg,
        seed=seed,
        aug=replace(cfg.aug, seed=derive_seed(seed, "augmentation", cfg.aug.seed)),
    )
