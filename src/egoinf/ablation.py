"""Eight-arm component study: joint loss x train-time aug x test-time aug.

Arms share the dataset split and the per-run seed list so per-seed deltas
are paired comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .autoenc import VgaeModel
from .errors import ConfigError, DataError
from .features import FeatureStore, feature_width
from .graphs import Dataset, EgoSample
from .metrics import auc, f1
from .rng import check_seed
from .training import (
    AblationConfig,
    JointModel,
    TrainConfig,
    predict,
    pretrain_augmenter,
    run_config_with_seed,
    train_joint,
)


@dataclass(frozen=True)
class RunRecord:
    arm: int
    run_seed: int
    auc: float
    f1: float


@dataclass
class ArmSummary:
    arm: int
    auc_mean: float
    auc_std: float
    f1_mean: float
    f1_std: float


def _std(xs: list[float]) -> float:
    return float(np.std(xs, ddof=1)) if len(xs) > 1 else 0.0


@dataclass
class MetricsReport:
    records: list[RunRecord]

    def arm_records(self, arm: int) -> list[RunRecord]:
        return [r for r in self.records if r.arm == arm]

    def summaries(self) -> list[ArmSummary]:
        arms = sorted({r.arm for r in self.records})
        out = []
        for arm in arms:
            aucs = [r.auc for r in self.arm_records(arm)]
            f1s = [r.f1 for r in self.arm_records(arm)]
            out.append(
                ArmSummary(
                    arm=arm,
                    auc_mean=float(np.mean(aucs)),
                    auc_std=_std(aucs),
                    f1_mean=float(np.mean(f1s)),
                    f1_std=_std(f1s),
                )
            )
        return out

    def paired_deltas(self, baseline_arm: int = 1) -> dict[int, dict[str, float]]:
        """Per-seed metric differences of each arm against the baseline arm."""
        base = {r.run_seed: r for r in self.arm_records(baseline_arm)}
        out: dict[int, dict[str, float]] = {}
        for arm in sorted({r.arm for r in self.records}):
            if arm == baseline_arm:
                continue
            deltas_auc = []
            deltas_f1 = []
            for r in self.arm_records(arm):
                if r.run_seed in base:
                    deltas_auc.append(r.auc - base[r.run_seed].auc)
                    deltas_f1.append(r.f1 - base[r.run_seed].f1)
            if deltas_auc:
                out[arm] = {
                    "auc_delta_mean": float(np.mean(deltas_auc)),
                    "auc_delta_std": _std(deltas_auc),
                    "f1_delta_mean": float(np.mean(deltas_f1)),
                    "f1_delta_std": _std(deltas_f1),
                }
        return out

    def table(self) -> str:
        lines = [f"{'arm':>4} {'auc':>18} {'f1':>18}"]
        for s in self.summaries():
            lines.append(
                f"{s.arm:>4} {s.auc_mean:.4f} (+/-{s.auc_std:.4f}) "
                f"{s.f1_mean:.4f} (+/-{s.f1_std:.4f})"
            )
        return "\n".join(lines)


def train_split(dataset: Dataset) -> list[EgoSample]:
    """The train split, checked before any work: an ego graph without edges
    is a data error, since no autoencoder can reconstruct it."""
    samples = dataset.split_samples("train")
    for s in samples:
        if not s.graph.adjacency.any():
            raise DataError(f"training sample {s.sample_id!r} has no edges")
    return samples


def fit_arm(
    dataset: Dataset, cfg: TrainConfig, abl: AblationConfig, seed: int,
    store: FeatureStore, vgae: VgaeModel | None = None,
) -> tuple[JointModel, VgaeModel | None, list[dict[str, float]]]:
    """Train one arm with one seed on the train split. The augmenter is
    pretrained only when the arm augments and none was passed in."""
    cfg_run = run_config_with_seed(cfg, seed)
    train_samples = train_split(dataset)
    if vgae is None and (abl.train_aug or abl.test_aug):
        vgae = pretrain_augmenter(train_samples, cfg_run, store, seed)
    model = JointModel.create(cfg_run, feature_width=feature_width(cfg.deepwalk), seed=seed)
    _, trace = train_joint(model, train_samples, cfg_run, abl, vgae=vgae, store=store)
    return model, vgae, trace


def score_arm(
    model: JointModel, samples: list[EgoSample], cfg: TrainConfig,
    abl: AblationConfig, seed: int, store: FeatureStore, vgae: VgaeModel | None,
) -> tuple[list[float], RunRecord]:
    """Score samples, averaging over augmented copies when the arm asks."""
    cfg_run = run_config_with_seed(cfg, seed)
    scores = [predict(model, s, abl, vgae, cfg_run, store) for s in samples]
    labels = [s.label for s in samples]
    return scores, RunRecord(abl.arm, seed, auc(scores, labels), f1(scores, labels))


def run_arm(
    dataset: Dataset, cfg: TrainConfig, abl: AblationConfig, seed: int,
    store: FeatureStore | None = None, vgae: VgaeModel | None = None,
) -> RunRecord:
    """Train one arm with one seed and evaluate it on the test split."""
    if store is None:
        store = FeatureStore(seed, cfg.deepwalk)
    test_samples = dataset.split_samples("test")
    model, vgae, _ = fit_arm(dataset, cfg, abl, seed, store, vgae)
    return score_arm(model, test_samples, cfg, abl, seed, store, vgae)[1]


def check_distinct(values: list, what: str) -> None:
    """Raise ConfigError if ``values`` repeats one: a repeated seed, arm or
    grid point would run twice and count twice in what is reported."""
    if len(set(values)) != len(values):
        raise ConfigError(f"duplicate {what} rejected: {values}")


@dataclass(frozen=True)
class Study:
    """A study's arms and run seeds, checked once, when built and before any
    dataset is read: at least one of each, none repeated, no negative seed."""

    arms: tuple[AblationConfig, ...]
    seeds: tuple[int, ...]

    def __post_init__(self):
        for what, values in (("arms", [a.arm for a in self.arms]), ("run seeds", list(self.seeds))):
            if not values:
                raise ConfigError(f"no {what} given")
            check_distinct(values, what)
        for seed in self.seeds:
            check_seed(seed, "run seeds")

    augments = property(lambda self: any(abl.train_aug or abl.test_aug for abl in self.arms))


def seed_contexts(
    dataset: Dataset, cfg: TrainConfig, study: Study
) -> Iterator[tuple[int, list[EgoSample], FeatureStore, VgaeModel | None]]:
    """Per run seed, after checking both splits: the seed, the train split, and
    the one FeatureStore and augmenter (None unless the study augments) that
    its runs share; pretraining reads no arm switch or augmentation field."""
    train_samples = train_split(dataset)
    dataset.split_samples("test")  # an empty test split fails before any work
    for seed in study.seeds:
        store = FeatureStore(seed, cfg.deepwalk)
        vgae = None
        if study.augments:
            vgae = pretrain_augmenter(train_samples, run_config_with_seed(cfg, seed), store, seed)
        yield seed, train_samples, store, vgae


def run_ablation(dataset: Dataset, cfg: TrainConfig, study: Study) -> MetricsReport:
    """Run every arm of the study with its seeds. Per seed the arms share
    one FeatureStore and one pretrained augmenter (``seed_contexts``)."""
    records: list[RunRecord] = []
    for seed, _, store, vgae in seed_contexts(dataset, cfg, study):
        for abl in study.arms:
            records.append(run_arm(dataset, cfg, abl, seed, store=store, vgae=vgae))
    return MetricsReport(records=records)
