"""Eight-arm component study: joint loss x train-time aug x test-time aug.

Arms share the dataset split and the per-run seed list so per-seed deltas
are paired comparisons.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .features import FeatureStore, feature_width
from .graphs import Dataset
from .metrics import auc, f1
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


def run_arm(
    dataset: Dataset,
    cfg: TrainConfig,
    abl: AblationConfig,
    seed: int,
    store: FeatureStore | None = None,
    eval_split: str = "test",
) -> RunRecord:
    """Train and evaluate one arm with one seed."""
    cfg_run = run_config_with_seed(cfg, seed)
    if store is None:
        store = FeatureStore(seed, cfg.deepwalk)
    train_samples = dataset.split_samples("train")
    eval_samples = dataset.split_samples(eval_split)
    if not train_samples or not eval_samples:
        raise ConfigError(f"dataset lacks a train or {eval_split} split")

    vgae = None
    if abl.train_aug or abl.test_aug:
        vgae = pretrain_augmenter(train_samples, cfg_run, store, seed)

    model = JointModel.create(cfg_run, feature_width=feature_width(cfg.deepwalk), seed=seed)
    train_joint(model, train_samples, cfg_run, abl, vgae=vgae, store=store)

    scores = [predict(model, s, abl, vgae, cfg_run, store) for s in eval_samples]
    labels = [s.label for s in eval_samples]
    return RunRecord(
        arm=abl.arm_id,
        run_seed=seed,
        auc=auc(scores, labels),
        f1=f1(scores, labels),
    )


def run_ablation(
    dataset: Dataset,
    cfg: TrainConfig,
    arms: list[AblationConfig],
    runs: int,
    seeds: list[int] | None = None,
) -> MetricsReport:
    """Run every arm with the same seed list; seeds must be distinct."""
    if not arms:
        raise ConfigError("run_ablation: no arms given")
    if seeds is None:
        seeds = [cfg.seed + i for i in range(runs)]
    if len(seeds) != runs:
        raise ConfigError(f"need {runs} seeds, got {len(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"duplicate run seeds rejected: {seeds}")
    records: list[RunRecord] = []
    for seed in seeds:
        store = FeatureStore(seed, cfg.deepwalk)  # shared across arms per seed
        for abl in arms:
            records.append(run_arm(dataset, cfg, abl, seed, store=store))
    return MetricsReport(records=records)
