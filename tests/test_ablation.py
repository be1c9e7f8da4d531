import numpy as np
import pytest

from egoinf import ablation
from egoinf.ablation import MetricsReport, RunRecord, Study, run_ablation, run_arm
from egoinf.augment import AugmentationConfig
from egoinf.cascade import CascadeConfig, generate_dataset
from egoinf.errors import ConfigError, DataError
from egoinf.features import DeepWalkConfig
from egoinf.graphs import Dataset
from egoinf.training import AblationConfig, ModelConfig, TrainConfig

DATASET = generate_dataset(
    CascadeConfig(graph_nodes=90, ws_k=8, seed_set_size=10, samples=24, n_target=10, seed=3)
)


def study(arms, seeds):
    return Study(tuple(AblationConfig.from_arm(a) for a in arms), tuple(seeds))


def tiny_config():
    return TrainConfig(
        epochs=2,
        lr=0.1,
        seed=100,
        pretrain_epochs=4,
        aug=AugmentationConfig(threshold=0.5, count=1),
        model=ModelConfig(variant="gcn", hidden=8, heads=2, embed_dim=4, gae_hidden=6),
        deepwalk=DeepWalkConfig(dim=6, walks_per_node=2, walk_length=8, window=2, negatives=2, epochs=1),
    )


class TestReportShape:
    def test_two_arms_two_runs(self):
        report = run_ablation(DATASET, tiny_config(), study((1, 2), (100, 101)))
        assert len(report.records) == 4
        assert {r.arm for r in report.records} == {1, 2}
        for r in report.records:
            assert 0.0 <= r.auc <= 1.0
            assert 0.0 <= r.f1 <= 1.0
        assert len(report.summaries()) == 2
        deltas = report.paired_deltas(1)
        assert set(deltas) == {2}

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ConfigError, match="no run seeds given"):
            study((1,), ())

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigError, match=r"duplicate run seeds rejected: \[7, 7\]"):
            study((1,), (7, 7))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="run seeds must be a non-negative integer, got -1"):
            study((1,), (3, -1))

    def test_duplicate_arms_rejected_before_any_run(self):
        # a Study is built, and so checked, before any dataset is read
        with pytest.raises(ConfigError, match=r"duplicate arms rejected: \[2, 8, 2\]"):
            study((2, 8, 2), (100, 101))

    def test_empty_arm_list_rejected(self):
        with pytest.raises(ConfigError, match="no arms given"):
            study((), (100,))

    def test_augments_when_any_arm_augments(self):
        assert not study((1, 2), (100,)).augments
        assert study((1, 4), (100,)).augments


class TestSharedAugmenter:
    @pytest.fixture
    def pretrain_calls(self, monkeypatch):
        calls = []
        real = ablation.pretrain_augmenter

        def counting(samples, cfg, store, seed):
            calls.append(seed)
            return real(samples, cfg, store, seed)

        monkeypatch.setattr(ablation, "pretrain_augmenter", counting)
        return calls

    def test_one_pretraining_per_seed_and_records_match_run_arm(self, pretrain_calls):
        ablation_study = study(range(1, 9), (100, 101))
        report = run_ablation(DATASET, tiny_config(), ablation_study)
        assert pretrain_calls == [100, 101]
        del pretrain_calls[:]
        alone = [
            run_arm(DATASET, tiny_config(), abl, seed)
            for seed in (100, 101) for abl in ablation_study.arms
        ]
        assert len(pretrain_calls) == 12  # arms 3-8 pretrain their own augmenter
        assert report.records == alone

    def test_arms_without_augmentation_never_pretrain(self, pretrain_calls):
        run_ablation(DATASET, tiny_config(), study((1, 2), (100,)))
        assert pretrain_calls == []

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_empty_split_fails_before_pretraining(self, pretrain_calls, split):
        empty = Dataset(DATASET.samples, {**DATASET.splits, split: []}, DATASET.metadata)
        with pytest.raises(DataError, match=f"dataset has no '{split}' split"):
            run_ablation(empty, tiny_config(), study((8,), (100,)))
        assert pretrain_calls == []


class TestReportMath:
    def records(self):
        return [
            RunRecord(arm=1, run_seed=0, auc=0.6, f1=0.4),
            RunRecord(arm=1, run_seed=1, auc=0.7, f1=0.5),
            RunRecord(arm=8, run_seed=0, auc=0.8, f1=0.6),
            RunRecord(arm=8, run_seed=1, auc=0.9, f1=0.8),
        ]

    def test_summary_mean_and_std(self):
        report = MetricsReport(records=self.records())
        s1, s8 = report.summaries()
        assert s1.auc_mean == pytest.approx(0.65)
        assert s8.auc_mean == pytest.approx(0.85)
        assert s8.auc_std == pytest.approx(np.std([0.8, 0.9], ddof=1))

    def test_paired_deltas_use_matching_seeds(self):
        report = MetricsReport(records=self.records())
        deltas = report.paired_deltas(1)
        assert deltas[8]["auc_delta_mean"] == pytest.approx(0.2)
        assert deltas[8]["f1_delta_mean"] == pytest.approx(0.25)

    def test_table_renders_every_arm(self):
        text = MetricsReport(records=self.records()).table()
        assert "1 " in text and "8 " in text and "+/-" in text
