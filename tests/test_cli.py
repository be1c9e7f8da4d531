import json

import numpy as np
import pytest

from egoinf.checkpoint import load_checkpoint, save_checkpoint
from egoinf.cli import main

SYNTH_FLAGS = [
    "--nodes", "90", "--ws-k", "8", "--seed-set-size", "10",
    "--samples", "24", "--subgraph-size", "10", "--seed", "3",
]

FAST_TRAIN_FLAGS = [
    "--epochs", "2", "--lr", "0.1", "--hidden", "8", "--heads", "2",
    "--embed-dim", "4", "--gae-hidden", "6", "--pretrain-epochs", "4",
    "--dw-dim", "6", "--dw-walks", "2", "--dw-length", "8",
    "--dw-window", "2", "--dw-negatives", "2", "--dw-epochs", "1",
    "--aug-count", "1", "--aug-threshold", "0.5",
]


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), *SYNTH_FLAGS]) == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("train")
    code = main([
        "train", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
        "--arm", "8", "--seed", "5", *FAST_TRAIN_FLAGS,
    ])
    assert code == 0
    return out


class TestCheckpointContainer:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "w.ckpt"
        mats = {"a": np.arange(6, dtype=np.float64).reshape(2, 3), "b": np.eye(2)}
        save_checkpoint(path, mats, {"kind": "test", "note": 7})
        back, meta = load_checkpoint(path)
        assert meta == {"kind": "test", "note": 7}
        for k in mats:
            np.testing.assert_array_equal(back[k], mats[k])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        from egoinf.errors import DataError

        with pytest.raises(DataError):
            load_checkpoint(path)


class TestSynth:
    def test_outputs_and_manifest(self, synth_dir):
        assert (synth_dir / "dataset.jsonl").exists()
        assert (synth_dir / "dataset.jsonl.splits.json").exists()
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert "dataset.jsonl" in manifest["outputs"]

    def test_byte_identical_on_rerun(self, synth_dir, tmp_path):
        out2 = tmp_path / "again"
        assert main(["synth", "--out", str(out2), *SYNTH_FLAGS]) == 0
        assert (synth_dir / "dataset.jsonl").read_bytes() == (out2 / "dataset.jsonl").read_bytes()

    def test_manifest_replay_rebuilds_dataset(self, synth_dir, tmp_path):
        redo = tmp_path / "replayed"
        code = main(["rerun", "--manifest", str(synth_dir / "manifest.json"), "--out", str(redo)])
        assert code == 0
        assert (synth_dir / "dataset.jsonl").read_bytes() == (redo / "dataset.jsonl").read_bytes()

    def test_p_zero_exits_with_data_error(self, tmp_path):
        code = main(["synth", "--out", str(tmp_path / "bad"), "--prob", "0.0", *SYNTH_FLAGS])
        assert code == 3


class TestTrainEval:
    def test_train_writes_checkpoints_trace_manifest(self, trained_dir):
        assert (trained_dir / "model.ckpt").exists()
        assert (trained_dir / "vgae.ckpt").exists()
        assert (trained_dir / "trace.jsonl").exists()
        manifest = json.loads((trained_dir / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"model.ckpt", "vgae.ckpt", "trace.jsonl"}

    def test_eval_writes_metrics(self, synth_dir, trained_dir, tmp_path):
        out = tmp_path / "eval"
        code = main([
            "eval", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
            "--model-ckpt", str(trained_dir / "model.ckpt"),
            "--vgae", str(trained_dir / "vgae.ckpt"),
        ])
        assert code == 0
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert rows and set(rows[0]) == {"arm", "run_seed", "auc", "f1"}

    def test_eval_tta_without_vgae_is_config_error(self, synth_dir, trained_dir, tmp_path):
        code = main([
            "eval", "--data", str(synth_dir / "dataset.jsonl"),
            "--out", str(tmp_path / "evalbad"),
            "--model-ckpt", str(trained_dir / "model.ckpt"),
        ])
        assert code == 2

    def test_eval_arm1_ignores_vgae(self, synth_dir, trained_dir, tmp_path):
        outs = []
        for name, vgae_flags in (
            ("with", ["--vgae", str(trained_dir / "vgae.ckpt")]),
            ("without", []),
        ):
            out = tmp_path / name
            code = main([
                "eval", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
                "--model-ckpt", str(trained_dir / "model.ckpt"),
                "--arm", "1", *vgae_flags,
            ])
            assert code == 0
            outs.append((out / "metrics.jsonl").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_checkpoint_is_data_error(self, synth_dir, tmp_path):
        code = main([
            "eval", "--data", str(synth_dir / "dataset.jsonl"),
            "--out", str(tmp_path / "x"),
            "--model-ckpt", str(tmp_path / "missing.ckpt"),
        ])
        assert code == 3


class TestAblateSweepRerun:
    def test_ablate_two_arms_and_rerun_identical(self, synth_dir, tmp_path):
        out = tmp_path / "abl"
        code = main([
            "ablate", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
            "--arms", "1,8", "--runs", "2", "--seed", "30", *FAST_TRAIN_FLAGS,
        ])
        assert code == 0
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == 4
        out2 = tmp_path / "abl-rerun"
        code = main(["rerun", "--manifest", str(out / "manifest.json"), "--out", str(out2)])
        assert code == 0
        assert (out / "metrics.jsonl").read_bytes() == (out2 / "metrics.jsonl").read_bytes()
        assert (out / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_threshold_sweep_monotone_edge_percentage(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
            "--sweep", "threshold", "--grid", "0.6,0.7,0.8,0.9",
            "--seed", "41", *FAST_TRAIN_FLAGS,
        ])
        assert code == 0
        rows = [json.loads(l) for l in (out / "sweep.jsonl").read_text().splitlines()]
        pcts = [r["added_edge_pct"] for r in rows]
        assert all(a >= b for a, b in zip(pcts, pcts[1:]))

    def test_count_sweep_runs_grid_with_gcn(self, synth_dir, tmp_path):
        out = tmp_path / "csweep"
        code = main([
            "sweep", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
            "--sweep", "count", "--grid", "0,2", "--seed", "43",
            "--model", "gcn", *FAST_TRAIN_FLAGS,
        ])
        assert code == 0
        rows = [json.loads(l) for l in (out / "sweep.jsonl").read_text().splitlines()]
        assert [r["value"] for r in rows] == [0, 2]
        assert all(0.0 <= r["auc"] <= 1.0 for r in rows)

    def test_ablate_all_eight_arms(self, synth_dir, tmp_path):
        out = tmp_path / "abl8"
        code = main([
            "ablate", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
            "--arms", "1,2,3,4,5,6,7,8", "--runs", "1", "--seed", "50",
            *FAST_TRAIN_FLAGS,
        ])
        assert code == 0
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert sorted(r["arm"] for r in rows) == list(range(1, 9))
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"metrics.jsonl", "summary.json", "table.txt"}

    def test_sweep_on_arm_without_augmentation_rejected(self, synth_dir, tmp_path):
        code = main([
            "sweep", "--data", str(synth_dir / "dataset.jsonl"),
            "--out", str(tmp_path / "s2"), "--sweep", "count", "--arm", "1",
            *FAST_TRAIN_FLAGS,
        ])
        assert code == 2


def test_dataset_file_error_has_exit_code_3(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n")
    code = main([
        "train", "--data", str(bad), "--out", str(tmp_path / "out"), *FAST_TRAIN_FLAGS
    ])
    assert code == 3


def test_duplicate_sample_id_has_exit_code_3(tmp_path, capsys):
    # a second sample under an existing id would get the first one's features
    data = tmp_path / "dup.jsonl"
    record = '{"id":"twin","n":2,"edges":[[0,1]],"ego":0,"state":[1,0],"label":%d}\n'
    data.write_text(record % 0 + record % 1)
    (tmp_path / "dup.jsonl.splits.json").write_text(
        '{"train":[0,1],"valid":[],"test":[]}\n'
    )
    code = main([
        "train", "--data", str(data), "--out", str(tmp_path / "out"), *FAST_TRAIN_FLAGS
    ])
    assert code == 3
    assert "duplicate sample id 'twin'" in capsys.readouterr().err
