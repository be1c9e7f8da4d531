import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egoinf.checkpoint import load_checkpoint, save_checkpoint
from egoinf.cli import main
from egoinf.features import feature_width

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

    def test_no_connected_base_graph_exits_with_data_error(self, tmp_path, monkeypatch, capsys):
        from egoinf import cascade

        tries = []
        monkeypatch.setattr(cascade, "_is_connected", lambda adj: tries.append(adj) and False)
        code = main(["synth", "--out", str(tmp_path / "bad"), *SYNTH_FLAGS])
        assert code == 3
        assert len(tries) == cascade._MAX_TRIES
        err = capsys.readouterr().err
        assert "graph_nodes=90, ws_k=8, ws_beta=0.1, seed=3" in err
        assert not (tmp_path / "bad").exists()


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


def _train_on(tmp_path, records: str, splits: str) -> int:
    data = tmp_path / "hostile.jsonl"
    data.write_text(records)
    (tmp_path / "hostile.jsonl.splits.json").write_text(splits)
    return main([
        "train", "--data", str(data), "--out", str(tmp_path / "out"), *FAST_TRAIN_FLAGS
    ])


PAIR = '{"id":"%s","n":2,"edges":%s,"ego":0,"state":[1,0],"label":%d}\n'
TRAIN_BOTH = '{"train":[0,1],"valid":[],"test":[]}\n'


def test_float_edge_index_has_exit_code_3(tmp_path, capsys):
    code = _train_on(tmp_path, PAIR % ("a", "[[0.5,1]]", 0) + PAIR % ("b", "[[0,1]]", 1), TRAIN_BOTH)
    assert code == 3
    assert "sample a" in capsys.readouterr().err


def test_non_integer_split_index_has_exit_code_3(tmp_path, capsys):
    records = PAIR % ("a", "[[0,1]]", 0) + PAIR % ("b", "[[0,1]]", 1)
    code = _train_on(tmp_path, records, '{"train":[0,0.5],"valid":[],"test":[]}\n')
    assert code == 3
    assert "split 'train'" in capsys.readouterr().err


def test_malformed_splits_file_has_exit_code_3(tmp_path, capsys):
    records = PAIR % ("a", "[[0,1]]", 0) + PAIR % ("b", "[[0,1]]", 1)
    code = _train_on(tmp_path, records, '{"train":[0,1],')
    assert code == 3
    assert "malformed splits file" in capsys.readouterr().err


def test_huge_n_has_exit_code_3(tmp_path, capsys):
    # an n x n adjacency for this n would need 10**16 bytes
    record = '{"id":"a","n":100000000,"edges":[],"ego":0,"state":[0],"label":0}\n'
    code = _train_on(tmp_path, record, '{"train":[0],"valid":[],"test":[]}\n')
    assert code == 3
    assert "state has 1 entries, n is 100000000" in capsys.readouterr().err


@pytest.fixture(scope="module")
def checkpoint_bytes(trained_dir):
    return {
        name: (trained_dir / name).read_bytes() for name in ("model.ckpt", "vgae.ckpt")
    }


@pytest.fixture(scope="module")
def model_cfg(trained_dir):
    """The trained model's config, which decides its augmenter's sizes."""
    from egoinf.cli import load_joint_model

    return load_joint_model(trained_dir / "model.ckpt")[1]


@pytest.fixture(scope="module")
def other_width_dir(tmp_path_factory, synth_dir):
    """trained_dir's run at another DeepWalk dimension (the later flag wins)."""
    out = tmp_path_factory.mktemp("train-dw4")
    code = main([
        "train", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
        "--arm", "8", "--seed", "5", *FAST_TRAIN_FLAGS, "--dw-dim", "4",
    ])
    assert code == 0
    return out


def _load_all(path, cfg):
    """Every reader of a checkpoint file; returns normally or raises."""
    from egoinf.cli import load_joint_model, load_vgae

    load_checkpoint(path)
    if path.name.startswith("vgae"):
        load_vgae(path, cfg)
    else:
        load_joint_model(path)


def _train_seed9(out, synth_dir, *flags) -> Path:
    """The augmenter of trained_dir's run at seed 9 under the extra flags."""
    code = main([
        "train", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
        "--arm", "8", "--seed", "9", *FAST_TRAIN_FLAGS, *flags,
    ])
    assert code == 0
    return out / "vgae.ckpt"


@pytest.fixture(scope="module")
def other_seed_vgae(tmp_path_factory, synth_dir):
    return _train_seed9(tmp_path_factory.mktemp("train-seed9"), synth_dir)


@pytest.fixture(scope="module")
def other_sizes_vgae(tmp_path_factory, synth_dir):
    return _train_seed9(
        tmp_path_factory.mktemp("train-sizes"), synth_dir, "--gae-hidden", "12", "--embed-dim", "2"
    )


def _eval_exit(synth_dir, out, model_ckpt, vgae_ckpt) -> int:
    return main([
        "eval", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
        "--model-ckpt", str(model_ckpt), "--vgae", str(vgae_ckpt),
    ])


class TestHostileCheckpoints:
    @pytest.mark.parametrize("cut", [0, 3, 10, 20, 40])
    @pytest.mark.parametrize("name", ["model.ckpt", "vgae.ckpt"])
    def test_truncated_checkpoint_is_data_error(
        self, checkpoint_bytes, model_cfg, tmp_path, name, cut
    ):
        from egoinf.errors import DataError

        path = tmp_path / name
        path.write_bytes(checkpoint_bytes[name][:cut])
        with pytest.raises(DataError):
            _load_all(path, model_cfg)

    def test_truncated_checkpoint_exits_3(self, synth_dir, trained_dir, checkpoint_bytes, tmp_path):
        cut = tmp_path / "model.ckpt"
        cut.write_bytes(checkpoint_bytes["model.ckpt"][:-9])
        code = main([
            "eval", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(tmp_path / "e"),
            "--model-ckpt", str(cut), "--vgae", str(trained_dir / "vgae.ckpt"),
        ])
        assert code == 3

    def test_vgae_shapes_checked_against_model_config(self, trained_dir, model_cfg, tmp_path):
        from dataclasses import replace

        from egoinf.cli import load_vgae
        from egoinf.errors import DataError

        mats, meta = load_checkpoint(trained_dir / "vgae.ckpt")
        vgae = load_vgae(trained_dir / "vgae.ckpt", model_cfg)
        assert (vgae.in_width, vgae.w0.shape[1], vgae.d) == (
            feature_width(model_cfg.deepwalk), model_cfg.model.gae_hidden, model_cfg.model.embed_dim
        )
        # the file's size fields are not read: the model's config decides
        path = tmp_path / "vgae.ckpt"
        save_checkpoint(path, mats, {**meta, "hidden": 2**40, "embed_dim": "4"})
        load_vgae(path, model_cfg)
        for bad_mats in (
            {**mats, "w1_mu": mats["w1_mu"][:, 1:]},
            {k: v for k, v in mats.items() if k != "w1_logvar"},
        ):
            save_checkpoint(path, bad_mats, meta)
            with pytest.raises(DataError):
                load_vgae(path, model_cfg)
        mc = model_cfg.model
        for other in (replace(mc, gae_hidden=mc.gae_hidden + 1), replace(mc, embed_dim=2**40)):
            with pytest.raises(DataError, match="matrix 'w"):
                load_vgae(trained_dir / "vgae.ckpt", replace(model_cfg, model=other))

    def test_model_config_disagreeing_with_its_matrices_exits_3(
        self, synth_dir, trained_dir, tmp_path, capsys, no_features
    ):
        # the file's feature_width field and matrices keep the trained width;
        # its config names another DeepWalk dimension, which decides
        mats, meta = load_checkpoint(trained_dir / "model.ckpt")
        meta["train"]["deepwalk"]["dim"] += 1
        bad = tmp_path / "model.ckpt"
        save_checkpoint(bad, mats, meta)
        assert _eval_exit(synth_dir, tmp_path / "e", bad, trained_dir / "vgae.ckpt") == 3
        err = capsys.readouterr().err
        assert "data error" in err and "matrix 'head.l0.w' is (12, 8), not (13, 8)" in err
        assert not (tmp_path / "e").exists()

    def test_vgae_of_another_feature_width_exits_3(
        self, synth_dir, trained_dir, other_width_dir, tmp_path, capsys, no_features
    ):
        code = _eval_exit(
            synth_dir, tmp_path / "e", trained_dir / "model.ckpt", other_width_dir / "vgae.ckpt"
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and "matrix 'w0' is (6, 6), not (8, 6)" in err
        assert not (tmp_path / "e").exists()

    def test_model_sizes_too_large_to_allocate_exit_3(
        self, synth_dir, trained_dir, tmp_path, capsys, no_features
    ):
        mats, meta = load_checkpoint(trained_dir / "model.ckpt")
        meta["train"]["model"]["gae_hidden"] = 2**40  # 64 TiB for the first matrix
        bad = tmp_path / "model.ckpt"
        save_checkpoint(bad, mats, meta)
        assert _eval_exit(synth_dir, tmp_path / "e", bad, trained_dir / "vgae.ckpt") == 3
        err = capsys.readouterr().err
        assert "data error" in err and f"matrix 'gae.w0' is (8, 6), not (8, {2**40})" in err
        assert not (tmp_path / "e").exists()

    def test_model_sizes_are_compared_before_anything_is_allocated(self, trained_dir, tmp_path):
        import tracemalloc

        from egoinf.cli import load_joint_model
        from egoinf.errors import DataError

        mats, meta = load_checkpoint(trained_dir / "model.ckpt")
        meta["train"]["model"]["gae_hidden"] = 2**21  # 128 MiB for gae.w0 alone
        bad = tmp_path / "model.ckpt"
        save_checkpoint(bad, mats, meta)
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="matrix 'gae.w0' is"):
                load_joint_model(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_vgae_of_other_sizes_exits_3_before_deepwalk(
        self, synth_dir, trained_dir, other_sizes_vgae, tmp_path, capsys, no_features
    ):
        model = trained_dir / "model.ckpt"
        assert _eval_exit(synth_dir, tmp_path / "e", model, other_sizes_vgae) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "matrix 'w0' is (8, 12), not (8, 6)" in err
        assert not (tmp_path / "e").exists()

    def test_vgae_of_another_seed_is_accepted(
        self, synth_dir, trained_dir, other_seed_vgae, tmp_path
    ):
        model = trained_dir / "model.ckpt"
        assert _eval_exit(synth_dir, tmp_path / "e", model, other_seed_vgae) == 0

    def test_model_arm_true_is_data_error(self, trained_dir, tmp_path):
        from egoinf.errors import DataError

        mats, meta = load_checkpoint(trained_dir / "model.ckpt")
        bad = tmp_path / "model.ckpt"
        save_checkpoint(bad, mats, {**meta, "arm": True})
        with pytest.raises(DataError, match="arm must be 1..8, got True"):
            _load_all(bad, None)

    def test_per_head_layout_exits_3_naming_matrices(
        self, synth_dir, trained_dir, capsys, tmp_path
    ):
        # the earlier layout kept one matrix per head: head.l{i}.h{k}.w / .a
        mats, meta = load_checkpoint(trained_dir / "model.ckpt")
        per_head = {k: v for k, v in mats.items() if not k.startswith("head.")}
        for i in range(3):
            w, a = mats[f"head.l{i}.w"], mats[f"head.l{i}.a"]
            heads, fp = a.shape[1], a.shape[0] // 2
            for k in range(heads):
                per_head[f"head.l{i}.h{k}.w"] = w[:, k * fp : (k + 1) * fp]
                per_head[f"head.l{i}.h{k}.a"] = a[:, k : k + 1]
        old = tmp_path / "model.ckpt"
        save_checkpoint(old, per_head, meta)
        code = main([
            "eval", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(tmp_path / "e"),
            "--model-ckpt", str(old), "--vgae", str(trained_dir / "vgae.ckpt"),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "missing ['head.l0.a', 'head.l0.w', " in err
        assert "unexpected ['head.l0.h0.a', 'head.l0.h0.w', " in err

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        name=st.sampled_from(["model.ckpt", "vgae.ckpt"]),
        cut=st.one_of(st.none(), st.integers(min_value=0)),
        flips=st.lists(
            st.tuples(st.integers(min_value=0), st.integers(min_value=1, max_value=255)),
            max_size=3,
        ),
    )
    def test_damaged_checkpoint_raises_only_data_error(
        self, checkpoint_bytes, model_cfg, tmp_path, name, cut, flips
    ):
        from egoinf.errors import DataError

        raw = bytearray(checkpoint_bytes[name])
        for pos, mask in flips:
            raw[pos % len(raw)] ^= mask
        if cut is not None:
            raw = raw[: cut % len(raw)]
        path = tmp_path / name
        path.write_bytes(bytes(raw))
        try:
            _load_all(path, model_cfg)
        except DataError:
            pass


def test_rerun_is_bit_exact_across_blas_thread_counts(tmp_path):
    # train with one BLAS thread, replay with two: every hashed output must
    # match. 50-node egos and the published head sizes make the projection
    # GEMM (50 x 130 @ 130 x 128) big enough for OpenBLAS to split it.
    src = str(Path(__file__).resolve().parents[1] / "src")

    def cli(threads, *args):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-m", "egoinf.cli", *args],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        return done.stdout

    data = tmp_path / "synth"
    cli(1, "synth", "--out", str(data), *SYNTH_FLAGS, "--nodes", "300",
        "--subgraph-size", "50", "--restart-p", "0.5")
    train = tmp_path / "train"
    cli(1, "train", "--data", str(data / "dataset.jsonl"), "--out", str(train),
        "--arm", "8", *FAST_TRAIN_FLAGS, "--hidden", "128", "--heads", "8",
        "--embed-dim", "64", "--dw-dim", "64")
    out = cli(2, "rerun", "--manifest", str(train / "manifest.json"),
              "--out", str(tmp_path / "rerun"))
    assert "rerun model.ckpt: ok" in out and "mismatch" not in out


def _exit_code(argv) -> int:
    """main's return value, or the status of an argparse usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestRerunFold:
    def test_sweep_rerun_is_bit_exact(self, synth_dir, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "sweep", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(out),
            "--sweep", "count", "--grid", "0,1", "--runs", "2", "--seed", "44",
            *FAST_TRAIN_FLAGS,
        ])
        assert code == 0
        redo = tmp_path / "redo"
        assert main(["rerun", "--manifest", str(out / "manifest.json"), "--out", str(redo)]) == 0
        assert (out / "sweep.jsonl").read_bytes() == (redo / "sweep.jsonl").read_bytes()

    def test_train_eval_rerun_is_bit_exact(self, synth_dir, tmp_path, capsys):
        data = str(synth_dir / "dataset.jsonl")
        train, evaluated = tmp_path / "train", tmp_path / "eval"
        assert main(["train", "--data", data, "--out", str(train), "--arm", "5",
                     "--seed", "12", *FAST_TRAIN_FLAGS]) == 0
        assert main(["eval", "--data", data, "--out", str(evaluated),
                     "--model-ckpt", str(train / "model.ckpt"),
                     "--vgae", str(train / "vgae.ckpt")]) == 0
        for first in (train, evaluated):
            redo = tmp_path / f"redo-{first.name}"
            code = main(["rerun", "--manifest", str(first / "manifest.json"), "--out", str(redo)])
            assert code == 0
            names = json.loads((first / "manifest.json").read_text())["outputs"]
            assert names
            for name in names:
                assert (first / name).read_bytes() == (redo / name).read_bytes()
        assert "mismatch" not in capsys.readouterr().out


DAMAGED_MANIFESTS = {
    "missing file": None,
    "truncated": '{"command": "train", "config": {',
    "no config": '{"command": "train"}',
    "json list": '["train"]',
    "unknown command": '{"command": "fit", "config": {}, "outputs": {}}',
    "unhashable command": '{"command": ["train"], "config": {}, "outputs": {}}',
    "config not an object": '{"command": "train", "config": [], "outputs": {}}',
    "outputs not an object": '{"command": "train", "config": {}, "outputs": "x"}',
}


def test_rerun_with_a_changed_output_digest_exits_1(synth_dir, tmp_path, capsys):
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    manifest["outputs"]["dataset.jsonl"] = "0" * 64
    edited = tmp_path / "manifest.json"
    edited.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["rerun", "--manifest", str(edited), "--out", str(tmp_path / "o")]) == 1
    out, err = capsys.readouterr()
    assert "rerun dataset.jsonl: mismatch" in out
    assert "rerun dataset.jsonl.splits.json: ok" in out
    assert err == "rerun outputs differ: dataset.jsonl\n"


@pytest.mark.parametrize("case", sorted(DAMAGED_MANIFESTS))
def test_damaged_manifest_exits_3(tmp_path, capsys, case):
    manifest = tmp_path / "manifest.json"
    if DAMAGED_MANIFESTS[case] is not None:
        manifest.write_text(DAMAGED_MANIFESTS[case])
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
    assert "data error" in capsys.readouterr().err


def _valid_configs(data: str) -> dict[str, dict]:
    """One well-formed config per command, in the shape _dispatch writes."""
    from dataclasses import asdict

    from egoinf.cascade import CascadeConfig
    from egoinf.training import TrainConfig

    train = asdict(TrainConfig())
    return {
        "synth": {"cascade": asdict(CascadeConfig())},
        "train": {"data": data, "arm": 8, "train": train},
        "eval": {"data": data, "model_ckpt": "model.ckpt", "vgae_ckpt": None,
                 "arm": None, "split": "test"},
        "ablate": {"data": data, "arms": [1, 8], "seeds": [0], "train": train},
        "sweep": {"data": data, "arm": 8, "mode": "count", "grid": [1], "seeds": [0],
                  "train": train},
    }


def _damage(config, path, value):
    """Set (or, for value None, delete) the field at a dotted path."""
    *outer, last = path.split(".")
    for key in outer:
        config = config[key]
    if value is None:
        del config[last]
    else:
        config[last] = value


@pytest.mark.parametrize("command,path,value", [
    ("synth", "cascade", None),
    ("train", "train", None),
    ("eval", "split", None),
    ("ablate", "seeds", None),
    ("sweep", "grid", None),
    ("train", "train.aug", None),
    ("train", "train.aug.count", "3"),
    ("train", "train.epochs", 2.5),
    ("train", "arm", True),
    ("train", "data", ["x"]),
    ("eval", "vgae_ckpt", 5),
    ("ablate", "arms", []),
    ("sweep", "seeds", "ab"),
    ("sweep", "grid", ["1"]),
    ("synth", "cascade.spare", 1),
])
def test_damaged_manifest_config_exits_3(
    synth_dir, tmp_path, capsys, no_pretraining, command, path, value
):
    config = _valid_configs(str(synth_dir / "dataset.jsonl"))[command]
    _damage(config, path, value)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command, "config": config, "outputs": {}}))
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
    assert path.split(".")[-1] in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_train_config_exits_3(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{"command": "train", "config": {}, "outputs": {}}')
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
    assert "missing keys ['arm', 'data', 'train']" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ablate", "sweep"])
@pytest.mark.parametrize("runs", ["0", "-1"])
def test_no_runs_exits_2(synth_dir, tmp_path, no_pretraining, command, runs):
    flags = ["--sweep", "count", "--grid", "1"] if command == "sweep" else []
    code = main([command, "--data", str(synth_dir / "dataset.jsonl"),
                 "--out", str(tmp_path / "o"), "--runs", runs, *flags, *FAST_TRAIN_FLAGS])
    assert code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["ablate", "--arms", "1,x"],
    ["sweep", "--sweep", "threshold", "--grid", "abc"],
    ["sweep", "--sweep", "count", "--grid", "1.5"],
])
def test_malformed_list_flag_exits_2(synth_dir, tmp_path, argv):
    data = ["--data", str(synth_dir / "dataset.jsonl"), "--out", str(tmp_path / "o")]
    assert _exit_code([*argv, *data, *FAST_TRAIN_FLAGS]) == 2
    assert not (tmp_path / "o").exists()


@pytest.fixture
def no_pretraining(monkeypatch):
    from egoinf import ablation

    def fail(*args, **kwargs):
        raise AssertionError("the augmenter was pretrained")

    monkeypatch.setattr(ablation, "pretrain_augmenter", fail)


def test_negative_count_in_grid_exits_2_before_pretraining(synth_dir, tmp_path, no_pretraining):
    code = main([
        "sweep", "--data", str(synth_dir / "dataset.jsonl"), "--out", str(tmp_path / "o"),
        "--sweep", "count", "--grid", "1,-1", *FAST_TRAIN_FLAGS,
    ])
    assert code == 2


@pytest.mark.parametrize("command,split", [
    ("train", "train"),
    ("eval", "test"),
    ("ablate", "train"),
    ("ablate", "test"),
    ("sweep", "train"),
    ("sweep", "test"),
])
def test_empty_split_exits_3(
    synth_dir, trained_dir, tmp_path, capsys, no_pretraining, command, split
):
    data = tmp_path / "dataset.jsonl"
    data.write_bytes((synth_dir / "dataset.jsonl").read_bytes())
    splits = json.loads((synth_dir / "dataset.jsonl.splits.json").read_text())
    splits[split] = []
    (tmp_path / "dataset.jsonl.splits.json").write_text(json.dumps(splits))
    flags = {
        "train": FAST_TRAIN_FLAGS,
        "eval": ["--model-ckpt", str(trained_dir / "model.ckpt"),
                 "--vgae", str(trained_dir / "vgae.ckpt")],
        "ablate": ["--arms", "1,8", "--runs", "1", *FAST_TRAIN_FLAGS],
        "sweep": ["--sweep", "count", "--grid", "1", *FAST_TRAIN_FLAGS],
    }[command]
    code = main([command, "--data", str(data), "--out", str(tmp_path / "o"), *flags])
    assert code == 3
    assert f"dataset has no '{split}' split" in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fails the test if a command starts generating or reading a dataset."""
    from egoinf import cli

    def fail(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "generate_dataset", fail)
    monkeypatch.setattr(cli, "load_dataset", fail)


SEED_REJECTED = "must be a non-negative integer"


# a negative seed, and each setting that a config dataclass rejects when it
# is built: the trainer or the head would otherwise fail on it late, or, for
# a negative batch size, take no step at all
@pytest.mark.parametrize("argv,message", [
    (["synth", *SYNTH_FLAGS, "--seed", "-1"], "seed " + SEED_REJECTED),
    (["train", "--seed", "-1"], "seed " + SEED_REJECTED),
    (["train", "--aug-seed", "-2"], "seed " + SEED_REJECTED),
    (["ablate", "--arms", "1", "--seed", "-1"], "seed " + SEED_REJECTED),
    (["sweep", "--sweep", "count", "--grid", "1", "--runs", "2", "--seed", "-3"],
     "seed " + SEED_REJECTED),
    (["train", "--batch-size", "0"], "batch_size must be >= 1, got 0"),
    (["train", "--batch-size", "-4"], "batch_size must be >= 1, got -4"),
    (["train", "--heads", "0"], "heads must be >= 1, got 0"),
    (["train", "--hidden", "0"], "hidden must be >= 1, got 0"),
    (["train", "--heads", "3"], "hidden=8 not divisible by heads=3"),
    (["train", "--dropout", "1.0"], "dropout must be in [0, 1), got 1.0"),
    (["train", "--dropout", "-0.1"], "dropout must be in [0, 1), got -0.1"),
    (["train", "--model", "gin"], "unknown model variant 'gin'"),
    (["ablate", "--arms", "1", "--embed-dim", "0"], "embed_dim must be >= 1, got 0"),
    (["sweep", "--sweep", "count", "--grid", "1", "--gae-hidden", "0"],
     "gae_hidden must be >= 1, got 0"),
    (["train", "--weight-decay", "-1"], "weight_decay must be >= 0, got -1.0"),
    (["train", "--pretrain-lr", "-1"], "pretrain_lr must be >= 0, got -1.0"),
    (["ablate", "--arms", "1", "--pretrain-epochs", "0"], "pretrain_epochs must be >= 1, got 0"),
    (["train", "--dw-dim", "0"], "deepwalk dim must be >= 1, got 0"),
    (["sweep", "--sweep", "count", "--grid", "1", "--dw-epochs", "-1"],
     "deepwalk epochs must be >= 0, got -1"),
    (["train", "--dw-window", "-2"], "deepwalk window must be >= 0, got -2"),
    (["train", "--lr", "nan"], "lr must be >= 0, got nan"),
], ids=["synth", "train", "train-aug-seed", "ablate", "sweep", "batch-size-0",
        "batch-size-negative", "heads-0", "hidden-0", "heads-not-dividing-hidden", "dropout-1",
        "dropout-negative", "variant", "embed-dim-0", "gae-hidden-0", "weight-decay-negative",
        "pretrain-lr-negative", "pretrain-epochs-0", "dw-dim-0", "dw-epochs-negative",
        "dw-window-negative", "lr-nan"])
def test_negative_seed_flag_exits_2_before_any_work(
    synth_dir, tmp_path, capsys, no_work, no_features, argv, message
):
    command, *flags = argv
    data = [] if command == "synth" else [
        "--data", str(synth_dir / "dataset.jsonl"), *FAST_TRAIN_FLAGS
    ]
    assert main([command, "--out", str(tmp_path / "o"), *data, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,path,value,message", [
    pytest.param("synth", "cascade.seed", -1, SEED_REJECTED, id="synth-cascade.seed--1"),
    pytest.param("train", "train.seed", -1, SEED_REJECTED, id="train-train.seed--1"),
    pytest.param("train", "train.aug.seed", -5, SEED_REJECTED, id="train-train.aug.seed--5"),
    pytest.param("ablate", "seeds", [-1], SEED_REJECTED, id="ablate-seeds-value3"),
    pytest.param("sweep", "seeds", [0, -1], SEED_REJECTED, id="sweep-seeds-value4"),
    pytest.param("train", "train.batch_size", 0, "batch_size must be >= 1, got 0",
                 id="batch-size-0"),
    pytest.param("train", "train.batch_size", -4, "batch_size must be >= 1, got -4",
                 id="batch-size-negative"),
    pytest.param("train", "train.model.heads", 0, "heads must be >= 1, got 0", id="heads-0"),
    pytest.param("train", "train.model.hidden", 0, "hidden must be >= 1, got 0", id="hidden-0"),
    pytest.param("train", "train.model.heads", 3, "hidden=128 not divisible by heads=3",
                 id="heads-not-dividing-hidden"),
    pytest.param("train", "train.dropout", 1.0, "dropout must be in [0, 1), got 1.0",
                 id="dropout-1"),
    pytest.param("train", "train.model.variant", "gin", "unknown model variant 'gin'",
                 id="variant"),
    pytest.param("ablate", "train.model.embed_dim", 0, "embed_dim must be >= 1, got 0",
                 id="embed-dim-0"),
    pytest.param("sweep", "train.model.gae_hidden", 0, "gae_hidden must be >= 1, got 0",
                 id="gae-hidden-0"),
    pytest.param("train", "train.weight_decay", -1, "weight_decay must be >= 0, got -1",
                 id="weight-decay-negative"),
    pytest.param("train", "train.pretrain_lr", -1, "pretrain_lr must be >= 0, got -1",
                 id="pretrain-lr-negative"),
    pytest.param("ablate", "train.pretrain_epochs", 0, "pretrain_epochs must be >= 1, got 0",
                 id="pretrain-epochs-0"),
    pytest.param("train", "train.deepwalk.dim", 0, "deepwalk dim must be >= 1, got 0",
                 id="dw-dim-0"),
    pytest.param("sweep", "train.deepwalk.epochs", -1, "deepwalk epochs must be >= 0, got -1",
                 id="dw-epochs-negative"),
    pytest.param("train", "train.deepwalk.window", -2, "deepwalk window must be >= 0, got -2",
                 id="dw-window-negative"),
    pytest.param("train", "train.adagrad_eps", 0, "adagrad_eps must be > 0, got 0",
                 id="adagrad-eps-0"),
    pytest.param("train", "train.deepwalk.lr", -1, "deepwalk lr must be >= 0, got -1",
                 id="dw-lr-negative"),
    pytest.param("train", "train.deepwalk.lr", float("nan"), "deepwalk lr must be >= 0, got nan",
                 id="dw-lr-nan"),
])
def test_negative_seed_in_manifest_exits_3(
    synth_dir, tmp_path, capsys, no_pretraining, no_features, command, path, value, message
):
    config = _valid_configs(str(synth_dir / "dataset.jsonl"))[command]
    _damage(config, path, value)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command, "config": config, "outputs": {}}))
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and message in err
    assert not (tmp_path / "o").exists()


def test_dataset_above_node_cap_exits_3(tmp_path, capsys):
    from egoinf.graphs import MAX_NODES

    n = MAX_NODES + 1
    data = tmp_path / "big.jsonl"
    data.write_text(
        '{"id":"big","n":%d,"edges":[[0,1]],"ego":0,"state":[%s],"label":0}\n'
        % (n, ",".join(["0"] * n))
    )
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "o"), *FAST_TRAIN_FLAGS])
    assert code == 3
    assert f"above the limit of {MAX_NODES} nodes" in capsys.readouterr().err


def test_subgraph_size_above_node_cap_exits_2(tmp_path, capsys, no_work):
    from egoinf.graphs import MAX_NODES

    code = main(["synth", "--out", str(tmp_path / "o"), *SYNTH_FLAGS,
                 "--subgraph-size", str(MAX_NODES + 1)])
    assert code == 2
    assert "subgraph size" in capsys.readouterr().err


def test_base_graph_above_node_cap_exits_2(tmp_path, capsys, no_work):
    # a dense base graph of 100 000 nodes would need 90 GB
    code = main(["synth", "--out", str(tmp_path / "o"), "--nodes", "100000", "--samples", "5"])
    assert code == 2
    assert "graph nodes must be <= 10000, got 100000" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_base_graph_at_node_cap_reaches_the_generator(tmp_path, no_work):
    from egoinf.cascade import MAX_GRAPH_NODES

    with pytest.raises(AssertionError, match="work started"):
        main(["synth", "--out", str(tmp_path / "o"), "--nodes", str(MAX_GRAPH_NODES)])


@pytest.mark.parametrize("flags,message", [
    (["--seed-set-size", "400"], "seed set size"),
    (["--samples", "0"], "samples must be >= 1"),
    (["--samples", "-3"], "samples must be >= 1"),
    (["--nodes", "5"], "for 5 graph nodes"),
    (["--ws-k", "0"], "ws_k"),
    (["--graph-model", "barabasi_albert", "--ba-m", "0"], "ba_m"),
    (["--graph-model", "barabasi_albert", "--ba-m", "400"], "ba_m"),
    (["--ws-beta", "2"], "rewiring probability"),
    (["--restart-p", "1.5"], "restart probability"),
], ids=["seed-set-size", "samples-0", "samples-negative", "nodes", "ws-k", "ba-m-0",
        "ba-m-400", "ws-beta", "restart-p"])
def test_unusable_cascade_flag_exits_2_before_any_work(tmp_path, capsys, no_work, flags, message):
    code = main(["synth", "--out", str(tmp_path / "o"), "--samples", "20", *flags])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field,value", [("samples", 0), ("restart_p", 1.5), ("ws_k", 0)])
def test_unusable_cascade_setting_in_manifest_exits_3(tmp_path, capsys, no_work, field, value):
    config = _valid_configs("unused")["synth"]
    config["cascade"][field] = value
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "synth", "config": config, "outputs": {}}))
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "manifest config rejected" in err
    assert not (tmp_path / "o").exists()


@pytest.fixture
def no_features(monkeypatch):
    """Fails the test if a command starts computing DeepWalk features."""
    from egoinf import features

    def fail(*args, **kwargs):
        raise AssertionError("DeepWalk ran")

    monkeypatch.setattr(features, "deepwalk_embed", fail)


@pytest.mark.parametrize("command,flags", [
    ("train", ["--arm", "1"]),
    ("ablate", ["--arms", "1,8", "--runs", "1"]),
    ("sweep", ["--sweep", "count", "--grid", "1"]),
])
def test_edgeless_training_graph_exits_3_before_any_work(
    synth_dir, tmp_path, capsys, no_pretraining, no_features, command, flags
):
    splits = json.loads((synth_dir / "dataset.jsonl.splits.json").read_text())
    victim = splits["train"][1]
    records = (synth_dir / "dataset.jsonl").read_text().splitlines()
    record = json.loads(records[victim])
    record["edges"] = []
    records[victim] = json.dumps(record)
    data = tmp_path / "dataset.jsonl"
    data.write_text("\n".join(records) + "\n")
    (tmp_path / "dataset.jsonl.splits.json").write_text(json.dumps(splits))
    code = main([command, "--data", str(data), "--out", str(tmp_path / "o"),
                 *flags, *FAST_TRAIN_FLAGS])
    assert code == 3
    assert f"training sample {record['id']!r} has no edges" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_non_integer_count_in_sweep_manifest_exits_3(synth_dir, tmp_path, capsys, no_pretraining):
    config = _valid_configs(str(synth_dir / "dataset.jsonl"))["sweep"]
    config["grid"] = [1.5, 2]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "sweep", "config": config, "outputs": {}}))
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "a count sweep takes whole numbers, got 1.5" in err
    assert not (tmp_path / "o").exists()


def test_arm_zero_in_eval_manifest_exits_3(synth_dir, trained_dir, tmp_path, capsys):
    config = _valid_configs(str(synth_dir / "dataset.jsonl"))["eval"]
    config.update(model_ckpt=str(trained_dir / "model.ckpt"),
                  vgae_ckpt=str(trained_dir / "vgae.ckpt"), arm=0)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "eval", "config": config, "outputs": {}}))
    assert main(["rerun", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "arm must be 1..8, got 0" in err
    assert not (tmp_path / "o").exists()


# TrainConfig fields that no flag sets; the manifest records their defaults
MANIFEST_ONLY = {"train": ("adagrad_eps", "deepwalk.lr"), "synth": ()}


def _field_paths(cls, prefix=""):
    import dataclasses
    import typing

    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _field_paths(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


@pytest.mark.parametrize("family", ["train", "synth"])
def test_flag_tables_cover_the_configs(family):
    from egoinf import cli
    from egoinf.cascade import CascadeConfig
    from egoinf.training import TrainConfig

    cls, table = {
        "train": (TrainConfig, cli._TRAIN_FLAGS),
        "synth": (CascadeConfig, cli._SYNTH_FLAGS),
    }[family]
    paths = [path for _, path in table]
    assert len(set(paths)) == len(paths)
    assert sorted(paths + list(MANIFEST_ONLY[family])) == sorted(_field_paths(cls))
