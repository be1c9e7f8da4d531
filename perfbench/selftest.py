"""Self-test of the benchmark on tiny configurations; takes a few seconds.

    python3 perfbench/selftest.py

Checks, for every workload, that each metric BENCHMARK.json declares is
produced in its mode, that the spans each workload must reach fired, and
that the call counts match the workload's arithmetic. The same counts are
checked against the tracer on every traced run of the full workloads.
Also checks that the command fails, without a result line, in a directory
that holds only the benchmark.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import hostspeed
import run

run._import_library()

import workloads  # noqa: E402
from egoinf.augment import AugmentationConfig  # noqa: E402
from egoinf.features import DeepWalkConfig  # noqa: E402
from egoinf.training import ModelConfig  # noqa: E402

TINY_TRAIN = replace(
    workloads.ACCEPT_TRAIN,
    epochs=2,
    batch_size=4,
    pretrain_epochs=3,
    # a low threshold, so that augmentation adds edges
    aug=AugmentationConfig(threshold=0.5, count=2),
    model=ModelConfig(variant="gat", hidden=8, heads=2, embed_dim=4, gae_hidden=4),
    deepwalk=DeepWalkConfig(dim=4, walks_per_node=1, walk_length=5, window=2, negatives=1, epochs=1),
)
TINY_GRAPH = {"graph_nodes": 150, "ws_k": 8, "seed_set_size": 15, "n_target": 12}
TINY = {
    name: workloads.Sizes(egos=40, train=12, train_cfg=TINY_TRAIN, cascade=TINY_GRAPH)
    for name in workloads.WORKLOADS
}

# spans that must fire in the timed operation of each workload
ARM8_SPANS = {
    "deepwalk.deepwalk_embed",
    "features.bundle",
    "autoenc.train_vgae",
    "augment.generate_augmentations",
    "autodiff.backward",
    "layers.prediction_forward",
    "layers.gat_forward",
    "optim.step",
    "rng.stream",
    "training.sample_loss",
    "training.train_joint",
    "training.pretrain_augmenter",
    "training.predict",
}
OP_SPANS = {
    "arm8-c5": ARM8_SPANS,
    "arm2-warm": ARM8_SPANS - {
        "deepwalk.deepwalk_embed",
        "autoenc.train_vgae",
        "augment.generate_augmentations",
        "training.pretrain_augmenter",
    },
    "predict-tta": {
        "deepwalk.deepwalk_embed",
        "features.bundle",
        "augment.generate_augmentations",
        "layers.prediction_forward",
        "layers.gat_forward",
        "rng.stream",
        "training.predict",
    },
}
SETUP_SPANS = {
    "arm8-c5": {"cascade.generate_dataset", "cascade.cascade_rounds", "sampling.rwr_sample"},
    "arm2-warm": {
        "cascade.generate_dataset",
        "cascade.cascade_rounds",
        "sampling.rwr_sample",
        "deepwalk.deepwalk_embed",
        "features.bundle",
    },
    "predict-tta": {
        "cascade.generate_dataset",
        "cascade.cascade_rounds",
        "sampling.rwr_sample",
        "deepwalk.deepwalk_embed",
        "autoenc.train_vgae",
        "training.pretrain_augmenter",
        "training.train_joint",
        "training.sample_loss",
        "autodiff.backward",
        "optim.step",
    },
}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_workload(name: str, spec: dict, seed: int = 3) -> None:
    wl = workloads.build(name, TINY)
    e2e = run.measure_end_to_end(wl, seed, seconds=0)
    expect(not e2e["problems"] and e2e["failed"] == 0, f"{name}: end-to-end run passes its gate")
    values = e2e.get("metrics", {})
    for m in spec["end_to_end"]:
        v = values.get(m["name"])
        expect(
            v is not None and math.isfinite(v) and v > 0,
            f"{name}: end-to-end metric {m['name']} is produced and above 0",
        )

    traced = run.measure_traced(wl, seed, seconds=0)
    expect(not traced["problems"], f"{name}: traced run passes its gate and exact counts")
    layer = traced.get("metrics", {})
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layer]
    expect(not missing, f"{name}: every per-layer metric is produced {missing or ''}")
    for span in sorted(OP_SPANS[name]):
        expect(layer.get(f"{span}.calls", 0) > 0, f"{name}: span {span} fired in the operation")
    for span in sorted(SETUP_SPANS[name]):
        expect(layer.get(f"setup.{span}.calls", 0) > 0, f"{name}: span {span} fired in set-up")

    ds = workloads.make_dataset(seed, TINY[name])
    n_train, n_test = len(ds.splits["train"]), len(ds.splits["test"])
    copies = 1 + TINY_TRAIN.aug.count
    epochs = TINY_TRAIN.epochs
    dw = layer.get("deepwalk.deepwalk_embed.calls")
    loss = layer.get("training.sample_loss.calls")
    if name == "arm8-c5":
        expect(dw == (n_train + n_test) * copies, f"{name}: DeepWalk calls = (train + test) x (1 + Q)")
        expect(loss == epochs * n_train * copies, f"{name}: sample_loss calls = epochs x effective samples")
        expect(layer["augment.added_edges_per_copy"] > 0, f"{name}: augmentation added edges")
    elif name == "arm2-warm":
        expect(dw == 0, f"{name}: no DeepWalk call in the timed part")
        expect(loss == epochs * n_train, f"{name}: sample_loss calls = epochs x training samples")
        expect(layer["features.hit_ratio"] == 1.0, f"{name}: every feature lookup hits")
    else:
        expect(dw == n_test * copies, f"{name}: DeepWalk calls = egos x (1 + Q)")
        expect(
            layer["setup.training.sample_loss.calls"] == epochs * n_train,
            f"{name}: set-up sample_loss calls = epochs x training samples",
        )
        expect(layer["training.predict.variants_per_call"] == copies, f"{name}: 1 + Q variants per predict")


def check_hostspeed() -> None:
    """Three probes at twice the reference time: every stretch between them
    is halved, and the probes themselves are left out."""
    sampler = hostspeed.Sampler()
    d = 2 * hostspeed.REFERENCE_PROBE_S
    sampler.starts = [1.0, 2.0, 3.0]
    sampler.ends = [t + d for t in sampler.starts]
    wall = 3.0 - 3 * d
    expect(abs(sampler.wall_seconds(0.5, 3.5) - wall) < 1e-12, "hostspeed: probe time is left out")
    expect(abs(sampler.seconds(0.5, 3.5) - wall / 2) < 1e-12, "hostspeed: a 2x slow-down halves the time")
    expect(abs(sampler.seconds(1.5, 1.75) - 0.125) < 1e-12, "hostspeed: a stretch between probes scales")


def check_bare_directory() -> None:
    """The command must fail without the library next to it."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "arm8-c5", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare)
    expect(
        proc.returncode != 0 and '"correct"' not in proc.stdout,
        "without src/ the command exits non-zero and prints no result",
    )


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads the benchmark defines",
    )
    expect(run.tail_percentile(list(range(60)))[0] == 83, "tail of 60 samples is p83")
    expect(run.tail_percentile(list(range(5))) == (100, 4), "tail of 5 samples is the maximum")
    check_hostspeed()
    for name in workloads.WORKLOADS:
        check_workload(name, spec)
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
