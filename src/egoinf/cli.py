"""Command-line front end.

Commands: synth (generate a cascade dataset), train, eval, ablate, sweep,
and rerun (replay any command from its manifest). Every command writes a
manifest.json at the output root with the fully resolved configuration and
a content hash of each input and output file, which is enough to reproduce
the run bit for bit.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
divergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from .ablation import run_ablation
from .augment import AugmentationConfig, generate_augmentations
from .autoenc import VgaeModel
from .cascade import CascadeConfig, generate_dataset
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, DivergenceError, NumericsError
from .features import DeepWalkConfig, FeatureStore, feature_width
from .graphs import load_dataset, save_dataset
from .metrics import auc, f1
from .training import (
    AblationConfig,
    JointModel,
    ModelConfig,
    TrainConfig,
    predict,
    pretrain_augmenter,
    run_config_with_seed,
    train_joint,
)

MANIFEST_NAME = "manifest.json"


# -- manifest plumbing -------------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _write_jsonl(path: Path, rows) -> None:
    lines = [json.dumps(r, sort_keys=True) for r in rows]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _write_manifest(out: Path, command: str, config: dict, inputs: list[Path]) -> None:
    outputs = {
        p.name: _sha256(p)
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != MANIFEST_NAME
    }
    manifest = {
        "tool": "egoinf",
        "manifest_version": 1,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs if p.exists()},
        "outputs": outputs,
    }
    _write_json(out / MANIFEST_NAME, manifest)


def _dataset_inputs(data_path: str) -> list[Path]:
    p = Path(data_path)
    return [p, Path(str(p) + ".splits.json")]


# -- config (de)serialization ------------------------------------------------


def train_config_to_dict(cfg: TrainConfig) -> dict:
    return dataclasses.asdict(cfg)


def train_config_from_dict(d: dict) -> TrainConfig:
    return TrainConfig(
        aug=AugmentationConfig(**d["aug"]),
        model=ModelConfig(**d["model"]),
        deepwalk=DeepWalkConfig(**d["deepwalk"]),
        **{k: v for k, v in d.items() if k not in ("aug", "model", "deepwalk")},
    )


def _train_config_from_args(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs,
        lr=args.lr,
        weight_decay=args.weight_decay,
        dropout=args.dropout,
        batch_size=args.batch_size,
        seed=args.seed,
        pretrain_epochs=args.pretrain_epochs,
        pretrain_lr=args.pretrain_lr,
        aug=AugmentationConfig(
            threshold=args.aug_threshold, count=args.aug_count, seed=args.aug_seed
        ),
        model=ModelConfig(
            variant=args.model,
            hidden=args.hidden,
            heads=args.heads,
            embed_dim=args.embed_dim,
            gae_hidden=args.gae_hidden,
        ),
        deepwalk=DeepWalkConfig(
            dim=args.dw_dim,
            walks_per_node=args.dw_walks,
            walk_length=args.dw_length,
            window=args.dw_window,
            negatives=args.dw_negatives,
            epochs=args.dw_epochs,
        ),
    )


# -- model checkpoints -------------------------------------------------------


def save_joint_model(path: Path, model: JointModel, cfg: TrainConfig, arm: int) -> None:
    meta = {
        "kind": "joint",
        "arm": arm,
        "feature_width": model.gae.in_width,
        "train": train_config_to_dict(cfg),
    }
    save_checkpoint(path, model.parameters(include_gae=True), meta)


def load_joint_model(path: Path) -> tuple[JointModel, TrainConfig, int]:
    matrices, meta = load_checkpoint(path)
    if meta.get("kind") != "joint":
        raise DataError(f"{path}: not a joint model checkpoint")
    cfg = train_config_from_dict(meta["train"])
    model = JointModel.create(cfg, feature_width=meta["feature_width"], seed=cfg.seed)
    params = model.parameters(include_gae=True)
    if set(params) != set(matrices):
        raise DataError(f"{path}: parameter names do not match the configuration")
    for name, arr in matrices.items():
        if params[name].shape != arr.shape:
            raise DataError(f"{path}: shape mismatch for '{name}'")
        params[name][...] = arr
    return model, cfg, int(meta["arm"])


def save_vgae(path: Path, vgae: VgaeModel, cfg: TrainConfig) -> None:
    meta = {
        "kind": "vgae",
        "in_width": vgae.in_width,
        "hidden": vgae.w0.shape[1],
        "embed_dim": vgae.d,
        "logvar_clamp": 10.0,
        "seed": cfg.seed,
    }
    save_checkpoint(path, vgae.parameters(), meta)


def load_vgae(path: Path) -> VgaeModel:
    matrices, meta = load_checkpoint(path)
    if meta.get("kind") != "vgae":
        raise DataError(f"{path}: not an augmenter checkpoint")
    return VgaeModel(
        w0=matrices["w0"], w1_mu=matrices["w1_mu"], w1_logvar=matrices["w1_logvar"]
    )


# -- command implementations (callable from rerun) ---------------------------


def do_synth(config: dict, out: Path) -> None:
    cfg = CascadeConfig(**config["cascade"])
    dataset = generate_dataset(cfg)
    out.mkdir(parents=True, exist_ok=True)
    data_path = out / "dataset.jsonl"
    save_dataset(dataset, data_path)
    pos = dataset.metadata["positives"]
    neg = dataset.metadata["negatives"]
    print(
        f"wrote {len(dataset.samples)} samples to {data_path} "
        f"(positives {pos}, negatives {neg}, minority "
        f"{min(pos, neg) / len(dataset.samples):.1%})"
    )
    _write_manifest(out, "synth", config, [])


def do_train(config: dict, out: Path) -> None:
    cfg = train_config_from_dict(config["train"])
    arm = int(config["arm"])
    abl = AblationConfig.from_arm(arm)
    dataset = load_dataset(config["data"])
    out.mkdir(parents=True, exist_ok=True)

    cfg_run = run_config_with_seed(cfg, cfg.seed)
    store = FeatureStore(cfg.seed, cfg.deepwalk)
    train_samples = dataset.split_samples("train")
    if not train_samples:
        raise DataError("dataset has no train split")

    vgae = None
    if abl.train_aug or abl.test_aug:
        vgae = pretrain_augmenter(train_samples, cfg_run, store, cfg.seed)
        save_vgae(out / "vgae.ckpt", vgae, cfg)

    model = JointModel.create(cfg_run, feature_width=feature_width(cfg.deepwalk), seed=cfg.seed)
    _, trace = train_joint(model, train_samples, cfg_run, abl, vgae=vgae, store=store)
    save_joint_model(out / "model.ckpt", model, cfg, arm)
    _write_jsonl(out / "trace.jsonl", trace)
    print(f"arm {arm}: trained {cfg.epochs} epochs, final loss {trace[-1]['loss']:.4f}")
    _write_manifest(out, "train", config, _dataset_inputs(config["data"]))


def do_eval(config: dict, out: Path) -> None:
    model, cfg, ckpt_arm = load_joint_model(Path(config["model_ckpt"]))
    arm = int(config.get("arm") or ckpt_arm)
    abl = AblationConfig.from_arm(arm)
    dataset = load_dataset(config["data"])
    split = config.get("split", "test")
    samples = dataset.split_samples(split)
    if not samples:
        raise DataError(f"dataset has no '{split}' split")

    vgae = None
    if config.get("vgae_ckpt"):
        vgae = load_vgae(Path(config["vgae_ckpt"]))
    if abl.test_aug and cfg.aug.count > 0 and vgae is None:
        raise ConfigError(
            f"arm {arm} uses test-time augmentation; pass --vgae with the "
            "augmenter checkpoint written by train"
        )

    cfg_run = run_config_with_seed(cfg, cfg.seed)
    store = FeatureStore(cfg.seed, cfg.deepwalk)
    scores = [predict(model, s, abl, vgae, cfg_run, store) for s in samples]
    labels = [s.label for s in samples]
    a, f = auc(scores, labels), f1(scores, labels)

    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(
        out / "scores.jsonl",
        [
            {"id": s.sample_id, "label": s.label, "score": sc}
            for s, sc in zip(samples, scores)
        ],
    )
    _write_jsonl(
        out / "metrics.jsonl",
        [{"arm": arm, "run_seed": cfg.seed, "auc": a, "f1": f}],
    )
    print(f"arm {arm} on {split}: auc {a:.4f}, f1 {f:.4f} ({len(samples)} samples)")
    inputs = _dataset_inputs(config["data"]) + [Path(config["model_ckpt"])]
    if config.get("vgae_ckpt"):
        inputs.append(Path(config["vgae_ckpt"]))
    _write_manifest(out, "eval", config, inputs)


def do_ablate(config: dict, out: Path) -> None:
    cfg = train_config_from_dict(config["train"])
    dataset = load_dataset(config["data"])
    arms = [AblationConfig.from_arm(a) for a in config["arms"]]
    seeds = list(config["seeds"])
    report = run_ablation(dataset, cfg, arms, runs=len(seeds), seeds=seeds)

    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(
        out / "metrics.jsonl",
        [dataclasses.asdict(r) for r in report.records],
    )
    summary = {
        "arms": [dataclasses.asdict(s) for s in report.summaries()],
        "paired_vs_arm": min(config["arms"]),
        "paired_deltas": report.paired_deltas(min(config["arms"])),
    }
    _write_json(out / "summary.json", summary)
    (out / "table.txt").write_text(report.table() + "\n", encoding="utf-8")
    print(report.table())
    _write_manifest(out, "ablate", config, _dataset_inputs(config["data"]))


def _augmentation_edge_stats(samples, vgae, aug_cfg, store) -> float:
    """Added edges as a percentage of original edges, averaged over the Q
    augmentations of every sample."""
    orig = 0
    added = 0
    for s in samples:
        fb = store.bundle(s)
        base_edges = s.graph.num_edges
        for a in generate_augmentations(s, vgae, aug_cfg, features=fb.encoder_input):
            orig += base_edges
            added += a.graph.num_edges - base_edges
    return 100.0 * added / orig if orig else 0.0


def do_sweep(config: dict, out: Path) -> None:
    cfg = train_config_from_dict(config["train"])
    dataset = load_dataset(config["data"])
    arm = int(config["arm"])
    abl = AblationConfig.from_arm(arm)
    if not (abl.train_aug or abl.test_aug):
        raise ConfigError(f"sweep needs an arm with augmentation, got arm {arm}")
    mode = config["mode"]
    grid = config["grid"]
    seeds = list(config["seeds"])
    train_samples = dataset.split_samples("train")
    test_samples = dataset.split_samples("test")

    rows = []
    for seed in seeds:
        cfg_seed = run_config_with_seed(cfg, seed)
        store = FeatureStore(seed, cfg.deepwalk)
        vgae = pretrain_augmenter(train_samples, cfg_seed, store, seed)
        for value in grid:
            if mode == "count":
                cfg_point = dataclasses.replace(
                    cfg, aug=dataclasses.replace(cfg.aug, count=int(value))
                )
            elif mode == "threshold":
                cfg_point = dataclasses.replace(
                    cfg, aug=dataclasses.replace(cfg.aug, threshold=float(value))
                )
            else:
                raise ConfigError(f"sweep mode must be count or threshold, got {mode}")
            cfg_run = run_config_with_seed(cfg_point, seed)
            pct = _augmentation_edge_stats(train_samples, vgae, cfg_run.aug, store)
            model = JointModel.create(cfg_run, feature_width=feature_width(cfg.deepwalk), seed=seed)
            train_joint(model, train_samples, cfg_run, abl, vgae=vgae, store=store)
            scores = [predict(model, s, abl, vgae, cfg_run, store) for s in test_samples]
            labels = [s.label for s in test_samples]
            row = {
                "mode": mode,
                "value": value,
                "run_seed": seed,
                "auc": auc(scores, labels),
                "f1": f1(scores, labels),
                "added_edge_pct": pct,
            }
            rows.append(row)
            print(
                f"{mode}={value}: auc {row['auc']:.4f}, f1 {row['f1']:.4f}, "
                f"added edges {pct:.2f}%"
            )
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "sweep.jsonl", rows)
    _write_manifest(out, "sweep", config, _dataset_inputs(config["data"]))


_COMMANDS = {
    "synth": do_synth,
    "train": do_train,
    "eval": do_eval,
    "ablate": do_ablate,
    "sweep": do_sweep,
}


def do_rerun(manifest_path: Path, out: Path) -> None:
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    command = manifest["command"]
    if command not in _COMMANDS:
        raise ConfigError(f"manifest names unknown command '{command}'")
    _COMMANDS[command](manifest["config"], out)
    fresh = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
    mismatched = [
        name
        for name, digest in manifest["outputs"].items()
        if fresh["outputs"].get(name) != digest
    ]
    for name in manifest["outputs"]:
        state = "mismatch" if name in mismatched else "ok"
        print(f"rerun {name}: {state}")
    if mismatched:
        raise EgoinfExit(1, f"rerun outputs differ: {', '.join(mismatched)}")


class EgoinfExit(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# -- argument parsing --------------------------------------------------------


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("gat", "gcn"), default="gat")
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--weight-decay", type=float, default=5e-4)
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--heads", type=int, default=8)
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--gae-hidden", type=int, default=64)
    p.add_argument("--pretrain-epochs", type=int, default=150)
    p.add_argument("--pretrain-lr", type=float, default=0.05)
    p.add_argument("--aug-threshold", type=float, default=0.8)
    p.add_argument("--aug-count", type=int, default=3)
    p.add_argument("--aug-seed", type=int, default=0)
    p.add_argument("--dw-dim", type=int, default=64)
    p.add_argument("--dw-walks", type=int, default=10)
    p.add_argument("--dw-length", type=int, default=40)
    p.add_argument("--dw-window", type=int, default=5)
    p.add_argument("--dw-negatives", type=int, default=5)
    p.add_argument("--dw-epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egoinf",
        description="Social influence prediction with graph augmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cascade dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--graph-model", choices=("watts_strogatz", "barabasi_albert"),
                   default="watts_strogatz")
    p.add_argument("--nodes", type=int, default=300)
    p.add_argument("--ws-k", type=int, default=10)
    p.add_argument("--ws-beta", type=float, default=0.1)
    p.add_argument("--ba-m", type=int, default=2)
    p.add_argument("--seed-set-size", type=int, default=30)
    p.add_argument("--prob", type=float, default=0.15)
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--subgraph-size", type=int, default=30)
    p.add_argument("--restart-p", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train", help="pretrain the augmenter and fit the joint model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arm", type=int, choices=range(1, 9), default=8)
    _add_train_flags(p)

    p = sub.add_parser("eval", help="score a trained model on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model-ckpt", required=True)
    p.add_argument("--vgae", default=None)
    p.add_argument("--arm", type=int, choices=range(1, 9), default=None)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")

    p = sub.add_parser("ablate", help="run study arms with shared seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arms", default="1,2,3,4,5,6,7,8")
    p.add_argument("--runs", type=int, default=5)
    _add_train_flags(p)

    p = sub.add_parser("sweep", help="vary augmentation count or threshold")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arm", type=int, choices=range(1, 9), default=8)
    p.add_argument("--sweep", choices=("count", "threshold"), required=True)
    p.add_argument("--grid", default=None,
                   help="comma-separated values; defaults to 1..8 or 0.6,0.7,0.8,0.9")
    p.add_argument("--runs", type=int, default=1)
    _add_train_flags(p)

    p = sub.add_parser("rerun", help="replay a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    return parser


def _dispatch(args) -> None:
    out = Path(args.out) if hasattr(args, "out") else None
    if args.command == "synth":
        config = {
            "cascade": dataclasses.asdict(
                CascadeConfig(
                    graph_model=args.graph_model,
                    graph_nodes=args.nodes,
                    ws_k=args.ws_k,
                    ws_beta=args.ws_beta,
                    ba_m=args.ba_m,
                    seed_set_size=args.seed_set_size,
                    activation_p=args.prob,
                    samples=args.samples,
                    n_target=args.subgraph_size,
                    restart_p=args.restart_p,
                    seed=args.seed,
                )
            )
        }
        do_synth(config, out)
    elif args.command == "train":
        config = {
            "data": str(Path(args.data).resolve()),
            "arm": args.arm,
            "train": train_config_to_dict(_train_config_from_args(args)),
        }
        do_train(config, out)
    elif args.command == "eval":
        config = {
            "data": str(Path(args.data).resolve()),
            "model_ckpt": str(Path(args.model_ckpt).resolve()),
            "vgae_ckpt": str(Path(args.vgae).resolve()) if args.vgae else None,
            "arm": args.arm,
            "split": args.split,
        }
        do_eval(config, out)
    elif args.command == "ablate":
        arms = [int(a) for a in str(args.arms).split(",") if a]
        config = {
            "data": str(Path(args.data).resolve()),
            "arms": arms,
            "seeds": [args.seed + i for i in range(args.runs)],
            "train": train_config_to_dict(_train_config_from_args(args)),
        }
        do_ablate(config, out)
    elif args.command == "sweep":
        if args.grid is not None:
            grid = [float(v) for v in str(args.grid).split(",") if v]
            if args.sweep == "count":
                grid = [int(v) for v in grid]
        else:
            grid = list(range(1, 9)) if args.sweep == "count" else [0.6, 0.7, 0.8, 0.9]
        config = {
            "data": str(Path(args.data).resolve()),
            "arm": args.arm,
            "mode": args.sweep,
            "grid": grid,
            "seeds": [args.seed + i for i in range(args.runs)],
            "train": train_config_to_dict(_train_config_from_args(args)),
        }
        do_sweep(config, out)
    elif args.command == "rerun":
        do_rerun(Path(args.manifest), out)
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (DivergenceError, NumericsError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4
    except EgoinfExit as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
