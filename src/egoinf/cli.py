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
import types
import typing
from pathlib import Path

from .ablation import (
    check_run_seeds,
    fit_arm,
    run_ablation,
    run_arm,
    score_arm,
    seed_contexts,
)
from .autoenc import LOGVAR_CLAMP, VgaeModel
from .cascade import CascadeConfig, generate_dataset
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, DivergenceError, NumericsError
from .features import FeatureStore, feature_width
from .graphs import load_dataset, save_dataset
from .training import (
    ARM_FLAGS,
    AblationConfig,
    JointModel,
    TrainConfig,
    augmented_copies,
    run_config_with_seed,
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


def config_from_dict(cls, d: dict):
    """cls from a JSON object with its fields; nested configs from nested
    objects. The object must have the shape _shape_problem accepts."""
    hints = typing.get_type_hints(cls)
    return cls(**{
        k: config_from_dict(hints[k], v) if dataclasses.is_dataclass(hints[k]) else v
        for k, v in d.items()
    })


# -- model checkpoints -------------------------------------------------------


def save_joint_model(path: Path, model: JointModel, cfg: TrainConfig, arm: int) -> None:
    meta = {
        "kind": "joint",
        "arm": arm,
        "feature_width": model.gae.in_width,
        "train": dataclasses.asdict(cfg),
    }
    save_checkpoint(path, model.parameters(include_gae=True), meta)


def _check_shapes(path: Path, shapes: dict[str, tuple[int, int]], matrices: dict) -> None:
    """Raise DataError unless the checkpoint's matrices carry exactly the
    names and shapes the configuration gives; nothing is allocated."""
    if set(shapes) != set(matrices):
        missing = sorted(set(shapes) - set(matrices))
        unexpected = sorted(set(matrices) - set(shapes))
        raise DataError(
            f"{path}: matrices do not match the configuration: "
            f"missing {missing}, unexpected {unexpected}"
        )
    for name, arr in matrices.items():
        if arr.shape != shapes[name]:
            raise DataError(f"{path}: matrix '{name}' is {arr.shape}, not {shapes[name]}")


def load_joint_model(path: Path) -> tuple[JointModel, TrainConfig, int]:
    """The model, its config and arm. The config alone decides the shape of
    every matrix, and is compared with the file before any model is built;
    its feature width is also the augmenter's (load_vgae)."""
    matrices, meta = load_checkpoint(path)
    if meta.get("kind") != "joint":
        raise DataError(f"{path}: not a joint model checkpoint")
    problem = _shape_problem(meta.get("train"), TrainConfig, "train")
    if problem:
        raise DataError(f"{path}: checkpoint {problem}")
    try:
        cfg = config_from_dict(TrainConfig, meta["train"])
        arm = AblationConfig.from_arm(meta.get("arm")).arm
    except (ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad model configuration in checkpoint: {exc}") from exc
    width = feature_width(cfg.deepwalk)
    _check_shapes(path, JointModel.shapes(cfg, width), matrices)
    model = JointModel.create(cfg, feature_width=width, seed=cfg.seed)
    for name, arr in model.parameters(include_gae=True).items():
        arr[...] = matrices[name]
    return model, cfg, arm


def save_vgae(path: Path, vgae: VgaeModel, cfg: TrainConfig) -> None:
    meta = {
        "kind": "vgae",
        "in_width": vgae.in_width,
        "hidden": vgae.w0.shape[1],
        "embed_dim": vgae.d,
        "logvar_clamp": LOGVAR_CLAMP,
        "seed": cfg.seed,
    }
    save_checkpoint(path, vgae.parameters(), meta)


def load_vgae(path: Path, cfg: TrainConfig) -> VgaeModel:
    """The augmenter of a model trained under cfg: its sizes are the
    model's feature width, gae_hidden and embed_dim, as pretrain_augmenter
    builds it. Its seed may differ from the model's."""
    matrices, meta = load_checkpoint(path)
    if meta.get("kind") != "vgae":
        raise DataError(f"{path}: not an augmenter checkpoint")
    width, hidden, embed = feature_width(cfg.deepwalk), cfg.model.gae_hidden, cfg.model.embed_dim
    shapes = {"w0": (width, hidden), "w1_mu": (hidden, embed), "w1_logvar": (hidden, embed)}
    _check_shapes(path, shapes, matrices)
    return VgaeModel(**matrices)


# -- command implementations (callable from rerun) ---------------------------


def do_synth(config: dict, out: Path) -> None:
    cfg = config_from_dict(CascadeConfig, config["cascade"])
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
    cfg = config_from_dict(TrainConfig, config["train"])
    arm = int(config["arm"])
    abl = AblationConfig.from_arm(arm)
    dataset = load_dataset(config["data"])

    store = FeatureStore(cfg.seed, cfg.deepwalk)
    model, vgae, trace = fit_arm(dataset, cfg, abl, cfg.seed, store)
    out.mkdir(parents=True, exist_ok=True)
    if vgae is not None:
        save_vgae(out / "vgae.ckpt", vgae, cfg)
    save_joint_model(out / "model.ckpt", model, cfg, arm)
    _write_jsonl(out / "trace.jsonl", trace)
    print(f"arm {arm}: trained {cfg.epochs} epochs, final loss {trace[-1]['loss']:.4f}")
    _write_manifest(out, "train", config, _dataset_inputs(config["data"]))


def do_eval(config: dict, out: Path) -> None:
    model, cfg, ckpt_arm = load_joint_model(Path(config["model_ckpt"]))
    vgae_path = config.get("vgae_ckpt")
    vgae = load_vgae(Path(vgae_path), cfg) if vgae_path else None
    arm = ckpt_arm if config["arm"] is None else int(config["arm"])
    abl = AblationConfig.from_arm(arm)
    dataset = load_dataset(config["data"])
    split = config.get("split", "test")
    samples = dataset.split_samples(split)
    if abl.test_aug and cfg.aug.count > 0 and vgae is None:
        raise ConfigError(
            f"arm {arm} uses test-time augmentation; pass --vgae with the "
            "augmenter checkpoint written by train"
        )

    store = FeatureStore(cfg.seed, cfg.deepwalk)
    scores, record = score_arm(model, samples, cfg, abl, cfg.seed, store, vgae)

    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(
        out / "scores.jsonl",
        [
            {"id": s.sample_id, "label": s.label, "score": sc}
            for s, sc in zip(samples, scores)
        ],
    )
    _write_jsonl(out / "metrics.jsonl", [dataclasses.asdict(record)])
    print(
        f"arm {arm} on {split}: auc {record.auc:.4f}, f1 {record.f1:.4f} "
        f"({len(samples)} samples)"
    )
    inputs = _dataset_inputs(config["data"]) + [Path(config["model_ckpt"])]
    if vgae_path:
        inputs.append(Path(vgae_path))
    _write_manifest(out, "eval", config, inputs)


def do_ablate(config: dict, out: Path) -> None:
    cfg = config_from_dict(TrainConfig, config["train"])
    dataset = load_dataset(config["data"])
    arms = [AblationConfig.from_arm(a) for a in config["arms"]]
    report = run_ablation(dataset, cfg, arms, list(config["seeds"]))

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
        base_edges = s.graph.num_edges
        for a in augmented_copies(s, vgae, aug_cfg, store):
            orig += base_edges
            added += a.graph.num_edges - base_edges
    return 100.0 * added / orig if orig else 0.0


def _sweep_count(value) -> int:
    """A count sweep's grid value as an int; it must be a whole number."""
    if not float(value).is_integer():
        raise ConfigError(f"a count sweep takes whole numbers, got {value}")
    return int(value)


def do_sweep(config: dict, out: Path) -> None:
    cfg = config_from_dict(TrainConfig, config["train"])
    check_run_seeds(config["seeds"])
    dataset = load_dataset(config["data"])
    arm = int(config["arm"])
    abl = AblationConfig.from_arm(arm)
    if not (abl.train_aug or abl.test_aug):
        raise ConfigError(f"sweep needs an arm with augmentation, got arm {arm}")
    mode = config["mode"]
    cast = {"count": _sweep_count, "threshold": float}.get(mode)
    if cast is None:
        raise ConfigError(f"sweep mode must be count or threshold, got {mode}")
    grid = config["grid"]
    points = [
        dataclasses.replace(cfg, aug=dataclasses.replace(cfg.aug, **{mode: cast(v)}))
        for v in grid
    ]

    rows = []
    for seed, train, store, vgae in seed_contexts(dataset, cfg, config["seeds"], augments=True):
        for value, cfg_point in zip(grid, points):
            aug = run_config_with_seed(cfg_point, seed).aug
            pct = _augmentation_edge_stats(train, vgae, aug, store)
            record = run_arm(dataset, cfg_point, abl, seed, store=store, vgae=vgae)
            rows.append({"mode": mode, "value": value, "run_seed": seed, "auc": record.auc,
                         "f1": record.f1, "added_edge_pct": pct})
            print(
                f"{mode}={value}: auc {record.auc:.4f}, f1 {record.f1:.4f}, "
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


# The JSON shape of each command's config as _dispatch writes it. A
# dataclass stands for an object with exactly its fields; lists are non-empty.
_CONFIG_SHAPES = {
    "synth": {"cascade": CascadeConfig},
    "train": {"data": str, "arm": int, "train": TrainConfig},
    "eval": {"data": str, "model_ckpt": str, "vgae_ckpt": str | None,
             "arm": int | None, "split": str},
    "ablate": {"data": str, "arms": list[int], "seeds": list[int], "train": TrainConfig},
    "sweep": {"data": str, "arm": int, "mode": str, "grid": list[float],
              "seeds": list[int], "train": TrainConfig},
}


def _shape_problem(value, shape, where: str) -> str | None:
    """How value departs from shape (see _CONFIG_SHAPES), or None."""
    if dataclasses.is_dataclass(shape):
        hints = typing.get_type_hints(shape)
        shape = {f.name: hints[f.name] for f in dataclasses.fields(shape)}
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            return f"{where} is not a JSON object"
        if set(value) != set(shape):
            missing, unexpected = sorted(set(shape) - set(value)), sorted(set(value) - set(shape))
            return f"{where} has missing keys {missing}, unexpected keys {unexpected}"
        problems = (_shape_problem(value[k], sub, f"{where}.{k}") for k, sub in shape.items())
        return next((p for p in problems if p), None)
    if typing.get_origin(shape) is list:
        if not isinstance(value, list) or not value:
            return f"{where} is not a non-empty list"
        (item,) = typing.get_args(shape)
        problems = (_shape_problem(v, item, f"{where}[{i}]") for i, v in enumerate(value))
        return next((p for p in problems if p), None)
    if isinstance(shape, types.UnionType):
        if any(_shape_problem(value, alt, where) is None for alt in typing.get_args(shape)):
            return None
        return f"{where} is not {shape}"
    allowed = (int, float) if shape is float else shape  # 1 is a valid float
    if isinstance(value, bool) or not isinstance(value, allowed):
        return f"{where} is not {shape.__name__}"
    return None


def do_rerun(manifest_path: Path, out: Path) -> int:
    try:
        manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: manifest is not a JSON object")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in _COMMANDS:
        raise DataError(f"{manifest_path}: manifest names unknown command {command!r}")
    if not isinstance(manifest.get("outputs"), dict):
        raise DataError(f"{manifest_path}: manifest 'outputs' is not a JSON object")
    problem = _shape_problem(manifest.get("config"), _CONFIG_SHAPES[command], "config")
    if problem:
        raise DataError(f"{manifest_path}: manifest {problem}")
    try:
        _COMMANDS[command](manifest["config"], out)
    except ConfigError as exc:  # every setting came from the manifest
        raise DataError(f"{manifest_path}: manifest config rejected: {exc}") from exc
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
        print(f"rerun outputs differ: {', '.join(mismatched)}", file=sys.stderr)
        return 1
    return 0


# -- argument parsing --------------------------------------------------------


def _comma_list(cast):
    """argparse type for comma-separated values; argparse turns a value that
    cast rejects into a usage error (exit 2)."""

    def parse(text: str) -> list:
        return [cast(v) for v in text.split(",") if v]

    parse.__name__ = f"comma-separated {cast.__name__}"
    return parse


# One table per command family: (flag, field path) rows. A flag's type and
# default come from the dataclass field that its path names; every other
# field keeps its default and is recorded in the manifest.
_TRAIN_FLAGS = (
    ("--model", "model.variant"),
    ("--epochs", "epochs"),
    ("--lr", "lr"),
    ("--weight-decay", "weight_decay"),
    ("--dropout", "dropout"),
    ("--batch-size", "batch_size"),
    ("--heads", "model.heads"),
    ("--hidden", "model.hidden"),
    ("--embed-dim", "model.embed_dim"),
    ("--gae-hidden", "model.gae_hidden"),
    ("--pretrain-epochs", "pretrain_epochs"),
    ("--pretrain-lr", "pretrain_lr"),
    ("--aug-threshold", "aug.threshold"),
    ("--aug-count", "aug.count"),
    ("--aug-seed", "aug.seed"),
    ("--dw-dim", "deepwalk.dim"),
    ("--dw-walks", "deepwalk.walks_per_node"),
    ("--dw-length", "deepwalk.walk_length"),
    ("--dw-window", "deepwalk.window"),
    ("--dw-negatives", "deepwalk.negatives"),
    ("--dw-epochs", "deepwalk.epochs"),
    ("--seed", "seed"),
)
_SYNTH_FLAGS = (
    ("--graph-model", "graph_model"),
    ("--nodes", "graph_nodes"),
    ("--ws-k", "ws_k"),
    ("--ws-beta", "ws_beta"),
    ("--ba-m", "ba_m"),
    ("--seed-set-size", "seed_set_size"),
    ("--prob", "activation_p"),
    ("--samples", "samples"),
    ("--subgraph-size", "n_target"),
    ("--restart-p", "restart_p"),
    ("--seed", "seed"),
)


def _field(cls, path: str):
    """Type and default of the field at a dotted path; int | None reads as int."""
    value = cls()
    for name in path.split("."):
        kind = typing.get_type_hints(type(value))[name]
        value = getattr(value, name)
    if isinstance(kind, types.UnionType):
        (kind,) = [t for t in typing.get_args(kind) if t is not type(None)]
    return kind, value


def _add_flags(p: argparse.ArgumentParser, cls, table) -> None:
    for flag, path in table:
        kind, default = _field(cls, path)
        p.add_argument(flag, type=kind, default=default)


def _config_from_flags(args, cls, table) -> dict:
    """The config that the manifest records: cls's defaults with each
    table flag's value at its field path, checked by building cls."""
    config = dataclasses.asdict(cls())
    for flag, path in table:
        *outer, name = path.split(".")
        node = config
        for key in outer:
            node = node[key]
        node[name] = getattr(args, flag[2:].replace("-", "_"))
    return dataclasses.asdict(config_from_dict(cls, config))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egoinf",
        description="Social influence prediction with graph augmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cascade dataset")
    p.add_argument("--out", required=True)
    _add_flags(p, CascadeConfig, _SYNTH_FLAGS)

    p = sub.add_parser("train", help="pretrain the augmenter and fit the joint model")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arm", type=int, choices=ARM_FLAGS, default=8)
    _add_flags(p, TrainConfig, _TRAIN_FLAGS)

    p = sub.add_parser("eval", help="score a trained model on a split")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model-ckpt", required=True)
    p.add_argument("--vgae", default=None)
    p.add_argument("--arm", type=int, choices=ARM_FLAGS, default=None)
    p.add_argument("--split", choices=("train", "valid", "test"), default="test")

    p = sub.add_parser("ablate", help="run study arms with shared seeds")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arms", type=_comma_list(int), default=list(ARM_FLAGS))
    p.add_argument("--runs", type=int, default=5)
    _add_flags(p, TrainConfig, _TRAIN_FLAGS)

    p = sub.add_parser("sweep", help="vary augmentation count or threshold")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--arm", type=int, choices=ARM_FLAGS, default=8)
    p.add_argument("--sweep", choices=("count", "threshold"), required=True)
    p.add_argument("--grid", type=_comma_list(float), default=None,
                   help="comma-separated values; defaults to 1..8 or 0.6,0.7,0.8,0.9")
    p.add_argument("--runs", type=int, default=1)
    _add_flags(p, TrainConfig, _TRAIN_FLAGS)

    p = sub.add_parser("rerun", help="replay a command from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    return parser


def _dispatch(args) -> int:
    out = Path(args.out) if hasattr(args, "out") else None
    if getattr(args, "runs", 1) < 1:
        raise ConfigError(f"--runs must be at least 1, got {args.runs}")
    if args.command == "synth":
        config = {"cascade": _config_from_flags(args, CascadeConfig, _SYNTH_FLAGS)}
        do_synth(config, out)
    elif args.command == "train":
        config = {
            "data": str(Path(args.data).resolve()),
            "arm": args.arm,
            "train": _config_from_flags(args, TrainConfig, _TRAIN_FLAGS),
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
        config = {
            "data": str(Path(args.data).resolve()),
            "arms": args.arms,
            "seeds": [args.seed + i for i in range(args.runs)],
            "train": _config_from_flags(args, TrainConfig, _TRAIN_FLAGS),
        }
        do_ablate(config, out)
    elif args.command == "sweep":
        grid = args.grid
        if grid is None:
            grid = list(range(1, 9)) if args.sweep == "count" else [0.6, 0.7, 0.8, 0.9]
        elif args.sweep == "count":
            grid = [_sweep_count(v) for v in grid]
        config = {
            "data": str(Path(args.data).resolve()),
            "arm": args.arm,
            "mode": args.sweep,
            "grid": grid,
            "seeds": [args.seed + i for i in range(args.runs)],
            "train": _config_from_flags(args, TrainConfig, _TRAIN_FLAGS),
        }
        do_sweep(config, out)
    elif args.command == "rerun":
        return do_rerun(Path(args.manifest), out)
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {args.command}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (DivergenceError, NumericsError) as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
