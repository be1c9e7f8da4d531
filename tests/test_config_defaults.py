"""Guard against parameter and field defaults that restate a setting.

Each setting is defaulted once, in its config dataclass. A function or
method in ``src/egoinf`` that gives a default to a parameter named like a
field of one of those configs, or to ``rng``, or a dataclass outside the
configs that defaults a field so named, would keep a second default that
can drift from the config's and that callers can silently rely on.
"""
import ast
import dataclasses
from pathlib import Path

from egoinf.augment import AugmentationConfig
from egoinf.cascade import CascadeConfig
from egoinf.deepwalk import DeepWalkConfig
from egoinf.training import ModelConfig, TrainConfig

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "egoinf"
CONFIGS = (TrainConfig, ModelConfig, AugmentationConfig, DeepWalkConfig, CascadeConfig)
SETTINGS = {f.name for cls in CONFIGS for f in dataclasses.fields(cls)} | {"rng"}
# module.qualname -> parameters allowed a default, each with its reason
ALLOWED = {
    # 0 means no decay: VGAE and GAE pretraining step Adagrad without any
    "optim.Adagrad.__init__": {"weight_decay"},
}


def _defaulted(args: ast.arguments) -> list[str]:
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    return names + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def restated_defaults(library: Path, settings: set[str]) -> dict[str, list[str]]:
    """module.qualname -> its defaulted parameters named in settings, for
    every function, method and nested function under library."""
    found: dict[str, list[str]] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                hits = [a for a in _defaulted(child.args) if a in settings]
                if hits:
                    found[name] = hits
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for path in sorted(library.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def restated_field_defaults(library: Path, settings: set[str], configs: set[str]) -> list[str]:
    """module.Class.field of every defaulted field named in settings, in
    the dataclasses under library other than those named in configs."""
    found = []
    for path in sorted(library.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name in configs \
                    or not _is_dataclass(node):
                continue
            found += [
                f"{path.stem}.{node.name}.{stmt.target.id}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                and isinstance(stmt.target, ast.Name) and stmt.target.id in settings
            ]
    return sorted(found)


def test_no_parameter_default_restates_a_setting():
    found = restated_defaults(LIBRARY, SETTINGS)
    assert {name: hits for name, hits in found.items()
            if set(hits) - ALLOWED.get(name, set())} == {}


def test_guard_sees_positional_keyword_only_and_nested_defaults(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def f(g, dim, rng=None, other=1):\n"
        "    def inner(*, lr=0.1, epochs):\n        pass\n\n"
        "class C:\n    def m(self, seed=0, /, x=2):\n        pass\n\n"
        "def clean(dim, rng):\n    pass\n"
    )
    assert restated_defaults(tmp_path, {"dim", "rng", "lr", "epochs", "seed"}) == {
        "mod.f": ["rng"], "mod.f.inner": ["lr"], "mod.C.m": ["seed"],
    }


def test_no_dataclass_field_default_restates_a_setting():
    configs = {cls.__name__ for cls in CONFIGS}
    assert restated_field_defaults(LIBRARY, SETTINGS, configs) == []


def test_field_guard_sees_dataclasses_only_and_skips_the_configs(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from dataclasses import dataclass\nimport dataclasses\n\n"
        "@dataclass\nclass Net:\n    layers: list\n    dropout: float = 0.2\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Run:\n    seed: int = 0\n    other: int = 1\n\n"
        "@dataclass\nclass Cfg:\n    dropout: float = 0.2\n\n"
        "class Plain:\n    dropout: float = 0.2\n"
    )
    assert restated_field_defaults(tmp_path, {"dropout", "seed", "layers"}, {"Cfg"}) == [
        "mod.Net.dropout", "mod.Run.seed",
    ]
