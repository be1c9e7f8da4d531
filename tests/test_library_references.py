"""Guard against library code that only the tests call.

Every top-level function, class and method in ``src/egoinf`` must be
referenced somewhere in ``src/egoinf`` or ``perfbench`` outside its own
body. A reference is a ``Name`` or ``Attribute`` node, an ``import from``
alias, or an identifier inside a string constant other than a docstring
(``perfbench/tracing.py`` names its targets as strings). Dunder names are
exempt; the library keeps no other exemption.

``Tape`` methods share their names with ndarray attributes and numpy
functions (``clip``, ``exp``, ``add``), so for them only a reference through
a receiver that holds a tape counts: a name ``tape`` (what the library
calls every tape variable), ``self`` inside ``Tape``, or a string
``Tape.<method>``.
"""
import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "egoinf"
CALLERS = (LIBRARY, ROOT / "perfbench")
ALLOWED: set[str] = set()

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# class whose methods are resolved by receiver -> the name its instances go by
RECEIVERS = {"Tape": "tape"}
_QUALIFIED = re.compile(r"\b(" + "|".join(RECEIVERS) + r")\.([A-Za-z_][A-Za-z0-9_]*)")


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the string constants that are docstrings."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            out.add(id(first.value))
    return out


def references(tree: ast.AST, docstrings: set[int]) -> Counter:
    """Identifiers referenced anywhere under tree, with multiplicity; a
    method of a RECEIVERS class referenced through its receiver also counts
    as '<class>.<method>'."""
    seen: Counter = Counter()
    receivers = {name: cls for cls, name in RECEIVERS.items()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in RECEIVERS:
            seen.update(f"{node.name}.{attr}" for attr in _self_references(node))
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
            if isinstance(node.value, ast.Name) and node.value.id in receivers:
                seen[f"{receivers[node.value.id]}.{node.attr}"] += 1
        elif isinstance(node, ast.ImportFrom):
            seen.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                seen.update(_IDENT.findall(node.value))
                seen.update(".".join(m) for m in _QUALIFIED.findall(node.value))
    return seen


def _self_references(cls: ast.ClassDef) -> list[str]:
    """Attributes the class's body reads through ``self``."""
    return [
        node.attr
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ]


def _definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level
    classes, each with the key its references count under."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, kinds):
                    yield m, f"{node.name}.{m.name}" if node.name in RECEIVERS else m.name


def unreferenced(library: Path, callers) -> list[str]:
    """module.name of each library definition that nothing outside its own
    body references."""
    parsed = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for root in callers
        for path in sorted(root.rglob("*.py"))
    }
    docstrings = set().union(*(_docstrings(t) for t in parsed.values()))
    total: Counter = Counter()
    for tree in parsed.values():
        total += references(tree, docstrings)
    found = []
    for path, tree in parsed.items():
        if library not in path.parents:
            continue
        for node, key in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[key] - references(node, docstrings)[key] == 0:
                found.append(f"{path.stem}.{name}")
    return sorted(found)


def test_every_library_definition_has_a_library_or_benchmark_caller():
    assert [n for n in unreferenced(LIBRARY, CALLERS) if n.split(".")[-1] not in ALLOWED] == []


def test_guard_sees_a_definition_that_only_its_own_body_names(tmp_path):
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "mod.py").write_text(
        '"""unused_doc is named only in this docstring."""\n'
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def unused_doc():\n    pass\n\n"
        "def by_string():\n    pass\n\n"
        "class Holder:\n    def method(self):\n        pass\n\n"
        "    def __repr__(self):\n        return ''\n\n"
        "TARGETS = ('Holder.method', 'by_string')\n"
    )
    assert unreferenced(lib, [lib]) == ["mod.recursive", "mod.unused_doc"]


def test_guard_resolves_tape_methods_by_receiver(tmp_path):
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "mod.py").write_text(
        "import numpy as np\n\n"
        "class Tape:\n"
        "    def clip(self):\n        pass\n\n"
        "    def exp(self):\n        pass\n\n"
        "    def leaf(self):\n        return self._record()\n\n"
        "    def _record(self):\n        pass\n\n"
        "    def backward(self):\n        pass\n\n"
        "def caller(tape, arr):\n"
        "    tape.leaf()\n"
        "    return np.clip(arr, 0, 1), arr.exp()\n\n"
        "TARGETS = ('Tape.backward', 'caller')\n"
    )
    assert unreferenced(lib, [lib]) == ["mod.clip", "mod.exp"]
