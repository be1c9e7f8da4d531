"""Graph and sample data model, validation, and dataset serialization.

Datasets are JSON-lines, one ego sample per line with keys in the fixed
order id, n, edges, ego, state, label; edges are [i, j] pairs with i < j.
Splits (and generation metadata) live in a sidecar file at
``<path>.splits.json``. Writing is canonical, so save -> load -> save is
byte identical.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError

SPLIT_NAMES = ("train", "valid", "test")

# Largest n a dataset record may declare. Ego subgraphs hold tens of nodes,
# and each sample allocates an n x n adjacency, so a record of some tens of
# kilobytes could otherwise demand gigabytes.
MAX_NODES = 1024


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class UndirectedGraph:
    """0/1 symmetric adjacency with a zero diagonal."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.int8)
        object.__setattr__(self, "adjacency", _freeze(adj))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each node's neighbours as ascending Python ints:
        ``neighbors[v]`` holds ``np.flatnonzero(adjacency[v])``, in the form
        the per-node loops of the cascade and the walk index fastest. Built
        on first read and kept with the graph (the adjacency is read-only,
        so it cannot go stale); a graph that never reads it holds nothing."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.adjacency)

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(i.tolist(), j.tolist()))

    @classmethod
    def from_edges(cls, n: int, edges) -> "UndirectedGraph":
        adj = np.zeros((n, n), dtype=np.int8)
        for i, j in edges:
            adj[i, j] = 1
            adj[j, i] = 1
        return cls(adj)


@dataclass(frozen=True)
class EgoSample:
    """One ego subgraph with per-node action status and the ego's label."""

    graph: UndirectedGraph
    ego: int
    influence_state: np.ndarray
    label: int
    sample_id: str

    def __post_init__(self):
        state = np.asarray(self.influence_state, dtype=np.int8)
        object.__setattr__(self, "influence_state", _freeze(state))

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass
class Dataset:
    samples: list[EgoSample]
    splits: dict[str, list[int]] = field(default_factory=dict)
    metadata: dict[str, Any] = field(default_factory=dict)

    def split_samples(self, name: str) -> list[EgoSample]:
        if not self.splits.get(name):
            raise DataError(f"dataset has no '{name}' split")
        return [self.samples[i] for i in self.splits[name]]


def validate_sample(s: EgoSample) -> list[str]:
    """Return human-readable invariant violations; empty list means valid."""
    problems: list[str] = []
    adj = s.graph.adjacency
    n = adj.shape[0]
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        return [f"adjacency is not square: {adj.shape}"]
    bad = np.setdiff1d(np.unique(adj), [0, 1])
    if bad.size:
        problems.append(f"adjacency entries outside {{0,1}}: {bad.tolist()}")
    if not np.array_equal(adj, adj.T):
        problems.append("adjacency not symmetric")
    diag = np.flatnonzero(np.diagonal(adj))
    for i in diag:
        problems.append(f"nonzero diagonal at {i}")
    if not (0 <= s.ego < n):
        problems.append("ego out of range")
    if s.influence_state.shape != (n,):
        problems.append(
            f"influence_state length {s.influence_state.shape[0]} != n {n}"
        )
    elif np.setdiff1d(np.unique(s.influence_state), [0, 1]).size:
        problems.append("influence_state entries outside {0,1}")
    if s.label not in (0, 1):
        problems.append(f"label {s.label} not in {{0,1}}")
    return problems


def validate_dataset(d: Dataset) -> None:
    """Raise DataError on the first invariant violation."""
    sizes = {s.n for s in d.samples}
    if len(sizes) > 1:
        raise DataError(f"samples disagree on n: {sorted(sizes)}")
    ids: set[str] = set()
    for s in d.samples:
        problems = validate_sample(s)
        if problems:
            raise DataError(f"sample {s.sample_id}: {'; '.join(problems)}")
        # features and random streams are keyed by sample id
        if s.sample_id in ids:
            raise DataError(f"duplicate sample id {s.sample_id!r}")
        ids.add(s.sample_id)
    seen: set[int] = set()
    for name, idx in d.splits.items():
        for i in idx:
            if not _is_int(i):
                raise DataError(f"split '{name}' index {i!r} is not an integer")
            if not (0 <= i < len(d.samples)):
                raise DataError(f"split '{name}' index {i} out of range")
            if i in seen:
                raise DataError(f"split index {i} appears in more than one split")
            seen.add(i)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _int_list(values, what: str) -> list[int]:
    if not isinstance(values, list) or not all(_is_int(v) for v in values):
        raise DataError(f"{what} must be a list of integers")
    return values


def splits_path(path) -> Path:
    """The sidecar that holds a dataset file's splits and metadata."""
    return Path(str(path) + ".splits.json")


def save_dataset(d: Dataset, path) -> None:
    validate_dataset(d)
    path = Path(path)
    lines = []
    for s in d.samples:
        record = {
            "id": s.sample_id,
            "n": s.n,
            "edges": [[int(i), int(j)] for i, j in s.graph.edges()],
            "ego": int(s.ego),
            "state": [int(v) for v in s.influence_state],
            "label": int(s.label),
        }
        lines.append(json.dumps(record, separators=(",", ":")))
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    sidecar = {name: [int(i) for i in d.splits.get(name, [])] for name in SPLIT_NAMES}
    sidecar["metadata"] = d.metadata
    splits_path(path).write_text(
        json.dumps(sidecar, separators=(",", ":"), sort_keys=False) + "\n",
        encoding="utf-8",
    )


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    samples: list[EgoSample] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: parse error on line {lineno}: {exc}") from exc
        try:
            sid = str(rec["id"])
            where = f"{path}: sample {sid} (line {lineno})"
            n, ego, label = rec["n"], rec["ego"], rec["label"]
            if not (_is_int(n) and _is_int(ego) and _is_int(label)):
                raise DataError(f"{where}: n, ego and label must be integers")
            if n < 1:
                raise DataError(f"{where}: n must be at least 1, got {n}")
            edges = rec["edges"]
            if not isinstance(edges, list):
                raise DataError(f"{where}: edges must be a list")
            for e in edges:
                _int_list(e, f"{where}: edge {e!r}")
                if len(e) != 2 or not (0 <= e[0] < e[1] < n):
                    raise DataError(f"{where}: bad edge {e} (need [i, j], 0 <= i < j < n)")
            state = _int_list(rec["state"], f"{where}: state")
            # before the n x n adjacency is allocated: n comes from the file
            if len(state) != n:
                raise DataError(f"{where}: state has {len(state)} entries, n is {n}")
            if n > MAX_NODES:
                raise DataError(f"{where}: n is {n}, above the limit of {MAX_NODES} nodes")
            if any(v not in (0, 1) for v in state):
                raise DataError(f"{where}: state entries outside {{0,1}}")
            sample = EgoSample(
                graph=UndirectedGraph.from_edges(n, edges),
                ego=ego,
                influence_state=np.asarray(state, dtype=np.int8),
                label=label,
                sample_id=sid,
            )
        except DataError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed record on line {lineno}: {exc}") from exc
        samples.append(sample)

    splits: dict[str, list[int]] = {}
    metadata: dict[str, Any] = {}
    sp = splits_path(path)
    if sp.exists():
        try:
            side = json.loads(sp.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise DataError(f"{sp}: malformed splits file: {exc}") from exc
        if not isinstance(side, dict) or not isinstance(side.get("metadata", {}), dict):
            raise DataError(f"{sp}: expected an object with a metadata object")
        splits = {
            name: _int_list(side.get(name, []), f"{sp}: split '{name}'")
            for name in SPLIT_NAMES
        }
        metadata = side.get("metadata", {})
    d = Dataset(samples=samples, splits=splits, metadata=metadata)
    validate_dataset(d)
    return d
