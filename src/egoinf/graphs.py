"""Graph and sample data model, validation, and dataset serialization.

Datasets are JSON-lines, one ego sample per line with keys in the fixed
order id, n, edges, ego, state, label; edges are [i, j] pairs with i < j.
Splits (and generation metadata) live in a sidecar file at
``<path>.splits.json``. Writing is canonical, so save -> load -> save is
byte identical.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .errors import DataError

SPLIT_NAMES = ("train", "valid", "test")


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class UndirectedGraph:
    """0/1 symmetric adjacency with a zero diagonal."""

    adjacency: np.ndarray
    node_ids: tuple[int, ...] | None = None

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=np.int8)
        object.__setattr__(self, "adjacency", _freeze(adj))

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        return int(self.adjacency.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        i, j = np.nonzero(np.triu(self.adjacency, k=1))
        return list(zip(i.tolist(), j.tolist()))

    @classmethod
    def from_edges(cls, n: int, edges, node_ids=None) -> "UndirectedGraph":
        adj = np.zeros((n, n), dtype=np.int8)
        for i, j in edges:
            adj[i, j] = 1
            adj[j, i] = 1
        return cls(adj, tuple(node_ids) if node_ids is not None else None)

    @classmethod
    def symmetrized(cls, adjacency, node_ids=None) -> "UndirectedGraph":
        """Ingest a possibly directed 0/1 adjacency by symmetrizing it.
        Lossy for directed inputs; the diagonal is dropped."""
        a = np.asarray(adjacency)
        if not np.array_equal(a, a.T):
            warnings.warn("symmetrizing a directed adjacency; edge direction is lost")
        sym = ((a + a.T) > 0).astype(np.int8)
        np.fill_diagonal(sym, 0)
        return cls(sym, tuple(node_ids) if node_ids is not None else None)


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
        return [self.samples[i] for i in self.splits.get(name, [])]


def degree_vector(g: UndirectedGraph) -> np.ndarray:
    """Row sums of the adjacency, as integers."""
    return g.adjacency.sum(axis=1).astype(np.int64)


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
            if not (0 <= i < len(d.samples)):
                raise DataError(f"split '{name}' index {i} out of range")
            if i in seen:
                raise DataError(f"split index {i} appears in more than one split")
            seen.add(i)


def _splits_path(path) -> Path:
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
    _splits_path(path).write_text(
        json.dumps(sidecar, separators=(",", ":"), sort_keys=False) + "\n",
        encoding="utf-8",
    )


def load_dataset(path) -> Dataset:
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset not found: {path}")
    samples: list[EgoSample] = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: parse error on line {lineno}: {exc}") from exc
        try:
            n = int(rec["n"])
            sid = str(rec["id"])
            edges = rec["edges"]
            for i, j in edges:
                if not (0 <= i < j < n):
                    raise DataError(
                        f"{path}: sample {sid}: bad edge [{i},{j}] (need 0 <= i < j < n)"
                    )
            sample = EgoSample(
                graph=UndirectedGraph.from_edges(n, edges),
                ego=int(rec["ego"]),
                influence_state=np.asarray(rec["state"], dtype=np.int8),
                label=int(rec["label"]),
                sample_id=sid,
            )
        except DataError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: malformed record on line {lineno}: {exc}") from exc
        problems = validate_sample(sample)
        if problems:
            raise DataError(f"sample {sample.sample_id}: {'; '.join(problems)}")
        samples.append(sample)

    splits: dict[str, list[int]] = {}
    metadata: dict[str, Any] = {}
    sp = _splits_path(path)
    if sp.exists():
        side = json.loads(sp.read_text(encoding="utf-8"))
        splits = {name: list(side.get(name, [])) for name in SPLIT_NAMES}
        metadata = side.get("metadata", {})
    d = Dataset(samples=samples, splits=splits, metadata=metadata)
    validate_dataset(d)
    return d
