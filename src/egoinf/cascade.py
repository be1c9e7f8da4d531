"""Independent-cascade simulation and the synthetic influence dataset.

The generator runs cascades over a base graph and emits one ego sample per
cascade: the observation is taken at the seeding round, the ego is an
inactive node near the cascade front, and the label records whether the
ego activates in the next round. Egos are drawn from nodes with an active
node within two hops, so a share of samples has no directly active
neighbour and can never activate; the rest face genuine influence
pressure. That keeps the task graph-structural but not trivial.

Draws: in each round the frontier nodes go in ascending order, and each
checks its still-inactive neighbours (``UndirectedGraph.neighbors``,
ascending), one uniform per check. ``cascade_rounds`` draws them in blocks,
topped up before a frontier node whose degree would outrun what is left,
reads them in order, then restores the generator and draws the count it
read: ``random(a)`` then ``random(b)`` read what ``random(a + b)`` and
a + b scalar draws read, so the generator ends where a per-edge loop
leaves it, and the same stream then picks the ego.

The base graph's draws come from one ``random.Random`` keyed by
``derive_seed(seed, "base-graph")``, shared by every Watts–Strogatz try
(Watts & Strogatz 1998) or by the Barabási–Albert growth (Barabási &
Albert 1999), and taken in the order of the common Python reference
generators; ``tests/test_cascade.py`` checks the edge sets against them.
``CascadeConfig`` rejects settings the generator or the walk cannot honour
before any graph is built.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .graphs import MAX_NODES, Dataset, EgoSample, UndirectedGraph
from .rng import check_seed, derive_seed, stream
from .sampling import rwr_sample

_MAX_ATTEMPTS = 80
_MAX_TRIES = 200  # Watts–Strogatz graphs drawn in search of a connected one
_DRAW_BLOCK = 256  # cascade uniforms drawn at a time; a C5 cascade reads about 1,000
# Largest base graph. It is held as a dense n x n int8 adjacency plus a
# float64 copy, 9 bytes per cell: 0.9 GB at the cap.
MAX_GRAPH_NODES = 10_000


@dataclass(frozen=True)
class CascadeConfig:
    graph_model: str = "watts_strogatz"  # or "barabasi_albert"
    graph_nodes: int = 300
    ws_k: int = 10
    ws_beta: float = 0.1
    ba_m: int = 2
    seed_set_size: int = 30
    activation_p: float = 0.15
    samples: int = 500
    n_target: int = 30
    restart_p: float = 0.8
    seed: int = 0

    def __post_init__(self):
        n = self.graph_nodes
        if n > MAX_GRAPH_NODES:
            raise ConfigError(f"graph nodes must be <= {MAX_GRAPH_NODES}, got {n}")
        if not (0.0 <= self.activation_p <= 1.0):
            raise ConfigError(f"activation probability must be in [0,1], got {self.activation_p}")
        if not (1 <= self.seed_set_size <= n):
            raise ConfigError(
                f"seed set size must be in [1, {n}] for {n} graph nodes, got {self.seed_set_size}"
            )
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.n_target > MAX_NODES:
            raise ConfigError(f"subgraph size must be <= {MAX_NODES}, got {self.n_target}")
        if not (1 <= self.n_target <= n):
            raise ConfigError(
                f"subgraph size must be in [1, {n}] for {n} graph nodes, got {self.n_target}"
            )
        if not (0.0 <= self.ws_beta <= 1.0):
            raise ConfigError(f"rewiring probability must be in [0,1], got {self.ws_beta}")
        if not (0.0 <= self.restart_p < 1.0):
            raise ConfigError(f"restart probability must be in [0,1), got {self.restart_p}")
        # the ranges in which the base graph is defined and can be connected
        if self.graph_model == "watts_strogatz":
            if not (2 <= self.ws_k <= n):
                raise ConfigError(f"ws_k must be in [2, {n}] for {n} graph nodes, got {self.ws_k}")
        elif self.graph_model == "barabasi_albert":
            if not (1 <= self.ba_m < n):
                raise ConfigError(f"ba_m must be in [1, {n}) for {n} graph nodes, got {self.ba_m}")
        else:
            raise ConfigError(f"unknown graph model '{self.graph_model}'")
        check_seed(self.seed)


def cascade_rounds(
    g: UndirectedGraph, seeds, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Activation round per node (-1 if never active); seeds are round 0."""
    seeds = sorted(set(int(s) for s in seeds))
    neighbors = g.neighbors
    rounds = [-1] * g.n
    for s in seeds:
        if not (0 <= s < g.n):
            raise ConfigError(f"seed {s} out of range")
        rounds[s] = 0
    saved = rng.bit_generator.state
    draws: list[float] = []
    used = 0
    frontier = seeds
    r = 0
    while frontier:
        r += 1
        newly: list[int] = []
        for u in frontier:
            if used + len(neighbors[u]) > len(draws):
                draws += rng.random(max(_DRAW_BLOCK, len(neighbors[u]))).tolist()
            for v in neighbors[u]:
                if rounds[v] == -1:
                    if draws[used] < p:
                        rounds[v] = r
                        newly.append(v)
                    used += 1
        newly.sort()
        frontier = newly
    rng.bit_generator.state = saved
    rng.random(used)
    return np.array(rounds, dtype=np.int64)


def _watts_strogatz(n: int, k: int, beta: float, rnd: random.Random) -> list[set[int]]:
    """Neighbour sets of a ring lattice (each node joined to its k // 2
    nearest on either side) whose edges (u, u + j) are rewired to (u, w)
    with probability beta, j outer and u inner, with w drawn uniformly
    again until it is neither u nor a neighbour of u."""
    if k == n:
        return [set(range(n)) - {u} for u in range(n)]
    adj = [{(u + j) % n for j in range(-(k // 2), k // 2 + 1) if j} for u in range(n)]
    nodes = list(range(n))
    for j in range(1, k // 2 + 1):
        for u in range(n):
            if rnd.random() < beta:
                w = rnd.choice(nodes)
                while w == u or w in adj[u]:
                    w = rnd.choice(nodes)
                    if len(adj[u]) >= n - 1:
                        break  # u is joined to every node: keep the edge
                else:
                    v = (u + j) % n
                    adj[u].remove(v)
                    adj[v].remove(u)
                    adj[u].add(w)
                    adj[w].add(u)
    return adj


def _is_connected(adj: list[set[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def _barabasi_albert(n: int, m: int, rnd: random.Random) -> list[tuple[int, int]]:
    """Edges of a star on m + 1 nodes grown to n nodes, each new node
    joined to m distinct targets drawn from the edge ends so far."""
    edges = [(0, t) for t in range(1, m + 1)]
    ends = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rnd.choice(ends))
        edges += [(source, t) for t in targets]
        ends += targets  # in the set's order, which later draws index
        ends += [source] * m
    return edges


def build_base_graph(cfg: CascadeConfig) -> UndirectedGraph:
    """The Watts–Strogatz graph of the first connected try, or the
    Barabási–Albert graph, drawn from the base-graph stream."""
    n = cfg.graph_nodes
    rnd = random.Random(derive_seed(cfg.seed, "base-graph"))
    if cfg.graph_model == "barabasi_albert":
        return UndirectedGraph.from_edges(n, _barabasi_albert(n, cfg.ba_m, rnd))
    for _ in range(_MAX_TRIES):  # one generator across the tries
        adj = _watts_strogatz(n, cfg.ws_k, cfg.ws_beta, rnd)
        if _is_connected(adj):
            edges = ((u, v) for u in range(n) for v in adj[u] if u < v)
            return UndirectedGraph.from_edges(n, edges)
    raise DataError(
        f"no connected Watts–Strogatz graph in {_MAX_TRIES} tries with graph_nodes={n}, "
        f"ws_k={cfg.ws_k}, ws_beta={cfg.ws_beta}, seed={cfg.seed}; "
        "raise ws_k or lower ws_beta"
    )


def _candidate_egos(adj: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Inactive nodes with an active node within two hops."""
    one_hop = adj @ active > 0
    two_hop = adj @ one_hop.astype(adj.dtype) > 0
    near = one_hop | two_hop | (active > 0)
    return np.flatnonzero(near & (active == 0))


def _stratified_split(labels: list[int], rng: np.random.Generator) -> dict[str, list[int]]:
    """75 / 12.5 / 12.5 train/valid/test, stratified by label."""
    splits: dict[str, list[int]] = {"train": [], "valid": [], "test": []}
    for cls in (0, 1):
        idx = [i for i, y in enumerate(labels) if y == cls]
        idx = [idx[k] for k in rng.permutation(len(idx))]
        n_test = max(1, round(0.125 * len(idx)))
        n_valid = max(1, round(0.125 * len(idx)))
        splits["test"].extend(idx[:n_test])
        splits["valid"].extend(idx[n_test : n_test + n_valid])
        splits["train"].extend(idx[n_test + n_valid :])
    for part in splits.values():
        part.sort()
    return splits


def generate_dataset(cfg: CascadeConfig) -> Dataset:
    """Emit cfg.samples ego samples from independent cascades on one base
    graph. Aborts with DataError when the configuration produces a single
    class (for example p = 0)."""
    base = build_base_graph(cfg)
    # float64 so that both products run in BLAS; sums of 0/1 entries are exact
    base_adj = base.adjacency.astype(np.float64)
    samples: list[EgoSample] = []
    for idx in range(cfg.samples):
        sample = None
        for attempt in range(_MAX_ATTEMPTS):
            rng = stream(cfg.seed, "cascade", idx, attempt)
            seeds = rng.choice(cfg.graph_nodes, size=cfg.seed_set_size, replace=False)
            rounds = cascade_rounds(base, seeds, cfg.activation_p, rng)
            active = (rounds == 0).astype(np.float64)  # observation at seeding time
            candidates = _candidate_egos(base_adj, active)
            if candidates.size == 0:
                continue
            ego = int(candidates[rng.integers(candidates.size)])
            label = int(rounds[ego] == 1)
            sub = rwr_sample(
                base, ego, cfg.n_target, cfg.restart_p, stream(cfg.seed, "rwr", idx, attempt)
            )
            if sub.truncated:
                continue
            state = active[list(sub.node_ids)].astype(np.int8)
            sample = EgoSample(
                graph=sub.graph,
                ego=sub.ego,
                influence_state=state,
                label=label,
                sample_id=f"s{idx:05d}",
            )
            break
        if sample is None:
            raise DataError(
                f"could not build sample {idx} after {_MAX_ATTEMPTS} attempts; "
                "base graph too small or too sparse for the requested subgraph size"
            )
        samples.append(sample)

    labels = [s.label for s in samples]
    positives = sum(labels)
    if positives == 0 or positives == len(labels):
        raise DataError(
            f"degenerate cascade config: all {len(labels)} labels are "
            f"{labels[0]}; adjust activation_p or the seed set size"
        )
    splits = _stratified_split(labels, stream(cfg.seed, "split"))
    metadata = {
        "source": "synthetic-independent-cascade",
        "seed": cfg.seed,
        "graph_model": cfg.graph_model,
        "graph_nodes": cfg.graph_nodes,
        "activation_p": cfg.activation_p,
        "positives": positives,
        "negatives": len(labels) - positives,
    }
    return Dataset(samples=samples, splits=splits, metadata=metadata)
