"""Ego subgraph extraction by random walk with restart.

Each step takes one scalar ``rng.random()`` (restart or move) and, when the
walk moves, one ``rng.integers(degree)`` over the current node's neighbours
in ascending order (``UndirectedGraph.neighbors``, built once per graph).
The two calls interleave through the generator's 32-bit buffer, so they
stay scalar calls in this order: batching either would change which words
of the stream each step reads, and with them every generated sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import UndirectedGraph


@dataclass(frozen=True)
class SampledSubgraph:
    graph: UndirectedGraph
    ego: int  # local index of the ego inside the subgraph
    node_ids: tuple[int, ...]  # original node ids, ascending
    truncated: bool  # walk budget ran out before n_target nodes


def rwr_sample(
    g: UndirectedGraph,
    ego: int,
    n_target: int,
    restart_p: float,
    rng: np.random.Generator,
) -> SampledSubgraph:
    """Collect n_target distinct nodes around the ego by a restarting walk
    and return the induced subgraph. The walk gives up after 50 * n_target
    steps and returns whatever it reached, flagged as truncated."""
    if not (0 <= ego < g.n):
        raise ConfigError(f"ego {ego} out of range for {g.n}-node graph")
    if n_target < 1:
        raise ConfigError(f"n_target must be >= 1, got {n_target}")
    neighbors = g.neighbors
    visited: set[int] = {ego}
    current = ego
    cap = 50 * n_target
    steps = 0
    while len(visited) < n_target and steps < cap:
        steps += 1
        nbrs = neighbors[current]
        if rng.random() < restart_p or not nbrs:
            current = ego
            continue
        current = nbrs[rng.integers(len(nbrs))]
        visited.add(current)
    ids = sorted(visited)
    sub_adj = g.adjacency[np.ix_(ids, ids)]
    return SampledSubgraph(
        graph=UndirectedGraph(sub_adj),
        ego=ids.index(ego),
        node_ids=tuple(ids),
        truncated=len(visited) < n_target,
    )
