"""Ego subgraph extraction by random walk with restart.

Each step reads one uniform (restart or move) and, when the walk moves,
one bounded integer over the current node's neighbours in ascending order
(``UndirectedGraph.neighbors``, built once per graph). ``_PhiloxWords``
reads both from raw words of the walk's Philox stream, drawn a block at a
time, exactly as ``rng.random()`` and ``rng.integers(degree)`` would: the
samples and the generator's final state are those of the scalar calls.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import UndirectedGraph

# Raw words per draw; a walk at the default settings reads 1,300-1,700.
_BLOCK = 512


class _PhiloxWords:
    """Reads a Philox stream's words as ``Generator.random()`` (a word's top
    53 bits) and ``Generator.integers(k)``, 1 <= k < 2**32 (Lemire's method
    on 32-bit halves, a word's high half kept for the next) read them, and
    ``close`` leaves the generator where those calls would. Other bit
    generators build doubles differently (MT19937 from two 32-bit outputs)."""

    def __init__(self, rng: np.random.Generator, block: int):
        self._bitgen, self._block = rng.bit_generator, block
        if not isinstance(self._bitgen, np.random.Philox):
            raise ConfigError(f"the walk reads Philox words, not {type(self._bitgen).__name__}")
        self._saved = self._bitgen.state
        self._has_half, self._half = self._saved["has_uint32"], self._saved["uinteger"]
        self._uniforms, self._words, self._used = [], [], 0

    def random(self) -> float:
        i = self._used
        if i == len(self._words):
            words = self._bitgen.random_raw(self._block)
            self._uniforms += ((words >> 11) * 2.0**-53).tolist()
            self._words += words.tolist()
        self._used = i + 1
        return self._uniforms[i]

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        self.random()  # steps past the next word, drawing a block if none is left
        word = self._words[self._used - 1]
        self._has_half, self._half = 1, word >> 32
        return word & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self._uint32() * k
        if (m & 0xFFFFFFFF) < k:  # the threshold is below k: most draws skip the modulo
            threshold = (2**32 - k) % k
            while (m & 0xFFFFFFFF) < threshold:
                m = self._uint32() * k
        return m >> 32

    def close(self) -> None:
        self._saved["has_uint32"], self._saved["uinteger"] = self._has_half, self._half
        self._bitgen.state = self._saved
        self._bitgen.random_raw(self._used, output=False)


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
    steps and returns whatever it reached, flagged as truncated. ``rng`` must be Philox."""
    if not (0 <= ego < g.n):
        raise ConfigError(f"ego {ego} out of range for {g.n}-node graph")
    if n_target < 1:
        raise ConfigError(f"n_target must be >= 1, got {n_target}")
    words = _PhiloxWords(rng, _BLOCK)
    neighbors = g.neighbors
    visited: set[int] = {ego}
    current = ego
    cap = 50 * n_target
    steps = 0
    while len(visited) < n_target and steps < cap:
        steps += 1
        nbrs = neighbors[current]
        if words.random() < restart_p or not nbrs:
            current = ego
            continue
        current = nbrs[words.integers(len(nbrs))]
        visited.add(current)
    words.close()
    ids = sorted(visited)
    sub_adj = g.adjacency[np.ix_(ids, ids)]
    return SampledSubgraph(
        graph=UndirectedGraph(sub_adj),
        ego=ids.index(ego),
        node_ids=tuple(ids),
        truncated=len(visited) < n_target,
    )
