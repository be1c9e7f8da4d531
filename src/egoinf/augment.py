"""Stochastic edge addition driven by decoded edge probabilities.

A trained variational autoencoder scores every node pair; pairs above the
threshold that are not already edges become candidates, and each candidate
is added independently with its own probability. Augmented samples only
ever gain edges; ego, state and label are untouched.

Node pairs i < j have one order, row-major as ``np.triu_indices(n, 1)``
gives it (``_pairs``). A copy draws one uniform per pair in that order,
n(n-1)/2 doubles whatever its candidates, and keeps a candidate whose
uniform is below its probability. So copies are coupled across thresholds:
raising the threshold can only remove added edges.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape
from .autoenc import VgaeModel, stacked_decode, vgae_encode
from .errors import ConfigError
from .features import FeatureBundle
from .graphs import EgoSample, UndirectedGraph
from .rng import check_seed, stream


@dataclass(frozen=True)
class AugmentationConfig:
    threshold: float = 0.8
    count: int = 3
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.threshold <= 1.0):
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.count < 0:
            raise ConfigError(f"augmentation count must be >= 0, got {self.count}")
        check_seed(self.seed, "augmentation seed")


def edge_probabilities(vgae: VgaeModel, fb: FeatureBundle) -> np.ndarray:
    """Decode deterministic (eval mode, Z = mean) edge probabilities for one
    sample's bundle: a read-only symmetric n x n array, entries in (0, 1),
    diagonal unused."""
    tape = Tape(grad=False)
    z, _, _ = vgae_encode(tape, vgae, fb)
    probs = stacked_decode(tape, z, fb.n).values
    probs.flags.writeable = False
    return probs


@functools.cache
def _pairs(n: int) -> np.ndarray:
    """The node pairs i < j in pair order, as a shared read-only (2, m) array."""
    pairs = np.array(np.triu_indices(n, k=1))
    pairs.flags.writeable = False
    return pairs


def candidate_edges(
    probs: np.ndarray, adjacency: np.ndarray, threshold: float
) -> list[tuple[int, int]]:
    """Non-edges i < j whose probability strictly exceeds the threshold, in pair order."""
    adj = np.asarray(adjacency)
    if adj.shape != probs.shape:
        raise ConfigError(f"candidate_edges: adjacency {adj.shape} vs probs {probs.shape}")
    i, j = _pairs(probs.shape[0])
    keep = (adj[i, j] == 0) & (probs[i, j] > threshold)
    return list(zip(i[keep].tolist(), j[keep].tolist()))


def sample_augmentation(
    graph: UndirectedGraph,
    candidates: list[tuple[int, int]],
    probs: np.ndarray,
    rng: np.random.Generator,
) -> UndirectedGraph:
    """The graph plus each candidate edge, added independently with its
    decoded probability."""
    pairs = _pairs(graph.n)
    u = np.zeros((graph.n, graph.n))
    u[tuple(pairs)] = rng.random(pairs.shape[1])
    i, j = np.array(candidates, dtype=np.intp).reshape(-1, 2).T
    keep = u[i, j] < probs[i, j]
    adj = np.array(graph.adjacency, dtype=np.int8)
    adj[np.r_[i[keep], j[keep]], np.r_[j[keep], i[keep]]] = 1
    return UndirectedGraph(adj)


def generate_augmentations(
    sample: EgoSample,
    vgae: VgaeModel,
    cfg: AugmentationConfig,
    fb: FeatureBundle,
) -> list[EgoSample]:
    """Q independent augmented copies of the sample, decoded from its
    bundle, copy k named ``<id>#a<k>``; copy k draws from the stream keyed
    by (master seed, sample id, k), so results do not depend on call
    order."""
    if cfg.count == 0:
        return []
    probs = edge_probabilities(vgae, fb)
    candidates = candidate_edges(probs, sample.graph.adjacency, cfg.threshold)
    out = []
    for k in range(cfg.count):
        rng = stream(cfg.seed, "aug", sample.sample_id, k)
        graph = sample_augmentation(sample.graph, candidates, probs, rng)
        out.append(replace(sample, graph=graph, sample_id=f"{sample.sample_id}#a{k}"))
    return out
