"""Per-sample node features: action status, ego indicator, walk embeddings.

The prediction head consumes [Z | influence | deepwalk] per node, where Z
comes from the autoencoder branch at forward time. Everything else here is
static per sample and cached by sample id.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deepwalk import deepwalk_embed
from .graphs import EgoSample
from .layers import normalized_adjacency
from .rng import stream


def influence_features(s: EgoSample) -> np.ndarray:
    """n x 2 matrix: column 0 is the node's action status, column 1 marks
    the ego."""
    out = np.zeros((s.n, 2))
    out[:, 0] = s.influence_state
    out[s.ego, 1] = 1.0
    return out


@dataclass(frozen=True)
class FeatureBundle:
    """Static per-sample tensors shared by the encoder and the head."""

    influence: np.ndarray  # n x 2
    deepwalk: np.ndarray  # n x d_w
    adjacency: np.ndarray  # n x n float 0/1
    a_hat: np.ndarray  # normalized adjacency

    @property
    def n(self) -> int:
        return self.influence.shape[0]

    @property
    def encoder_input(self) -> np.ndarray:
        """Autoencoder feature matrix: [influence | deepwalk], n x (2 + d_w)."""
        return np.hstack([self.influence, self.deepwalk])

    @property
    def width(self) -> int:
        return 2 + self.deepwalk.shape[1]


@dataclass(frozen=True)
class DeepWalkConfig:
    dim: int = 64
    walks_per_node: int = 10
    walk_length: int = 40
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.05


def feature_width(dw: DeepWalkConfig) -> int:
    """Per-node feature width under ``dw``: FeatureBundle.width before any
    bundle exists."""
    return 2 + dw.dim


class FeatureStore:
    """Computes and caches FeatureBundles.

    Walk embeddings are drawn from the stream (seed, "deepwalk", sample_id),
    so a sample's features do not depend on which other samples were
    processed first. The cache key includes the adjacency bytes: augmented
    variants built under different settings may share a sample id but not
    a graph.
    """

    def __init__(self, seed: int, dw: DeepWalkConfig):
        self.seed = seed
        self.dw = dw
        self._cache: dict[tuple[str, bytes], FeatureBundle] = {}

    def bundle(self, s: EgoSample) -> FeatureBundle:
        key = (s.sample_id, s.graph.adjacency.tobytes())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        emb = deepwalk_embed(
            s.graph,
            dim=self.dw.dim,
            walks_per_node=self.dw.walks_per_node,
            walk_length=self.dw.walk_length,
            window=self.dw.window,
            negatives=self.dw.negatives,
            rng=stream(self.seed, "deepwalk", s.sample_id),
            epochs=self.dw.epochs,
            lr=self.dw.lr,
        )
        adj = s.graph.adjacency.astype(np.float64)
        fb = FeatureBundle(
            influence=influence_features(s),
            deepwalk=emb,
            adjacency=adj,
            a_hat=normalized_adjacency(adj),
        )
        self._cache[key] = fb
        return fb
