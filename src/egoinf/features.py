"""Per-sample node features and the one graph argument every model reads.

A FeatureBundle holds a sample's encoder input, [influence | deepwalk]
(action status, ego indicator, walk embeddings), and its adjacency, and
derives what the models read from them once, on first read. The VGAE
augmenter, the GAE branch, the reconstruction loss and the head read that
one bundle; the head consumes [Z | encoder input], Z from the branch at
forward time.
Bundles are cached by sample id and adjacency.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .deepwalk import DeepWalkConfig, deepwalk_embed
from .errors import ConfigError
from .graphs import EgoSample
from .layers import EdgeLayout, attention_layout, normalized_adjacency
from .rng import stream


def influence_features(s: EgoSample) -> np.ndarray:
    """n x 2 matrix: column 0 is the node's action status, column 1 marks
    the ego."""
    out = np.zeros((s.n, 2))
    out[:, 0] = s.influence_state
    out[s.ego, 1] = 1.0
    return out


@functools.cache
def off_diagonal(n: int, blocks: int = 1) -> np.ndarray:
    """The n x n mask of off-diagonal entries, ``blocks`` copies stacked by
    rows: read-only and shared."""
    mask = np.tile(1.0 - np.eye(n), (blocks, 1))
    mask.flags.writeable = False
    return mask


def reconstruction_terms(adjacency: np.ndarray) -> tuple[np.ndarray, float]:
    """The reconstruction loss's constant target, the 0/1 adjacency itself,
    and the weight of its positives, pos_weight = #off-diagonal zeros /
    #off-diagonal ones."""
    target = np.asarray(adjacency)
    n = target.shape[0]
    ones = (target * off_diagonal(n)).sum()
    if not ones:
        raise ConfigError("reconstruction_ce: target has no positive entries; pos_weight undefined")
    return target, (n * (n - 1) - ones) / ones


@dataclass(frozen=True)
class FeatureBundle:
    """The one graph argument of every model: per-node features and the 0/1
    adjacency, kept as given (a FeatureStore bundle shares its graph's
    read-only int8 adjacency). The normalized adjacency, attention layout
    and reconstruction terms are each derived once, when first read, so a
    bundle holds only what its readers use, and a bundle of an edgeless
    graph can still be scored."""

    encoder_input: np.ndarray  # n x width, [influence | deepwalk]
    adjacency: np.ndarray  # n x n 0/1

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def width(self) -> int:
        return self.encoder_input.shape[1]

    @functools.cached_property
    def a_hat(self) -> np.ndarray:
        return normalized_adjacency(self.adjacency)

    @functools.cached_property
    def layout(self) -> EdgeLayout:  # adjacency + self-loops
        return attention_layout(self.adjacency)

    @functools.cached_property
    def recon_terms(self) -> tuple[np.ndarray, float]:
        return reconstruction_terms(self.adjacency)


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
        emb = deepwalk_embed(s.graph, self.dw, stream(self.seed, "deepwalk", s.sample_id))
        fb = FeatureBundle(np.hstack([influence_features(s), emb]), s.graph.adjacency)
        self._cache[key] = fb
        return fb
