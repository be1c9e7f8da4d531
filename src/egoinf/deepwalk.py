"""Node embeddings from uniform random walks and skip-gram with negative
sampling, fit with plain SGD on numpy arrays.

Walks: all ``walks_per_node * n`` walkers advance together, one time step
per loop iteration, over a CSR neighbour list of the adjacency rows. A
walker stops early at a sink (a node with no neighbour in its row), so
isolated nodes produce no training pairs and keep their initialization.

Pairs: (center, context) pairs come from index arithmetic on the
(walks x length) matrix, in the order of a nested loop over walks, center
positions and context positions.

SGD: each step counts its pairs into two dense n x n matrices, P
(positive pairs) and T (positive plus negative pairs), and updates every
node at once: with G = T * sigmoid(W_in W_out^T) - P, the per-node summed
gradients are G W_out and G^T W_in. A step costs O(n^2 * dim), which fits
ego subgraphs of tens of nodes; graphs of thousands of nodes would want a
sparse update.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graphs import UndirectedGraph


def _walk_matrix(
    g: UndirectedGraph,
    walks_per_node: int,
    walk_length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(walks_per_node * n, max(walk_length, 1)) node ids, -1 past the point
    where a walker stopped. Walker r * n + v starts at node v."""
    n = g.n
    rows, indices = np.nonzero(g.adjacency)
    deg = np.bincount(rows, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(deg)])
    walks = np.full((walks_per_node * n, max(walk_length, 1)), -1, dtype=np.int64)
    cur = np.tile(np.arange(n), walks_per_node)
    walks[:, 0] = cur
    alive = np.arange(cur.size)
    for t in range(1, walk_length):
        moving = deg[cur] > 0
        alive, cur = alive[moving], cur[moving]
        if alive.size == 0:
            break
        cur = indices[indptr[cur] + rng.integers(0, deg[cur])]
        walks[alive, t] = cur
    return walks


def random_walks(
    g: UndirectedGraph,
    walks_per_node: int,
    walk_length: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Uniform random walks, ``walks_per_node`` from every node, each
    stopping early at a sink."""
    return [w[w >= 0].tolist() for w in _walk_matrix(g, walks_per_node, walk_length, rng)]


def _pair_positions(length: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) positions in a walk of ``length`` steps, ordered by
    center, then by context."""
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    center = np.repeat(np.arange(length), offsets.size)
    context = center + np.tile(offsets, length)
    keep = (context >= 0) & (context < length)
    return center[keep], context[keep]


def skipgram_pairs(walk: list[int], window: int) -> list[tuple[int, int]]:
    """(center, context) pairs within the window, both directions."""
    tokens = np.asarray(walk)
    center, context = _pair_positions(tokens.size, window)
    return list(zip(tokens[center].tolist(), tokens[context].tolist()))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def deepwalk_embed(
    g: UndirectedGraph,
    dim: int = 64,
    walks_per_node: int = 10,
    walk_length: int = 40,
    window: int = 5,
    negatives: int = 5,
    rng: np.random.Generator | None = None,
    epochs: int = 5,
    lr: float = 0.05,
) -> np.ndarray:
    """Train skip-gram with negative sampling over random walks and return
    the n x dim input embedding matrix."""
    if dim < 1:
        raise ConfigError(f"embedding dim must be >= 1, got {dim}")
    if walks_per_node < 0 or negatives < 0:
        raise ConfigError(
            f"walks per node and negatives must be >= 0, got {walks_per_node} and {negatives}"
        )
    if rng is None:
        raise ConfigError("deepwalk_embed requires an explicit rng stream")
    n = g.n
    w_in = (rng.random((n, dim)) - 0.5) / dim
    w_out = np.zeros((n, dim))

    walks = _walk_matrix(g, walks_per_node, walk_length, rng)
    center_pos, context_pos = _pair_positions(walks.shape[1], window)
    centers, contexts = walks[:, center_pos], walks[:, context_pos]
    # a pair exists where both ends lie inside the walk (padding is -1)
    inside = (centers >= 0) & (contexts >= 0)
    centers, contexts = centers[inside], contexts[inside]
    npairs = centers.size
    if npairs == 0:
        return w_in

    # negatives drawn from the unigram distribution of walk tokens ^ 0.75
    noise = np.bincount(walks[walks >= 0], minlength=n).astype(np.float64) ** 0.75
    noise /= noise.sum()

    # Each pair becomes 1 + negatives keys into a (2, n, n) count array:
    # row-major index of (center, context) in block 0, of (center, negative)
    # in block 1.
    pos_keys = centers * n + contexts
    batch = max(64, 4 * n)  # small chunks: many steps per epoch, SGD-like
    for _ in range(epochs):
        neg = rng.choice(n, size=(npairs, negatives), p=noise)
        order = rng.permutation(npairs)
        keys = np.hstack([pos_keys[:, None], n * n + centers[:, None] * n + neg])[order]
        for lo in range(0, npairs, batch):
            counts = np.bincount(keys[lo : lo + batch].ravel(), minlength=2 * n * n)
            pos = counts[: n * n].reshape(n, n)
            total = pos + counts[n * n :].reshape(n, n)
            # summed per-pair gradients: positive pairs (label 1) contribute
            # sigmoid(s) - 1, negative pairs (label 0) sigmoid(s)
            grad = total * _sigmoid(w_in @ w_out.T) - pos
            grad_in = grad @ w_out
            grad_out = grad.T @ w_in
            # summed per-node gradients divided by appearance counts, so a
            # node's step stays bounded by lr regardless of its frequency
            count_in = np.maximum(pos.sum(axis=1), 1)
            count_out = np.maximum(total.sum(axis=0), 1)
            w_in -= lr * grad_in / count_in[:, None]
            w_out -= lr * grad_out / count_out[:, None]
    return w_in
