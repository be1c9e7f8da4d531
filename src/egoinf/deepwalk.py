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
gradients are G W_out and G^T W_in, divided by each node's row and column
appearances in the step. A step costs O(n^2 * dim), which fits ego
subgraphs of tens of nodes; graphs of thousands of nodes would want a
sparse update. A step is 17 numpy calls: P and T come from ``bincount`` as
float counts, and W_in sits over W_out in one (2n, dim) array, so the two
gradient products fill one buffer that is scaled, divided by the step's
rows of a (steps, 2n, 1) appearance table and subtracted once each. The
sigmoid and the updates run in place in the operation order of the plain
expressions: 1 / (1 + exp(-x)) before the product with T, and
(lr * gradient) / appearances. The embeddings are bit-identical to those
of the plain form, which the tests keep as an oracle.

Negatives: each epoch draws what ``rng.choice(n, (pairs, negatives),
p=noise)`` draws, one uniform per negative, and maps it as ``choice`` does,
through the noise cdf normalised by its last entry. A table over
``_BUCKETS`` equal slices of [0, 1) answers every uniform whose slice holds
no cdf entry; ``searchsorted`` answers the rest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graphs import UndirectedGraph


@dataclass(frozen=True)
class DeepWalkConfig:
    dim: int = 64
    walks_per_node: int = 10
    walk_length: int = 40
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    lr: float = 0.05

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"deepwalk dim must be >= 1, got {self.dim}")
        # zero is valid for each; most zeros leave the initial embeddings untrained
        for name in ("walks_per_node", "walk_length", "window", "negatives", "epochs", "lr"):
            if not getattr(self, name) >= 0:  # written so that NaN fails too
                raise ConfigError(f"deepwalk {name} must be >= 0, got {getattr(self, name)}")


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


def _pair_positions(length: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) positions in a walk of ``length`` steps, ordered by
    center, then by context."""
    offsets = np.concatenate([np.arange(-window, 0), np.arange(1, window + 1)])
    center = np.repeat(np.arange(length), offsets.size)
    context = center + np.tile(offsets, length)
    keep = (context >= 0) & (context < length)
    return center[keep], context[keep]


# Slices of [0, 1) in the negative-sampling table; a power of two, so that
# scaling uniforms and the cdf by it is exact.
_BUCKETS = 4096


def _negative_table(noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cdf of ``noise`` as ``Generator.choice`` normalises it, scaled by
    ``_BUCKETS``, and per slice of [0, 1) the index that every uniform in
    the slice maps to, or -1 where a cdf entry falls inside the slice."""
    cdf = np.cumsum(noise)
    cdf /= cdf[-1]
    cdf *= _BUCKETS
    edges = np.arange(_BUCKETS + 1, dtype=np.float64)
    table = np.searchsorted(cdf, edges[:-1], side="right")
    table[table != np.searchsorted(cdf, edges[1:], side="left")] = -1
    return cdf, table


def _draw_negatives(u: np.ndarray, cdf: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The node ``Generator.choice`` picks for each uniform ``u`` in [0, 1),
    given ``_negative_table``'s output; scales ``u`` by ``_BUCKETS`` in
    place."""
    u *= _BUCKETS
    neg = table.take(u.astype(np.intp))
    mixed = neg < 0
    if mixed.any():
        neg[mixed] = np.searchsorted(cdf, u[mixed], side="right")
    return neg


def deepwalk_embed(
    g: UndirectedGraph, cfg: DeepWalkConfig, rng: np.random.Generator
) -> np.ndarray:
    """Train skip-gram with negative sampling over random walks and return
    the n x cfg.dim input embedding matrix."""
    dim, negatives, lr = cfg.dim, cfg.negatives, cfg.lr
    n = g.n
    w = np.zeros((2 * n, dim))  # W_in over W_out
    w_in, w_out = w[:n], w[n:]
    w_in[...] = (rng.random((n, dim)) - 0.5) / dim

    walks = _walk_matrix(g, cfg.walks_per_node, cfg.walk_length, rng)
    center_pos, context_pos = _pair_positions(walks.shape[1], cfg.window)
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
    cdf, table = _negative_table(noise)

    # Each epoch visits the pairs in a fresh random order, `batch` at a time.
    # Position i of that order falls in step i // batch; in_rows[i] and
    # out_rows[i] are where that step's W_in and W_out rows start in a
    # (steps, 2n) table of per-node appearances.
    batch = max(64, 4 * n)  # small chunks: many steps per epoch, SGD-like
    steps = -(-npairs // batch)
    in_rows = np.arange(npairs) // batch * (2 * n)
    out_rows = in_rows + n
    pos_keys = centers * n + contexts  # row-major index of (center, context)
    ones = np.ones(batch * max(negatives, 1))  # bincount weights: float counts
    grad = np.empty((n, n))
    grad_flat = grad.reshape(-1)
    update = np.empty((2 * n, dim))
    for _ in range(cfg.epochs):
        # the draws of rng.choice(n, (npairs, negatives), p=noise), then the order
        neg = _draw_negatives(rng.random((npairs, negatives)), cdf, table)
        order = rng.permutation(npairs)
        neg = neg.take(order, axis=0)
        center = centers.take(order)
        pos = pos_keys.take(order)
        # appearances per step: a center counts in its row of P, a context
        # or a negative in its column of T
        counts = np.bincount(in_rows + center, minlength=steps * 2 * n)
        counts += np.bincount(out_rows + contexts.take(order), minlength=steps * 2 * n)
        neg += out_rows[:, None]
        counts += np.bincount(neg.ravel(), minlength=steps * 2 * n)
        # from here on neg holds the row-major index of (center, negative)
        center *= n
        center -= out_rows
        neg += center[:, None]
        neg = neg.ravel()
        counts = np.maximum(counts, 1).astype(np.float64).reshape(steps, 2 * n, 1)
        for step in range(steps):
            lo, hi = step * batch, (step + 1) * batch
            p_keys = pos[lo:hi]
            t_keys = neg[lo * negatives : hi * negatives]
            p = np.bincount(p_keys, weights=ones[: p_keys.size], minlength=n * n)
            # out of place: bincount of no keys (negatives=0) gives integers
            t = p + np.bincount(t_keys, weights=ones[: t_keys.size], minlength=n * n)
            # summed per-pair gradients: positive pairs (label 1) contribute
            # sigmoid(s) - 1, negative pairs (label 0) sigmoid(s); grad is
            # T * (1 / (1 + exp(-clip(W_in W_out^T, -30, 30)))) - P, in place.
            # np.dot makes the same BLAS call as @ with less overhead.
            np.dot(w_in, w_out.T, out=grad)
            np.maximum(grad_flat, -30.0, out=grad_flat)
            np.minimum(grad_flat, 30.0, out=grad_flat)
            np.negative(grad_flat, out=grad_flat)
            np.exp(grad_flat, out=grad_flat)
            grad_flat += 1.0
            np.reciprocal(grad_flat, out=grad_flat)
            grad_flat *= t
            grad_flat -= p
            np.dot(grad, w_out, out=update[:n])
            np.dot(grad.T, w_in, out=update[n:])
            # (lr * summed gradient) / appearances, so a node's step stays
            # bounded by lr regardless of its frequency
            update *= lr
            update /= counts[step]
            w -= update
        del neg, pos, order, center  # free before the next epoch's draws
    return w_in
