"""Brute-force reference implementations shared by the unit and acceptance
tests. These stay deliberately loop-based and independent of the library
code paths they check."""
import math

import numpy as np


def random_adjacency(n, rng, p=0.4):
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def oracle_normalized_adjacency(a):
    n = a.shape[0]
    at = a + np.eye(n)
    dinv = np.zeros((n, n))
    for i in range(n):
        dinv[i, i] = 1.0 / math.sqrt(at[i].sum())
    return dinv @ at @ dinv


def oracle_gcn(h, w, a_hat):
    n, fo = h.shape[0], w.shape[1]
    out = np.zeros((n, fo))
    for i in range(n):
        for o in range(fo):
            acc = 0.0
            for j in range(n):
                for k in range(h.shape[1]):
                    acc += a_hat[i, j] * h[j, k] * w[k, o]
            out[i, o] = acc
    return out


def oracle_gat_attention(h, w, a_vec, adj, slope=0.2):
    n = h.shape[0]
    fp = w.shape[1]
    hw = h @ w
    alpha = np.zeros((n, n))
    for i in range(n):
        attended = [j for j in range(n) if adj[i, j] or j == i]
        scores = []
        for j in attended:
            e = float(a_vec[:fp, 0] @ hw[i] + a_vec[fp:, 0] @ hw[j])
            scores.append(e if e > 0 else slope * e)
        m = max(scores)
        exps = [math.exp(s - m) for s in scores]
        z = sum(exps)
        for j, e in zip(attended, exps):
            alpha[i, j] = e / z
    return alpha


def oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def toy_two_cluster_graph():
    """Fixed 20-node graph: two dense blocks bridged by two edges."""
    n = 20
    a = np.zeros((n, n))
    for block in (range(0, 10), range(10, 20)):
        block = list(block)
        for i in block:
            for j in block:
                if i < j and (i + j) % 3 != 0:
                    a[i, j] = a[j, i] = 1.0
    a[0, 10] = a[10, 0] = 1.0
    a[5, 15] = a[15, 5] = 1.0
    return a


def oracle_skipgram_pairs(walk, window):
    """(center, context) pairs from a nested loop over center and context
    positions."""
    pairs = []
    for pos, center in enumerate(walk):
        lo = max(0, pos - window)
        hi = min(len(walk), pos + window + 1)
        for other in range(lo, hi):
            if other != pos:
                pairs.append((center, walk[other]))
    return pairs


def oracle_skipgram_sgd(w_in, walks, window, negatives, epochs, lr, rng):
    """Skip-gram with negative sampling over given walks, one scatter per
    gradient term: the per-pair reference for deepwalk_embed's dense update.
    Draws negatives, then a permutation, from rng in every epoch."""
    n, dim = w_in.shape
    w_in = w_in.copy()
    w_out = np.zeros((n, dim))
    pairs = [p for walk in walks for p in oracle_skipgram_pairs(walk, window)]
    if not pairs:
        return w_in
    centers = np.array([p[0] for p in pairs])
    contexts = np.array([p[1] for p in pairs])
    counts = np.bincount(np.concatenate([np.array(w) for w in walks]), minlength=n)
    noise = counts.astype(np.float64) ** 0.75
    noise /= noise.sum()

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))

    npairs = centers.size
    batch = max(64, 4 * n)
    for _ in range(epochs):
        neg = rng.choice(n, size=(npairs, negatives), p=noise)
        order = rng.permutation(npairs)
        for lo in range(0, npairs, batch):
            sel = order[lo : lo + batch]
            c, o, ng = centers[sel], contexts[sel], neg[sel]
            ci = w_in[c]
            po = w_out[o]
            gpos = sigmoid((ci * po).sum(axis=1)) - 1.0
            grad_in = gpos[:, None] * po
            grad_out = gpos[:, None] * ci
            no = w_out[ng]
            gneg = sigmoid(np.einsum("pd,pkd->pk", ci, no))
            grad_in += np.einsum("pk,pkd->pd", gneg, no)
            grad_neg = gneg[:, :, None] * ci[:, None, :]
            acc_in = np.zeros_like(w_in)
            acc_out = np.zeros_like(w_out)
            np.add.at(acc_in, c, grad_in)
            np.add.at(acc_out, o, grad_out)
            np.add.at(acc_out, ng.reshape(-1), grad_neg.reshape(-1, dim))
            count_in = np.maximum(np.bincount(c, minlength=n), 1)
            count_out = np.maximum(
                np.bincount(o, minlength=n) + np.bincount(ng.reshape(-1), minlength=n),
                1,
            )
            w_in -= lr * acc_in / count_in[:, None]
            w_out -= lr * acc_out / count_out[:, None]
    return w_in
