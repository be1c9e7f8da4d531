"""Brute-force reference implementations shared by the unit and acceptance
tests. These stay deliberately loop-based and independent of the library
code paths they check. Beside them: the finite-difference grad_check;
gat_attention and random_walks, which expose library intermediates (the
attention matrices, the walks) in the form the tests compare; and the
recording_* inference references, which run the library's forwards on a
recording tape, for the no-grad inference tapes to match bit for bit; and
per_graph_pretrain, the autoencoder pretraining one tape per graph, for the
stacked pretraining to match in value."""
import math

import numpy as np

from egoinf.errors import ConfigError, DimensionError


def random_adjacency(n, rng, p=0.4):
    a = (rng.random((n, n)) < p).astype(float)
    a = np.triu(a, 1)
    return a + a.T


def one_hot_bundle(adj):
    """The graph's feature bundle with one-hot rows as its node features."""
    from egoinf.features import FeatureBundle

    return FeatureBundle(np.eye(adj.shape[0]), adj)


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


def gat_head(layer, k):
    """Head k's projection (f_in, f_out) and attention vector (2*f_out, 1):
    column block k of a GatLayer's stacked matrices."""
    fp = layer.f_out
    return layer.weight[:, k * fp : (k + 1) * fp], layer.att[:, k : k + 1]


def gat_attention(tape, layer, h, adj):
    """The fused kernel's per-head attention matrices for a GatLayer, as
    constant leaves on tape; rows sum to 1 over neighbours plus self."""
    from egoinf.autodiff import attention_weights
    from egoinf.layers import LEAKY_SLOPE, attention_layout

    alpha, _ = attention_weights(
        h.values @ layer.weight, layer.att, attention_layout(adj), layer.heads, LEAKY_SLOPE
    )
    return [tape.leaf(a) for a in alpha]


def row_softmax_masked(tape, a, mask):
    """Softmax per row restricted to mask=1 entries, masked entries 0, as a
    node on tape: the generic primitive the per-head GAT reference uses.

    Every row must have at least one unmasked entry.
    """
    m = np.asarray(mask)
    if m.shape != a.shape:
        raise DimensionError(f"row_softmax_masked: {a.shape} vs mask {m.shape}")
    keep = m != 0
    if not keep.any(axis=1).all():
        bad = int(np.flatnonzero(~keep.any(axis=1))[0])
        raise ConfigError(f"masked softmax: row {bad} fully masked")
    x = np.where(keep, a.values, -np.inf)
    x = x - x.max(axis=1, keepdims=True)
    e = np.where(keep, np.exp(x), 0.0)
    alpha = e / e.sum(axis=1, keepdims=True)

    def bw(g):
        dot = (g * alpha).sum(axis=1, keepdims=True)
        return (alpha * (g - dot),)

    return tape._record(alpha, (a,), bw)


def leaky_relu(tape, a, slope):
    """max(x, slope * x) entrywise, as a node on tape: the generic primitive
    the per-head GAT reference scores with."""
    pos = a.values > 0
    y = np.where(pos, a.values, slope * a.values)
    return tape._record(y, (a,), lambda g: (g * np.where(pos, 1.0, slope),))


def tape_sum(tape, a):
    """Sum of every entry of a, as a 1x1 node on tape: a scalar loss for
    the gradient tests."""
    shape = a.shape
    return tape._record(
        a.values.sum().reshape(1, 1), (a,), lambda g: (np.full(shape, g[0, 0]),)
    )


def tape_transpose(tape, a):
    """The transpose of a, as a node on tape."""
    return tape._record(a.values.T.copy(), (a,), lambda g: (g.T,))


def tape_mean(tape, a):
    """Mean of every entry of a, as a 1x1 node on tape."""
    shape, size = a.shape, a.values.size
    return tape._record(
        a.values.mean().reshape(1, 1), (a,), lambda g: (np.full(shape, g[0, 0] / size),)
    )


def oracle_gat_chain(tape, layer, h, adj, slope=0.2):
    """A GAT layer built head by head from generic tape primitives: head k
    as column block k of the stacked weight and attention matrices, slices
    of the attention vector, broadcasts as matmuls against ones, leaky-ReLU
    and a masked row softmax per head, then the concat or the mean. The
    per-head reference for the fused gat_forward, values and gradients."""
    n = h.rows
    fp = layer.f_out
    mask = np.asarray(adj, dtype=np.float64) + np.eye(n)
    weight, att = tape.leaf(layer.weight), tape.leaf(layer.att)
    outputs = []
    for k in range(layer.heads):
        hw = tape.matmul(h, tape.slice_cols(weight, k * fp, (k + 1) * fp))
        a = tape.slice_cols(att, k, k + 1)
        f = tape.matmul(hw, tape.slice_rows(a, 0, fp))
        g = tape.matmul(hw, tape.slice_rows(a, fp, 2 * fp))
        scores = tape.add(
            tape.matmul(f, tape.leaf(np.ones((1, n)))),
            tape.matmul(tape.leaf(np.ones((n, 1))), tape_transpose(tape, g)),
        )
        alpha = row_softmax_masked(tape, leaky_relu(tape, scores, slope), mask)
        outputs.append(tape.matmul(alpha, hw))
    if layer.concat:
        out = tape.concat_cols(outputs)
    else:
        out = outputs[0]
        for o in outputs[1:]:
            out = tape.add(out, o)
        out = tape.scale(out, 1.0 / layer.heads)
    return out


def oracle_elu(x):
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def oracle_layer(layer, h, adj):
    """One head layer without activation: a GAT layer head by head through
    oracle_gat_attention, heads concatenated or averaged; a GCN layer as
    A_hat H W."""
    if not hasattr(layer, "att"):
        return oracle_normalized_adjacency(adj) @ h @ layer.weight
    outs = []
    for k in range(layer.heads):
        w, a = gat_head(layer, k)
        outs.append(oracle_gat_attention(h, w, a, adj) @ (h @ w))
    return np.hstack(outs) if layer.concat else sum(outs) / layer.heads


def oracle_sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def oracle_masked_sigmoid(x):
    """The logistic function by boolean masks: 1/(1+exp(-x)) where x >= 0,
    exp(x)/(1+exp(x)) elsewhere, so neither exp overflows."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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


def random_walks(g, walks_per_node, walk_length, rng):
    """The library's walks as lists of node ids, ``walks_per_node`` from
    every node, each stopping early at a sink."""
    from egoinf.deepwalk import _walk_matrix

    return [w[w >= 0].tolist() for w in _walk_matrix(g, walks_per_node, walk_length, rng)]


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


def oracle_deepwalk_embed(
    g, dim=64, walks_per_node=10, walk_length=40, window=5, negatives=5, rng=None,
    epochs=5, lr=0.05,
):
    """deepwalk_embed as a dense update per step, in its plainest numpy: keys
    into a (2, n, n) count array per step, ``rng.choice`` for the negatives,
    and the sigmoid and the updates as written expressions. The same stream
    in the same order: init, walks, then per epoch the negatives and the
    permutation. Walks come from the library's walk matrix through
    random_walks, which the walk tests pin; pairs from
    oracle_skipgram_pairs."""
    n = g.n
    w_in = (rng.random((n, dim)) - 0.5) / dim
    w_out = np.zeros((n, dim))
    walks = random_walks(g, walks_per_node, walk_length, rng)
    pairs = [p for walk in walks for p in oracle_skipgram_pairs(walk, window)]
    if not pairs:
        return w_in
    centers = np.array([p[0] for p in pairs])
    contexts = np.array([p[1] for p in pairs])
    npairs = centers.size
    tokens = np.concatenate([np.array(w) for w in walks])
    noise = np.bincount(tokens, minlength=n).astype(np.float64) ** 0.75
    noise /= noise.sum()

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))

    pos_keys = centers * n + contexts
    batch = max(64, 4 * n)
    for _ in range(epochs):
        neg = rng.choice(n, size=(npairs, negatives), p=noise)
        order = rng.permutation(npairs)
        keys = np.hstack([pos_keys[:, None], n * n + centers[:, None] * n + neg])[order]
        for lo in range(0, npairs, batch):
            counts = np.bincount(keys[lo : lo + batch].ravel(), minlength=2 * n * n)
            pos = counts[: n * n].reshape(n, n)
            total = pos + counts[n * n :].reshape(n, n)
            grad = total * sigmoid(w_in @ w_out.T) - pos
            grad_in = grad @ w_out
            grad_out = grad.T @ w_in
            count_in = np.maximum(pos.sum(axis=1), 1)
            count_out = np.maximum(total.sum(axis=0), 1)
            w_in -= lr * grad_in / count_in[:, None]
            w_out -= lr * grad_out / count_out[:, None]
    return w_in


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


def oracle_cascade_rounds(g, seeds, p, rng):
    """cascade_rounds with one scalar draw per edge check: each frontier node,
    in ascending order, tries its neighbours in ascending order and draws
    only for those still inactive."""
    seeds = sorted(set(int(s) for s in seeds))
    for s in seeds:
        if not (0 <= s < g.n):
            raise ConfigError(f"seed {s} out of range")
    adj = g.adjacency
    rounds = np.full(g.n, -1, dtype=np.int64)
    rounds[seeds] = 0
    frontier = seeds
    r = 0
    while frontier:
        r += 1
        newly = []
        for u in frontier:
            for v in np.flatnonzero(adj[u]):
                if rounds[v] == -1 and rng.random() < p:
                    rounds[v] = r
                    newly.append(int(v))
        frontier = sorted(set(newly))
    return rounds


def oracle_rwr_sample(g, ego, n_target, restart_p, rng):
    """rwr_sample with each node's neighbours rebuilt from the adjacency on
    every call: one scalar draw per step, then one integer draw when the
    walk moves."""
    from egoinf.graphs import UndirectedGraph
    from egoinf.sampling import SampledSubgraph

    if not (0 <= ego < g.n):
        raise ConfigError(f"ego {ego} out of range for {g.n}-node graph")
    if n_target < 1:
        raise ConfigError(f"n_target must be >= 1, got {n_target}")
    adj = g.adjacency
    neighbors = [np.flatnonzero(adj[v]) for v in range(g.n)]
    visited = {ego}
    current = ego
    cap = 50 * n_target
    steps = 0
    while len(visited) < n_target and steps < cap:
        steps += 1
        nbrs = neighbors[current]
        if rng.random() < restart_p or nbrs.size == 0:
            current = ego
            continue
        current = int(nbrs[rng.integers(nbrs.size)])
        visited.add(current)
    ids = sorted(visited)
    sub_adj = adj[np.ix_(ids, ids)]
    return SampledSubgraph(
        graph=UndirectedGraph(sub_adj),
        ego=ids.index(ego),
        node_ids=tuple(ids),
        truncated=len(visited) < n_target,
    )


def oracle_candidate_egos(adj, active):
    """Inactive nodes with an active node within two hops, by integer
    matrix-vector products."""
    adj = np.asarray(adj).astype(np.int64)
    active = np.asarray(active).astype(np.int64)
    one_hop = adj @ active > 0
    two_hop = adj @ one_hop.astype(np.int64) > 0
    near = one_hop | two_hop | (active > 0)
    return np.flatnonzero(near & (active == 0))


def grad_check(f, params, step=1e-5, tol=1e-4):
    """Compare analytic gradients of f against central finite differences.

    f maps a dict of named matrices to (loss, gradient dict). Returns a
    GradCheckReport; ``passed`` is True when the max relative error over
    all coordinates stays within tol.
    """
    _, analytic = f(params)
    work = {k: v.copy() for k, v in params.items()}
    max_rel = 0.0
    worst = None
    for name, arr in work.items():
        ga = analytic[name]
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi, _ = f(work)
            flat[i] = orig - step
            lo, _ = f(work)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = ga.reshape(-1)[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            if rel > max_rel:
                max_rel = rel
                worst = (name, i)
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel <= tol, worst=worst)


class GradCheckReport:
    """Outcome of one finite-difference sweep."""

    __slots__ = ("max_rel_err", "passed", "worst")

    def __init__(self, max_rel_err, passed, worst):
        self.max_rel_err = max_rel_err
        self.passed = passed
        self.worst = worst

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"GradCheckReport({state}, max_rel_err={self.max_rel_err:.3e}, worst={self.worst})"


def recording_frozen_encode(gae, fb):
    """``training.frozen_encode`` on a recording tape."""
    from egoinf.autodiff import Tape
    from egoinf.autoenc import gae_encode

    tape = Tape()
    return gae_encode(tape, gae, fb).values


def recording_edge_probabilities(vgae, fb):
    """``augment.edge_probabilities`` on a recording tape."""
    from egoinf.autodiff import Tape
    from egoinf.autoenc import stacked_decode, vgae_encode

    tape = Tape()
    z, _, _ = vgae_encode(tape, vgae, fb)
    return stacked_decode(tape, z, fb.n).values


def recording_predict(model, sample, abl, vgae, cfg, store):
    """``training.predict`` with a recording tape per variant: the mean
    class-1 probability over the sample and its test-time copies."""
    from egoinf.autodiff import Tape
    from egoinf.autoenc import gae_encode
    from egoinf.layers import prediction_forward, softmax_row
    from egoinf.training import augmented_copies

    variants = [sample]
    if abl.test_aug and cfg.aug.count > 0:
        variants += augmented_copies(sample, vgae, cfg.aug, store)
    probs = []
    for v in variants:
        fb = store.bundle(v)
        tape = Tape()
        z = gae_encode(tape, model.gae, fb)
        h0 = tape.concat_cols([z, tape.leaf(fb.encoder_input)])
        logits = prediction_forward(tape, model.head, h0, fb)
        probs.append(softmax_row(logits.values, v.ego)[1])
    return float(np.mean(probs))


def per_graph_pretrain_loss(tape, model, fb, noise):
    """One graph's pretraining loss on its own tape, with its parts by name:
    the VGAE's reconstruction plus KL (model a VgaeModel, noise its fixed
    epsilon), or the GAE's reconstruction (noise None)."""
    from egoinf.autoenc import gae_encode, reconstruction_ce, vgae_encode

    if noise is None:
        z = gae_encode(tape, model, fb)
        ce = reconstruction_ce(tape, z, fb)
        return ce, {"ce": float(ce.values[0, 0])}
    z, mu, logvar = vgae_encode(tape, model, fb, noise=noise)
    ce = reconstruction_ce(tape, z, fb)
    kl = tape.gaussian_kl(mu, logvar)
    return tape.add(ce, kl), {"ce": float(ce.values[0, 0]), "kld": float(kl.values[0, 0])}


def per_graph_pretrain(model, bundles, cfg, variational):
    """``autoenc.train_vgae`` (variational) or ``train_gae`` with one tape per
    graph per epoch: Adagrad on the mean of the per-graph gradients, the
    VGAE's noise drawn per graph from (seed, "vgae-eps", graph index).
    Returns the trace: per epoch the parts' means over the graphs and their
    sum as total."""
    from egoinf.optim import Adagrad, mean_gradient_step
    from egoinf.rng import stream

    noise = [
        stream(cfg.seed, "vgae-eps", gi).standard_normal((fb.n, model.d)) if variational else None
        for gi, fb in enumerate(bundles)
    ]
    opt = Adagrad(model.parameters(), lr=cfg.lr, eps=cfg.adagrad_eps)
    trace = []
    for _ in range(cfg.epochs):
        records = mean_gradient_step(
            opt,
            list(zip(bundles, noise)),
            lambda tape, item: per_graph_pretrain_loss(tape, model, *item),
            lambda item, exc: f"diverged: {exc}",
        )
        row = {key: sum(r[key] for r in records) / len(records) for key in records[0]}
        trace.append({**row, "total": sum(row.values())})
    return trace


def oracle_sample_augmentation(graph, candidates, probs, rng):
    """One augmented copy, candidate by candidate: one uniform per node pair
    i < j drawn in row-major order, and candidate (i, j) added in both
    triangles when its pair's uniform is below its probability."""
    from egoinf.graphs import UndirectedGraph

    n = graph.n
    u = np.zeros((n, n))
    i, j = np.triu_indices(n, k=1)
    u[i, j] = rng.random(i.size)
    adj = np.array(graph.adjacency, dtype=np.int8)
    for i, j in candidates:
        if u[i, j] < probs[i, j]:
            adj[i, j] = 1
            adj[j, i] = 1
    return UndirectedGraph(adj)
