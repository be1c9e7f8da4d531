"""Dense fp64 matrices with reverse-mode differentiation on an explicit tape.

Every trainable model in this package is built from the primitives below.
An operation computes its result eagerly in numpy and records a node
(inputs + backward rule) on the Tape unless the tape is no-grad
(``Tape(grad=False)``, for inference); ``Tape.backward`` replays the
records once, in reverse, accumulating gradients, and releases each
node's rule, with the forward arrays it holds, as soon as it has run, so
a tape takes one sweep and a second one is an error. Matrices are always
2-D float64; scalars are 1x1 matrices. B equal-size graphs of n nodes
are stacked by rows, (B*n, f); ``block_matmul`` and ``block_gram`` work on
each graph's block of n rows. Inside an op numpy may use any shape:
``gat_heads`` runs every attention head of a GAT layer as one node and
lays its result out as an (n, H*f) matrix. Its scores and masked
softmax run on the E edges of the caller's ``layers.EdgeLayout`` as
(H, E) arrays, O(H*E); only the coefficients are scattered into a dense
(H, n, n) array, for the BLAS aggregation and its backward products.

Any op whose result contains NaN/Inf raises ``NumericsError`` when it is
computed, on any tape, so divergence is caught where it happens.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericsError

_CLIP = 1e-12  # probability clamp for cross-entropy terms


class Tensor:
    """A 2-D fp64 matrix: one node on a Tape, or a bare value on a no-grad one."""

    __slots__ = ("values", "idx", "parents", "grad_fn")

    def __init__(
        self,
        values: np.ndarray,
        idx: int,
        parents: tuple = (),
        grad_fn: Callable | None = None,
    ):
        self.values = values
        self.idx = idx
        self.parents = parents
        self.grad_fn = grad_fn

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, idx={self.idx})"


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each side takes the form that is exact there
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def attention_weights(
    hw: np.ndarray, att: np.ndarray, layout, heads: int, slope: float
) -> tuple[np.ndarray, tuple]:
    """Graph attention coefficients of all heads at once.

    hw is (n, H*f) with head k's projection in columns k*f:(k+1)*f; att is
    (2f, H) with head k's source half in rows :f and destination half in
    rows f: of column k. Head k scores pair (i, j) as
    leaky_relu(a_src_k . hw_k[i] + a_dst_k . hw_k[j]) and softmaxes each
    row over the mask's nonzero entries, which ``layout`` (a
    ``layers.EdgeLayout`` for n nodes) lists row by row.

    Scores, leaky-ReLU and softmax run on the E edges only, as (H, E)
    arrays, so they cost O(H*E) rather than O(H*n*n). Returns alpha as a
    dense (H, n, n) array, zero where masked, for the BLAS aggregation
    alpha @ hw, and every edge's (H, E) coefficient and leaky-ReLU slope
    (1 or slope), which the backward reuses.
    """
    n = hw.shape[0]
    if att.ndim != 2 or att.shape[1] != heads or att.shape[0] % 2:
        raise DimensionError(f"attention: att {att.shape} for {heads} heads")
    fp = att.shape[0] // 2
    if hw.shape[1] != heads * fp:
        raise DimensionError(f"attention: features {hw.shape} vs att {att.shape}")
    if layout.counts.size != n:
        raise DimensionError(f"attention: layout of {layout.counts.size} nodes for {n}")
    starts, counts = layout.starts, layout.counts
    hw3 = hw.reshape(n, heads, fp).transpose(1, 0, 2)  # (H, n, f)
    a3 = att.reshape(2, fp, heads).transpose(2, 0, 1)  # (H, 2, f): src, dst
    fg = a3 @ hw3.transpose(0, 2, 1)  # (H, 2, n): both terms per node
    scores = fg[:, 0].take(layout.rows, axis=1)
    scores += fg[:, 1].take(layout.cols, axis=1)
    factor = np.where(scores > 0, 1.0, slope)
    scores *= factor
    scores -= np.maximum.reduceat(scores, starts, axis=1).repeat(counts, axis=1)
    e = np.exp(scores, out=scores)
    e /= np.add.reduceat(e, starts, axis=1).repeat(counts, axis=1)
    alpha = np.zeros((heads, n * n))
    alpha[:, layout.flat] = e
    return alpha.reshape(heads, n, n), (e, factor)


class Tape:
    """Ordered record of primitive ops; takes one reverse sweep.

    Nodes only ever reference earlier nodes, so iterating the record
    backwards visits each node exactly once with its output gradient
    fully accumulated. The sweep drops each node's backward rule and
    parent links once the rule has run, so the arrays a rule closes over
    (attention coefficients, dropout factors, cross-entropy terms) are
    freed while the sweep goes on; the gradients stay readable through
    ``grad``. A no-grad tape (grad=False) computes the same values but
    records no node, parent, backward rule or leaf.
    """

    def __init__(self, grad: bool = True):
        self.grad_enabled = grad
        self._swept = False
        self._nodes: list[Tensor] = []
        self._leaves: dict[int, Tensor] = {}
        self._grads: list[np.ndarray | None] = []

    def __len__(self) -> int:
        return len(self._nodes)

    # -- node creation ----------------------------------------------------

    def leaf(self, values) -> Tensor:
        """Wrap an array as a leaf node. The same ndarray object is wrapped
        only once per tape, so fan-out gradients accumulate correctly."""
        if isinstance(values, np.ndarray) and id(values) in self._leaves:
            return self._leaves[id(values)]
        arr = _as_matrix(values)
        node = self._record(arr, (), None)
        # cache only when the node holds the caller's array itself; a
        # converted copy would let the original die and its id be reused
        if arr is values and self.grad_enabled:
            self._leaves[id(values)] = node
        return node

    def _record(self, values: np.ndarray, parents: tuple, grad_fn) -> Tensor:
        if not np.isfinite(values).all():
            raise NumericsError("operation produced non-finite values")
        if not self.grad_enabled:
            return Tensor(values, -1)
        node = Tensor(values, len(self._nodes), parents, grad_fn)
        self._nodes.append(node)
        return node

    # -- primitives --------------------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.cols != b.rows:
            raise DimensionError(f"matmul: {a.shape} @ {b.shape}")
        av, bv = a.values, b.values

        def bw(g):
            return g @ bv.T, av.T @ g

        return self._record(av @ bv, (a, b), bw)

    def block_matmul(self, a: Tensor, h: Tensor) -> Tensor:
        """Row block b of the result is A_b @ H_b: a stacks B constant (n, n)
        blocks by rows, (B*n, n), and h stacks B blocks of n rows. One graph
        is a stack of one. Only h gets a gradient; a is data, such as
        normalized adjacencies."""
        n, f = a.cols, h.cols
        if a.rows != h.rows or a.rows % n:
            raise DimensionError(f"block_matmul: {a.shape} blocks @ {h.shape}")
        a3 = a.values.reshape(-1, n, n)

        def bw(g):
            return ((a3.transpose(0, 2, 1) @ g.reshape(-1, n, f)).reshape(h.shape),)

        return self._record((a3 @ h.values.reshape(-1, n, f)).reshape(h.shape), (h,), bw)

    def block_gram(self, z: Tensor, n: int) -> Tensor:
        """(Z_b Z_b^T + (Z_b Z_b^T)^T) / 2 for each block Z_b of n rows of z,
        stacked by rows as (B*n, n): every block equals its transpose bitwise."""
        if n < 1 or z.rows % n:
            raise DimensionError(f"block_gram: {z.shape} in blocks of {n} rows")
        z3 = z.values.reshape(-1, n, z.cols)
        # a copy, not a view: numpy would multiply a view by its own
        # transpose through syrk, whose rounding differs from gemm's
        zt = z3.transpose(0, 2, 1).copy()
        s = z3 @ zt

        def bw(g):
            g1 = g.reshape(s.shape) * 0.5
            g1 = g1 + g1.transpose(0, 2, 1)
            dz = g1 @ zt.transpose(0, 2, 1) + (z3.transpose(0, 2, 1) @ g1).transpose(0, 2, 1)
            return (dz.reshape(z.shape),)

        return self._record(((s + s.transpose(0, 2, 1)) * 0.5).reshape(z.rows, n), (z,), bw)

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"add: {a.shape} + {b.shape}")
        return self._record(a.values + b.values, (a, b), lambda g: (g, g))

    def hadamard(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise DimensionError(f"hadamard: {a.shape} * {b.shape}")
        av, bv = a.values, b.values
        return self._record(av * bv, (a, b), lambda g: (g * bv, g * av))

    def scale(self, a: Tensor, c: float) -> Tensor:
        c = float(c)
        return self._record(a.values * c, (a,), lambda g: (g * c,))

    def concat_cols(self, parts: Sequence[Tensor]) -> Tensor:
        if not parts:
            raise ConfigError("concat_cols needs at least one input")
        rows = parts[0].rows
        for p in parts:
            if p.rows != rows:
                raise DimensionError(
                    f"concat_cols: row mismatch {[p.shape for p in parts]}"
                )
        widths = [p.cols for p in parts]
        offsets = np.cumsum([0] + widths)

        def bw(g):
            return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(widths)))

        return self._record(
            np.hstack([p.values for p in parts]), tuple(parts), bw
        )

    def slice_rows(self, a: Tensor, start: int, stop: int) -> Tensor:
        if not (0 <= start < stop <= a.rows):
            raise DimensionError(f"slice_rows [{start}:{stop}] of {a.shape}")
        shape = a.shape

        def bw(g):
            full = np.zeros(shape)
            full[start:stop, :] = g
            return (full,)

        return self._record(a.values[start:stop, :].copy(), (a,), bw)

    def slice_cols(self, a: Tensor, start: int, stop: int) -> Tensor:
        if not (0 <= start < stop <= a.cols):
            raise DimensionError(f"slice_cols [{start}:{stop}] of {a.shape}")
        shape = a.shape

        def bw(g):
            full = np.zeros(shape)
            full[:, start:stop] = g
            return (full,)

        return self._record(a.values[:, start:stop].copy(), (a,), bw)

    def sigmoid(self, a: Tensor) -> Tensor:
        y = _sigmoid(a.values)
        return self._record(y, (a,), lambda g: (g * y * (1.0 - y),))

    def relu(self, a: Tensor) -> Tensor:
        pos = a.values > 0
        return self._record(np.where(pos, a.values, 0.0), (a,), lambda g: (g * pos,))

    def elu(self, a: Tensor) -> Tensor:
        x = a.values
        pos = x > 0
        y = np.where(pos, x, np.exp(np.minimum(x, 0.0)) - 1.0)

        def bw(g):
            return (g * np.where(pos, 1.0, y + 1.0),)

        return self._record(y, (a,), bw)

    def clip(self, a: Tensor, lo: float, hi: float) -> Tensor:
        x = a.values
        inside = (x > lo) & (x < hi)
        return self._record(np.clip(x, lo, hi), (a,), lambda g: (g * inside,))

    def exp(self, a: Tensor) -> Tensor:
        y = np.exp(a.values)
        return self._record(y, (a,), lambda g: (g * y,))

    def gat_heads(self, hw: Tensor, att: Tensor, layout, heads: int, slope: float) -> Tensor:
        """Multi-head graph attention as one node: head k's output
        alpha_k @ hw_k lands in columns k*f:(k+1)*f of an (n, H*f) result.

        hw, att and the constant edge layout are as in ``attention_weights``.
        Gradients flow to hw and att. The aggregation and its two backward
        products are dense BLAS matmuls over the (H, n, n) alpha; the
        softmax and leaky-ReLU backward run on the layout's (H, E) edges.
        """
        n = hw.rows
        alpha, (alpha_e, factor) = attention_weights(hw.values, att.values, layout, heads, slope)
        starts, counts = layout.starts, layout.counts
        fp = att.rows // 2
        hw3 = hw.values.reshape(n, heads, fp).transpose(1, 0, 2)
        a3 = att.values.reshape(2, fp, heads).transpose(2, 0, 1)

        def bw(g):
            g3 = g.reshape(n, heads, fp).transpose(1, 0, 2)
            d_hw3 = alpha.transpose(0, 2, 1) @ g3
            # back through the masked softmax and the leaky-ReLU at the
            # edges, then to the source (row) and destination (column) terms
            d_s = (g3 @ hw3.transpose(0, 2, 1)).reshape(heads, n * n).take(layout.flat, axis=1)
            d_s -= np.add.reduceat(d_s * alpha_e, starts, axis=1).repeat(counts, axis=1)
            d_s *= alpha_e
            d_s *= factor
            dst = layout.cols + n * np.arange(heads)[:, None]  # column, per head
            d_dst = np.bincount(dst.ravel(), d_s.ravel(), heads * n).reshape(heads, n)
            d_fg = np.stack([np.add.reduceat(d_s, starts, axis=1), d_dst], axis=1)
            d_hw3 += d_fg.transpose(0, 2, 1) @ a3
            d_a3 = d_fg @ hw3
            return (
                d_hw3.transpose(1, 0, 2).reshape(n, heads * fp),
                d_a3.transpose(1, 2, 0).reshape(2 * fp, heads),
            )

        out = (alpha @ hw3).transpose(1, 0, 2).reshape(n, heads * fp)
        return self._record(out, (hw, att), bw)

    def dropout(self, a: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
        """Zero entries with probability p and rescale survivors by 1/(1-p).

        rng=None means eval mode: the input is returned unchanged.
        """
        if not (0.0 <= p < 1.0):
            raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
        if rng is None or p == 0.0:
            return a
        keep = rng.random(a.shape) >= p
        factor = keep / (1.0 - p)
        return self._record(a.values * factor, (a,), lambda g: (g * factor,))

    def logsumexp(self, a: Tensor) -> Tensor:
        """log(sum(exp(entries))) over the whole matrix, as a 1x1 scalar."""
        x = a.values
        m = x.max()
        e = np.exp(x - m)
        s = e.sum()
        out = np.array([[m + np.log(s)]])
        soft = e / s
        return self._record(out, (a,), lambda g: (g[0, 0] * soft,))

    def gaussian_kl(self, mu: Tensor, logvar: Tensor) -> Tensor:
        """KL(N(mu, diag(exp(logvar))) || N(0, I)) summed over entries,
        divided by the number of rows (per-node average)."""
        if mu.shape != logvar.shape:
            raise DimensionError(f"gaussian_kl: {mu.shape} vs {logvar.shape}")
        n = mu.rows
        var = np.exp(logvar.values)
        val = 0.5 * (var + mu.values**2 - logvar.values - 1.0).sum() / n
        muv = mu.values

        def bw(g):
            return (g[0, 0] * muv / n, g[0, 0] * 0.5 * (var - 1.0) / n)

        return self._record(np.array([[val]]), (mu, logvar), bw)

    def bce_mean(
        self,
        pred: Tensor,
        target: np.ndarray,
        weights: np.ndarray,
        mask: np.ndarray,
    ) -> Tensor:
        """Weighted binary cross-entropy averaged over mask=1 entries.

        target, weights and mask are constants. Predictions are clamped
        away from {0, 1} before the logs.
        """
        t = np.asarray(target, dtype=np.float64)
        w = np.asarray(weights, dtype=np.float64)
        m = np.asarray(mask, dtype=np.float64)
        if not (pred.shape == t.shape == w.shape == m.shape):
            raise DimensionError(
                f"bce_mean: pred {pred.shape}, target {t.shape}, "
                f"weights {w.shape}, mask {m.shape}"
            )
        count = m.sum()
        if count <= 0:
            raise ConfigError("bce_mean: mask selects no entries")
        x = pred.values
        in_range = (x > _CLIP) & (x < 1.0 - _CLIP)
        p = np.minimum(np.maximum(x, _CLIP), 1.0 - _CLIP)
        q, nt, wm = 1.0 - p, 1.0 - t, w * m  # shared with the backward
        ce = -(t * np.log(p) + nt * np.log(q))
        val = (wm * ce).sum() / count

        def bw(g):
            d = wm * (-t / p + nt / q) / count
            return (g[0, 0] * d * in_range,)

        return self._record(np.array([[val]]), (pred,), bw)

    # -- reverse sweep -----------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of a scalar loss into every reachable node.

        The tape's one sweep: each node it passes loses its backward rule
        and parent links, and a second call raises ConfigError.
        """
        if not self.grad_enabled:
            raise ConfigError("backward on a no-grad tape, which records nothing")
        if self._swept:
            raise ConfigError("backward on a tape already swept; record a new tape")
        if loss.shape != (1, 1):
            raise ConfigError(f"backward needs a scalar (1x1) loss, got {loss.shape}")
        self._swept = True
        grads: list[np.ndarray | None] = [None] * (loss.idx + 1)
        grads[loss.idx] = np.ones((1, 1))
        for node in reversed(self._nodes[: loss.idx + 1]):
            g, grad_fn, parents = grads[node.idx], node.grad_fn, node.parents
            node.grad_fn, node.parents = None, ()
            if g is None or grad_fn is None:
                continue
            for parent, pg in zip(parents, grad_fn(g)):
                if grads[parent.idx] is None:
                    grads[parent.idx] = pg
                else:
                    grads[parent.idx] = grads[parent.idx] + pg
        self._grads = grads

    def grad(self, ref: Tensor | np.ndarray) -> np.ndarray:
        """Gradient for a node or a leaf array after backward().

        Leaves untouched by the loss get a zero gradient of their shape.
        """
        if isinstance(ref, Tensor):
            node = ref
        else:
            node = self._leaves.get(id(ref))
            if node is None:
                raise KeyError("array was never wrapped as a leaf on this tape")
        if node.idx < len(self._grads) and self._grads[node.idx] is not None:
            return self._grads[node.idx]
        return np.zeros(node.shape)

