"""Graph convolution and graph attention layers plus the prediction head.

All forwards run on a Tape so the classification loss differentiates
end to end. Layers are bias-free parameter holders; weights are plain
fp64 arrays updated in place by the optimizer between tapes.

Layers carry no activation. The head applies ELU after every layer but
the last, whose output is the logits (for GAT, the mean over its heads),
as in GAT (Velickovic et al., 2018) and DeepInf (Qiu et al., 2018).

A GAT layer stores all heads in one weight and one attention matrix, so
it records the same four nodes (six for the averaging output layer)
whatever its head count: two parameter leaves, one projection matmul and
one ``Tape.gat_heads`` node that computes every head at once; the head
adds one ELU node after each hidden layer. Attention scores and their
softmax cost O(H*E) over the E edges of the attention mask (neighbours
plus self); the aggregation multiplies a dense (H, n, n) coefficient
array with BLAS. The head reads its graph from the sample's feature
bundle: its three GAT layers and their backward read the bundle's one
edge layout (``EdgeLayout``), and a GCN layer its normalized adjacency.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError, DimensionError

if TYPE_CHECKING:  # features imports this module
    from .features import FeatureBundle

LEAKY_SLOPE = 0.2  # negative slope inside attention scores


def glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def normalized_adjacency(adj: np.ndarray) -> np.ndarray:
    """Symmetric degree normalization of the adjacency with self-loops:
    D^{-1/2} (A + I) D^{-1/2}, where D is the loop-augmented degree."""
    a = np.asarray(adj, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"adjacency must be square, got {a.shape}")
    if not np.array_equal(a, a.T):
        raise ConfigError("normalized_adjacency: adjacency is not symmetric")
    if np.diagonal(a).any():
        raise ConfigError("normalized_adjacency: adjacency has a nonzero diagonal")
    at = a + np.eye(a.shape[0])
    dinv = 1.0 / np.sqrt(at.sum(axis=1))
    return at * dinv[:, None] * dinv[None, :]


@dataclass
class GcnLayer:
    weight: np.ndarray  # (f_in, f_out)

    @classmethod
    def create(cls, f_in: int, f_out: int, rng) -> "GcnLayer":
        return cls(weight=glorot(f_in, f_out, rng))

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w": self.weight}


@dataclass
class GatLayer:
    """Multi-head attention layer.

    All heads share two matrices, in the layout ``Tape.gat_heads``
    consumes: ``weight`` (f_in, H*f_out) holds head k's projection in
    columns k*f_out:(k+1)*f_out, and ``att`` (2*f_out, H) holds head k's
    attention vector in column k, source half first. Hidden layers
    concatenate head outputs; the output layer averages them (one matmul
    against stacked identities) so the width stays f_out.
    """

    weight: np.ndarray  # (f_in, H*f_out)
    att: np.ndarray  # (2*f_out, H)
    concat: bool = True

    @classmethod
    def create(
        cls, f_in: int, f_out: int, heads: int, rng, concat: bool = True
    ) -> "GatLayer":
        # per-head draws, every projection before every attention vector
        ws = [glorot(f_in, f_out, rng) for _ in range(heads)]
        atts = [glorot(2 * f_out, 1, rng) for _ in range(heads)]
        return cls(weight=np.hstack(ws), att=np.hstack(atts), concat=concat)

    @property
    def heads(self) -> int:
        return self.att.shape[1]

    @property
    def f_out(self) -> int:
        return self.att.shape[0] // 2

    def parameters(self) -> dict[str, np.ndarray]:
        return {"w": self.weight, "a": self.att}


class EdgeLayout(NamedTuple):
    """An attention mask's nonzeros in row-major order, so each row's edges
    are contiguous: their positions in the n*n square (``flat``), rows and
    columns, and each row's edge count and first edge index. All are
    length-E or length-n int32 arrays (n*n < 2**31); no n x n array is kept."""

    flat: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    starts: np.ndarray

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "EdgeLayout":
        keep = np.asarray(mask) != 0
        if keep.ndim != 2 or keep.shape[0] != keep.shape[1]:
            raise DimensionError(f"attention mask must be square, got {keep.shape}")
        n = keep.shape[0]
        flat = np.flatnonzero(keep).astype(np.int32)
        rows, cols = np.divmod(flat, n)
        counts = np.bincount(rows, minlength=n).astype(np.int32)
        if not counts.all():
            bad = int(np.flatnonzero(counts == 0)[0])
            raise ConfigError(f"masked softmax: row {bad} fully masked")
        return cls(flat, rows, cols, counts, np.cumsum(counts, dtype=np.int32) - counts)


def attention_layout(adj: np.ndarray) -> EdgeLayout:
    """The head's attention edges: every node attends over its neighbours
    and itself."""
    return EdgeLayout.from_mask(np.asarray(adj, dtype=np.float64) + np.eye(adj.shape[0]))


@functools.cache
def _head_mean(f_out: int, heads: int) -> np.ndarray:
    # mean over heads: (n, H*f) @ H stacked f x f identities / H
    avg = np.tile(np.eye(f_out), (heads, 1)) / heads
    avg.flags.writeable = False
    return avg


def gat_forward(tape: Tape, layer: GatLayer, h: Tensor, layout: EdgeLayout) -> Tensor:
    if h.cols != layer.weight.shape[0]:
        raise DimensionError(
            f"gat_forward: features {h.shape} vs weight {layer.weight.shape}"
        )
    hw = tape.matmul(h, tape.leaf(layer.weight))
    out = tape.gat_heads(hw, tape.leaf(layer.att), layout, layer.heads, LEAKY_SLOPE)
    if not layer.concat:
        out = tape.matmul(out, tape.leaf(_head_mean(layer.f_out, layer.heads)))
    return out


def gcn_forward(tape: Tape, layer: GcnLayer, h: Tensor, a_hat: Tensor) -> Tensor:
    if h.cols != layer.weight.shape[0]:
        raise DimensionError(
            f"gcn_forward: features {h.shape} vs weight {layer.weight.shape}"
        )
    w = tape.leaf(layer.weight)
    return tape.matmul(tape.block_matmul(a_hat, h), w)


@dataclass
class PredictionNet:
    """Stack of GNN layers ending in a 2-unit (two-class) output row per
    node."""

    layers: list
    dropout: float

    def parameters(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, arr in layer.parameters().items():
                out[f"l{i}.{name}"] = arr
        return out


def _head_dims(variant: str, f_in: int, hidden: int, heads: int) -> list[tuple[int, int]]:
    """Input width and per-head output width of the head's three layers."""
    if variant == "gat":
        per_head = hidden // heads
        return [(f_in, per_head), (hidden, per_head), (hidden, 2)]
    return [(f_in, hidden), (hidden, hidden), (hidden, 2)]


def build_prediction_net(
    variant: str,
    f_in: int,
    hidden: int,
    heads: int,
    dropout: float,
    rng,
) -> PredictionNet:
    """The three-layer head; ModelConfig checks the variant and sizes."""
    dims = _head_dims(variant, f_in, hidden, heads)
    if variant == "gat":
        layers = [
            GatLayer.create(a, f, heads, rng, concat=i < 2) for i, (a, f) in enumerate(dims)
        ]
    else:  # gcn
        layers = [GcnLayer.create(a, f, rng) for a, f in dims]
    return PredictionNet(layers=layers, dropout=dropout)


def prediction_net_shapes(
    variant: str, f_in: int, hidden: int, heads: int
) -> dict[str, tuple[int, int]]:
    """The shape of each of ``PredictionNet.parameters()``'s matrices under
    build_prediction_net's sizes, without building the net."""
    out = {}
    for i, (a, f) in enumerate(_head_dims(variant, f_in, hidden, heads)):
        if variant == "gat":
            out[f"l{i}.w"], out[f"l{i}.a"] = (a, heads * f), (2 * f, heads)
        else:
            out[f"l{i}.w"] = (a, f)
    return out


def prediction_forward(
    tape: Tape,
    net: PredictionNet,
    h: Tensor,
    fb: FeatureBundle,
    drop_rng: np.random.Generator | None = None,
) -> Tensor:
    """Run the head on features h of the bundle's graph, ELU after every
    layer but the last; a GAT head attends over ``fb.layout``, a GCN head
    aggregates with ``fb.a_hat``. drop_rng=None disables dropout (eval)."""
    x = h
    for i, layer in enumerate(net.layers):
        if i:
            x = tape.elu(x)
        x = tape.dropout(x, net.dropout, drop_rng)
        if isinstance(layer, GatLayer):
            x = gat_forward(tape, layer, x, fb.layout)
        else:
            x = gcn_forward(tape, layer, x, tape.leaf(fb.a_hat))
    return x


def ego_nll(tape: Tape, logits: Tensor, ego: int, label: int) -> Tensor:
    """Negative log-likelihood of the ego row under a 2-way softmax."""
    if not (0 <= ego < logits.rows):
        raise ConfigError(f"ego {ego} out of range for {logits.rows} nodes")
    if label not in (0, 1):
        raise ConfigError(f"label must be 0 or 1, got {label}")
    row = tape.slice_rows(logits, ego, ego + 1)
    lse = tape.logsumexp(row)
    picked = tape.slice_cols(row, label, label + 1)
    return tape.add(lse, tape.scale(picked, -1.0))


def softmax_row(logits: np.ndarray, row: int) -> np.ndarray:
    """Class probabilities for one row of raw logits (plain numpy, eval path)."""
    x = logits[row] - logits[row].max()
    e = np.exp(x)
    return e / e.sum()
