"""Composed blocks built from the numerics primitives.

conv2d is one tape op: im2col over a strided window view of the zero-padded
input and one affine map. Its VJP takes the input gradient as a transposed
conv, im2col of the stride-dilated, padded output gradient times the flipped
kernel. Its node keeps the padded input, not the k*k times larger patch
matrix: the VJP rebuilds the patches from it with the same window view and
copy, so the weight gradient's GEMM reads the same bits.
conv_block_at gives conv_block's output at a few cells, computing both convs
only on those cells' receptive field. Every other block is a composition of
numerics ops, so all of them share one tape with the rest of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics as nm
from .numerics import DimensionError, LinearParams, Tensor

PROB_FLOOR = 1e-7  # binary_log_loss, the losses' one rule, clamps p to [PROB_FLOOR, 1 - PROB_FLOOR]


@dataclass(frozen=True)
class Conv2dParams:
    """k x k convolution as an affine map over flattened patches."""

    lin: LinearParams  # [out_c, k*k*in_c]
    kernel: int
    stride: int
    pad: int

    @property
    def in_channels(self):
        return self.lin.in_dim // (self.kernel * self.kernel)

    @property
    def out_channels(self):
        return self.lin.out_dim


def _patches(padded: np.ndarray, k: int, s: int) -> np.ndarray:
    """im2col of a padded [H, W, C] input: [H_out * W_out, k*k*C], rows in (ky, kx, c) order."""
    windows = sliding_window_view(padded, (k, k), axis=(0, 1))[::s, ::s]
    oh, ow = windows.shape[:2]
    return windows.transpose(0, 1, 3, 4, 2).reshape(oh * ow, -1)


def conv2d(x, p: Conv2dParams) -> Tensor:
    """x [H, W, C_in] -> [H_out, W_out, C_out]; zero padding.

    x that is not a Tensor is a constant, as for nm.add and nm.mul: the node's
    inputs are only (weight, bias), and its VJP skips the input gradient.
    The node keeps the padded input [H+2p, W+2p, C_in], not the patch matrix,
    which is about k*k times larger at stride 1. The VJP rebuilds the patches
    with _patches, which copies the same elements into the same order, so
    the weight gradient's GEMM reads the same bits as the forward's did.
    The input gradient, a transposed conv (see the module docstring), matches
    a patch scatter to rounding.
    """
    const = not isinstance(x, Tensor)
    data = np.asarray(x, dtype=np.float64) if const else x.data
    if data.ndim != 3 or data.shape[2] != p.in_channels:
        raise DimensionError(
            f"conv2d: input {data.shape} does not match {p.in_channels} channels"
        )
    h, w, c = data.shape
    k, s, pad = p.kernel, p.stride, p.pad
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"conv2d: kernel {k} larger than padded input")
    padded = np.zeros((hp, wp, c))
    padded[pad : pad + h, pad : pad + w] = data
    W, b = p.lin.weight.data, p.lin.bias.data

    def vjp(g):
        g2 = g.reshape(oh * ow, -1)
        params = (g2.T @ _patches(padded, k, s), g2.sum(axis=0))
        if const:
            return params
        # Padded pixel i gets g[oy] W[i - s*oy]: g sits at k - 1 + s*oy, and
        # the input rows are the windows that start at pad .. pad + h - 1.
        dilated = np.zeros((hp + k - 1, wp + k - 1, g2.shape[1]))
        dilated[k - 1 : k - 1 + s * oh : s, k - 1 : k - 1 + s * ow : s] = g2.reshape(oh, ow, -1)
        window = dilated[pad : pad + h + k - 1, pad : pad + w + k - 1]
        flipped = W.reshape(-1, k, k, c)[:, ::-1, ::-1].transpose(1, 2, 0, 3).reshape(-1, c)
        return ((_patches(window, k, 1) @ flipped).reshape(h, w, c),) + params

    out = (_patches(padded, k, s) @ W.T + b).reshape(oh, ow, -1)
    inputs = (p.lin.weight, p.lin.bias) if const else (x, p.lin.weight, p.lin.bias)
    return nm._emit("conv2d", inputs, out, (padded,), vjp)


@dataclass(frozen=True)
class ConvBlockParams:
    conv1: Conv2dParams
    conv2: Conv2dParams


def conv_block(x, conv1: Conv2dParams, conv2: Conv2dParams) -> Tensor:
    """conv2d -> relu -> conv2d; x may be a constant array, as for conv2d."""
    return conv2d(nm.relu(conv2d(x, conv1)), conv2)


def _windows(centers: np.ndarray, k: int, h: int, w: int):
    """Flat indices [M, k*k] of the k x k windows around centers [M, 2] of an
    h x w grid, in (ky, kx) order, and where they fall inside it [M, k*k];
    outside positions index 0."""
    off = np.arange(k) - k // 2
    gx = centers[:, 0, None, None] + off[:, None]
    gy = centers[:, 1, None, None] + off[None, :]
    inside = (gx >= 0) & (gx < h) & (gy >= 0) & (gy < w)
    flat = np.where(inside, gx * w + gy, 0)
    return flat.reshape(len(centers), k * k), inside.reshape(len(centers), k * k)


def _window_patches(rows: Tensor, idx: np.ndarray, inside: np.ndarray) -> Tensor:
    """Patch matrix [M, k*k*C] of rows [N, C] at window indices idx [M, k*k]:
    only the in-grid positions are gathered and scattered into zero rows,
    conv2d's zero padding, so the tape keeps integer indices, not a mask."""
    picked = nm.scatter_add(nm.gather_rows(rows, idx[inside]), np.flatnonzero(inside), idx.size)
    return nm.reshape(picked, (idx.shape[0], idx.shape[1] * rows.shape[1]))


def conv_block_at(x: Tensor, conv1: Conv2dParams, conv2: Conv2dParams, cells) -> Tensor:
    """conv_block(x, conv1, conv2) read at cells [K, 2] (row, column): [K, C_out].

    conv1 runs only on the union of the cells' conv2 windows (at most
    conv2.kernel**2 * K sites) and conv2 only on the K cells, each as one
    linear over patch rows in conv2d's (ky, kx, c) order, so both read the
    same Conv2dParams. Both convs must be stride 1 with an odd kernel and
    pad kernel // 2, the padding under which conv_block keeps the grid size.
    The values match conv_block's rows to rounding, not bit for bit: BLAS
    may pick another GEMM kernel for a few rows than for the whole grid.
    """
    if x.ndim != 3 or x.shape[2] != conv1.in_channels:
        raise DimensionError(
            f"conv_block_at: input {x.shape} does not match {conv1.in_channels} channels"
        )
    for conv in (conv1, conv2):
        if conv.stride != 1 or conv.kernel % 2 == 0 or conv.pad != conv.kernel // 2:
            raise DimensionError(
                f"conv_block_at: needs stride 1, an odd kernel and pad kernel // 2, got "
                f"kernel {conv.kernel}, stride {conv.stride}, pad {conv.pad}"
            )
    cells = np.asarray(cells)
    if cells.ndim != 2 or cells.shape[1] != 2 or not np.issubdtype(cells.dtype, np.integer):
        raise DimensionError(f"conv_block_at: cells must be integer [K, 2], got {cells.shape}")
    h, w, c = x.shape
    if ((cells < 0) | (cells >= (h, w))).any():
        raise DimensionError(f"conv_block_at: a cell lies outside the {h}x{w} grid")
    flat2, inside2 = _windows(cells, conv2.kernel, h, w)
    # A mask, not np.unique: its first call imports numpy.ma (~15 ms).
    needed = np.zeros(h * w, dtype=bool)
    needed[flat2[inside2]] = True
    sites = np.flatnonzero(needed)
    idx2 = np.searchsorted(sites, flat2)  # outside positions are never gathered
    flat1, inside1 = _windows(np.stack(np.divmod(sites, w), axis=1), conv1.kernel, h, w)
    patches1 = _window_patches(nm.reshape(x, (h * w, c)), flat1, inside1)
    hidden = nm.relu(nm.linear(patches1, conv1.lin))
    return nm.linear(_window_patches(hidden, idx2, inside2), conv2.lin)


@dataclass(frozen=True)
class FfnParams:
    hidden: LinearParams
    out: LinearParams


def ffn(x: Tensor, p: FfnParams) -> Tensor:
    return nm.linear(nm.relu(nm.linear(x, p.hidden)), p.out)


@dataclass(frozen=True)
class AttentionParams:
    query: LinearParams
    key: LinearParams
    value: LinearParams


def attention(queries: Tensor, memory: Tensor, p: AttentionParams):
    """Single-head scaled dot-product attention.

    Returns (attended values [K, C_v], weights [K, T]); each weight row
    sums to one.
    """
    q = nm.linear(queries, p.query)
    k = nm.linear(memory, p.key)
    v = nm.linear(memory, p.value)
    scale = 1.0 / np.sqrt(q.shape[-1])
    logits = nm.mul(nm.matmul(q, nm.permute(k, (1, 0))), scale)
    weights = nm.softmax(logits, axis=1)
    return nm.matmul(weights, v), weights


def binary_log_loss(probs: Tensor, pos_weight, neg_weight, gamma: float) -> Tensor:
    """-sum(pos_weight (1 - p)^gamma log p + neg_weight p^gamma log(1 - p)) for p = probs
    clamped to [PROB_FLOOR, 1 - PROB_FLOOR]. The weights are constant arrays of probs' shape
    that carry a loss's targets and normalisation; at gamma 0 no power term is computed."""
    p = nm.clamp(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    log_p, log_q = nm.log(p), nm.log(nm.sub(1.0, p))
    pos, neg = log_p, log_q
    if gamma != 0:  # p and 1 - p are positive after the clamp: x^gamma = exp(gamma log x)
        pos = nm.mul(nm.exp(nm.mul(log_q, gamma)), log_p)
        neg = nm.mul(nm.exp(nm.mul(log_p, gamma)), log_q)
    terms = nm.add(nm.mul(pos, np.negative(pos_weight)), nm.mul(neg, np.negative(neg_weight)))
    return nm.sum(terms)


def sinusoidal_encoding(gx, gy, dim: int) -> np.ndarray:
    """Fixed positional code for integer grid cells; half for x, half for y."""
    if dim % 4 != 0:
        raise DimensionError("sinusoidal_encoding: dim must be a multiple of 4")
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    quarter = dim // 4
    freqs = 1.0 / (100.0 ** (np.arange(quarter) / max(1, quarter)))
    out = np.concatenate(
        [
            np.sin(gx[:, None] * freqs),
            np.cos(gx[:, None] * freqs),
            np.sin(gy[:, None] * freqs),
            np.cos(gy[:, None] * freqs),
        ],
        axis=1,
    )
    return out


# --- parameter initializers (uniform fan-in scaling, zero bias) ---


def linear_init(rng, out_dim: int, in_dim: int) -> LinearParams:
    scale = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    return LinearParams(Tensor(w), Tensor(np.zeros(out_dim)))


def conv_init(rng, out_c: int, in_c: int, kernel: int, stride: int, pad: int) -> Conv2dParams:
    fan_in = kernel * kernel * in_c
    return Conv2dParams(
        lin=linear_init(rng, out_c, fan_in), kernel=kernel, stride=stride, pad=pad
    )


def ffn_init(rng, out_dim: int, hidden_dim: int, in_dim: int) -> FfnParams:
    return FfnParams(
        hidden=linear_init(rng, hidden_dim, in_dim),
        out=linear_init(rng, out_dim, hidden_dim),
    )


def attention_init(rng, dim: int) -> AttentionParams:
    return AttentionParams(
        query=linear_init(rng, dim, dim),
        key=linear_init(rng, dim, dim),
        value=linear_init(rng, dim, dim),
    )
