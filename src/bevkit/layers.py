"""Composed blocks built from the numerics primitives.

conv2d is one tape op and builds no im2col matrix. Its forward is k GEMMs,
one per kernel row, over a row-tap buffer that holds each padded row's k
horizontal taps per output column (a third of im2col's bytes at k = 3),
against the matching column block of the weight. In a row-major row an
output column's taps are one contiguous run of k*C values, so the buffer
is one copy per row phase from a sliding-window view of the rows. Its VJP
rebuilds that buffer from the padded input the node keeps: the weight
gradient is k GEMMs over the same operands, and the input gradient is a
transposed conv, the stride-dilated, padded output gradient through the
same k-GEMM kernel with the flipped weight. Forward and VJP add in another
order than one patch GEMM would, so they match a patch-matrix conv to
rounding.
conv_block_at computes conv_block at a few cells from their receptive field
only. binary_log_loss is one tape op too, with a closed-form VJP. Every other
block composes numerics ops, so all of them share one tape with the model.
attention's key is a bare weight [C_in, C_k], memory's right operand: a key
bias shifts each query's logits by one constant, which softmax cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics as nm
from .geometry import require_int
from .numerics import DimensionError, LinearParams, Tensor

PROB_FLOOR = 1e-7  # binary_log_loss, the losses' one rule, clamps p to [PROB_FLOOR, 1 - PROB_FLOOR]


@dataclass(frozen=True)
class Conv2dParams:
    """k x k convolution as an affine map over flattened patches."""

    lin: LinearParams  # [out_c, k*k*in_c], columns in (ky, kx, c) order
    kernel: int
    stride: int
    pad: int

    def __post_init__(self):
        require_int("Conv2dParams", 1, kernel=self.kernel, stride=self.stride)
        require_int("Conv2dParams", 0, pad=self.pad)
        if self.lin.in_dim % (self.kernel * self.kernel):
            raise DimensionError(
                f"Conv2dParams: lin.in_dim {self.lin.in_dim} is not a multiple of "
                f"kernel * kernel = {self.kernel * self.kernel}"
            )

    @property
    def in_channels(self):
        return self.lin.in_dim // (self.kernel * self.kernel)


def _row_taps(padded: np.ndarray, k: int, s: int, oh: int, ow: int) -> list[np.ndarray]:
    """The k left operands [oh * ow, k*C] of a k x k conv at stride s over a padded
    [H, W, C] input: operand ky holds row s*oy + ky's k taps per output column, in
    (kx, c) order. All k are views of one tap buffer whose rows are grouped by row
    phase (y mod s), so every operand is a contiguous run of it; the buffer copies
    each padded row's used columns k times, where im2col copies them k*k times.
    In a row-major row, output column ox's taps are the contiguous run of k*C values
    from s*C*ox, so each phase is one copy from a windowed view of the rows."""
    h, w, c = padded.shape
    windows = sliding_window_view(padded.reshape(h, w * c), k * c, axis=1)[:, :: s * c]
    taps = np.empty((min(s, k), (k - 1) // s + oh, ow, k * c))
    for phase in range(len(taps)):
        src = windows[phase : s * (oh - 1) + k : s]
        taps[phase, : len(src)] = src
    return [taps[ky % s, ky // s : ky // s + oh].reshape(oh * ow, k * c) for ky in range(k)]


def _conv_gemms(operands: list[np.ndarray], weight_t: np.ndarray) -> np.ndarray:
    """sum over ky of operands[ky] @ weight_t's ky-th row block; weight_t is [k*k*C, O]."""
    block = operands[0].shape[1]
    out = operands[0] @ weight_t[:block]
    for ky in range(1, len(operands)):
        out += operands[ky] @ weight_t[ky * block : (ky + 1) * block]
    return out


def conv2d(x, p: Conv2dParams) -> Tensor:
    """x [H, W, C_in] -> [H_out, W_out, C_out]; zero padding.

    x that is not a Tensor is a constant, as for nm.add and nm.mul: the node's
    inputs are only (weight, bias), and its VJP skips the input gradient.
    The output is k GEMMs over _row_taps' operands, one per kernel row ky,
    each against the weight's ky column block, plus the bias. The node keeps
    only the padded input [H+2p, W+2p, C_in]; the VJP rebuilds the tap
    buffer, about k times larger, from it. The weight gradient is k GEMMs
    g^T @ operand, placed side by side in (ky, kx, c) order. The input
    gradient is a transposed conv through the same two helpers: the output
    gradient dilated by the stride and padded by k - 1, at stride 1, times
    the flipped kernel. Both directions match a patch-matrix conv to rounding.
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
        # No name holds the tap buffer, so it is freed before the input gradient builds its own.
        gw = np.concatenate([g2.T @ rows for rows in _row_taps(padded, k, s, oh, ow)], axis=1)
        params = (gw, g2.sum(axis=0))
        if const:
            return params
        # Padded pixel i gets g[oy] W[i - s*oy]: g sits at k - 1 + s*oy, and
        # the input rows are the windows that start at pad .. pad + h - 1.
        dilated = np.zeros((hp + k - 1, wp + k - 1, g2.shape[1]))
        dilated[k - 1 : k - 1 + s * oh : s, k - 1 : k - 1 + s * ow : s] = g2.reshape(oh, ow, -1)
        window = dilated[pad : pad + h + k - 1, pad : pad + w + k - 1]
        flipped = W.reshape(-1, k, k, c)[:, ::-1, ::-1].transpose(1, 2, 0, 3).reshape(-1, c)
        gx = _conv_gemms(_row_taps(window, k, 1, h, w), flipped)
        return (gx.reshape(h, w, c),) + params

    out = _conv_gemms(_row_taps(padded, k, s, oh, ow), W.T)
    out += b
    inputs = (p.lin.weight, p.lin.bias) if const else (x, p.lin.weight, p.lin.bias)
    return nm._emit("conv2d", inputs, out.reshape(oh, ow, -1), (padded,), vjp)


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
    The values match conv_block's rows to rounding, not bit for bit: each
    linear here sums a patch row's k*k*C products in one GEMM, where conv2d
    sums k partial GEMMs, one per kernel row, so the two add in different
    orders (and BLAS may pick another kernel for a few rows than for a grid).
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
    """Affine query and value maps and a bare key weight [C_in, C_k]: softmax cancels a key bias."""

    query: LinearParams
    key: Tensor  # [C_in, C_k]
    value: LinearParams


def attention(queries: Tensor, memory: Tensor, p: AttentionParams) -> Tensor:
    """Single-head scaled dot-product attention: the attended values [K, C_v].

    Keys are memory @ p.key, p.key [C_in, C_k], with no bias: a key bias adds
    q . b_k to every logit in a query's row, a shift that softmax cancels.
    """
    q = nm.linear(queries, p.query)
    k = nm.matmul(memory, p.key)
    v = nm.linear(memory, p.value)
    scale = 1.0 / np.sqrt(q.shape[-1])
    logits = nm.mul(nm.matmul(q, nm.permute(k, (1, 0))), scale)
    return nm.matmul(nm.softmax(logits, axis=1), v)


def binary_log_loss(probs: Tensor, pos_weight, neg_weight, gamma: float) -> Tensor:
    """-sum(pos_weight (1 - p)^gamma log p + neg_weight p^gamma log(1 - p)) for p = probs
    clamped to [PROB_FLOOR, 1 - PROB_FLOOR]: one tape node, whose VJP is the closed-form
    derivative, zero where the clamp is active. The weights are constants (numbers, or arrays
    of probs' shape) carrying a loss's targets and normalisation; gamma 0 computes no power."""
    _, wp = nm._operands("binary_log_loss", probs, pos_weight)
    _, wn = nm._operands("binary_log_loss", probs, neg_weight)
    p = np.clip(probs.data, PROB_FLOOR, 1.0 - PROB_FLOOR)
    q = 1.0 - p
    log_p, log_q = np.log(p), np.log(q)  # p, q > 0 after the clamp: x^gamma = exp(gamma log x)
    q_pow, p_pow = (np.exp(log_q * gamma), np.exp(log_p * gamma)) if gamma != 0 else (1.0, 1.0)
    terms = q_pow * log_p * np.negative(wp) + p_pow * log_q * np.negative(wn)

    def vjp(g):
        d_pos = q_pow / p - gamma * q_pow / q * log_p  # d/dp of (1 - p)^gamma log p
        d_neg = gamma * p_pow / p * log_q - p_pow / q  # d/dp of p^gamma log(1 - p)
        inside = (p > PROB_FLOOR) & (p < 1.0 - PROB_FLOOR)  # the clip keeps strict order
        return (np.where(inside, g * -(wp * d_pos + wn * d_neg), 0.0),)

    return nm._emit("binary_log_loss", (probs,), terms.sum(), (), vjp)


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
        key=Tensor(linear_init(rng, dim, dim).weight.data.T),  # same draws, stored [C_in, C_k]
        value=linear_init(rng, dim, dim),
    )
