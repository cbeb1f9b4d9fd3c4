"""Composed blocks built from the numerics primitives.

conv2d is one tape op: im2col over a strided window view of the zero-padded
input, one affine map, and a VJP that adds the patch gradients back with
k*k strided slice adds (col2im). Every other block is a composition of
numerics ops, so all of them share one tape with the rest of the model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import numerics as nm
from .numerics import DimensionError, LinearParams, Tensor


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


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """x [H, W, C_in] -> [H_out, W_out, C_out]; zero padding."""
    if x.ndim != 3 or x.shape[2] != p.in_channels:
        raise DimensionError(
            f"conv2d: input {x.shape} does not match {p.in_channels} channels"
        )
    h, w, c = x.shape
    k, s, pad = p.kernel, p.stride, p.pad
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    if oh < 1 or ow < 1:
        raise DimensionError(f"conv2d: kernel {k} larger than padded input")
    padded = np.zeros((hp, wp, c))
    padded[pad : pad + h, pad : pad + w] = x.data
    windows = sliding_window_view(padded, (k, k), axis=(0, 1))[::s, ::s]
    patches = windows.transpose(0, 1, 3, 4, 2).reshape(oh * ow, k * k * c)  # (ky, kx, c)
    W, b = p.lin.weight.data, p.lin.bias.data

    def vjp(g):
        g2 = g.reshape(oh * ow, -1)
        cols = (g2 @ W).reshape(oh, ow, k, k, c)
        grad = np.zeros((hp, wp, c))
        # A padded pixel's terms arrive in (oy, ox) order, i.e. ky and kx
        # descending: the summation order of a sequential patch scatter.
        for ky in reversed(range(k)):
            for kx in reversed(range(k)):
                grad[ky : ky + s * oh : s, kx : kx + s * ow : s] += cols[:, :, ky, kx]
        return (grad[pad : pad + h, pad : pad + w], g2.T @ patches, g2.sum(axis=0))

    out = (patches @ W.T + b).reshape(oh, ow, -1)
    return nm._emit("conv2d", (x, p.lin.weight, p.lin.bias), out, (patches,), vjp)


@dataclass(frozen=True)
class ConvBlockParams:
    conv1: Conv2dParams
    conv2: Conv2dParams


def conv_block(x: Tensor, conv1: Conv2dParams, conv2: Conv2dParams) -> Tensor:
    """conv2d -> relu -> conv2d."""
    return conv2d(nm.relu(conv2d(x, conv1)), conv2)


def upsample_shuffle(x: Tensor, lin: LinearParams, factor: int) -> Tensor:
    """Learned upsampling: per-pixel affine to factor^2 sub-pixels, then shuffle.

    With kernel == stride there is no overlap, so this is the exact
    transposed-convolution equivalent.
    """
    h, w, c = x.shape
    cout = lin.out_dim // (factor * factor)
    if cout * factor * factor != lin.out_dim:
        raise DimensionError("upsample_shuffle: out dim not divisible by factor^2")
    y = nm.linear(nm.reshape(x, (h * w, c)), lin)
    y = nm.reshape(y, (h, w, factor, factor, cout))
    y = nm.permute(y, (0, 2, 1, 3, 4))
    return nm.reshape(y, (h * factor, w * factor, cout))


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


def row_scale(x: Tensor, w: Tensor) -> Tensor:
    """Scale row i of x [R, C] by w[i]; differentiable in both arguments."""
    if w.ndim != 1 or w.shape[0] != x.shape[0]:
        raise DimensionError(f"row_scale: {x.shape} rows vs weights {w.shape}")
    ones = Tensor(np.ones((1, x.shape[1])))
    tiled = nm.matmul(nm.reshape(w, (w.shape[0], 1)), ones)
    return nm.mul(x, tiled)


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


def linear_init(rng, out_dim: int, in_dim: int, scale=None) -> LinearParams:
    if scale is None:
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


def attention_init(rng, dim: int, memory_dim=None) -> AttentionParams:
    if memory_dim is None:
        memory_dim = dim
    return AttentionParams(
        query=linear_init(rng, dim, dim),
        key=linear_init(rng, dim, memory_dim),
        value=linear_init(rng, dim, memory_dim),
    )
