"""conv2d as one tape op, and the segment sum under scatter_add / gather_rows."""

import numpy as np
import pytest

from bevkit import numerics as nm
from bevkit import oracles
from bevkit.layers import Conv2dParams, conv2d, conv_init
from bevkit.numerics import LinearParams, Tape, Tensor, backward, finite_diff_check

CASES = [(1, 1, 0), (3, 1, 1), (3, 2, 1), (3, 2, 0)]  # (kernel, stride, pad)
# 7x5 is covered edge to edge at stride 2; at 8x6 the last padded row and
# column (pad 1) or the last input row and column (pad 0) go unused.
SHAPES = [(7, 5, 3), (8, 6, 3)]


def conv_case(k, stride, pad, shape, seed=0):
    rng = np.random.default_rng(seed)
    p = conv_init(rng, 4, shape[2], kernel=k, stride=stride, pad=pad)
    p = Conv2dParams(
        lin=LinearParams(p.lin.weight, Tensor(rng.normal(size=4))), kernel=k, stride=stride, pad=pad
    )
    return Tensor(rng.normal(size=shape)), p, rng


def weighted_sum(y: Tensor, r: np.ndarray) -> Tensor:
    return nm.sum(nm.mul(y, Tensor(r)))


def composed_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Pad by scatter, im2col by row gather, one linear map: public ops only."""
    h, w, c = x.shape
    k, s, pad = p.kernel, p.stride, p.pad
    hp, wp = h + 2 * pad, w + 2 * pad
    oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
    pad_idx = ((np.arange(h)[:, None] + pad) * wp + np.arange(w)[None, :] + pad).ravel()
    oy = (np.arange(oh) * s)[:, None, None, None]
    ox = (np.arange(ow) * s)[None, :, None, None]
    ky = np.arange(k)[None, None, :, None]
    kx = np.arange(k)[None, None, None, :]
    gather_idx = ((oy + ky) * wp + ox + kx).ravel()
    padded = nm.scatter_add(nm.reshape(x, (h * w, c)), pad_idx, hp * wp)
    patches = nm.reshape(nm.gather_rows(padded, gather_idx), (oh * ow, k * k * c))
    return nm.reshape(nm.linear(patches, p.lin), (oh, ow, p.out_channels))


def grads(conv, x, p, r):
    with Tape() as tape:
        y = conv(x, p)
        backward(tape, weighted_sum(y, r))
    return y, [tape.grad(t).data for t in (x, p.lin.weight, p.lin.bias)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k,stride,pad", CASES)
class TestConv2d:
    def test_forward_matches_oracle(self, k, stride, pad, shape):
        x, p, _ = conv_case(k, stride, pad, shape)
        expected = oracles.conv2d_oracle(
            x.data, p.lin.weight.data, p.lin.bias.data, k, stride, pad
        )
        out = conv2d(x, p)
        assert out.shape == expected.shape
        assert np.max(np.abs(out.data - expected)) < 1e-12

    def test_finite_differences(self, k, stride, pad, shape):
        x, p, rng = conv_case(k, stride, pad, shape)
        r = rng.normal(size=conv2d(x, p).shape)

        def with_lin(weight, bias):
            return Conv2dParams(LinearParams(weight, bias), k, stride, pad)

        assert finite_diff_check(lambda t: weighted_sum(conv2d(t, p), r), x) < 1e-6
        w, b = p.lin.weight, p.lin.bias
        assert finite_diff_check(lambda t: weighted_sum(conv2d(x, with_lin(t, b)), r), w) < 1e-6
        assert finite_diff_check(lambda t: weighted_sum(conv2d(x, with_lin(w, t)), r), b) < 1e-6

    def test_bit_identical_to_scatter_gather_linear(self, k, stride, pad, shape):
        x, p, rng = conv_case(k, stride, pad, shape)
        r = rng.normal(size=conv2d(x, p).shape)
        y, (gx, gw, gb) = grads(conv2d, x, p, r)
        y_ref, (gx_ref, gw_ref, gb_ref) = grads(composed_conv2d, x, p, r)
        assert np.array_equal(y.data, y_ref.data)
        assert np.array_equal(gx, gx_ref)
        assert np.array_equal(gw, gw_ref)
        assert np.array_equal(gb, gb_ref)

    def test_one_tape_node(self, k, stride, pad, shape):
        x, p, _ = conv_case(k, stride, pad, shape)
        with Tape() as tape:
            conv2d(x, p)
        assert [n.op for n in tape.nodes] == ["conv2d"]


def test_stride_two_leaves_unused_input_rows_without_gradient():
    x, p, rng = conv_case(3, 2, 0, (8, 6, 3))
    _, (gx, _, _) = grads(conv2d, x, p, rng.normal(size=(3, 2, 4)))
    assert not gx[7].any() and not gx[:, 5].any()
    assert gx[:7, :5].all()


def spread(rng, shape):
    """Values over 16 decades, so any change of summation order shows."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


class TestSegmentSum:
    IDX = np.array([2, 0, 2, 2, 4, 0, 2, 1, 2, 2])

    def loop_sum(self, vals, rows):
        out = np.zeros((rows,) + vals.shape[1:])
        for i, r in enumerate(self.IDX):
            out[r] += vals[i]
        return out

    def test_scatter_add_equals_sequential_loop(self):
        vals = spread(np.random.default_rng(0), (len(self.IDX), 2, 3))
        out = nm.scatter_add(Tensor(vals), self.IDX, 6)
        assert np.array_equal(out.data, self.loop_sum(vals, 6))

    def test_gather_rows_vjp_equals_sequential_loop(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(6, 2, 3)))
        g = spread(rng, (len(self.IDX), 2, 3))
        with Tape() as tape:
            y = nm.gather_rows(x, self.IDX)
            backward(tape, nm.sum(nm.mul(y, Tensor(g))))
        assert np.array_equal(tape.grad(x).data, self.loop_sum(g, 6))

    def test_empty_index_gives_float_zeros(self):
        empty = np.zeros(0, dtype=np.int64)
        out = nm.scatter_add(Tensor(np.zeros((0, 2, 3))), empty, 4)
        assert out.data.dtype == np.float64 and out.shape == (4, 2, 3) and not out.data.any()
        with Tape() as tape:
            nm.gather_rows(Tensor(np.ones((4, 2, 3))), empty)
        (z,) = tape.nodes[0].vjp(np.zeros((0, 2, 3)))
        assert z.dtype == np.float64 and z.shape == (4, 2, 3) and not z.any()
