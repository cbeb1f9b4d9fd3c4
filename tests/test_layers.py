"""conv2d as one tape op, conv_block_at against conv_block, the segment sum
under scatter_add / gather_rows, and binary_log_loss against a float loop."""

import math

import numpy as np
import pytest

from bevkit import numerics as nm
from bevkit import oracles
from bevkit.layers import (
    PROB_FLOOR,
    Conv2dParams,
    binary_log_loss,
    conv2d,
    conv_block,
    conv_block_at,
    conv_init,
)
from bevkit.numerics import DimensionError, LinearParams, Tape, Tensor, backward, finite_diff_check

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

    def test_constant_input_records_weight_and_bias_only(self, k, stride, pad, shape):
        x, p, rng = conv_case(k, stride, pad, shape)
        r = rng.normal(size=conv2d(x, p).shape)
        y_ref, (_, gw_ref, gb_ref) = grads(conv2d, x, p, r)
        with Tape() as tape:
            y = conv2d(x.data, p)
            (node,) = tape.nodes
            backward(tape, weighted_sum(y, r))
        assert node.op == "conv2d" and node.input_ids == (p.lin.weight.id, p.lin.bias.id)
        assert len(node.vjp(r)) == 2
        assert np.array_equal(y.data, y_ref.data)
        assert np.array_equal(tape.grad(p.lin.weight).data, gw_ref)
        assert np.array_equal(tape.grad(p.lin.bias).data, gb_ref)

    @pytest.mark.parametrize("constant", [False, True])
    def test_node_keeps_padded_input_not_patch_matrix(self, k, stride, pad, shape, constant):
        x, p, _ = conv_case(k, stride, pad, shape)
        with Tape() as tape:
            conv2d(x.data if constant else x, p)
        (node,) = tape.nodes
        padded = np.pad(x.data, ((pad, pad), (pad, pad), (0, 0)))
        assert len(node.saved) == 1 and np.array_equal(node.saved[0], padded)
        held = list(node.saved) + [cell.cell_contents for cell in node.vjp.__closure__]
        limit = max(padded.nbytes, p.lin.weight.data.nbytes)
        assert all(a.nbytes <= limit for a in held if isinstance(a, np.ndarray))


def test_stride_two_leaves_unused_input_rows_without_gradient():
    x, p, rng = conv_case(3, 2, 0, (8, 6, 3))
    _, (gx, _, _) = grads(conv2d, x, p, rng.normal(size=(3, 2, 4)))
    assert not gx[7].any() and not gx[:, 5].any()
    assert gx[:7, :5].all()


def block_case(k1, k2):
    """x [7, 6, 3], conv1 3 -> 5 and conv2 5 -> 4 channels, stride 1 'same',
    with random biases so the relu kinks vary."""
    rng = np.random.default_rng(0)

    def conv(o, i, k):
        lin = conv_init(rng, o, i, k, 1, k // 2).lin
        return Conv2dParams(LinearParams(lin.weight, Tensor(rng.normal(size=o))), k, 1, k // 2)

    return Tensor(rng.normal(size=(7, 6, 3))), conv(5, 3, k1), conv(4, 5, k2), rng


def dense_block_at(x, conv1, conv2, cells):
    h, w, _ = x.shape
    rows = nm.reshape(conv_block(x, conv1, conv2), (h * w, conv2.out_channels))
    return nm.gather_rows(rows, cells[:, 0] * w + cells[:, 1])


CELL_SETS = {
    "corners": [[0, 0], [6, 5], [0, 5], [6, 0]],
    "edges": [[0, 3], [4, 0], [6, 2], [3, 5]],
    "interior": [[3, 2], [2, 3]],
    "duplicate_and_adjacent": [[3, 3], [3, 3], [3, 4], [4, 4], [2, 3]],
    "single": [[1, 4]],
}


@pytest.mark.parametrize("cells", CELL_SETS.values(), ids=CELL_SETS.keys())
@pytest.mark.parametrize("k1,k2", [(3, 3), (1, 5), (5, 3)])
class TestConvBlockAt:
    def test_matches_conv_block_read_at_cells(self, k1, k2, cells):
        x, conv1, conv2, _ = block_case(k1, k2)
        cells = np.array(cells)
        got = conv_block_at(x, conv1, conv2, cells)
        want = dense_block_at(x, conv1, conv2, cells)
        assert got.shape == (len(cells), 4)
        np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)

    def test_gradients_match_conv_block(self, k1, k2, cells):
        x, conv1, conv2, rng = block_case(k1, k2)
        cells = np.array(cells)
        r = rng.normal(size=(len(cells), 4))
        leaves = (x, conv1.lin.weight, conv1.lin.bias, conv2.lin.weight, conv2.lin.bias)
        found = []
        for block in (conv_block_at, dense_block_at):
            with Tape() as tape:
                backward(tape, weighted_sum(block(x, conv1, conv2, cells), r))
            found.append([tape.grad(t).data for t in leaves])
        for got, want in zip(*found):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_window_ops_save_integer_arrays_only(self, k1, k2, cells):
        """The zero padding costs index arrays on the tape, not a float mask."""
        x, conv1, conv2, _ = block_case(k1, k2)
        with Tape() as tape:
            conv_block_at(x, conv1, conv2, np.array(cells))
        window = ["gather_rows", "scatter_add", "reshape"]
        assert [n.op for n in tape.nodes] == ["reshape", *window, "linear", "relu", *window, "linear"]
        held = [
            obj
            for node in tape.nodes
            if node.op in window
            for obj in list(node.saved) + [c.cell_contents for c in node.vjp.__closure__ or ()]
            if isinstance(obj, np.ndarray)
        ]
        assert held and all(np.issubdtype(a.dtype, np.integer) for a in held)


@pytest.mark.parametrize(
    "k,stride,pad", [(3, 2, 1), (2, 1, 1), (4, 1, 2), (3, 1, 0), (3, 1, 2), (1, 1, 1)]
)
@pytest.mark.parametrize("which", [0, 1])
def test_conv_block_at_rejects_convs_that_change_the_grid(k, stride, pad, which):
    x, conv1, conv2, rng = block_case(3, 3)
    bad = conv_init(rng, 5 if which == 0 else 4, 3 if which == 0 else 5, k, stride, pad)
    convs = [conv1, conv2]
    convs[which] = bad
    with pytest.raises(DimensionError, match="stride 1, an odd kernel and pad kernel // 2"):
        conv_block_at(x, *convs, np.array([[2, 2]]))


@pytest.mark.parametrize(
    "cells,message",
    [
        (np.array([2, 2]), "integer \\[K, 2\\]"),
        (np.array([[2, 2, 0]]), "integer \\[K, 2\\]"),
        (np.array([[2.0, 2.0]]), "integer \\[K, 2\\]"),
        (np.array([[2, 2], [-1, 0]]), "outside the 7x6 grid"),
        (np.array([[7, 0]]), "outside the 7x6 grid"),
        (np.array([[0, 6]]), "outside the 7x6 grid"),
    ],
)
def test_conv_block_at_rejects_bad_cells(cells, message):
    x, conv1, conv2, _ = block_case(3, 3)
    with pytest.raises(DimensionError, match=message):
        conv_block_at(x, conv1, conv2, cells)


def test_conv_block_at_rejects_a_channel_mismatch():
    x, conv1, conv2, _ = block_case(3, 3)
    with pytest.raises(DimensionError, match="does not match 3 channels"):
        conv_block_at(Tensor(np.ones((7, 6, 4))), conv1, conv2, np.array([[2, 2]]))


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


def loop_log_loss(probs, pos_weight, neg_weight, gamma):
    """binary_log_loss's rule, one element at a time in plain floats."""
    terms = []
    for p, a, b in zip(probs.ravel().tolist(), pos_weight.ravel().tolist(),
                       neg_weight.ravel().tolist()):
        p = min(max(p, PROB_FLOOR), 1.0 - PROB_FLOOR)
        terms.append(a * (1.0 - p) ** gamma * math.log(p) + b * p**gamma * math.log(1.0 - p))
    return -math.fsum(terms)


class TestBinaryLogLoss:
    def case(self, seed, shape=(5, 3)):
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.02, 0.98, size=shape)
        return probs, rng.uniform(0, 2, size=shape), rng.uniform(0, 2, size=shape)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_matches_a_float_loop(self, gamma):
        for seed in range(4):
            p, wp, wn = self.case(seed)
            got = binary_log_loss(Tensor(p), wp, wn, gamma).item()
            assert got == pytest.approx(loop_log_loss(p, wp, wn, gamma), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_certain_probabilities_are_clamped(self, gamma):
        p, wp, wn = np.array([0.0, 1.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]), np.ones(4)
        got = binary_log_loss(Tensor(p), wp, wn, gamma).item()
        assert math.isfinite(got)
        assert got == pytest.approx(loop_log_loss(p, wp, wn, gamma), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_gradient_matches_central_differences(self, gamma):
        p, wp, wn = self.case(7, shape=(4, 2))
        assert finite_diff_check(lambda x: binary_log_loss(x, wp, wn, gamma), Tensor(p)) < 1e-4

    @pytest.mark.parametrize("gamma, powers", [(0.0, 0), (2.0, 2)])
    def test_probs_is_the_only_leaf(self, gamma, powers):
        p, wp, wn = self.case(3)
        probs = Tensor(p)
        with Tape() as tape:
            binary_log_loss(probs, wp, wn, gamma)
        produced = {node.output_id for node in tape.nodes}
        leaves = {i for node in tape.nodes for i in node.input_ids} - produced
        assert leaves == {probs.id}
        assert [node.op for node in tape.nodes].count("exp") == powers
