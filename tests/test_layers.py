"""conv2d as one tape op, conv_block_at against conv_block, the segment sum
under scatter_add / gather_rows, binary_log_loss against a float loop, and
attention against a reference that has a key bias."""

import math
import tracemalloc

import numpy as np
import pytest

from bevkit import numerics as nm
from bevkit import oracles
from bevkit.layers import (
    PROB_FLOOR,
    AttentionParams,
    Conv2dParams,
    attention,
    attention_init,
    binary_log_loss,
    conv2d,
    conv_block,
    conv_block_at,
    conv_init,
    _row_taps,
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


def weighted_mean(y: Tensor, r: np.ndarray) -> Tensor:
    return nm.mean(nm.mul(y, Tensor(r)))


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
    return nm.reshape(nm.linear(patches, p.lin), (oh, ow, p.lin.out_dim))


def grads(conv, x, p, r):
    with Tape() as tape:
        y = conv(x, p)
        backward(tape, weighted_mean(y, r))
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

        assert finite_diff_check(lambda t: weighted_mean(conv2d(t, p), r), x) < 1e-6
        w, b = p.lin.weight, p.lin.bias
        assert finite_diff_check(lambda t: weighted_mean(conv2d(x, with_lin(t, b)), r), w) < 1e-6
        assert finite_diff_check(lambda t: weighted_mean(conv2d(x, with_lin(w, t)), r), b) < 1e-6

    def test_matches_scatter_gather_linear_to_rounding(self, k, stride, pad, shape):
        # The forward and the weight gradient sum one kernel row at a time, and the
        # input gradient is a transposed conv, so all three sum in another order
        # than the one patch GEMM. At kernel 1 there is one row and they agree exactly.
        x, p, rng = conv_case(k, stride, pad, shape)
        r = rng.normal(size=conv2d(x, p).shape)
        y, (gx, gw, gb) = grads(conv2d, x, p, r)
        y_ref, (gx_ref, gw_ref, gb_ref) = grads(composed_conv2d, x, p, r)
        for got, want in ((y.data, y_ref.data), (gx, gx_ref), (gw, gw_ref)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(gb, gb_ref)
        if k == 1:
            assert np.array_equal(y.data, y_ref.data) and np.array_equal(gw, gw_ref)

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
            backward(tape, weighted_mean(y, r))
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


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k,stride,pad", CASES + [(3, 2, 2), (3, 1, 4)])
def test_input_gradient_is_the_oracle_adjoint(k, stride, pad, shape):
    """<conv(x), r> = <x, gx> |r| for the bias-free conv, which is linear in x; gx is the
    gradient of mean(conv(x) * r) over its |r| entries. At kernel 3, pad 2 is the widest
    pad whose border windows all touch the input; at pad 4 some windows see only zero
    padding."""
    x, p, rng = conv_case(k, stride, pad, shape)
    r = rng.normal(size=conv2d(x, p).shape)
    _, (gx, _, _) = grads(conv2d, x, p, r)
    y = oracles.conv2d_oracle(x.data, p.lin.weight.data, np.zeros(4), k, stride, pad)
    assert abs(np.vdot(x.data, gx) * r.size - np.vdot(y, r)) <= 1e-12 * abs(np.vdot(y, r))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("k,stride,pad", CASES + [(3, 2, 2), (3, 1, 4)])
def test_weight_gradient_is_the_oracle_adjoint(k, stride, pad, shape):
    """<gw, V> |r| = <conv_V(x), r> for any weight V: the bias-free conv is linear in its
    weight."""
    x, p, rng = conv_case(k, stride, pad, shape)
    r = rng.normal(size=conv2d(x, p).shape)
    _, (_, gw, _) = grads(conv2d, x, p, r)
    v = rng.normal(size=gw.shape)
    y = oracles.conv2d_oracle(x.data, v, np.zeros(4), k, stride, pad)
    assert abs(np.vdot(gw, v) * r.size - np.vdot(y, r)) <= 1e-12 * abs(np.vdot(y, r))


@pytest.mark.parametrize("k,stride,pad", [(1, 2, 0), (2, 1, 1), (2, 3, 1), (4, 3, 2), (3, 4, 0)])
def test_forward_matches_oracle_when_stride_and_kernel_differ(k, stride, pad):
    """Kernel rows are read from the tap buffer by row phase (y mod stride); these mix
    strides below, above and coprime to the kernel, and even kernels."""
    x, p, _ = conv_case(k, stride, pad, (9, 7, 3))
    expected = oracles.conv2d_oracle(x.data, p.lin.weight.data, p.lin.bias.data, k, stride, pad)
    assert np.max(np.abs(conv2d(x, p).data - expected)) < 1e-12


@pytest.mark.parametrize("sliced", [False, True], ids=["contiguous", "sliced"])
def test_row_taps_match_a_per_tap_loop(sliced):
    """Operand ky, row oy * ow + ox, holds padded[s*oy + ky, s*ox + kx, c] at column
    kx*C + c, for kernels 1-4, strides 1-3 and pads 0-2; the sliced source is a window
    of a larger array, as the input gradient's is."""
    rng = np.random.default_rng(3)
    h, w, c = 7, 6, 2
    for k in range(1, 5):
        for s in range(1, 4):
            for pad in range(3):
                hp, wp = h + 2 * pad, w + 2 * pad
                oh, ow = (hp - k) // s + 1, (wp - k) // s + 1
                if oh < 1 or ow < 1:
                    continue
                padded = np.pad(rng.normal(size=(h, w, c)), ((pad, pad), (pad, pad), (0, 0)))
                if sliced:
                    outer = np.zeros((hp + 3, wp + 4, c))
                    outer[2 : 2 + hp, 1 : 1 + wp] = padded
                    padded = outer[2 : 2 + hp, 1 : 1 + wp]
                    assert not padded.flags.c_contiguous
                operands = _row_taps(padded, k, s, oh, ow)
                assert len(operands) == k
                for ky, rows in enumerate(operands):
                    expected = np.empty((oh * ow, k * c))
                    for oy in range(oh):
                        for ox in range(ow):
                            for kx in range(k):
                                expected[oy * ow + ox, kx * c : (kx + 1) * c] = (
                                    padded[s * oy + ky, s * ox + kx]
                                )
                    assert np.array_equal(rows, expected), (k, s, pad, ky)


def test_conv2d_builds_no_patch_matrix():
    """At 64x64x32 -> 16 (kernel 3, stride 1, pad 1) the im2col matrix [4096, 288] would
    take 9.4 MB, above either bound: the tap buffer is [66, 64, 96] (3.2 MB). Measured
    5.41 MB forward and 4.39 MB VJP; a patch-matrix conv takes 11.08 and 9.48."""
    rng = np.random.default_rng(0)
    p = conv_init(rng, 16, 32, kernel=3, stride=1, pad=1)
    x = Tensor(rng.normal(size=(64, 64, 32)))
    r = rng.normal(size=(64, 64, 16))
    with Tape() as tape:
        tracemalloc.start()
        try:
            conv2d(x, p)
            forward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (node,) = tape.nodes
        tracemalloc.start()
        try:
            node.vjp(r)
            vjp_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert forward_peak < 6e6
    assert vjp_peak < 5e6


@pytest.mark.parametrize(
    "field,kernel,stride,pad,in_dim",
    [
        ("kernel", 0, 1, 0, 9),
        ("stride", 3, 0, 1, 9),
        ("pad", 3, 1, -1, 9),
        ("lin.in_dim", 3, 1, 1, 10),
    ],
)
def test_conv2d_params_rejects_a_bad_field(field, kernel, stride, pad, in_dim):
    lin = LinearParams(Tensor(np.ones((2, in_dim))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError, match=f"Conv2dParams: {field} "):
        Conv2dParams(lin, kernel, stride, pad)


def test_conv2d_params_rejects_a_non_integer_stride():
    lin = LinearParams(Tensor(np.ones((2, 9))), Tensor(np.zeros(2)))
    with pytest.raises(DimensionError, match="Conv2dParams: stride must be an integer"):
        Conv2dParams(lin, 3, 1.0, 1)


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
    rows = nm.reshape(conv_block(x, conv1, conv2), (h * w, conv2.lin.out_dim))
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
                backward(tape, weighted_mean(block(x, conv1, conv2, cells), r))
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
            backward(tape, nm.mean(nm.mul(y, Tensor(g))))
        # The mean hands each row g / |g|, as g times the rounded 1 / |g|.
        assert np.array_equal(tape.grad(x).data, self.loop_sum(g * (1.0 / g.size), 6))

    def test_gather_rows_with_a_grid_index(self):
        """A [2, 5] index gives [2, 5, ...] rows; the VJP sums them back in the order of
        the raveled index, as for the 1-D index."""
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(6, 3)))
        grid = self.IDX.reshape(2, 5)
        g = spread(rng, (2, 5, 3))
        with Tape() as tape:
            y = nm.gather_rows(x, grid)
            backward(tape, nm.mean(nm.mul(y, Tensor(g))))
        assert y.shape == (2, 5, 3)
        assert np.array_equal(y.data, x.data[grid])
        rows = g.reshape(10, 3) * (1.0 / g.size)
        assert np.array_equal(tape.grad(x).data, self.loop_sum(rows, 6))

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
        """One fused node whose only input is probs. Every cell of its VJP closure is bound
        on both paths (a tracer reads them all), and it holds the power arrays
        (1 - p)^gamma and p^gamma only at gamma != 0."""
        p, wp, wn = self.case(3)
        probs = Tensor(p)
        with Tape() as tape:
            out = binary_log_loss(probs, wp, wn, gamma)
        (node,) = tape.nodes
        assert (node.op, node.input_ids, node.output_id) == ("binary_log_loss", (probs.id,), out.id)
        names = node.vjp.__code__.co_freevars
        held = {name: cell.cell_contents for name, cell in zip(names, node.vjp.__closure__)}
        assert sum(isinstance(held[name], np.ndarray) for name in ("q_pow", "p_pow")) == powers

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_gradient_is_zero_where_the_clamp_is_active(self, gamma):
        p = np.array([0.0, PROB_FLOOR, 1.0 - PROB_FLOOR, 1.0, 0.3])
        probs = Tensor(p)
        with Tape() as tape:
            backward(tape, binary_log_loss(probs, np.ones(5), np.full(5, 0.5), gamma))
        g = tape.grad(probs).data
        assert np.array_equal(g[:4], np.zeros(4)) and g[4] != 0.0

    def test_weights_of_another_shape_are_rejected(self):
        p, wp, wn = self.case(0)
        with pytest.raises(DimensionError, match=r"binary_log_loss: shape mismatch \(5, 3\) vs \(3,\)"):
            binary_log_loss(Tensor(p), wp[0], wn, 2.0)


def biased_attention(queries, memory, p: AttentionParams, key_bias):
    """attention in numpy with a key bias added: memory @ key + key_bias."""
    q = queries @ p.query.weight.data.T + p.query.bias.data
    k = memory @ p.key.data + key_bias
    v = memory @ p.value.weight.data.T + p.value.bias.data
    logits = q @ k.T / math.sqrt(q.shape[1])
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True) @ v


# (queries, memory rows): the decoder's K candidates over an n x n BEV (T = n^2), and
# the task features' self-attention over 2K modality tokens.
@pytest.mark.parametrize("k,t", [(12, 16 * 16), (12, 24)], ids=["decoder", "self_attention"])
def test_a_key_bias_would_change_no_output(k, t):
    """A key bias adds q . b_k to every logit of a query's row; softmax cancels the shift,
    which is why AttentionParams.key is a bare weight."""
    rng = np.random.default_rng(k + t)
    c = 16
    p = attention_init(rng, c)
    p = AttentionParams(
        LinearParams(p.query.weight, Tensor(rng.normal(size=c))),
        p.key,
        LinearParams(p.value.weight, Tensor(rng.normal(size=c))),
    )
    memory = rng.normal(size=(t, c))
    queries = memory[:k] if t == 2 * k else rng.normal(size=(k, c))
    out = attention(Tensor(queries), Tensor(memory), p).data
    for scale in (1.0, 10.0):
        ref = biased_attention(queries, memory, p, scale * rng.normal(size=c))
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
