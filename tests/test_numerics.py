import math

import numpy as np
import pytest

from bevkit import numerics as nm
from bevkit.layers import (
    attention,
    attention_init,
    binary_log_loss,
    conv_block,
    conv_init,
    linear_init,
)
from bevkit.losses import focal_loss
from bevkit.numerics import (
    DimensionError,
    LinearParams,
    NumericError,
    Tape,
    Tensor,
    backward,
    finite_diff_check,
)


def tensor(values):
    return Tensor(np.asarray(values, dtype=np.float64))


def linear_loop_oracle(x, w, b):
    # independent evaluation: explicit loops, no matmul
    x = np.atleast_2d(x)
    out = np.zeros((x.shape[0], w.shape[0]))
    for r in range(x.shape[0]):
        for o in range(w.shape[0]):
            acc = b[o]
            for i in range(w.shape[1]):
                acc += x[r, i] * w[o, i]
            out[r, o] = acc
    return out


class TestLinear:
    def test_identity(self):
        p = LinearParams(tensor(np.eye(2)), tensor([0.0, 0.0]))
        out = nm.linear(tensor([1.0, 2.0]), p)
        np.testing.assert_array_equal(out.data, [1.0, 2.0])

    def test_forced_value(self):
        p = LinearParams(tensor([[1.0, 1.0]]), tensor([1.0]))
        out = nm.linear(tensor([1.0, 1.0]), p)
        np.testing.assert_array_equal(out.data, [3.0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=(3, 4))
            w = rng.normal(size=(2, 4))
            b = rng.normal(size=2)
            out = nm.linear(tensor(x), LinearParams(tensor(w), tensor(b)))
            assert np.max(np.abs(out.data - linear_loop_oracle(x, w, b))) < 1e-12

    def test_shape_mismatch(self):
        p = LinearParams(tensor(np.eye(2)), tensor([0.0, 0.0]))
        with pytest.raises(DimensionError):
            nm.linear(tensor([1.0, 2.0, 3.0]), p)
        with pytest.raises(DimensionError):
            nm.linear(np.ones(3), p)

    def test_constant_input_records_weight_and_bias_only(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 4))
        p = LinearParams(tensor(rng.normal(size=(5, 4))), tensor(rng.normal(size=5)))
        r = rng.normal(size=(2, 3, 5))
        with Tape() as ref:
            y_ref = nm.linear(tensor(x), p)
            backward(ref, nm.sum(nm.mul(y_ref, r)))
        with Tape() as tape:
            y = nm.linear(x, p)
            (node,) = tape.nodes
            backward(tape, nm.sum(nm.mul(y, r)))
        assert node.op == "linear" and node.input_ids == (p.weight.id, p.bias.id)
        assert len(node.vjp(r)) == 2
        assert np.array_equal(y.data, y_ref.data)
        assert set(tape.gradients) == {p.weight.id, p.bias.id}
        for t in (p.weight, p.bias):
            assert np.array_equal(tape.grad(t).data, ref.grad(t).data)


class TestSoftmax:
    def test_symmetry(self):
        out = nm.softmax(tensor([0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_stability(self):
        out = nm.softmax(tensor([1000.0, 0.0]), axis=0)
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1.0 - 1e-9

    def test_direct_formula(self):
        x = tensor([math.log(1), math.log(2), math.log(3)])
        out = nm.softmax(x, axis=0)
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_probability_vector_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = tensor(rng.normal(scale=5.0, size=(4, 6)))
            out = nm.softmax(x, axis=1)
            assert np.all(out.data >= 0)
            np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)


class TestBackward:
    def test_sigmoid_analytic(self):
        x = tensor([0.0])
        with Tape() as tape:
            loss = nm.sum(nm.sigmoid(x))
            backward(tape, loss)
        np.testing.assert_allclose(tape.grad(x).data, [0.25], atol=1e-15)

    def test_linear_chain_outer_product(self):
        rng = np.random.default_rng(1)
        w = tensor(rng.normal(size=(3, 4)))
        x = tensor(rng.normal(size=4))
        with Tape() as tape:
            loss = nm.sum(nm.linear(x, LinearParams(w, tensor(np.zeros(3)))))
            backward(tape, loss)
        expected = np.outer(np.ones(3), x.data)
        np.testing.assert_allclose(tape.grad(w).data, expected, atol=1e-12)

    def test_composed_graph_matches_finite_diff(self):
        def f(x):
            p = LinearParams(tensor([[0.3, -0.7, 0.2], [0.5, 0.1, -0.4]]), tensor([0.1, -0.2]))
            h = nm.relu(nm.linear(x, p))
            s = nm.softmax(nm.concat([h, nm.mul(h, 0.5)], axis=0), axis=0)
            return nm.sum(nm.mul(s, s))

        rng = np.random.default_rng(3)
        err = finite_diff_check(f, tensor(rng.normal(size=3) + 0.5))
        assert err < 1e-4

    def test_backward_twice_bit_identical(self):
        x = tensor([0.3, -0.4, 1.2])
        with Tape() as tape:
            loss = nm.sum(nm.mul(nm.sigmoid(x), x))
            g1 = backward(tape, loss)
            first = {k: v.data.copy() for k, v in g1.items()}
            g2 = backward(tape, loss)
        for k, v in g2.items():
            assert np.array_equal(first[k], v.data)

    def test_non_scalar_loss_rejected(self):
        x = tensor([1.0, 2.0])
        with Tape() as tape:
            y = nm.mul(x, 2.0)
            with pytest.raises(DimensionError):
                backward(tape, y)

    def test_unreachable_input_gets_zero(self):
        x = tensor([1.0])
        y = tensor([2.0])
        with Tape() as tape:
            loss = nm.sum(nm.mul(x, 3.0))
            backward(tape, loss)
        np.testing.assert_array_equal(tape.grad(y).data, [0.0])


def _graph_loss(rng):
    """Scalar loss of a small graph through conv_block, attention and focal_loss."""
    image = tensor(rng.normal(size=(6, 6, 3)))
    conv1, conv2 = conv_init(rng, 8, 3, 3, 1, 1), conv_init(rng, 8, 8, 3, 1, 1)
    queries = tensor(rng.normal(size=(4, 8)))
    attn, head = attention_init(rng, 8), linear_init(rng, 2, 8)
    feats = nm.reshape(conv_block(image, conv1, conv2), (36, 8))
    attended, _ = attention(queries, feats, attn)
    probs = nm.sigmoid(nm.linear(attended, head))
    return focal_loss(probs, rng.integers(0, 2, size=(4, 2)).astype(np.float64))


class TestLeafGradients:
    def test_keys_are_leaves_and_match_a_full_sweep(self):
        with Tape() as tape:
            loss = _graph_loss(np.random.default_rng(5))
            backward(tape, loss)
        # Reference: the same reverse sweep keeping every gradient it computes.
        full = {loss.id: np.ones(loss.shape)}
        for node in reversed(tape.nodes):
            gout = full.get(node.output_id)
            if gout is None:
                continue
            for iid, gin in zip(node.input_ids, node.vjp(gout)):
                if gin is not None:
                    full[iid] = gin if iid not in full else full[iid] + gin
        produced = {node.output_id for node in tape.nodes}
        leaves = {iid for node in tape.nodes for iid in node.input_ids} - produced
        assert set(tape.gradients) == leaves
        assert len(full) > len(leaves)
        for k, g in tape.gradients.items():
            assert np.array_equal(g.data, full[k])

    def test_grad_of_intermediate_raises(self):
        x = tensor([1.0, 2.0])
        with Tape() as tape:
            y = nm.mul(x, 3.0)
            backward(tape, nm.sum(y))
        with pytest.raises(ValueError, match="produced on this tape"):
            tape.grad(y)
        np.testing.assert_array_equal(tape.grad(x).data, [3.0, 3.0])

    def test_non_finite_intermediate_gradient_names_op_and_node(self):
        # Forward 1e-300 -> 1 -> 1e300; backward 1 -> 1e300 -> inf into node 0's output.
        with Tape() as tape:
            y = nm.mul(nm.mul(nm.mul(tensor([1e-300]), 1.0), 1e300), 1e300)
            assert np.isfinite(y.data).all()
            with pytest.raises(NumericError, match=r"^mul_const at tape node 0: "):
                backward(tape, y)

    def test_non_finite_leaf_gradient_names_op_and_node(self):
        x = tensor([1e-300])
        with Tape() as tape:
            y = nm.mul(nm.mul(x, 1e300), 1e300)
        with pytest.raises(
            NumericError, match=r"^mul_const at tape node 0: a leaf's gradient contains NaN or Inf"
        ):
            backward(tape, y)


class TestFiniteDiff:
    def test_square(self):
        err = finite_diff_check(lambda x: nm.sum(nm.mul(x, x)), tensor([3.0]))
        assert err < 1e-8

    def test_bce_of_sigmoid_hand_value(self):
        # loss = -log(sigmoid(x)) at x = 0; d/dx = sigmoid(0) - 1 = -0.5
        def f(x):
            return binary_log_loss(nm.sigmoid(x), np.ones(1), np.zeros(1), 0.0)

        x = tensor([0.0])
        with Tape() as tape:
            backward(tape, f(x))
        np.testing.assert_allclose(tape.grad(x).data, [-0.5], atol=1e-12)
        assert finite_diff_check(f, x) < 1e-6

    def test_constant_function(self):
        err = finite_diff_check(lambda x: nm.sum(nm.mul(x, 0.0)), tensor([1.0, 2.0]))
        assert err == 0.0


OPS_FOR_GRAD_CHECK = [
    ("add", lambda x: nm.sum(nm.add(x, x))),
    ("mul", lambda x: nm.sum(nm.mul(x, x))),
    ("linear", lambda x: nm.sum(
        nm.linear(x, LinearParams(tensor([[0.5, -1.0, 2.0, 0.3]]), tensor([0.1])))
    )),
    ("matmul", lambda x: nm.sum(nm.matmul(nm.reshape(x, (2, 2)), nm.reshape(x, (2, 2))))),
    ("concat", lambda x: nm.sum(nm.mul(nm.concat([x, x], axis=0), 0.5))),
    ("gather", lambda x: nm.sum(nm.gather_rows(nm.reshape(x, (4, 1)), np.array([0, 2, 2])))),
    ("scatter", lambda x: nm.sum(
        nm.scatter_add(nm.reshape(x, (4, 1)), np.array([0, 1, 1, 2]), 3)
    )),
    ("softmax", lambda x: nm.sum(nm.mul(nm.softmax(x, axis=0), tensor([1.0, -2.0, 0.5, 3.0])))),
    ("sigmoid", lambda x: nm.sum(nm.sigmoid(x))),
    ("relu", lambda x: nm.sum(nm.relu(x))),
    ("sum_axis", lambda x: nm.sum(nm.mul(nm.sum(nm.reshape(x, (2, 2)), axis=1), 2.0))),
    ("mean", lambda x: nm.mean(nm.mul(x, x))),
    ("permute", lambda x: nm.sum(nm.mul(nm.permute(nm.reshape(x, (2, 2)), (1, 0)), tensor([[1.0, 2.0], [3.0, 4.0]])))),
]


@pytest.mark.parametrize("name,fn", OPS_FOR_GRAD_CHECK, ids=[n for n, _ in OPS_FOR_GRAD_CHECK])
def test_every_primitive_passes_finite_diff(name, fn):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.1, 1.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        if name == "relu":
            # keep clear of the kink so central differences are valid
            x = np.sign(x) * (np.abs(x) + 0.05)
        assert finite_diff_check(fn, tensor(x)) < 1e-4, f"{name} seed {seed}"


class TestTensorContract:
    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NumericError), np.errstate(over="ignore"):
            nm.mul(tensor([1e300]), 1e300)

    def test_immutability(self):
        t = tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_ids_unique(self):
        a, b = tensor([1.0]), tensor([1.0])
        assert a.id != b.id



class TestUnscannedOps:
    """The data-movement ops and relu build their outputs without the NaN/Inf scan."""

    def test_the_five_ops(self):
        assert nm._FINITE_OPS == {"reshape", "permute", "gather_rows", "concat", "relu"}

    def test_outputs_are_read_only_contiguous_with_fresh_ids(self):
        x = tensor(np.arange(-3.0, 3.0).reshape(2, 3))
        outs = [
            nm.reshape(x, (3, 2)),
            nm.permute(x, (1, 0)),
            nm.gather_rows(x, [1, 0, 1]),
            nm.concat([x, x], axis=1),
            nm.relu(x),
        ]
        wants = [
            x.data.reshape(3, 2),
            x.data.T,
            x.data[[1, 0, 1]],
            np.concatenate([x.data, x.data], axis=1),
            np.maximum(x.data, 0.0),
        ]
        assert len({t.id for t in outs + [x]}) == len(outs) + 1
        for out, want in zip(outs, wants):
            assert out.data.dtype == np.float64 and out.data.flags.c_contiguous
            assert not out.data.flags.writeable
            assert np.array_equal(out.data, want)

    def test_leaf_gradients_are_read_only(self):
        x = tensor([1.0, -2.0])
        with Tape() as tape:
            backward(tape, nm.sum(nm.mul(x, x)))
        g = tape.grad(x)
        assert np.array_equal(g.data, [2.0, -4.0]) and not g.data.flags.writeable

class TestNanNamesOp:
    def test_outside_tape(self):
        with pytest.raises(
            NumericError, match=r"^mul on inputs \(1,\), \(1,\): tensor contains NaN or Inf"
        ), np.errstate(over="ignore"):
            nm.mul(tensor([1e300]), tensor([1e300]))

    def test_on_tape_names_node_index(self):
        with Tape() as tape:
            nm.mul(tensor([2.0]), 3.0)
            with pytest.raises(
                NumericError, match=r"^mul_const on inputs \(1,\) at tape node 1: "
            ), np.errstate(over="ignore"):
                nm.mul(tensor([1e300]), 1e300)
        assert [node.op for node in tape.nodes] == ["mul_const"]


CONSTANT_OPS = [("add", nm.add), ("sub", nm.sub), ("mul", nm.mul)]


def _value_and_grad(op, a, other):
    """op(a, other) and d sum(op(a, other) * w) / d a on a fresh tape."""
    w = np.linspace(-1.5, 2.0, a.size).reshape(a.shape)
    with Tape() as tape:
        out = op(a, other)
        backward(tape, nm.sum(nm.mul(out, w)))
    return out.data, tape.grad(a).data


class TestConstantOperands:
    @pytest.mark.parametrize("name,op", CONSTANT_OPS, ids=[n for n, _ in CONSTANT_OPS])
    def test_array_constant_matches_tensor_form(self, name, op):
        rng = np.random.default_rng(3)
        a, c = tensor(rng.normal(size=(3, 4))), rng.normal(size=(3, 4))
        out, grad = _value_and_grad(op, a, c)
        want_out, want_grad = _value_and_grad(op, a, Tensor(c))
        assert np.array_equal(out, want_out) and np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("name,op", CONSTANT_OPS, ids=[n for n, _ in CONSTANT_OPS])
    def test_node_records_only_the_tensor_input(self, name, op):
        a = tensor([[1.0, -2.0, 3.0]])
        with Tape() as tape:
            op(a, np.array([[0.5, 0.25, -4.0]]))
        assert [node.input_ids for node in tape.nodes] == [(a.id,)]

    @pytest.mark.parametrize("left", [1.0, np.array([[0.5, -3.0], [2.0, 7.25]])], ids=["number", "array"])
    def test_constant_on_the_left_of_sub(self, left):
        p = tensor([[0.2, 0.9], [1e-7, 0.5]])
        out, grad = _value_and_grad(lambda x, c: nm.sub(c, x), p, left)
        tensor_left = Tensor(np.broadcast_to(left, p.shape))
        want_out, want_grad = _value_and_grad(lambda x, c: nm.sub(c, x), p, tensor_left)
        assert np.array_equal(out, want_out) and np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("name,op", CONSTANT_OPS, ids=[n for n, _ in CONSTANT_OPS])
    def test_constant_shape_must_match_exactly(self, name, op):
        with pytest.raises(DimensionError, match=rf"^{name}: .*\(1, 3\) vs \(3,\)"):
            op(tensor([[1.0, 2.0, 3.0]]), np.zeros(3))


class TestScatterGather:
    def test_scatter_add_accumulates_deterministically(self):
        vals = tensor([[1.0], [2.0], [4.0]])
        out = nm.scatter_add(vals, np.array([1, 1, 0]), 3)
        np.testing.assert_array_equal(out.data, [[4.0], [3.0], [0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(DimensionError):
            nm.gather_rows(tensor([[1.0]]), np.array([2]))

    @pytest.mark.parametrize("idx, dtype", [
        (np.array([0.0, 1.5]), "float64"),
        (np.array([True, False]), "bool"),
        ([], "float64"),
    ], ids=["float", "bool-mask", "empty-list"])
    @pytest.mark.parametrize("op", ["gather_rows", "scatter_add"])
    def test_non_integer_index_names_its_dtype(self, op, idx, dtype):
        """A float index used to be truncated and a bool mask read as rows 0 and 1."""
        x = tensor([[1.0], [2.0]])
        with pytest.raises(DimensionError, match=f"{op}: index must have an integer dtype, got {dtype}"):
            nm.gather_rows(x, idx) if op == "gather_rows" else nm.scatter_add(x, idx, 2)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16, np.int64])
    def test_any_integer_index_dtype_is_accepted(self, dtype):
        idx = np.array([1, 0, 1], dtype=dtype)
        np.testing.assert_array_equal(nm.gather_rows(tensor([[1.0], [2.0]]), idx).data,
                                      [[2.0], [1.0], [2.0]])
        np.testing.assert_array_equal(nm.scatter_add(tensor([[1.0], [2.0], [4.0]]), idx, 2).data,
                                      [[2.0], [5.0]])


class TestColumnSums:
    def test_each_column_is_one_bincount_in_sample_order(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(0, 7, size=40)
        cols = rng.normal(size=(3, 40)) * 10.0 ** rng.integers(-8, 8, size=(3, 40))
        out = nm._column_sums(idx, (c for c in cols), 9)
        assert out.shape == (9, 3) and out.dtype == np.float64
        for j, col in enumerate(cols):
            assert np.array_equal(out[:, j], np.bincount(idx, weights=col, minlength=9))
        for r in range(7):  # one term at a time from 0.0, in ascending position
            expected = 0.0
            for i in np.flatnonzero(idx == r):
                expected += cols[1, i]
            assert out[r, 1] == expected

    def test_an_empty_index_gives_float64_zeros(self):
        out = nm._column_sums(np.zeros(0, dtype=np.int64), np.zeros((2, 0)), 4)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.zeros((4, 2)))

    def test_no_columns_give_an_empty_float64_block(self):
        out = nm._column_sums(np.array([0, 2]), iter(()), 4)
        assert out.shape == (4, 0) and out.dtype == np.float64


def test_backward_skips_a_branch_that_misses_the_loss():
    x, spare = tensor([1.0, -2.0]), tensor([3.0, 4.0])
    with Tape() as tape:
        nm.relu(nm.add(x, spare))  # computed, never used by the loss
        loss = nm.sum(nm.mul(x, x))
    (dead,) = [node for node in tape.nodes if node.op == "relu"]
    calls = []
    dead.vjp = lambda g: calls.append(g)
    backward(tape, loss)
    assert calls == []
    np.testing.assert_array_equal(tape.grad(spare).data, [0.0, 0.0])
    np.testing.assert_array_equal(tape.grad(x).data, [2.0, -4.0])
