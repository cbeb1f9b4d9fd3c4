import math
import struct

import numpy as np
import pytest

from bevkit import numerics as nm
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


class TestFiniteDiff:
    def test_square(self):
        err = finite_diff_check(lambda x: nm.sum(nm.mul(x, x)), tensor([3.0]))
        assert err < 1e-8

    def test_bce_of_sigmoid_hand_value(self):
        # loss = -log(sigmoid(x)) at x = 0; d/dx = sigmoid(0) - 1 = -0.5
        def f(x):
            p = nm.clamp(nm.sigmoid(x), 1e-7, 1 - 1e-7)
            return nm.mul(nm.sum(nm.log(p)), -1.0)

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
    ("log", lambda x: nm.sum(nm.log(nm.add(nm.mul(x, x), 1.0)))),
    ("exp", lambda x: nm.sum(nm.exp(nm.mul(x, 0.3)))),
    ("clamp", lambda x: nm.sum(nm.clamp(x, -0.9, 0.9))),
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
        with pytest.raises(NumericError):
            nm.log(tensor([0.0]))

    def test_immutability(self):
        t = tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_ids_unique(self):
        a, b = tensor([1.0]), tensor([1.0])
        assert a.id != b.id


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        t = tensor(rng.normal(size=(3, 4, 2)))
        path = tmp_path / "t.bkt"
        nm.save_tensor(path, t)
        back = nm.load_tensor(path)
        assert back.shape == t.shape
        assert np.array_equal(back.data, t.data)

    def test_scalar_roundtrip(self, tmp_path):
        t = Tensor(4.5)
        path = tmp_path / "s.bkt"
        nm.save_tensor(path, t)
        assert nm.load_tensor(path).item() == 4.5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bkt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            nm.load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        t = tensor(np.ones((2, 2)))
        path = tmp_path / "t.bkt"
        nm.save_tensor(path, t)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="payload"):
            nm.load_tensor(path)

    @pytest.mark.parametrize("blob", [b"BKT1\x00", b"BKT1\x02\x00\x00\x00" + b"\x00" * 8])
    def test_truncated_header(self, blob):
        with pytest.raises(ValueError, match="<bytes>: truncated tensor header"):
            nm.tensor_from_bytes(blob)

    @pytest.mark.parametrize("extents", [(2**64 - 1, 0), (2**63, 0), (2**62, 2**62, 0), (0, 2**60)])
    def test_extents_numpy_cannot_index(self, extents):
        blob = b"BKT1" + struct.pack("<I", len(extents)) + struct.pack(f"<{len(extents)}Q", *extents)
        with pytest.raises(ValueError, match="blob.bkt: extents .* too large"):
            nm.tensor_from_bytes(blob, "blob.bkt")

    def test_largest_empty_extent_loads(self):
        blob = b"BKT1" + struct.pack("<I", 2) + struct.pack("<2Q", 2**60 - 1, 0)
        assert nm.tensor_from_bytes(blob).shape == (2**60 - 1, 0)


class TestScatterGather:
    def test_scatter_add_accumulates_deterministically(self):
        vals = tensor([[1.0], [2.0], [4.0]])
        out = nm.scatter_add(vals, np.array([1, 1, 0]), 3)
        np.testing.assert_array_equal(out.data, [[4.0], [3.0], [0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(DimensionError):
            nm.gather_rows(tensor([[1.0]]), np.array([2]))
