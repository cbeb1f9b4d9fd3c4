"""Dense float64 tensors with an opt-in reverse-mode tape.

Every learned block in the pipeline is assembled from the primitives here,
so one backward() implementation serves the whole model. Tensors are
immutable values because a tensor copies what it is given (geometry.freeze),
and an op's output is an array only the library holds. Gradients live in the
tape, keyed by tensor id, not on the tensors themselves. Running ops outside
any ``with Tape()`` block is the tape-free inference path.

backward() keeps the gradients of the tape's leaves only, the tensors no node
on the tape produced (parameters, input data); each intermediate gradient is
checked for NaN/Inf and dropped once the node that produced it has read it.

An operand of add, sub or mul that is not a Tensor is a constant: a number,
or a float64 array of exactly the other operand's shape (no broadcasting; a
mismatch raises DimensionError naming both shapes). The input of linear may
be a constant array too. A constant is no tape input and gets no gradient,
so targets, masks, weights and sensor data never reach the tape or
backward().
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import freeze

# Ops that only move, select or zero input values, so their outputs skip the NaN/Inf scan.
_FINITE_OPS = frozenset({"reshape", "permute", "gather_rows", "concat", "relu"})


class NumericError(ArithmeticError):
    """An operation produced or received non-finite values."""


class DimensionError(ValueError):
    """Operand shapes violate an operation's contract."""


_tensor_ids = itertools.count(1)


class Tensor:
    """Immutable row-major float64 array with a process-unique id.

    The id is what the tape keys gradients by; two tensors never share one.
    Construction copies its data and rejects NaN/Inf, so a poisoned value
    surfaces at the op that made it instead of ten ops later.
    """

    __slots__ = ("data", "id")

    def __init__(self, data):
        self.data = data
        (arr,) = freeze(self, "data")
        if not np.isfinite(arr).all():
            raise NumericError("tensor contains NaN or Inf")
        self.id = next(_tensor_ids)

    @classmethod
    def _unscanned(cls, data) -> Tensor:
        """The constructor without copy or NaN/Inf scan, for an array only the library holds."""
        t = cls.__new__(cls)
        t.data = np.ascontiguousarray(data, dtype=np.float64)
        t.data.flags.writeable = False
        t.id = next(_tensor_ids)
        return t

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError("item() needs a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, id={self.id})"


@dataclass
class TapeNode:
    op: str
    input_ids: tuple
    output_id: int
    saved: tuple
    vjp: Callable  # grad wrt output -> tuple of grads aligned with input_ids


_tls = threading.local()


def _tape_stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered op record for one forward pass; single-owner, not shareable.

    Nodes are appended in execution order, which is already a topological
    order, so backward() is a single reverse sweep visiting each node once.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []
        self.gradients: dict[int, Tensor] = {}

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: exited a non-top tape")
        return False

    def record(self, op, inputs, output, saved, vjp):
        self.nodes.append(
            TapeNode(op, tuple(t.id for t in inputs), output.id, tuple(saved), vjp)
        )

    def grad(self, t: Tensor) -> Tensor:
        """Gradient of the last backward() wrt the leaf t; zeros if unreachable.
        A tensor that a node on this tape produced has none: ValueError."""
        g = self.gradients.get(t.id)
        if g is None and any(node.output_id == t.id for node in self.nodes):
            raise ValueError(f"{t!r} was produced on this tape; only leaves keep a gradient")
        return Tensor(np.zeros(t.shape)) if g is None else g


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Set tape.gradients to the gradient of a scalar loss wrt each reachable leaf.

    One reverse sweep: each node pops its output's gradient, checks it is finite and
    adds its input gradients, checking each sum into a leaf; only the leaves' remain.
    A NumericError names the op and node index; numpy's overflow warnings are muted.
    """
    if loss.size != 1:
        raise DimensionError("backward requires a scalar loss")
    raw: dict[int, np.ndarray] = {loss.id: np.ones(loss.shape)}
    produced = {node.output_id for node in tape.nodes}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for index, node in reversed(list(enumerate(tape.nodes))):
            gout = raw.pop(node.output_id, None)
            if gout is None:
                continue
            if not np.isfinite(gout).all():
                raise NumericError(f"{node.op} at tape node {index}: gradient contains NaN or Inf")
            for iid, gin in zip(node.input_ids, node.vjp(gout)):
                if gin is not None:
                    raw[iid] = raw[iid] + gin if iid in raw else gin
                    if iid not in produced and not np.isfinite(raw[iid]).all():
                        raise NumericError(
                            f"{node.op} at tape node {index}: a leaf's gradient contains NaN or Inf"
                        )
    # Only leaves are left, and each was checked after its last add.
    tape.gradients = {k: Tensor._unscanned(v) for k, v in raw.items()}
    return tape.gradients


def _emit(op, inputs, out_arr, saved, vjp) -> Tensor:
    tape = active_tape()
    out = Tensor._unscanned(out_arr)
    if op not in _FINITE_OPS and not np.isfinite(out.data).all():
        shapes = ", ".join(str(t.shape) for t in inputs)
        node = "" if tape is None else f" at tape node {len(tape.nodes)}"
        raise NumericError(f"{op} on inputs {shapes}{node}: tensor contains NaN or Inf")
    if tape is not None:
        tape.record(op, inputs, out, saved, vjp)
    return out


def _operands(op: str, a, b):
    """(the Tensor operand, the other one): a Tensor, a float or a float64 array,
    of exactly the first's shape unless it is a float."""
    t, other = (a, b) if isinstance(a, Tensor) else (b, a)
    if isinstance(other, (int, float, np.integer, np.floating)):
        return t, float(other)
    if not isinstance(other, Tensor):
        other = np.asarray(other, dtype=np.float64)
    if other.shape != t.shape:
        raise DimensionError(f"{op}: shape mismatch {t.shape} vs {other.shape}")
    return t, other


def add(a, b) -> Tensor:
    """a + b. Either operand may be a constant: no tape input, no gradient."""
    a, b = _operands("add", a, b)
    if isinstance(b, Tensor):
        return _emit("add", (a, b), a.data + b.data, (), lambda g: (g, g))
    return _emit("add_const", (a,), a.data + b, (), lambda g: (g,))


def sub(a, b) -> Tensor:
    """a - b, as a + (-1 * b). Either operand may be a constant."""
    if isinstance(b, Tensor):
        return add(a, mul(b, -1.0))
    a, b = _operands("sub", a, b)
    return add(a, -b)


def mul(a, b) -> Tensor:
    """a * b, elementwise. Either operand may be a constant: no tape input, no gradient."""
    a, b = _operands("mul", a, b)
    if not isinstance(b, Tensor):
        return _emit("mul_const", (a,), a.data * b, (b,), lambda g: (g * b,))
    ad, bd = a.data, b.data
    return _emit("mul", (a, b), ad * bd, (ad, bd), lambda g: (g * bd, g * ad))


@dataclass(frozen=True)
class LinearParams:
    """Affine map y = x W^T + b with weight [out, in] and bias [out]."""

    weight: Tensor
    bias: Tensor

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise DimensionError("LinearParams: weight must be 2-D, bias 1-D")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise DimensionError(
                f"LinearParams: out dims disagree "
                f"({self.weight.shape[0]} vs {self.bias.shape[0]})"
            )

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]


def linear(x, p: LinearParams) -> Tensor:
    """y[..., o] = sum_i x[..., i] W[o, i] + b[o], over the trailing axis.

    x that is not a Tensor is a constant float64 array: the node's inputs are
    only (weight, bias), and its VJP skips the input gradient g @ W.
    """
    const = not isinstance(x, Tensor)
    xd = np.asarray(x, dtype=np.float64) if const else x.data
    if xd.ndim < 1 or xd.shape[-1] != p.in_dim:
        raise DimensionError(
            f"linear: trailing extent {xd.shape[-1] if xd.ndim else None} != in dim {p.in_dim}"
        )
    W, b = p.weight.data, p.bias.data
    out = xd @ W.T + b

    def vjp(g):
        g2 = g.reshape(-1, p.out_dim)
        params = (g2.T @ xd.reshape(-1, p.in_dim), g2.sum(axis=0))
        return params if const else (g @ W,) + params

    inputs = (p.weight, p.bias) if const else (x, p.weight, p.bias)
    return _emit("linear", inputs, out, (xd,), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    return _emit("matmul", (a, b), ad @ bd, (), lambda g: (g @ bd.T, ad.T @ g))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    if not parts:
        raise DimensionError("concat: empty input list")
    arrs = [t.data for t in parts]
    out = np.concatenate(arrs, axis=axis)
    sizes = [a.shape[axis] for a in arrs]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=axis))

    return _emit("concat", tuple(parts), out, (axis,), vjp)


def _int_index(op: str, idx) -> np.ndarray:
    """idx as int64; a float index would be truncated and a bool mask read as rows 0 and 1."""
    idx = np.asarray(idx)
    if not np.issubdtype(idx.dtype, np.integer):
        raise DimensionError(f"{op}: index must have an integer dtype, got {idx.dtype}")
    return idx.astype(np.int64, copy=False)


def gather_rows(x: Tensor, idx) -> Tensor:
    """Select rows (axis 0) by an integer index array of any shape; repeats allowed.

    The output is [*idx.shape, *x.shape[1:]], so a 2-D index of rows lands on a grid.
    """
    idx = _int_index("gather_rows", idx)
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError("gather_rows: index out of range")
    rows, flat = x.shape[0], idx.ravel()
    flat_shape = flat.shape + x.shape[1:]
    return _emit(
        "gather_rows",
        (x,),
        x.data[idx],
        (idx,),
        lambda g: (_segment_sum(g.reshape(flat_shape), flat, rows),),
    )


def _segment_sum(vals: np.ndarray, idx: np.ndarray, rows: int) -> np.ndarray:
    """out[r] = sum of vals[i] over i with idx[i] == r, as float64 [rows, ...]."""
    width = math.prod(vals.shape[1:])
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    out = np.bincount(flat, weights=vals.ravel(), minlength=rows * width)
    return out.astype(np.float64, copy=False).reshape((rows,) + vals.shape[1:])


def _column_sums(idx: np.ndarray, columns, rows: int) -> np.ndarray:
    """Float64 [rows, J] over J columns: column j is
    np.bincount(idx, weights=columns[j], minlength=rows).

    Each entry starts at 0.0 and adds its terms one at a time in ascending
    position in idx (np.bincount walks its input in order), so a caller that
    puts its samples in a fixed order fixes every sum bit for bit. columns is
    any iterable of 1-D weights as long as idx, a generator included, so a
    caller can build one weighted column at a time.
    """
    sums = [np.bincount(idx, weights=col, minlength=rows) for col in columns]
    if not sums:
        return np.zeros((rows, 0))
    return np.stack(sums, axis=1).astype(np.float64, copy=False)  # bincount: int64 if idx is empty


def scatter_add(values: Tensor, idx, num_rows: int) -> Tensor:
    """Accumulate value rows into a fresh [num_rows, ...] array at idx.

    Each output element starts at 0.0 and adds its terms one at a time in
    ascending value-row order (np.bincount walks its input in order), so
    repeated targets accumulate deterministically.
    """
    idx = _int_index("scatter_add", idx)
    if idx.ndim != 1 or idx.shape[0] != values.shape[0]:
        raise DimensionError("scatter_add: index must be 1-D, one entry per value row")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise DimensionError("scatter_add: index out of range")
    out = _segment_sum(values.data, idx, num_rows)
    return _emit("scatter_add", (values,), out, (idx, num_rows), lambda g: (g[idx],))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Probability vector along axis, computed with max-subtraction."""
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax: axis {axis} out of range for rank {x.ndim}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _emit("softmax", (x,), y, (axis,), vjp)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function on an array, overflow-free: exp(-|x|) never exceeds 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x: Tensor) -> Tensor:
    y = _sigmoid(x.data)
    return _emit("sigmoid", (x,), y, (), lambda g: (g * y * (1.0 - y),))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _emit("relu", (x,), np.where(mask, x.data, 0.0), (), lambda g: (g * mask,))


def sum(x: Tensor, axis=None) -> Tensor:  # noqa: A001 - mirrors the primitive name
    out = x.data.sum(axis=axis)
    shape = x.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _emit("sum", (x,), out, (axis,), vjp)


def mean(x: Tensor) -> Tensor:
    """Mean over every element."""
    count = x.size
    if count == 0:
        raise DimensionError("mean over an empty extent")
    shape = x.shape
    return _emit("mean", (x,), x.data.mean(), (), lambda g: (np.broadcast_to(g, shape) / count,))


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    try:
        out = x.data.reshape(shape)
    except ValueError as err:
        raise DimensionError(f"reshape: {x.shape} -> {shape}: {err}") from None
    old = x.shape
    return _emit("reshape", (x,), out, (shape,), lambda g: (g.reshape(old),))


def permute(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise DimensionError(f"permute: {axes} is not a permutation of rank {x.ndim}")
    inv = np.argsort(axes)
    return _emit(
        "permute", (x,), np.transpose(x.data, axes), (axes,), lambda g: (np.transpose(g, inv),)
    )


def finite_diff_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between tape gradients of f and central differences.

    f must be a pure scalar-valued function of one tensor. Non-finite
    evaluations raise NumericError via the Tensor constructor.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    with Tape() as tape:
        out = f(x)
        if out.size != 1:
            raise DimensionError("finite_diff_check requires a scalar-valued f")
        backward(tape, out)
    analytic = tape.grad(x).data.ravel()
    flat = x.data.ravel()
    worst = 0.0
    for i in range(flat.size):
        bump = np.array(flat)
        bump[i] = flat[i] + eps
        fp = f(Tensor(bump.reshape(x.shape))).item()
        bump[i] = flat[i] - eps
        fm = f(Tensor(bump.reshape(x.shape))).item()
        numeric = (fp - fm) / (2.0 * eps)
        err = abs(analytic[i] - numeric) / max(1e-8, abs(analytic[i]))
        worst = max(worst, err)
    return worst
