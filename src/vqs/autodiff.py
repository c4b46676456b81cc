"""Reverse-mode autodiff over float64 numpy arrays.

Every operation returns a `Tensor` node that remembers its parents, how to
recompute its value from them, and how to push a gradient back to them. The
topologically ordered node list (`trace`) doubles as a computation record:
`backward` walks it once in reverse, and `replay` re-executes the recorded
forward with the current leaf values, which is what makes finite-difference
gradient checks measure exactly the function the tape differentiates (all
data-dependent choices stay frozen).

Inside `no_record()` operations keep only their values: no parents, no
recompute closure, no VJP. Inference (`pipeline.infer_video`) always runs
that way, since it never calls `backward`; training and gradient checks
record in full. A VJP receives its node's output value from `backward`
instead of closing over the node, so no node refers to itself and reference
counting frees a tape as soon as its last user drops it.

Nodes do not check their values for inf or nan: that would cost a full scan
per operation. Non-finite values are caught at the boundaries instead: in
every stage's decoded candidates (`pipeline.decode_masks`, which raises
NonFiniteValueError), in the training loss and in the parameters after each
optimizer step (`training.overfit_train`), and in parameters read from a
checkpoint (`optim.load_params`).
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

Array = np.ndarray

_recording: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "vqs_autodiff_recording", default=True
)


class NonFiniteValueError(FloatingPointError):
    """Raised when a forward pass produces inf or nan."""


@contextlib.contextmanager
def no_record() -> Iterator[None]:
    """Build value-only nodes inside the block; the previous mode returns after it."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """A float64 array plus its position in the computation record."""

    __slots__ = ("value", "grad", "parents", "_fwd", "_vjp", "name")

    def __init__(
        self,
        value,
        parents: tuple["Tensor", ...] = (),
        fwd: Optional[Callable[[], Array]] = None,
        vjp: Optional[Callable[[Array, Array], Sequence[Optional[Array]]]] = None,
        name: Optional[str] = None,
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[Array] = None
        if _recording.get():
            self.parents = parents
            self._fwd = fwd
            self._vjp = vjp
        else:
            self.parents = ()
            self._fwd = None
            self._vjp = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        label = self.name or ("leaf" if not self.parents else "node")
        return f"Tensor({label}, shape={self.value.shape})"


ComputationRecord = list  # list[Tensor] in topological order, leaves first


def tensor(value, name: Optional[str] = None) -> Tensor:
    """A leaf node (parameter or constant input)."""
    return Tensor(value, name=name)


constant = tensor


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value + b.value, (a, b), fwd=lambda: a.value + b.value,
                  vjp=lambda g, y: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value - b.value, (a, b), fwd=lambda: a.value - b.value,
                  vjp=lambda g, y: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value * b.value, (a, b), fwd=lambda: a.value * b.value, vjp=lambda g, y: (
        _unbroadcast(g * b.value, a.value.shape),
        _unbroadcast(g * a.value, b.value.shape),
    ))


def divide(a: Tensor, b: Tensor) -> Tensor:
    return Tensor(a.value / b.value, (a, b), fwd=lambda: a.value / b.value, vjp=lambda g, y: (
        _unbroadcast(g / b.value, a.value.shape),
        _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
    ))


def scale(a: Tensor, c: float) -> Tensor:
    return Tensor(a.value * c, (a,), fwd=lambda: a.value * c, vjp=lambda g, y: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")
    return Tensor(a.value @ b.value, (a, b), fwd=lambda: a.value @ b.value,
                  vjp=lambda g, y: (g @ b.value.T, a.value.T @ g))


def transpose(a: Tensor) -> Tensor:
    return Tensor(a.value.T.copy(), (a,), fwd=lambda: a.value.T.copy(), vjp=lambda g, y: (g.T,))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return Tensor(a.value.reshape(shape), (a,), fwd=lambda: a.value.reshape(shape),
                  vjp=lambda g, y: (g.reshape(a.value.shape),))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    if not parts:
        raise ValueError("concat of zero tensors")
    sizes = [p.value.shape[axis] for p in parts]

    def vjp(g, y):
        grads = []
        offset = 0
        for size in sizes:
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            grads.append(g[tuple(index)])
            offset += size
        return tuple(grads)

    return Tensor(
        np.concatenate([p.value for p in parts], axis=axis),
        parts,
        fwd=lambda: np.concatenate([p.value for p in parts], axis=axis),
        vjp=vjp,
    )


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.value.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g, y):
        full = np.zeros_like(a.value)
        full[index] = g
        return (full,)

    return Tensor(a.value[index].copy(), (a,), fwd=lambda: a.value[index].copy(), vjp=vjp)


def sum_all(a: Tensor) -> Tensor:
    return Tensor(a.value.sum(), (a,), fwd=lambda: a.value.sum(),
                  vjp=lambda g, y: (np.broadcast_to(g, a.value.shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.value.size)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    def vjp(g, y):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return Tensor(
        a.value.sum(axis=axis, keepdims=keepdims),
        (a,),
        fwd=lambda: a.value.sum(axis=axis, keepdims=keepdims),
        vjp=vjp,
    )


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    return scale(sum_axis(a, axis, keepdims), 1.0 / a.value.shape[axis])


def exp(a: Tensor) -> Tensor:
    return Tensor(np.exp(a.value), (a,), fwd=lambda: np.exp(a.value), vjp=lambda g, y: (g * y,))


def tanh(a: Tensor) -> Tensor:
    return Tensor(np.tanh(a.value), (a,), fwd=lambda: np.tanh(a.value),
                  vjp=lambda g, y: (g * (1.0 - y * y),))


def sigmoid(a: Tensor) -> Tensor:
    def fwd():
        x = a.value
        pos = x >= 0
        z = np.empty_like(x)
        z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        z[~pos] = ex / (1.0 + ex)
        return z

    return Tensor(fwd(), (a,), fwd=fwd, vjp=lambda g, y: (g * y * (1.0 - y),))


def abs_(a: Tensor) -> Tensor:
    return Tensor(np.abs(a.value), (a,), fwd=lambda: np.abs(a.value),
                  vjp=lambda g, y: (g * np.sign(a.value),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    def fwd():
        shifted = a.value - a.value.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)

    def vjp(g, y):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return Tensor(fwd(), (a,), fwd=fwd, vjp=vjp)


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Elementwise binary cross-entropy on logits, numerically stable."""

    def fwd():
        x, z = logits.value, targets.value
        return np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))

    def vjp(g, y):
        x, z = logits.value, targets.value
        sig = np.empty_like(x)
        pos = x >= 0
        sig[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        sig[~pos] = ex / (1.0 + ex)
        return (
            _unbroadcast(g * (sig - z), x.shape),
            _unbroadcast(g * (-x), z.shape),
        )

    return Tensor(fwd(), (logits, targets), fwd=fwd, vjp=vjp)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w + b."""
    return add(matmul(x, w), b)


@dataclass
class AttentionParams:
    """Projection weights for one attention block.

    Projections are bias-free: a key bias shifts every score in a softmax row
    by the same amount and thus cannot affect the output at all.
    """

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor


def attention(
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    params: AttentionParams,
    num_heads: int,
) -> Tensor:
    """Multi-head scaled-dot-product attention over 2-D token matrices."""
    d = q_in.value.shape[-1]
    if d % num_heads != 0:
        raise ValueError(f"model dim {d} is not divisible by {num_heads} heads")
    d_head = d // num_heads
    q = matmul(q_in, params.wq)
    k = matmul(k_in, params.wk)
    v = matmul(v_in, params.wv)
    heads = []
    for h in range(num_heads):
        qs = narrow(q, 1, h * d_head, d_head)
        ks = narrow(k, 1, h * d_head, d_head)
        vs = narrow(v, 1, h * d_head, d_head)
        scores = scale(matmul(qs, transpose(ks)), 1.0 / math.sqrt(d_head))
        weights = softmax(scores, axis=-1)
        heads.append(matmul(weights, vs))
    merged = concat(heads, axis=1) if len(heads) > 1 else heads[0]
    return matmul(merged, params.wo)


def trace(root: Tensor) -> ComputationRecord:
    """Topological order (leaves first) of every node reachable from root."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> ComputationRecord:
    """Accumulate gradients of a scalar loss into .grad over the whole record."""
    if loss.value.size != 1:
        raise ValueError(f"loss must be a scalar, got shape {loss.value.shape}")
    record = trace(loss)
    for node in record:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(record):
        if node.grad is None or node._vjp is None:
            continue
        parent_grads = node._vjp(node.grad, node.value)
        for parent, pg in zip(node.parents, parent_grads):
            if pg is None:
                continue
            if parent.grad is None:
                parent.grad = np.array(pg, dtype=np.float64, copy=True)
            else:
                parent.grad = parent.grad + pg
    return record


def replay(record: ComputationRecord) -> None:
    """Recompute every non-leaf value from the current leaf values."""
    for node in record:
        if node._fwd is not None:
            node.value = np.asarray(node._fwd(), dtype=np.float64)


def gradient_map(loss: Tensor, params: dict[str, Tensor]) -> dict[str, Array]:
    """Gradients per named parameter; unreachable parameters get zeros."""
    backward(loss)
    return {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.value))
        for name, p in params.items()
    }


def grad_check(
    loss: Tensor,
    params: Sequence[Tensor] | dict[str, Tensor],
    max_coords_per_param: int = 4,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Finite differences rerun the recorded computation via replay, so any
    data-dependent routing baked into the record stays fixed; the comparison
    therefore checks the differentiated function itself. Returns 0.0 for an
    empty parameter set.
    """
    if isinstance(params, dict):
        params = list(params.values())
    if not params:
        return 0.0
    record = backward(loss)
    if not np.all(np.isfinite(loss.value)):
        raise ValueError("non-finite loss during gradient check")
    analytic = [
        (p.grad.copy() if p.grad is not None else np.zeros_like(p.value)) for p in params
    ]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ga_full in zip(params, analytic):
        n = p.value.size
        coords = rng.permutation(n)[: min(max_coords_per_param, n)]
        for flat_idx in coords:
            original = p.value.flat[flat_idx]
            p.value.flat[flat_idx] = original + step
            replay(record)
            f_plus = float(loss.value)
            p.value.flat[flat_idx] = original - step
            replay(record)
            f_minus = float(loss.value)
            p.value.flat[flat_idx] = original
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic_val = float(ga_full.flat[flat_idx])
            err = abs(analytic_val - numeric) / max(1e-8, abs(analytic_val) + abs(numeric))
            worst = max(worst, err)
    replay(record)
    return worst
