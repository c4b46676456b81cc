"""Reverse-mode autodiff over float64 numpy arrays.

Leaves come from `tensor`. Every operation builds its node with `_node`,
passing its forward computation once, as a closure over its parents: `_node`
runs it for the value and, when recording, keeps it together with the parents
and the VJP. The topologically ordered node list (`trace`) doubles as a
computation record: `backward` walks it once in reverse, and `replay` reruns
each kept forward with the current leaf values. The value and its replay are
thus one piece of code, which is what makes finite-difference gradient checks
measure exactly the function the tape differentiates (all data-dependent
choices stay frozen).

Inside `no_record()` `_node` keeps only the value: no parents, no forward
closure, no VJP. Inference (`pipeline.infer_video`) always runs that way,
since it never calls `backward`, and so on whole-clip blocks; training and
gradient checks record in full, on one-frame blocks whose gradients sum
frame by frame (`recording()` tells `pipeline.run_stage` which). A VJP
receives its node's output value from `backward` instead of closing over
the node, so no node refers to itself and reference counting frees a tape
as soon as its last user drops it.

Attention is one fused node with a hand-written VJP, `attention_heads`: all
heads of a block, with two per-head kernels, softmax self-attention (STT) and
attention over scalar-weighted key/value sets (memory). Each runs the same
numpy operations in the same order as the per-head graph of primitives
(narrow, transpose, matmul, scale, softmax or exp, concat, ...), and the VJP
reuses the scores the forward saved, so values and gradients are
bit-identical to that graph. Replay refreshes the saved intermediates with
the value; `no_record()` drops them with the forward. Parents are listed in
an order under which `backward` sums gradients into the shared projections
and parameters upstream in the same order as through the per-head graphs,
since the parent order decides where `trace` meets them and floating-point
sums depend on their order: (q, k, v) for softmax, and (q, V_1..V_E,
K_1..K_E, then each head's weights, head 0 first) for weighted sets, as the
concat of per-head nodes added them. A parent listed several times receives
its terms in the order the per-head graphs would sum them.

`backward` stores a parent's first gradient without copying it, so one array
may be the `.grad` of several nodes. That is safe because gradients are
never updated in place: accumulation builds a new array, no VJP writes into
its incoming gradient or a saved array, and `gradient_map` and `grad_check`
copy out what they return.

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

from .parallel import thread_map

Array = np.ndarray

_recording: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "vqs_autodiff_recording", default=True
)


class NonFiniteValueError(FloatingPointError):
    """Raised when a forward pass produces inf or nan."""


def recording() -> bool:
    """Whether new nodes keep their parents, forward and VJP (False inside no_record())."""
    return _recording.get()


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

    def __init__(self, value, name: Optional[str] = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: Optional[Array] = None
        self.parents: tuple[Tensor, ...] = ()
        self._fwd: Optional[Callable[[], Array]] = None
        self._vjp: Optional[Callable[[Array, Array], Sequence[Optional[Array]]]] = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        label = self.name or ("leaf" if not self.parents else "node")
        return f"Tensor({label}, shape={self.value.shape})"


ComputationRecord = list  # list[Tensor] in topological order, leaves first


def tensor(value, name: Optional[str] = None) -> Tensor:
    """A leaf node (parameter or constant input)."""
    return Tensor(value, name=name)


def _node(
    forward: Callable[[], Array],
    parents: tuple[Tensor, ...],
    vjp: Callable[[Array, Array], Sequence[Optional[Array]]],
) -> Tensor:
    """The node of one operation: its value is `forward()`.

    `vjp(grad, value)` returns one gradient (or None) per parent. When
    recording, the node keeps `parents`, `vjp` and `forward`, which `replay`
    reruns; inside no_record() it keeps only the value.
    """
    node = Tensor(forward())
    if _recording.get():
        node.parents, node._fwd, node._vjp = parents, forward, vjp
    return node


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(lambda: a.value + b.value, (a, b),
                 lambda g, y: (_unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))


def subtract(a: Tensor, b: Tensor) -> Tensor:
    return _node(lambda: a.value - b.value, (a, b),
                 lambda g, y: (_unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))


def multiply(a: Tensor, b: Tensor) -> Tensor:
    return _node(lambda: a.value * b.value, (a, b), lambda g, y: (
        _unbroadcast(g * b.value, a.value.shape),
        _unbroadcast(g * a.value, b.value.shape),
    ))


def divide(a: Tensor, b: Tensor) -> Tensor:
    return _node(lambda: a.value / b.value, (a, b), lambda g, y: (
        _unbroadcast(g / b.value, a.value.shape),
        _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
    ))


def scale(a: Tensor, c: float) -> Tensor:
    return _node(lambda: a.value * c, (a,), lambda g, y: (g * c,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.value.ndim != 2 or b.value.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.value.shape} @ {b.value.shape}")
    if a.value.shape[1] != b.value.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.value.shape} @ {b.value.shape}")
    return _node(lambda: a.value @ b.value, (a, b), lambda g, y: (g @ b.value.T, a.value.T @ g))


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return _node(lambda: a.value.reshape(shape), (a,), lambda g, y: (g.reshape(a.value.shape),))


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

    return _node(lambda: np.concatenate([p.value for p in parts], axis=axis), parts, vjp)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.value.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def vjp(g, y):
        full = np.zeros_like(a.value)
        full[index] = g
        return (full,)

    return _node(lambda: a.value[index].copy(), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    return _node(lambda: a.value.sum(), (a,),
                 lambda g, y: (np.broadcast_to(g, a.value.shape).copy(),))


def mean_all(a: Tensor) -> Tensor:
    return scale(sum_all(a), 1.0 / a.value.size)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    def vjp(g, y):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.value.shape).copy(),)

    return _node(lambda: a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    return scale(sum_axis(a, axis, keepdims), 1.0 / a.value.shape[axis])


def tanh(a: Tensor) -> Tensor:
    return _node(lambda: np.tanh(a.value), (a,), lambda g, y: (g * (1.0 - y * y),))


def stable_sigmoid(x: Array) -> Array:
    """1 / (1 + exp(-x)) without overflow for large negative x."""
    pos = x >= 0
    z = np.empty_like(x)
    z[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    z[~pos] = ex / (1.0 + ex)
    return z


def sigmoid(a: Tensor) -> Tensor:
    return _node(lambda: stable_sigmoid(a.value), (a,), lambda g, y: (g * y * (1.0 - y),))


def abs_(a: Tensor) -> Tensor:
    return _node(lambda: np.abs(a.value), (a,), lambda g, y: (g * np.sign(a.value),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    def forward():
        shifted = a.value - a.value.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=axis, keepdims=True)

    def vjp(g, y):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _node(forward, (a,), vjp)


def bce_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Elementwise binary cross-entropy on logits, numerically stable."""

    def forward():
        x, z = logits.value, targets.value
        return np.maximum(x, 0.0) - x * z + np.log1p(np.exp(-np.abs(x)))

    def vjp(g, y):
        x, z = logits.value, targets.value
        return (
            _unbroadcast(g * (stable_sigmoid(x) - z), x.shape),
            _unbroadcast(g * (-x), z.shape),
        )

    return _node(forward, (logits, targets), vjp)


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


# Query rows per block of the backward pass's row-local N x M passes: a block
# of dP, P and their product stays in cache.
_BLOCK_ROWS = 64


def _row_blocks(n: int) -> list[slice]:
    """[0, n) in blocks of _BLOCK_ROWS rows; a last block of one row joins the
    one before it, since numpy hands a one-row product to gemv, not gemm."""
    starts = list(range(0, n, _BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def attention_heads(
    q: Tensor,
    kv_sets: Sequence[tuple[Tensor, Tensor]],
    weights: Optional[Sequence[Tensor]],
    heads: Sequence[slice],
) -> Tensor:
    """Attention of q onto key/value sets for the columns h of each head, side by side.

    Without weights there is one (k, v) set, and each head is
    softmax(q_h k_h^T / sqrt(d_h)) v_h. With one scalar weight a set, each
    head is sum_e w_e exp(S_e - m) V_e / sum_e w_e rowsum(exp(S_e - m)) with
    S_e = (q_h / sqrt(d_h)) K_e,h^T. Its per-query shift m is the row max over
    all S_e at build time; it is detached and replay keeps it, like any frozen
    routing choice. A weight is a parent twice a head, for its numerator and
    its denominator term.

    All heads are one node. They run on up to one thread per CPU
    (`parallel.thread_map`), and each writes only its own columns of the
    output and of the q, k and v gradients, so no value depends on threads.
    q, k and v get full-width gradients, zero outside the heads' columns.
    Each set's score matrices are one (H, N, M) buffer, allocated by the
    calling thread, and built, normalised and kept for the backward pass in
    place; so are their gradients.

    Softmax backward is dS = P * (dP - rowsum(dP * P)) (Dao et al.,
    FlashAttention, arXiv 2205.14135), built in blocks of query rows. The
    three products that sum over N or M (dS K, Q^T dS, P^T dO) run over all
    rows at once: splitting them changes which BLAS kernel runs, and with it
    the bits.
    """
    if len(kv_sets) != (1 if weights is None else len(weights)):
        raise ValueError("attention takes one key/value set without weights, or one weight a set")
    heads = tuple(heads)
    keys, values = [k for k, _ in kv_sets], [v for _, v in kv_sets]
    scales = [1.0 / math.sqrt(cols.stop - cols.start) for cols in heads]
    offsets = np.cumsum([0] + [cols.stop - cols.start for cols in heads]).tolist()
    out_cols = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    shifts: list[Optional[Array]] = [None] * len(heads)
    saved: list = []

    def forward_head(h, out, scores):
        cols = heads[h]
        qs = q.value[:, cols].copy()
        kts = [k.value[:, cols].T.copy() for k in keys]
        vss = [v.value[:, cols].copy() for v in values]
        if weights is None:
            ph = np.matmul(qs, kts[0], out=scores[0][h])
            ph *= scales[h]
            ph -= ph.max(axis=-1, keepdims=True)
            np.exp(ph, out=ph)
            ph /= ph.sum(axis=-1, keepdims=True)
            out[:, out_cols[h]] = ph @ vss[0]
            return qs, kts, vss, [ph]
        qs *= scales[h]
        exps = [np.matmul(qs, kt, out=s[h]) for kt, s in zip(kts, scores)]
        if shifts[h] is None:  # max is exact: the sets' row maxima, without copying the scores
            shifts[h] = np.maximum.reduce([p.max(axis=1, keepdims=True) for p in exps])
        num = den = None
        mats, sums = [], []
        for p, vs, w in zip(exps, vss, weights):
            p -= shifts[h]
            np.exp(p, out=p)
            mats.append(p @ vs)
            sums.append(p.sum(axis=1, keepdims=True))
            num = mats[-1] * w.value if num is None else num + mats[-1] * w.value
            den = sums[-1] * w.value if den is None else den + sums[-1] * w.value
        out[:, out_cols[h]] = num / den
        return qs, kts, vss, exps, mats, sums, num, den

    def forward():
        nonlocal saved
        out = np.empty((q.value.shape[0], offsets[-1]))
        scores = [np.empty((len(heads), q.value.shape[0], k.value.shape[0])) for k in keys]
        saved = thread_map(lambda h: forward_head(h, out, scores), range(len(heads)))
        return out

    def vjp(g, y):
        g_q = np.zeros_like(q.value)
        g_keys, g_values = [np.zeros_like(k.value) for k in keys], [np.zeros_like(v.value) for v in values]
        g_s = [np.empty((len(heads), *p.shape)) for p in saved[0][3]]  # dS, shaped like each set's scores
        if weights is None:
            blocks = _row_blocks(g_s[0].shape[1])
            scratch = np.empty((len(heads), max(b.stop - b.start for b in blocks), g_s[0].shape[2]))

        def head(h):
            cols, g_o = heads[h], g[:, out_cols[h]]
            if weights is None:
                qs, (kt,), (vs,), (ph,) = saved[h]
                for rows in blocks:
                    ds, pr = g_s[0][h, rows], ph[rows]
                    np.matmul(g_o[rows], vs.T, out=ds)
                    ds -= np.multiply(ds, pr, out=scratch[h, : len(ds)]).sum(axis=-1, keepdims=True)
                    ds *= pr
                    ds *= scales[h]
                g_q[:, cols] = g_s[0][h] @ kt.T
                g_keys[0][:, cols] = (qs.T @ g_s[0][h]).T
                g_values[0][:, cols] = ph.T @ g_o
                return []
            qs, kts, vss, exps, mats, sums, num, den = saved[h]
            g_num = g_o / den
            g_den = _unbroadcast(-g_o * num / (den * den), den.shape)
            g_qs = None
            g_w_num, g_w_den = [], []
            for e, (w, kt, vs, p, mat, row_sum) in enumerate(zip(weights, kts, vss, exps, mats, sums)):
                g_mat = g_num * w.value
                g_w_num.append(_unbroadcast(g_num * mat, w.value.shape))
                g_w_den.append(_unbroadcast(g_den * row_sum, w.value.shape))
                g_s_e = np.matmul(g_mat, vs.T, out=g_s[e][h])
                g_s_e += g_den * w.value
                g_s_e *= p
                g_values[e][:, cols] = p.T @ g_mat
                g_keys[e][:, cols] = (qs.T @ g_s_e).T
                g_qs = g_s_e @ kt.T if g_qs is None else g_qs + g_s_e @ kt.T
            g_q[:, cols] = g_qs * scales[h]
            # A weight shared by several sets gets its numerator terms first,
            # then its denominator terms, in set order: the composed graph's sum.
            terms: dict[int, list[Array]] = {}
            for w, g_w in [*zip(weights, g_w_num), *zip(weights, g_w_den)]:
                terms.setdefault(id(w), []).append(g_w)
            return [terms[id(w)].pop(0) for w in weights for _ in range(2)]

        g_weights = thread_map(head, range(len(heads)))
        if len(heads) > 1:
            # a sum of per-head gradients zero-padded to full width turns -0.0
            # into +0.0; this keeps the gradients equal to that sum bit for bit
            for grad in (g_q, *g_keys, *g_values):
                grad += 0.0
        kv_grads = (*g_keys, *g_values) if weights is None else (*g_values, *g_keys)
        return (g_q, *kv_grads, *(g_w for per_head in g_weights for g_w in per_head))

    kv_parents = (*keys, *values) if weights is None else (*values, *keys)
    w_parents = () if weights is None else tuple(w for _ in heads for w in weights for _ in range(2))
    return _node(forward, (q, *kv_parents, *w_parents), vjp)


def attention(
    q_in: Tensor,
    kv_in: Sequence[Tensor],
    weights: Optional[Sequence[Tensor]],
    params: AttentionParams,
    num_heads: int,
) -> Tensor:
    """Multi-head attention of q_in's tokens onto each token matrix of kv_in,
    projected by `params`: softmax attention without weights, attention over
    scalar-weighted sets with one weight a matrix (`attention_heads`)."""
    d = q_in.value.shape[-1]
    if d % num_heads != 0:
        raise ValueError(f"model dim {d} is not divisible by {num_heads} heads")
    d_head = d // num_heads
    q = matmul(q_in, params.wq)
    kv_sets = [(matmul(t, params.wk), matmul(t, params.wv)) for t in kv_in]
    heads = [slice(h * d_head, (h + 1) * d_head) for h in range(num_heads)]
    return matmul(attention_heads(q, kv_sets, weights, heads), params.wo)


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
                parent.grad = pg
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


def finite_differences(
    loss: Tensor,
    params: Sequence[Tensor],
    max_coords_per_param: int = 4,
    step: float = 1e-5,
    seed: int = 0,
) -> Iterator[tuple[Tensor, int, float, float]]:
    """(param, flat index, analytic, central-difference) gradient of `loss` at
    up to `max_coords_per_param` seeded coordinates of each parameter.

    Finite differences rerun the recorded computation via replay, so any
    data-dependent routing baked into the record stays fixed; the comparison
    therefore checks the differentiated function itself. Once exhausted, it
    leaves every value replayed at the unperturbed leaves.
    """
    record = backward(loss)
    if not np.all(np.isfinite(loss.value)):
        raise ValueError("non-finite loss during gradient check")
    analytic = [
        (p.grad.copy() if p.grad is not None else np.zeros_like(p.value)) for p in params
    ]
    rng = np.random.default_rng(seed)
    for p, ga_full in zip(params, analytic):
        n = p.value.size
        for flat_idx in rng.permutation(n)[: min(max_coords_per_param, n)]:
            original = p.value.flat[flat_idx]
            p.value.flat[flat_idx] = original + step
            replay(record)
            f_plus = float(loss.value)
            p.value.flat[flat_idx] = original - step
            replay(record)
            f_minus = float(loss.value)
            p.value.flat[flat_idx] = original
            numeric = (f_plus - f_minus) / (2.0 * step)
            yield p, int(flat_idx), float(ga_full.flat[flat_idx]), numeric
    replay(record)


def grad_check(
    loss: Tensor,
    params: Sequence[Tensor] | dict[str, Tensor],
    max_coords_per_param: int = 4,
    step: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max of |a - n| / (|a| + |n|), the sum floored at 1e-8, over the analytic
    and numeric gradients of `finite_differences`; 0.0 for no parameters."""
    if isinstance(params, dict):
        params = list(params.values())
    if not params:
        return 0.0
    checks = finite_differences(loss, params, max_coords_per_param, step, seed)
    return max([0.0, *(abs(a - n) / max(1e-8, abs(a) + abs(n)) for _, _, a, n in checks)])
