"""Minimal reverse-mode differentiation core on float32 or float64 numpy
arrays.

Only the handful of operations the estimator needs are implemented:
matmul, broadcasting add/mul, concat, relu, leaky_relu, sigmoid, tanh, an
MSE loss, two fused dense layers, ``dense`` (x @ W + b, optional relu) and
``pair_dense`` (the same layer applied to every (row of a, row of b)
concatenation without building it), and the three edge-list ops of graph
attention: ``gather`` (rows by index; its backward scatter-adds),
``segment_softmax`` and ``segment_sum`` (over contiguous, non-empty row
segments).
Each op records one backward closure, which maps the output gradient to a
tuple of gradients, one per parent in order; ``backward`` walks the tape in
reverse topological order and hands each parent that requires a gradient
its entry. Everything is deliberately single-threaded and deterministic.

Precision: every op, ``backward`` and ``AdamW`` keep their inputs' dtype, so
one code path runs in float32 or in float64. A Tensor keeps float32 and
float64 data as given and casts anything else (Python numbers, integer
arrays) to float64; ``astype`` is the one op that changes precision, and its
backward casts the gradient back. Constants made from a Python scalar take
the dtype of the array they meet (``scale``), since a float64 numpy scalar
would upcast a float32 array.

Inference mode: inside ``with no_grad():`` every op returns a Tensor with
no parents, no backward closure and ``requires_grad=False``, so nothing is
kept for a backward pass and each intermediate array is freed as soon as
the next op has used it. The mode is per thread, and the previous mode
comes back on exit, also when the block raises.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Run the enclosed ops off the tape (see the module docstring)."""
    previous = _grad_mode.enabled
    _grad_mode.enabled = False
    try:
        yield
    finally:
        _grad_mode.enabled = previous


_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None):
        data = np.asarray(data)
        if data.dtype.type not in _FLOAT_TYPES:
            data = data.astype(np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        if not _grad_mode.enabled:
            # an op's output under no_grad: drop the closure (and the
            # arrays it holds) instead of linking it into a tape
            parents, vjp = (), None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) init of a (fan_in, fan_out)
    weight."""
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the parent's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data + b.data
    except ValueError:
        raise ValueError(f"add: shapes {a.data.shape} and {b.data.shape} "
                         "are not broadcast-compatible") from None
    return Tensor(out_data, parents=(a, b),
                  vjp=lambda g: (_unbroadcast(g, a.data.shape),
                                 _unbroadcast(g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: shapes {a.data.shape} and {b.data.shape} "
                         "are not broadcast-compatible") from None
    return Tensor(out_data, parents=(a, b),
                  vjp=lambda g: (_unbroadcast(g * b.data, a.data.shape),
                                 _unbroadcast(g * a.data, b.data.shape)))


def scale(a: Tensor, k: float) -> Tensor:
    return mul(a, constant(a.data.dtype.type(k)))


def astype(a: Tensor, dtype) -> Tensor:
    """``a`` in ``dtype``; the gradient is cast back to ``a``'s dtype. Returns
    ``a`` itself when it already has that dtype."""
    source = a.data.dtype
    if source == dtype:
        return a
    return Tensor(a.data.astype(dtype), parents=(a,),
                  vjp=lambda g: (g.astype(source),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: shapes {a.data.shape} and {b.data.shape} "
                         "do not align")
    return Tensor(a.data @ b.data, parents=(a, b),
                  vjp=lambda g: (g @ b.data.T, a.data.T @ g))


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = tuple(tensors)
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  parents=tensors,
                  vjp=lambda g: tuple(np.split(g, cuts, axis=axis)))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return Tensor(np.where(mask, a.data, 0.0), parents=(a,),
                  vjp=lambda g: (g * mask,))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = a.data > 0
    return Tensor(np.where(mask, a.data, slope * a.data), parents=(a,),
                  vjp=lambda g: (np.where(mask, g, slope * g),))


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(y, parents=(a,), vjp=lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return Tensor(y, parents=(a,), vjp=lambda g: (g * (1.0 - y * y),))


def gather(a: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``a[index]``; the backward scatter-adds each row's gradient into
    the row it was read from."""

    def vjp(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, index, g)
        return (grad,)

    return Tensor(a.data[index], parents=(a,), vjp=vjp)


def _segment_sizes(starts: np.ndarray, n_rows: int) -> np.ndarray:
    """Row count of each segment; a segment runs from its start to the next
    one's (the last to ``n_rows``)."""
    sizes = np.diff(np.append(starts, n_rows))
    if len(starts) == 0 or starts[0] != 0 or not (sizes > 0).all():
        raise ValueError(f"segments of {n_rows} rows must start at row 0 and "
                         f"be non-empty, got starts {np.asarray(starts)}")
    return sizes


def segment_softmax(a: Tensor, starts: np.ndarray) -> Tensor:
    """Softmax down the rows of each segment (see ``_segment_sizes``), each
    column on its own."""
    sizes = _segment_sizes(starts, a.data.shape[0])
    peak = np.maximum.reduceat(a.data, starts, axis=0)
    e = np.exp(a.data - np.repeat(peak, sizes, axis=0))
    y = e / np.repeat(np.add.reduceat(e, starts, axis=0), sizes, axis=0)

    def vjp(g):
        dot = np.add.reduceat(g * y, starts, axis=0)
        return (y * (g - np.repeat(dot, sizes, axis=0)),)

    return Tensor(y, parents=(a,), vjp=vjp)


def segment_sum(a: Tensor, starts: np.ndarray) -> Tensor:
    """One row per segment (see ``_segment_sizes``): the sum of its rows."""
    sizes = _segment_sizes(starts, a.data.shape[0])
    return Tensor(np.add.reduceat(a.data, starts, axis=0), parents=(a,),
                  vjp=lambda g: (np.repeat(g, sizes, axis=0),))


def dense(x: Tensor, w: Tensor, b: Tensor, relu: bool = False) -> Tensor:
    """x @ w + b, then relu when asked, as one tape node."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0] \
            or b.data.shape != (1, w.data.shape[1]):
        raise ValueError(f"dense: shapes {x.data.shape}, {w.data.shape} and "
                         f"{b.data.shape} do not align")
    out = x.data @ w.data
    out += b.data
    if relu:
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        if relu:
            g = g * (out > 0.0)
        return g @ w.data.T, x.data.T @ g, g.sum(axis=0, keepdims=True)

    return Tensor(out, parents=(x, w, b), vjp=vjp)


def pair_dense(inner: Tensor, outer: Tensor, w: Tensor, b: Tensor,
               relu: bool = False) -> Tensor:
    """``dense`` over every concatenated pair of rows, outer-major: row
    o * n_inner + i is [inner[i], outer[o]] @ w + b (then relu when asked).

    The pairs are never built: inner @ w[:h] and outer @ w[h:] are computed
    once per row and broadcast-added, and the backward sums the gradient
    over each side before its matmul.
    """
    if inner.data.ndim != 2 or outer.data.ndim != 2 or w.data.ndim != 2 \
            or inner.data.shape[1] + outer.data.shape[1] != w.data.shape[0] \
            or b.data.shape != (1, w.data.shape[1]):
        raise ValueError(f"pair_dense: shapes {inner.data.shape}, "
                         f"{outer.data.shape}, {w.data.shape} and "
                         f"{b.data.shape} do not align")
    n, h = inner.data.shape
    m, k = outer.data.shape[0], w.data.shape[1]
    part_in = inner.data @ w.data[:h]
    part_in += b.data
    part_out = outer.data @ w.data[h:]
    out = np.add(part_out[:, None, :], part_in[None, :, :])
    if relu:
        np.maximum(out, 0.0, out=out)

    def vjp(g):
        g = g.reshape(m, n, k)
        if relu:
            g = g * (out > 0.0)
        g_in, g_out = g.sum(axis=0), g.sum(axis=1)
        return (g_in @ w.data[:h].T, g_out @ w.data[h:].T,
                np.vstack([inner.data.T @ g_in, outer.data.T @ g_out]),
                g_in.sum(axis=0, keepdims=True))

    return Tensor(out.reshape(m * n, k), parents=(inner, outer, w, b), vjp=vjp)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.data.shape != target.data.shape:
        raise ValueError(f"mse_loss: shapes {pred.data.shape} and "
                         f"{target.data.shape} differ")
    diff = pred.data - target.data
    n = pred.data.size
    return Tensor(np.mean(diff * diff), parents=(pred, target),
                  vjp=lambda g: (g * 2.0 * diff / n, g * -2.0 * diff / n))


def backward(root: Tensor) -> None:
    """Accumulate d(root)/d(x) into .grad of every reachable tensor."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node.grad is None or node._vjp is None:  # a leaf has no closure
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if not parent.requires_grad:
                continue
            # a closure may hand back an array another tensor also holds
            # (add returns g itself to both parents), so a stored gradient
            # is never written in place: the first is kept as is, later
            # ones are summed into a new array
            parent.grad = g if parent.grad is None else parent.grad + g


def zero_grads(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay (w <- w - lr*wd*w before the
    bias-corrected moment update)."""

    def __init__(self, params, lr: float = 0.002, betas=(0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.01):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def steplr(lr0: float, step_size: int, gamma: float, epoch: int) -> float:
    """Staircase decay: lr0 * gamma ** floor(epoch / step_size)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 * gamma ** (epoch // step_size)

