"""Minimal reverse-mode differentiation core on float32 or float64 numpy
arrays.

Only the handful of operations the estimator needs are implemented:
matmul, broadcasting add/mul, concat, relu, leaky_relu, sigmoid, tanh,
row-wise softmax, transpose, an MSE loss, and two fused dense layers:
``dense`` (x @ W + b, optional relu) and ``pair_dense`` (the same layer
applied to every (row of a, row of b) concatenation without building it).
Each op records a backward closure; ``backward`` walks the tape in reverse
topological order. Everything is deliberately single-threaded and
deterministic.

Precision: every op, ``backward`` and ``AdamW`` keep their inputs' dtype, so
one code path runs in float32 or in float64. A Tensor keeps float32 and
float64 data as given and casts anything else (Python numbers, integer
arrays) to float64; ``astype`` is the one op that changes precision, and its
backward casts the gradient back. Constants made from a Python scalar take
the dtype of the array they meet (``scale``), since a float64 numpy scalar
would upcast a float32 array.

Inference mode: inside ``with no_grad():`` every op returns a Tensor with
no parents, no backward closures and ``requires_grad=False``, so nothing is
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjps=()):
        data = np.asarray(data)
        if data.dtype.type not in _FLOAT_TYPES:
            data = data.astype(np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        if not _grad_mode.enabled:
            # an op's output under no_grad: drop the closures (and the
            # arrays they hold) instead of linking them into a tape
            parents, vjps = (), ()
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._vjps = vjps

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
                  vjps=(lambda g: _unbroadcast(g, a.data.shape),
                        lambda g: _unbroadcast(g, b.data.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out_data = a.data * b.data
    except ValueError:
        raise ValueError(f"mul: shapes {a.data.shape} and {b.data.shape} "
                         "are not broadcast-compatible") from None
    return Tensor(out_data, parents=(a, b),
                  vjps=(lambda g: _unbroadcast(g * b.data, a.data.shape),
                        lambda g: _unbroadcast(g * a.data, b.data.shape)))


def scale(a: Tensor, k: float) -> Tensor:
    return mul(a, constant(a.data.dtype.type(k)))


def astype(a: Tensor, dtype) -> Tensor:
    """``a`` in ``dtype``; the gradient is cast back to ``a``'s dtype. Returns
    ``a`` itself when it already has that dtype."""
    source = a.data.dtype
    if source == dtype:
        return a
    return Tensor(a.data.astype(dtype), parents=(a,),
                  vjps=(lambda g: g.astype(source),))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: shapes {a.data.shape} and {b.data.shape} "
                         "do not align")
    return Tensor(a.data @ b.data, parents=(a, b),
                  vjps=(lambda g: g @ b.data.T,
                        lambda g: a.data.T @ g))


def transpose(a: Tensor) -> Tensor:
    return Tensor(a.data.T, parents=(a,), vjps=(lambda g: g.T,))


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = list(tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    out = np.concatenate([t.data for t in tensors], axis=axis)

    def make_vjp(k):
        sl = [slice(None)] * out.ndim
        sl[axis] = slice(offsets[k], offsets[k + 1])
        sl = tuple(sl)
        return lambda g: g[sl]

    return Tensor(out, parents=tuple(tensors),
                  vjps=tuple(make_vjp(k) for k in range(len(tensors))))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return Tensor(np.where(mask, a.data, 0.0), parents=(a,),
                  vjps=(lambda g: g * mask,))


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = a.data > 0
    return Tensor(np.where(mask, a.data, slope * a.data), parents=(a,),
                  vjps=(lambda g: np.where(mask, g, slope * g),))


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(y, parents=(a,), vjps=(lambda g: g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return Tensor(y, parents=(a,), vjps=(lambda g: g * (1.0 - y * y),))


def softmax_rowwise(a: Tensor) -> Tensor:
    z = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return y * (g - dot)

    return Tensor(y, parents=(a,), vjps=(vjp,))


def _once(transform):
    """Memoize an output-gradient transform that several vjps of one node
    share; ``backward`` hands each of them the same array."""
    last = [None, None]

    def cached(g):
        if last[0] is not g:
            last[0], last[1] = g, transform(g)
        return last[1]

    return cached


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
    masked = _once(lambda g: np.where(out > 0.0, g, 0.0) if relu else g)
    return Tensor(out, parents=(x, w, b),
                  vjps=(lambda g: masked(g) @ w.data.T,
                        lambda g: x.data.T @ masked(g),
                        lambda g: masked(g).sum(axis=0, keepdims=True)))


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

    def side_sums(g):
        g = g.reshape(m, n, k)
        if relu:
            g = np.where(out > 0.0, g, 0.0)
        return g.sum(axis=0), g.sum(axis=1)

    sums = _once(side_sums)
    return Tensor(out.reshape(m * n, k), parents=(inner, outer, w, b),
                  vjps=(lambda g: sums(g)[0] @ w.data[:h].T,
                        lambda g: sums(g)[1] @ w.data[h:].T,
                        lambda g: np.vstack([inner.data.T @ sums(g)[0],
                                             outer.data.T @ sums(g)[1]]),
                        lambda g: sums(g)[0].sum(axis=0, keepdims=True)))


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.data.shape != target.data.shape:
        raise ValueError(f"mse_loss: shapes {pred.data.shape} and "
                         f"{target.data.shape} differ")
    diff = pred.data - target.data
    n = pred.data.size
    return Tensor(np.mean(diff * diff), parents=(pred, target),
                  vjps=(lambda g: g * 2.0 * diff / n,
                        lambda g: g * -2.0 * diff / n))


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
        if node.grad is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            if not parent.requires_grad:
                continue
            g = vjp(node.grad)
            # a vjp may hand back an array another tensor also holds (add
            # returns g itself to both parents), so a stored gradient is
            # never written in place: the first is kept as is, later ones
            # are summed into a new array
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


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(closure, params, eps: float = 1e-6) -> float:
    """Max relative error between backprop and central finite differences.

    ``closure`` rebuilds the scalar loss from the current parameter values;
    every entry of every parameter is perturbed. The error denominator is
    floored at 1 so near-zero entries, where finite-difference roundoff
    dominates, are compared absolutely.
    """
    params = list(params)
    zero_grads(params)
    loss = closure()
    backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = closure().item()
            flat[i] = orig - eps
            f_minus = closure().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(fd) + abs(gflat[i]), 1.0)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
