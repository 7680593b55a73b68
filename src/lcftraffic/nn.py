"""Minimal reverse-mode differentiation core on float32 or float64 numpy
arrays.

Only the operations the estimator runs are implemented: matmul, an MSE
loss, the fused dense layer ``dense`` (x @ W + b, optional relu), the graph
attention ``gat`` (every head's edge scores, softmax, weighted sum and
relu, and the mean over the heads, as one tape node; its coefficient rule
is ``attention_coefficients``), the recurrent encoder ``gru`` (a whole GRU
recurrence as one tape node) and the estimator head ``pair_head`` (a dense
chain over every (row of a, row of b) concatenation, without building it,
as one tape node on reused buffers: ``HeadBuffers``; its first layer's
products are ``pair_halves``). ``scatter_sum`` is the package's one
scatter-add.
Each op records one backward closure, which maps the output gradient to a
tuple of gradients, one per parent in order; ``backward`` walks the tape in
reverse topological order and hands each parent that requires a gradient
its entry. A gradient ``backward`` stores is never written in place; only
``pair_head`` writes in place, and only into its own ``HeadBuffers``: its
backward writes each layer's input gradient over that layer's input
activation, which nothing else reads, so one backward spends the call.
Everything is deliberately single-threaded and deterministic.

Precision: ``backward``, ``AdamW`` and every op but ``gat`` keep their
inputs' dtype, so one code path runs in float32 or in float64. ``gat``
casts its output to the dtype it is given, and its backward casts the
gradient back. A Tensor keeps float32 and float64 data as given and casts
anything else (Python numbers, integer arrays) to float64. Constants made
from a Python scalar take the dtype of the array they meet, since a float64
numpy scalar would upcast a float32 array.

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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: shapes {a.data.shape} and {b.data.shape} "
                         "do not align")
    return Tensor(a.data @ b.data, parents=(a, b),
                  vjp=lambda g: (g @ b.data.T, a.data.T @ g))


def scatter_sum(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """``np.add.at(np.zeros((n,) + values.shape[1:]), index, values)`` for
    1-D or 2-D ``values``, by ``np.bincount``: each row is summed from zero
    in index order, as ``np.add.at`` sums it, so float64 input gives the
    same bits. The sums are float64 whatever the input: float32 input is
    summed in float64."""
    if values.ndim == 1:
        return np.bincount(index, weights=values, minlength=n)
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=n * d).reshape(n, d)


def attention_coefficients(wh: np.ndarray, a_src: np.ndarray, a_dst: np.ndarray,
                           graph, slope: float) -> tuple[np.ndarray, np.ndarray]:
    """The attention coefficient of every edge of ``graph`` (a
    ``network.LinkGraph``), (E, 1): a softmax over each link's edges of
    leaky_relu(wh[src] @ a_src + wh[dst] @ a_dst) of negative slope
    ``slope``; and which edges scored above zero (the leaky relu's mask)."""
    starts = graph.seg_start
    sizes = np.diff(starts, append=len(graph.src))
    scores = (wh @ a_src)[graph.src] + (wh @ a_dst)[graph.dst]
    positive = scores > 0
    scores = np.where(positive, scores, slope * scores)
    peak = np.maximum.reduceat(scores, starts, axis=0)
    e = np.exp(scores - np.repeat(peak, sizes, axis=0))
    att = e / np.repeat(np.add.reduceat(e, starts, axis=0), sizes, axis=0)
    return att, positive


def gat(whs: list[Tensor], a_srcs: list[Tensor], a_dsts: list[Tensor], graph,
        slope: float, dtype) -> Tensor:
    """Graph attention over the edges of ``graph`` (a ``network.LinkGraph``)
    as one tape node: head k gives each link relu(sum over its edges of
    att * whs[k][dst]), att the ``attention_coefficients`` of a_srcs[k] and
    a_dsts[k], and the op returns the mean over the heads cast to ``dtype``;
    the heads run, and their gradients come back, in the inputs' dtype. It
    keeps the products, elementwise order and gradient summation order of
    the layer built from small taped ops, so it gives its bits (each head's
    wh gradient sums via a_src + via a_dst, then via the weighted sum). A
    head weights its gathered rows in place; under ``no_grad`` none is kept."""
    parents = (*whs, *a_srcs, *a_dsts)
    n, k = graph.n_links, len(whs)
    h = whs[0].data.shape[-1] if whs else 0
    if not k or len(a_srcs) != k or len(a_dsts) != k or any(
            p.data.shape != shape
            for p, shape in zip(parents, [(n, h)] * k + [(h, 1)] * (2 * k))):
        raise ValueError(f"gat: shapes "
                         f"{', '.join(str(p.data.shape) for p in parents)} "
                         f"do not align with {n} links")
    dst, starts = graph.dst, graph.seg_start
    sizes = np.diff(starts, append=len(dst))
    work = whs[0].data.dtype
    mean = work.type(1.0 / k)
    kept, out = [], None
    for wh, a_src, a_dst in zip(whs, a_srcs, a_dsts):
        att, positive = attention_coefficients(wh.data, a_src.data, a_dst.data,
                                               graph, slope)
        head = wh.data[dst]
        head *= att
        head = np.add.reduceat(head, starts, axis=0)
        mask = head > 0
        head[~mask] = 0.0
        out = head if out is None else np.add(out, head, out=out)
        if _grad_mode.enabled:
            kept.append((att, positive, mask))
    out *= mean

    def vjp(g):
        g = g.astype(work, copy=False) * mean
        grads = []
        for wh, a_src, a_dst, (att, positive, mask) in zip(whs, a_srcs, a_dsts,
                                                           kept):
            g_edge = np.repeat(g * mask, sizes, axis=0)
            g_att = (g_edge * wh.data[dst]).sum(axis=1, keepdims=True)
            dot = np.add.reduceat(g_att * att, starts, axis=0)
            g_score = att * (g_att - np.repeat(dot, sizes, axis=0))
            g_score = np.where(positive, g_score, slope * g_score)
            g_src = scatter_sum(graph.src, g_score, n).astype(work, copy=False)
            g_dst = scatter_sum(dst, g_score, n).astype(work, copy=False)
            g_sum = scatter_sum(dst, g_edge * att, n).astype(work, copy=False)
            grads.append((g_src @ a_src.data.T + g_dst @ a_dst.data.T + g_sum,
                          wh.data.T @ g_src, wh.data.T @ g_dst))
        return tuple(grad for part in zip(*grads) for grad in part)

    return Tensor(out.astype(dtype, copy=False), parents=parents, vjp=vjp)


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


def gru(hist: np.ndarray, wz: Tensor, bz: Tensor, wr: Tensor, br: Tensor,
        wc: Tensor, bc: Tensor) -> Tensor:
    """The final state of a GRU run over the columns of ``hist`` (B, T),
    from a zero state, as one tape node. With h the state and x_t the
    column, each step is

        cat = [h, x_t]
        z = sigmoid(cat @ wz + bz), r = sigmoid(cat @ wr + br)
        c = tanh([r * h, x_t] @ wc + bc)
        h = (1 - z) * h + z * c

    with each w of shape (H + 1, H) and each b (1, H); ``hist`` is cast to
    the weights' dtype. The forward and backward use the products, the
    elementwise order and the gradient summation order of the same
    recurrence built from small taped ops (concat, dense, sigmoid, tanh,
    mul, add), so they give its bits. Under ``no_grad`` no step's
    arrays are kept."""
    params = (wz, bz, wr, br, wc, bc)
    size = wz.data.shape[-1]
    hist = np.asarray(hist)
    if hist.ndim != 2 or hist.shape[1] < 1 or any(
            p.data.shape != shape
            for p, shape in zip(params, [(size + 1, size), (1, size)] * 3)):
        raise ValueError(f"gru: shapes {hist.shape} and "
                         f"{', '.join(str(p.data.shape) for p in params)} "
                         "do not align")
    hist = hist.astype(wz.data.dtype, copy=False)
    wz, bz, wr, br, wc, bc = (p.data for p in params)
    h = np.zeros((hist.shape[0], size), wz.dtype)
    steps = []
    for t in range(hist.shape[1]):
        x_t = hist[:, t:t + 1]
        cat = np.concatenate([h, x_t], axis=1)
        z = cat @ wz
        z += bz
        z = 1.0 / (1.0 + np.exp(-z))
        r = cat @ wr
        r += br
        r = 1.0 / (1.0 + np.exp(-r))
        cat_r = np.concatenate([r * h, x_t], axis=1)
        c = cat_r @ wc
        c += bc
        c = np.tanh(c)
        if _grad_mode.enabled:
            steps.append((h, cat, z, r, cat_r, c))
        h = (1.0 - z) * h + z * c

    def vjp(g):
        # step by step from the last; each parameter's gradient sums the
        # steps' terms from the last step down, a state's gradient its
        # terms through (1 - z) * h, r * h and [h, x_t] in that order
        sums = None
        for t in range(len(steps) - 1, -1, -1):
            h, cat, z, r, cat_r, c = steps[t]
            g_z = (g * c - g * h) * z * (1.0 - z)
            g_c = g * z * (1.0 - c * c)
            g_rh = (g_c @ wc.T)[:, :size]
            g_r = g_rh * h * r * (1.0 - r)
            terms = (cat.T @ g_z, g_z.sum(axis=0, keepdims=True),
                     cat.T @ g_r, g_r.sum(axis=0, keepdims=True),
                     cat_r.T @ g_c, g_c.sum(axis=0, keepdims=True))
            sums = terms if sums is None else tuple(
                s + term for s, term in zip(sums, terms))
            if t:
                g_cat = g_z @ wz.T + g_r @ wr.T
                g = g * (1.0 - z) + g_rh * r + g_cat[:, :size]
        return sums

    return Tensor(h, parents=params, vjp=vjp)


class HeadBuffers:
    """What ``pair_head`` keeps between calls: the hidden layers'
    activations, one array per layer, and one relu mask, built for one call
    shape (rows, hidden widths, dtype) and reused while it holds. A backward
    writes the gradients between the layers over these activations, so one
    training step holds the head's activations and nothing beside them.
    ``generation`` counts the calls."""

    def __init__(self):
        self.generation = 0
        self.shape = None
        self.acts = self.mask = None

    def activations(self, rows: int, widths: list[int], dtype,
                    claim: bool) -> list[np.ndarray] | None:
        """The activation buffers of this call shape. When they are not
        built yet, ``claim`` builds them with the mask buffer; otherwise
        None (the call allocates as it goes)."""
        shape = (rows, tuple(widths), np.dtype(dtype))
        if shape != self.shape:
            if not claim:
                return None
            self.shape = shape
            self.acts = [np.empty((rows, k), dtype) for k in widths]
            self.mask = np.empty(rows * max(widths), dtype=bool)
        return self.acts


def pair_halves(inner: np.ndarray, outer: np.ndarray, w: np.ndarray,
                b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair layer's two products, part_in = inner @ w[:h] + b and
    part_out = outer @ w[h:], h being inner's width: row o * n_inner + i
    of the layer, before its relu, is part_in[i] + part_out[o]. A row of a
    product depends on its own input row only, so the halves of many outer
    rows can be computed once and sliced."""
    h = inner.shape[1]
    part_in = inner @ w[:h]
    part_in += b
    return part_in, outer @ w[h:]


def pair_head(inner: Tensor, outer: Tensor, layers, buffers: HeadBuffers,
              halves=None) -> Tensor:
    """A dense chain over every concatenated pair of rows, outer-major, as
    one tape node. ``layers`` holds (w, b) pairs; the first is the pair
    layer, row o * n_inner + i of which is [inner[i], outer[o]] @ w + b,
    and each later one is x @ w + b; every layer but the last is followed
    by a relu.

    The pairs are never built: the layer's ``pair_halves`` are computed once
    per row and broadcast-added, and the backward sums the gradient over
    each side before its matmul. A caller that holds the halves already,
    e.g. one that computed them once for more outer rows and passes the
    slice of this call's rows, gives them as ``halves``; they must be the
    halves of ``inner`` and ``outer``, which the backward reads. The hidden
    layers' activations live in ``buffers`` and are overwritten by the next
    call of the same shape; the taped output itself is a new array. The
    backward runs from the last layer down: from each layer's input
    activation x it takes the weight gradient x.T @ g and the relu mask,
    then writes the input gradient g @ w.T over x and masks it there. That
    spends the call's buffers, so a second backward through the same call
    raises RuntimeError, and so does a backward whose forward is no longer
    the latest (each call advances ``buffers.generation``). Under
    ``no_grad`` the op claims no buffers: it reuses activation buffers
    already built for its shape, and otherwise allocates each layer's output
    as it goes, so only a layer's input and output are alive at once.
    """
    layers = list(layers)
    shapes = [t.data.shape for pair in layers for t in pair]
    fan_in = [inner.data.shape[-1] + outer.data.shape[-1]] \
        + [w.data.shape[-1] for w, _ in layers[:-1]]
    if inner.data.ndim != 2 or outer.data.ndim != 2 or not layers \
            or any(len(w) != 2 or w[0] != k or b != (1, w[1])
                   for k, w, b in zip(fan_in, shapes[::2], shapes[1::2])):
        raise ValueError(f"pair_head: shapes {inner.data.shape}, "
                         f"{outer.data.shape} and {', '.join(map(str, shapes))}"
                         " do not align")
    n, h = inner.data.shape
    m = outer.data.shape[0]
    rows, last = m * n, len(layers) - 1
    widths = [w.data.shape[1] for w, _ in layers]
    if halves is None:
        halves = pair_halves(inner.data, outer.data, *(t.data for t in layers[0]))
    part_in, part_out = halves
    if part_in.shape != (n, widths[0]) or part_out.shape != (m, widths[0]):
        raise ValueError(f"pair_head: halves {part_in.shape} and "
                         f"{part_out.shape} do not fit ({n}, {widths[0]}) and "
                         f"({m}, {widths[0]})")
    buffers.generation += 1
    generation = buffers.generation
    acts = buffers.activations(rows, widths[:-1], inner.data.dtype,
                               claim=_grad_mode.enabled) if last else None

    out = None if acts is None else acts[0].reshape(m, n, widths[0])
    x = np.add(part_out[:, None, :], part_in[None, :, :], out=out)
    x = x.reshape(rows, widths[0])
    del halves, part_in, part_out
    for i, (w, b) in enumerate(layers):
        if i:
            x = np.matmul(x, w.data, out=None if acts is None or i == last
                          else acts[i])
            x += b.data
        if i < last:
            np.maximum(x, 0.0, out=x)
    spent = False

    def vjp(g):
        nonlocal spent
        if buffers.generation != generation:
            raise RuntimeError(
                "pair_head: a later call overwrote this call's activations;"
                " run each backward before the next forward")
        if spent:
            raise RuntimeError(
                "pair_head: this call's backward has already run and spent"
                " its activations")
        spent = True
        param_grads = []
        for i in range(last, 0, -1):
            w, x = layers[i][0].data, acts[i - 1]
            param_grads[:0] = [x.T @ g, g.sum(axis=0, keepdims=True)]
            mask = buffers.mask[:x.size].reshape(x.shape)
            np.greater(x, 0.0, out=mask)
            g = np.matmul(g, w.T, out=x)
            np.multiply(g, mask, out=g)
        w = layers[0][0].data
        g = g.reshape(m, n, widths[0])
        g_in, g_out = g.sum(axis=0), g.sum(axis=1)
        return (g_in @ w[:h].T, g_out @ w[h:].T,
                np.vstack([inner.data.T @ g_in, outer.data.T @ g_out]),
                g_in.sum(axis=0, keepdims=True), *param_grads)

    return Tensor(x, parents=(inner, outer) + tuple(t for pair in layers
                                                     for t in pair), vjp=vjp)


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
            # (an elementwise add returns g itself to both parents), so a
            # stored gradient is never written in place: the first is kept
            # as is, later ones are summed into a new array
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

