"""The estimator's differentiable ops, forward and backward, on float32 or
float64 numpy arrays.

Only the operations the estimator runs are implemented: matmul, an MSE
loss, the fused dense layer ``dense`` (x @ W + b, optional relu), the graph
attention ``gat`` (every head's edge scores, softmax, weighted sum and
relu, and the mean over the heads; its coefficient rule is
``attention_coefficients``), the recurrent encoder ``gru`` (a whole GRU
recurrence), and the estimator head in two ops: ``pair_halves``, the pair
layer's products of each (row of a, row of b) concatenation without
building it, and ``pair_head``, the dense chain over every pair of those
halves, on reused buffers (``HeadBuffers``). ``scatter_sum`` is the
package's one scatter-add.

Each op is a forward on plain arrays. Called with ``grad=True`` it returns
``(out, back)``: ``back`` maps the gradient of ``out`` to a tuple of
gradients, one per array input in order, parameters included (``gru``'s
history is data and gets none). Called without, it returns ``out`` alone
and keeps nothing for a backward, so each intermediate array is freed as
soon as the next op has used it. ``call`` runs an op and records its
backward on a caller's chain, and ``backward`` walks that chain once in
reverse. A backward never writes a gradient it is given in place; only
``pair_head`` writes in place, and only into its own ``HeadBuffers``: its
backward writes each layer's input gradient over that layer's input
activation, which nothing else reads, so it runs once, before the next
call on the same buffers.

One block rule bounds the head's memory: a caller runs the head over
blocks of at most ``model.PREDICT_BLOCK_ROWS`` rows (``model.window_blocks``)
by slicing the halves, and in training runs each block's backward before
the next block's forward, so ``HeadBuffers`` hold one block. Everything is
deliberately single-threaded and deterministic.

Precision: ``backward``, ``AdamW`` and every op but ``gat`` keep their
inputs' dtype, so one code path runs in float32 or in float64. ``gat``
casts its output to the dtype it is given, and its backward casts the
gradient back.
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2 = 0.9, 0.999    # AdamW's moment decay rates
EPS = 1e-8                   # added to AdamW's update denominator


def call(chain: list | None, out: str, ins, op, *args, **kwargs):
    """``op(*args, **kwargs)``. Given a ``chain`` list, the op runs with
    ``grad=True`` and its backward goes on the chain as (back, out, ins):
    ``out`` names the op's output and ``ins`` its array inputs in order,
    None for an input whose gradient no one reads."""
    if chain is None:
        return op(*args, **kwargs)
    value, back = op(*args, grad=True, **kwargs)
    chain.append((back, out, ins))
    return value


def backward(chain: list, seed: np.ndarray) -> dict[str, np.ndarray]:
    """The gradient of every named input of a ``call`` chain, by name, with
    ``seed`` the gradient of the last call's output. The chain is in call
    order, so one walk in reverse hands each backward the whole gradient of
    its output. A name is the output of at most one call and the input of
    at most one, so no gradient is summed; an output's gradient is dropped
    once its backward has used it."""
    grads = {chain[-1][1]: seed}
    for back, out, ins in reversed(chain):
        for name, g in zip(ins, back(grads.pop(out)), strict=True):
            if name is not None:
                grads[name] = g
    return grads


def glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Uniform +-sqrt(6 / (fan_in + fan_out)) init of a (fan_in, fan_out)
    weight."""
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, size=shape)


def matmul(a: np.ndarray, b: np.ndarray, grad: bool = False):
    """a @ b."""
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul: shapes {a.shape} and {b.shape} do not align")
    out = a @ b
    return (out, lambda g: (g @ b.T, a.T @ g)) if grad else out


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


def gat(whs: list[np.ndarray], a_srcs: list[np.ndarray],
        a_dsts: list[np.ndarray], graph, slope: float, dtype,
        grad: bool = False):
    """Graph attention over the edges of ``graph`` (a ``network.LinkGraph``):
    head k gives each link relu(sum over its edges of att * whs[k][dst]),
    att the ``attention_coefficients`` of a_srcs[k] and a_dsts[k], and the
    op returns the mean over the heads cast to ``dtype``; the heads run, and
    their gradients come back, in the inputs' dtype. It keeps the products,
    elementwise order and gradient summation order of the layer built from
    small taped ops, so it gives its bits (each head's wh gradient sums via
    a_src + via a_dst, then via the weighted sum). A head weights its
    gathered rows in place; without ``grad`` none is kept."""
    inputs = (*whs, *a_srcs, *a_dsts)
    n, k = graph.n_links, len(whs)
    h = whs[0].shape[-1] if whs else 0
    if not k or len(a_srcs) != k or len(a_dsts) != k or any(
            p.shape != shape
            for p, shape in zip(inputs, [(n, h)] * k + [(h, 1)] * (2 * k))):
        raise ValueError(f"gat: shapes "
                         f"{', '.join(str(p.shape) for p in inputs)} "
                         f"do not align with {n} links")
    dst, starts = graph.dst, graph.seg_start
    sizes = np.diff(starts, append=len(dst))
    work = whs[0].dtype
    mean = work.type(1.0 / k)
    kept, out = [], None
    for wh, a_src, a_dst in zip(whs, a_srcs, a_dsts):
        att, positive = attention_coefficients(wh, a_src, a_dst, graph, slope)
        head = wh[dst]
        head *= att
        head = np.add.reduceat(head, starts, axis=0)
        mask = head > 0
        head[~mask] = 0.0
        out = head if out is None else np.add(out, head, out=out)
        if grad:
            kept.append((att, positive, mask))
    out *= mean
    out = out.astype(dtype, copy=False)
    if not grad:
        return out

    def vjp(g):
        g = g.astype(work, copy=False) * mean
        grads = []
        for wh, a_src, a_dst, (att, positive, mask) in zip(whs, a_srcs, a_dsts,
                                                           kept):
            g_edge = np.repeat(g * mask, sizes, axis=0)
            g_att = (g_edge * wh[dst]).sum(axis=1, keepdims=True)
            dot = np.add.reduceat(g_att * att, starts, axis=0)
            g_score = att * (g_att - np.repeat(dot, sizes, axis=0))
            g_score = np.where(positive, g_score, slope * g_score)
            g_src = scatter_sum(graph.src, g_score, n).astype(work, copy=False)
            g_dst = scatter_sum(dst, g_score, n).astype(work, copy=False)
            g_sum = scatter_sum(dst, g_edge * att, n).astype(work, copy=False)
            grads.append((g_src @ a_src.T + g_dst @ a_dst.T + g_sum,
                          wh.T @ g_src, wh.T @ g_dst))
        return tuple(item for part in zip(*grads) for item in part)

    return out, vjp


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray, relu: bool = False,
          grad: bool = False):
    """x @ w + b, then relu when asked."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] \
            or b.shape != (1, w.shape[1]):
        raise ValueError(f"dense: shapes {x.shape}, {w.shape} and {b.shape} "
                         "do not align")
    out = x @ w
    out += b
    if relu:
        np.maximum(out, 0.0, out=out)
    if not grad:
        return out

    def vjp(g):
        if relu:
            g = g * (out > 0.0)
        return g @ w.T, x.T @ g, g.sum(axis=0, keepdims=True)

    return out, vjp


def gru(hist: np.ndarray, wz: np.ndarray, bz: np.ndarray, wr: np.ndarray,
        br: np.ndarray, wc: np.ndarray, bc: np.ndarray, grad: bool = False):
    """The final state of a GRU run over the columns of ``hist`` (B, T),
    from a zero state. With h the state and x_t the column, each step is

        cat = [h, x_t]
        z = sigmoid(cat @ wz + bz), r = sigmoid(cat @ wr + br)
        c = tanh([r * h, x_t] @ wc + bc)
        h = (1 - z) * h + z * c

    with each w of shape (H + 1, H) and each b (1, H); ``hist`` is cast to
    the weights' dtype. The forward and backward use the products, the
    elementwise order and the gradient summation order of the same
    recurrence built from small taped ops (concat, dense, sigmoid, tanh,
    mul, add), so they give its bits. Without ``grad`` no step's arrays are
    kept. The backward returns the six parameters' gradients."""
    params = (wz, bz, wr, br, wc, bc)
    size = wz.shape[-1]
    hist = np.asarray(hist)
    if hist.ndim != 2 or hist.shape[1] < 1 or any(
            p.shape != shape
            for p, shape in zip(params, [(size + 1, size), (1, size)] * 3)):
        raise ValueError(f"gru: shapes {hist.shape} and "
                         f"{', '.join(str(p.shape) for p in params)} "
                         "do not align")
    hist = hist.astype(wz.dtype, copy=False)
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
        if grad:
            steps.append((h, cat, z, r, cat_r, c))
        h = (1.0 - z) * h + z * c
    if not grad:
        return h

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

    return h, vjp


class HeadBuffers:
    """What ``pair_head`` keeps between calls: the hidden layers'
    activations, one array per layer, and one relu mask, built for the
    largest block of rows a training step runs (``model.window_blocks``
    cuts a batch into blocks of whole windows, all as large as the first
    but the last) and reused while its widths and dtype hold. A call of
    fewer rows runs on views of their first rows. A backward writes the
    gradients between the layers over these activations, so one training
    step holds one block's head activations and nothing beside them.

    Only a training step claims them. Validation runs on the buffers the
    steps built: allocating its own would add a block's activations on top
    of them and raise the training run's peak. Prediction allocates as it
    goes, so a model that only predicts holds no buffers between calls."""

    def __init__(self):
        self.shape = None
        self.acts = self.mask = None

    def activations(self, rows: int, widths: list[int], dtype,
                    claim: bool) -> list[np.ndarray] | None:
        """Views of the first ``rows`` rows of the activation buffers of
        these widths and dtype. When none are built for at least ``rows``
        rows, ``claim`` builds them, with the mask buffer, for ``rows`` rows;
        otherwise None (the call allocates as it goes)."""
        kind = (tuple(widths), np.dtype(dtype))
        if self.shape is None or self.shape[1:] != kind \
                or self.shape[0] < rows:
            if not claim:
                return None
            self.shape = (rows, *kind)
            self.acts = [np.empty((rows, k), dtype) for k in widths]
            self.mask = np.empty(rows * max(widths), dtype=bool)
        return [a[:rows] for a in self.acts]


def pair_halves(inner: np.ndarray, outer: np.ndarray, w: np.ndarray,
                b: np.ndarray, grad: bool = False):
    """The pair layer's two products, part_in = inner @ w[:h] + b and
    part_out = outer @ w[h:], h being inner's width: row o * n_inner + i
    of the layer, before its relu, is [inner[i], outer[o]] @ w + b =
    part_in[i] + part_out[o]. A row of a product depends on its own input
    row only, so the halves of many outer rows can be computed once and
    sliced. The backward takes the gradients of both halves as one pair."""
    h = inner.shape[-1]
    if inner.ndim != 2 or outer.ndim != 2 or w.ndim != 2 \
            or w.shape[0] != h + outer.shape[-1] or b.shape != (1, w.shape[1]):
        raise ValueError(f"pair_halves: shapes {inner.shape}, {outer.shape}, "
                         f"{w.shape} and {b.shape} do not align")
    part_in = inner @ w[:h]
    part_in += b
    part_out = outer @ w[h:]
    if not grad:
        return part_in, part_out

    def vjp(g):
        g_in, g_out = g
        return (g_in @ w[:h].T, g_out @ w[h:].T,
                np.vstack([inner.T @ g_in, outer.T @ g_out]),
                g_in.sum(axis=0, keepdims=True))

    return (part_in, part_out), vjp


def pair_head(part_in: np.ndarray, part_out: np.ndarray, layers,
              buffers: HeadBuffers, grad: bool = False):
    """The estimator head on the pair layer's ``pair_halves``, outer-major:
    row o * n + i of the pair layer is part_in[i] + part_out[o], n being
    ``len(part_in)``, and each (w, b) of ``layers`` then gives x @ w + b;
    every layer but the last is followed by a relu. The pairs are never
    built: the halves are broadcast-added, and the backward sums the pair
    layer's gradient over each side, giving the gradients of part_in and
    part_out, then those of ``layers``' parameters.

    A caller runs a batch through the head in blocks of outer rows by
    slicing ``part_out`` (``model.window_blocks``); a row's output depends
    on its own two halves only. With ``grad``, the hidden layers'
    activations live in ``buffers``, which the next call overwrites; the
    output itself is a new array. The backward runs from the last layer
    down: from each layer's input activation x it takes the weight
    gradient x.T @ g and the relu mask, then writes the input gradient
    g @ w.T over x and masks it there, so it runs once, before the next
    call on ``buffers``. Without ``grad`` the op claims no buffers: it
    reuses activation buffers already built for at least its rows, and
    otherwise allocates each layer's output as it goes, so only a layer's
    input and output are alive at once.
    """
    layers = list(layers)
    shapes = [t.shape for pair in layers for t in pair]
    k = part_in.shape[-1]
    fan_in = [k] + [w.shape[-1] for w, _ in layers[:-1]]
    if part_in.ndim != 2 or part_out.ndim != 2 or part_out.shape[1] != k \
            or any(len(w) != 2 or w[0] != f or b != (1, w[1])
                   for f, w, b in zip(fan_in, shapes[::2], shapes[1::2])):
        raise ValueError(f"pair_head: shapes {part_in.shape}, {part_out.shape}"
                         f" and {', '.join(map(str, shapes))} do not align")
    n, m = len(part_in), len(part_out)
    rows, last = m * n, len(layers)
    widths = [k] + [w.shape[1] for w, _ in layers]
    acts = buffers.activations(rows, widths[:-1], part_in.dtype,
                               claim=grad) if last else None

    out = None if acts is None else acts[0].reshape(m, n, k)
    x = np.add(part_out[:, None, :], part_in[None, :, :], out=out)
    x = x.reshape(rows, k)
    if last:
        np.maximum(x, 0.0, out=x)
    for i, (w, b) in enumerate(layers, 1):
        x = np.matmul(x, w, out=None if acts is None or i == last
                      else acts[i])
        x += b
        if i < last:
            np.maximum(x, 0.0, out=x)
    if not grad:
        return x

    def vjp(g):
        param_grads = []
        for i in range(last, 0, -1):
            w, x = layers[i - 1][0], acts[i - 1]
            param_grads[:0] = [x.T @ g, g.sum(axis=0, keepdims=True)]
            mask = buffers.mask[:x.size].reshape(x.shape)
            np.greater(x, 0.0, out=mask)
            g = np.matmul(g, w.T, out=x)
            np.multiply(g, mask, out=g)
        g = g.reshape(m, n, k)
        return (g.sum(axis=0), g.sum(axis=1), *param_grads)

    return x, vjp


def mse_loss(pred: np.ndarray, target: np.ndarray, total: int | None = None,
             grad: bool = False):
    """The sum of (pred - target)^2 over ``total``, a numpy scalar in the
    inputs' dtype: their mean when ``total`` is ``pred.size``, the default,
    and a block's share of a batch's mean when it is the batch's size."""
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shapes {pred.shape} and {target.shape} "
                         "differ")
    diff = pred - target
    n = pred.size if total is None else total
    loss = np.sum(diff * diff) / n
    if not grad:
        return loss
    return loss, lambda g: (g * 2.0 * diff / n, g * -2.0 * diff / n)


# ---------------------------------------------------------------------------
# optimization
# ---------------------------------------------------------------------------

class AdamW:
    """Adam with decoupled weight decay (w <- w - lr*wd*w before the
    bias-corrected moment update), with moment decay rates ``BETA1`` and
    ``BETA2`` and denominator term ``EPS``. ``params`` maps names to arrays,
    which each step updates in place, in the mapping's order."""

    def __init__(self, params: dict[str, np.ndarray], lr: float = 0.002,
                 weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p) for name, p in params.items()}
        self._v = {name: np.zeros_like(p) for name, p in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from the gradient of every parameter, by name."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g, m, v = grads[name], self._m[name], self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.lr * self.weight_decay * p
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def steplr(lr0: float, step_size: int, gamma: float, epoch: int) -> float:
    """Staircase decay: lr0 * gamma ** floor(epoch / step_size)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return lr0 * gamma ** (epoch // step_size)

