"""The estimator head as a chain of tape nodes, kept as an oracle for
``nn.pair_head``: a factored pair layer (``pair_dense``) followed by taped
``nn.dense`` layers, each node with its own closure and its own new arrays,
relu on every layer but the last."""

import numpy as np

from taped_ops import Tensor, dense


def pair_dense(inner: Tensor, outer: Tensor, w: Tensor, b: Tensor,
               relu: bool = False) -> Tensor:
    """``dense`` over every concatenated pair of rows, outer-major: row
    o * n_inner + i is [inner[i], outer[o]] @ w + b (then relu when asked).
    The pairs are never built: each side is multiplied by its rows of w
    once, and the backward sums the gradient over each side before its
    matmul."""
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


def dense_head(inner: Tensor, outer: Tensor, layers) -> Tensor:
    """What ``nn.pair_head(inner, outer, layers, buffers)`` computes."""
    (w, b), *rest = layers
    x = pair_dense(inner, outer, w, b, relu=bool(rest))
    for i, (w, b) in enumerate(rest):
        x = dense(x, w, b, relu=i < len(rest) - 1)
    return x
