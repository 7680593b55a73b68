"""The GRU as a chain of tape nodes, kept as an oracle for ``nn.gru``: each
step is built from ``concat``, ``dense``, ``sigmoid``, ``tanh``, ``mul`` and
``add`` (``taped_ops``), each node with its own closure and its own new
arrays."""

import numpy as np

from taped_ops import add, concat, constant, dense, mul, scale, sigmoid, tanh


def taped_gru(hist: np.ndarray, wz, bz, wr, br, wc, bc):
    """What ``nn.gru(hist, wz, bz, wr, br, wc, bc)`` computes."""
    dtype = wz.data.dtype
    hist = np.asarray(hist, dtype=dtype)
    h = constant(np.zeros((hist.shape[0], wz.data.shape[1]), dtype))
    one = constant(dtype.type(1.0))
    for t in range(hist.shape[1]):
        x_t = constant(hist[:, t:t + 1])
        cat = concat([h, x_t], axis=1)
        z = sigmoid(dense(cat, wz, bz))
        r = sigmoid(dense(cat, wr, br))
        cat_r = concat([mul(r, h), x_t], axis=1)
        h_cand = tanh(dense(cat_r, wc, bc))
        keep = add(one, scale(z, -1.0))
        h = add(mul(keep, h), mul(z, h_cand))
    return h
