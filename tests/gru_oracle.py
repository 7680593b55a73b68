"""The GRU as a chain of tape nodes, kept as an oracle for ``nn.gru``: each
step is built from ``concat``, ``dense``, ``sigmoid``, ``tanh``, ``mul`` and
``add``, each node with its own closure and its own new arrays."""

import numpy as np

from lcftraffic import nn


def taped_gru(hist: np.ndarray, wz, bz, wr, br, wc, bc):
    """What ``nn.gru(hist, wz, bz, wr, br, wc, bc)`` computes."""
    dtype = wz.data.dtype
    hist = np.asarray(hist, dtype=dtype)
    h = nn.constant(np.zeros((hist.shape[0], wz.data.shape[1]), dtype))
    one = nn.constant(dtype.type(1.0))
    for t in range(hist.shape[1]):
        x_t = nn.constant(hist[:, t:t + 1])
        cat = nn.concat([h, x_t], axis=1)
        z = nn.sigmoid(nn.dense(cat, wz, bz))
        r = nn.sigmoid(nn.dense(cat, wr, br))
        cat_r = nn.concat([nn.mul(r, h), x_t], axis=1)
        h_cand = nn.tanh(nn.dense(cat_r, wc, bc))
        keep = nn.add(one, nn.scale(z, -1.0))
        h = nn.add(nn.mul(keep, h), nn.mul(z, h_cand))
    return h
