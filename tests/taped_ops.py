"""Small elementwise ops on the autograd core's ``Tensor``, each recording
its own backward closure. The package runs none of them: the GRU, the head
and the attention are each one op in ``lcftraffic.nn``. They build the
taped oracles (``gru_oracle``, ``dense_head``) and the tests of the tape
itself, and they keep their inputs' dtype as the package's ops do."""

import numpy as np

from lcftraffic.nn import Tensor, constant


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
    # a Python scalar takes the array's dtype: a float64 numpy scalar would
    # upcast a float32 array
    return mul(a, constant(a.data.dtype.type(k)))


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = tuple(tensors)
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return Tensor(np.concatenate([t.data for t in tensors], axis=axis),
                  parents=tensors,
                  vjp=lambda g: tuple(np.split(g, cuts, axis=axis)))


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))
    return Tensor(y, parents=(a,), vjp=lambda g: (g * y * (1.0 - y),))


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)
    return Tensor(y, parents=(a,), vjp=lambda g: (g * (1.0 - y * y),))
