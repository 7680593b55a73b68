"""A small reverse-mode tape for the tests: a ``Tensor`` records its parents
and one backward closure, and ``backward`` walks the tape in reverse
topological order, summing the gradients of a tensor that feeds more than
one op. The package runs none of it: a training step is one fixed chain of
``lcftraffic.nn`` ops (``LcfModel.loss_and_grads``). The tape runs those
same ops, through ``taped``, and small elementwise ops of its own, and
builds the taped oracles (``gru_oracle``, ``dense_head``), the step the
chain is checked against, and the finite-difference checks
(``gradcheck``). Every op keeps its inputs' dtype, as the package's do."""

import numpy as np

from lcftraffic import nn

_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None):
        data = np.asarray(data)
        if data.dtype.type not in _FLOAT_TYPES:
            data = data.astype(np.float64)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


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


def _unwrap(arg, parents: list):
    """``arg`` with every Tensor in it (also inside lists and tuples)
    replaced by its data, each such Tensor appended to ``parents``."""
    if isinstance(arg, Tensor):
        parents.append(arg)
        return arg.data
    if isinstance(arg, (list, tuple)):
        return type(arg)(_unwrap(a, parents) for a in arg)
    return arg


def taped(op):
    """``op``, an ``lcftraffic.nn`` op, on Tensors: its Tensor arguments, in
    order and also inside lists and tuples, are the parents of a Tensor
    whose closure is the op's own backward (``grad=True``)."""
    def run(*args, **kwargs):
        parents: list[Tensor] = []
        args = _unwrap(args, parents)
        out, back = op(*args, grad=True, **kwargs)
        return Tensor(out, parents=tuple(parents), vjp=back)

    return run


matmul, dense, gat, gru, mse_loss = (
    taped(op) for op in (nn.matmul, nn.dense, nn.gat, nn.gru, nn.mse_loss))


def pair_head(inner: Tensor, outer: Tensor, layers, buffers) -> Tensor:
    """The estimator head on Tensors, ``nn.pair_halves`` of the first layer
    then ``nn.pair_head`` over the rest, as one node: its parents are inner,
    outer and every layer's w and b, and its closure runs the head's
    backward, then the halves' backward on the two halves' gradients."""
    parents: list[Tensor] = []
    inner, outer, (first, *rest) = _unwrap((inner, outer, list(layers)),
                                           parents)
    halves, halves_back = nn.pair_halves(inner, outer, *first, grad=True)
    out, head_back = nn.pair_head(*halves, rest, buffers, grad=True)

    def vjp(g):
        g_in, g_out, *rest_grads = head_back(g)
        return (*halves_back((g_in, g_out)), *rest_grads)

    return Tensor(out, parents=tuple(parents), vjp=vjp)


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
