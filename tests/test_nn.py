import math
import tracemalloc
import zlib

import numpy as np
import pytest

import taped_ops as tape
from lcftraffic import nn
from lcftraffic.network import LinkGraph
from lcftraffic.nn import AdamW, steplr

from dense_head import dense_head
from gradcheck import grad_check
from gru_oracle import taped_gru
from taped_ops import (Tensor, add, backward, concat, constant, mul, scale,
                       sigmoid, tanh, zero_grads)


def fd_gradient(closure, p: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences over every entry of one parameter."""
    g = np.zeros_like(p.data)
    flat = p.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = closure().item()
        flat[i] = orig - eps
        f_minus = closure().item()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return g


def check_op(make_loss, params, tol=1e-6):
    zero_grads(params)
    loss = make_loss()
    backward(loss)
    for p in params:
        fd = fd_gradient(make_loss, p)
        denom = np.maximum(np.abs(fd) + np.abs(p.grad), 1.0)
        rel = np.abs(fd - p.grad) / denom
        assert rel.max() < tol, rel.max()


def rand_param(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# five links: one with its self-loop alone, one with three more edges, one
# attended by three others and one by none but itself
GRAPH = LinkGraph.of_pairs(5, [0, 0, 0, 2, 3, 4], [1, 2, 4, 0, 2, 2])


def gat_inputs(param, heads=2, h=4, n=5):
    """Each head's projected features (n, h), a_src and a_dst (h, 1), from
    ``param(*shape)``."""
    return ([param(n, h) for _ in range(heads)],
            [param(h, 1) for _ in range(heads)],
            [param(h, 1) for _ in range(heads)])


@pytest.mark.parametrize("op_name", [
    "matmul", "add", "add_broadcast", "mul", "mul_broadcast", "concat",
    "sigmoid", "tanh", "dense", "dense_relu", "pair_head",
    "pair_head_one_layer", "gru", "gat", "gat_one_head",
])
def test_primitive_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    a = rand_param(rng, (5, 4))
    b = rand_param(rng, (5, 4))
    c = rand_param(rng, (4, 3))
    row = rand_param(rng, (1, 4))
    target = constant(rng.normal(size=(5, 4)))
    t53 = constant(rng.normal(size=(5, 3)))
    t58 = constant(rng.normal(size=(5, 8)))
    w43 = rand_param(rng, (4, 3))
    w53 = rand_param(rng, (5, 3))
    w63 = rand_param(rng, (6, 3))
    b13 = rand_param(rng, (1, 3))
    outer2 = rand_param(rng, (3, 2))
    outer1 = rand_param(rng, (3, 1))
    t153 = constant(rng.normal(size=(15, 3)))
    w33 = rand_param(rng, (3, 3))
    b13b = rand_param(rng, (1, 3))
    gru_params = [rand_param(rng, s) for s in [(3, 2), (1, 2)] * 3]
    hist53 = rng.normal(size=(5, 3))
    t52 = constant(rng.normal(size=(5, 2)))
    whs, a_srcs, a_dsts = gat_inputs(lambda *shape: rand_param(rng, shape))
    gat_params = whs + a_srcs + a_dsts

    builders = {
        "matmul": (lambda: tape.mse_loss(tape.matmul(a, c), t53), [a, c]),
        "add": (lambda: tape.mse_loss(add(a, b), target), [a, b]),
        "add_broadcast": (lambda: tape.mse_loss(add(a, row), target), [a, row]),
        "mul": (lambda: tape.mse_loss(mul(a, b), target), [a, b]),
        "mul_broadcast": (lambda: tape.mse_loss(mul(a, row), target), [a, row]),
        "concat": (lambda: tape.mse_loss(concat([a, b], axis=1), t58), [a, b]),
        "sigmoid": (lambda: tape.mse_loss(sigmoid(a), target), [a]),
        "tanh": (lambda: tape.mse_loss(tanh(a), target), [a]),
        "dense": (lambda: tape.mse_loss(tape.dense(a, w43, b13), t53),
                  [a, w43, b13]),
        "dense_relu": (lambda: tape.mse_loss(
            tape.dense(a, w43, b13, relu=True), t53), [a, w43, b13]),
        # the pair layer repeats each outer row over the inner rows and
        # tiles the inner rows over the outer ones: a relu pair layer and a
        # dense layer, then the pair layer alone (no relu) with a width-1
        # outer input, as in the shortest head without the recurrent branch
        "pair_head": (lambda: tape.mse_loss(tape.pair_head(
            a, outer2, [(w63, b13), (w33, b13b)], nn.HeadBuffers()), t153),
            [a, outer2, w63, b13, w33, b13b]),
        "pair_head_one_layer": (lambda: tape.mse_loss(tape.pair_head(
            a, outer1, [(w53, b13)], nn.HeadBuffers()), t153),
            [a, outer1, w53, b13]),
        # three steps over five rows, a state of width 2
        "gru": (lambda: tape.mse_loss(tape.gru(hist53, *gru_params), t52),
                gru_params),
        "gat": (lambda: tape.mse_loss(tape.gat(
            whs, a_srcs, a_dsts, GRAPH, 0.2, np.float64), target), gat_params),
        "gat_one_head": (lambda: tape.mse_loss(tape.gat(
            whs[:1], a_srcs[:1], a_dsts[:1], GRAPH, 0.2, np.float64), target),
            [whs[0], a_srcs[0], a_dsts[0]]),
    }
    make_loss, params = builders[op_name]
    check_op(make_loss, params)


def test_attention_coefficients_forced_values():
    # edge scores wh[dst]: 5 on link 0's self-loop, 0 and log 2 on link 1's
    # two edges, log 2 on link 2's self-loop
    graph = LinkGraph.of_pairs(3, [1], [2])
    wh = np.array([[5.0], [0.0], [math.log(2.0)]])
    att, positive = nn.attention_coefficients(wh, np.zeros((1, 1)),
                                              np.ones((1, 1)), graph, 0.2)
    assert np.allclose(att, [[1.0], [1 / 3], [2 / 3], [1.0]], atol=1e-15)
    assert positive[:, 0].tolist() == [True, False, True, True]
    # a negative score enters the softmax times the slope
    att, positive = nn.attention_coefficients(-wh, np.zeros((1, 1)),
                                              np.ones((1, 1)), graph, 0.5)
    assert not positive.any()
    assert np.allclose(att[1:3, 0], [2 ** 0.5 / (1 + 2 ** 0.5),
                                     1 / (1 + 2 ** 0.5)], atol=1e-15)


def test_scatter_sum_is_the_scatter_add_of_add_at():
    """Equal to ``np.add.at`` to the bit for float64 rows; float32 rows are
    summed in float64."""
    rng = np.random.default_rng(12)
    rows = np.array([0, 2, 2, 4, 1, 0, 2])    # row 3 never written
    g = rng.normal(size=(len(rows), 3)) * 10.0 ** rng.integers(-6, 6, (len(rows), 1))
    want = np.zeros((5, 3))
    np.add.at(want, rows, g)
    assert nn.scatter_sum(rows, g, 5).tobytes() == want.tobytes()
    want = np.zeros((5, 3))
    np.add.at(want, rows, g.astype(np.float32).astype(np.float64))
    got = nn.scatter_sum(rows, g.astype(np.float32), 5)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_shape_mismatch_names_both_shapes():
    a, b = np.zeros((2, 3)), np.zeros((4, 5))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.matmul(a, b)
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        add(constant(a), constant(b))


def test_mse_loss_values_and_gradient():
    pred = Tensor(np.array([0.0, 2.0]), requires_grad=True)
    target = constant(np.array([0.0, 0.0]))
    loss = tape.mse_loss(pred, target)
    assert loss.item() == 2.0
    backward(loss)
    assert np.allclose(pred.grad, 2 * (pred.data - target.data) / 2)

    assert tape.mse_loss(constant([1.0, 2.0]),
                         constant([1.0, 2.0])).item() == 0.0

    def closure():
        return tape.mse_loss(pred, target)

    assert grad_check(closure, [pred], eps=1e-6) < 1e-8


def test_reused_tensor_accumulates_gradient():
    x = Tensor(np.array([[1.5]]), requires_grad=True)
    y = add(mul(x, x), x)  # x^2 + x, d/dx = 2x + 1
    backward(y)
    assert np.allclose(x.grad, 2 * 1.5 + 1)


def test_gradient_shared_by_two_parents_is_not_overwritten():
    # add hands one array to both parents; a's second contribution must
    # not leak into b's gradient
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    backward(tape.mse_loss(add(add(a, b), a), constant(np.zeros((1, 2)))))
    g = 2.0 * (2.0 * a.data + b.data) / 2.0
    assert np.array_equal(b.grad, g)
    assert np.array_equal(a.grad, 2.0 * g)


def test_dense_rejects_misaligned_shapes():
    x = np.zeros((2, 3))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.dense(x, np.zeros((4, 5)), np.zeros((1, 5)))
    with pytest.raises(ValueError, match=r"\(5,\)"):
        nn.dense(x, np.zeros((3, 5)), np.zeros(5))
    w52, b12 = np.zeros((5, 2)), np.zeros((1, 2))
    with pytest.raises(ValueError,
                       match=r"pair_halves.*\(2, 3\).*\(1, 1\).*\(5, 2\)"):
        nn.pair_halves(x, np.zeros((1, 1)), w52, b12)
    part_in, part_out = nn.pair_halves(x, np.zeros((1, 2)), w52, b12)
    # a layer whose fan-in is not the halves' or the previous layer's width
    for layers in ([(np.zeros((3, 1)), np.zeros((1, 1)))],
                   [(np.zeros((2, 4)), np.zeros((1, 4))),
                    (np.zeros((3, 1)), np.zeros((1, 1)))]):
        with pytest.raises(ValueError, match=r"pair_head.*\(3, 1\), \(1, 1\)"):
            nn.pair_head(part_in, part_out, layers, nn.HeadBuffers())
    # halves of two widths
    with pytest.raises(ValueError,
                       match=r"pair_head: shapes \(2, 2\), \(1, 1\)"):
        nn.pair_head(part_in, part_out[:, :1], [], nn.HeadBuffers())


def test_gat_keeps_no_head_arrays_without_grad():
    """Without ``grad`` the op keeps only its output, and each head weights
    its gathered (edges x h) rows in place, so one such array is alive at a
    time; with it, every head keeps its coefficients and masks."""
    rng = np.random.default_rng(29)
    n, h, heads = 2000, 16, 3
    graph = LinkGraph.of_pairs(n, *rng.integers(0, n, size=(2, 8 * n)))
    n_edges = len(graph.src)
    whs, a_srcs, a_dsts = gat_inputs(lambda *shape: rng.normal(size=shape),
                                     heads=heads, h=h, n=n)
    kept, peaks = [], []
    for grad in (False, True):
        tracemalloc.start()
        try:
            out = nn.gat(whs, a_srcs, a_dsts, graph, 0.2, np.float32, grad=grad)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept.append(current)
        peaks.append(peak)
        del out
    out_bytes = n * h * 4
    assert kept[0] < 1.1 * out_bytes
    assert kept[1] > out_bytes + heads * n_edges * 8
    assert peaks[0] < 1.5 * n_edges * h * 8


def test_gat_rejects_misaligned_shapes():
    def const(*shape):
        return np.zeros(shape)

    whs, a_srcs, a_dsts = gat_inputs(const)
    # projected features of 4 links on a 5-link graph
    with pytest.raises(ValueError, match=r"\(4, 4\), \(5, 4\).*5 links"):
        nn.gat([const(4, 4)] + whs[1:], a_srcs, a_dsts, GRAPH, 0.2, np.float64)
    # an a_dst of the wrong width
    with pytest.raises(ValueError, match=r"\(4, 1\), \(3, 1\) do not"):
        nn.gat(whs, a_srcs, a_dsts[:1] + [const(3, 1)], GRAPH, 0.2,
               np.float64)
    # one a_src for two heads, and no head at all
    with pytest.raises(ValueError, match="do not align"):
        nn.gat(whs, a_srcs[:1], a_dsts, GRAPH, 0.2, np.float64)
    with pytest.raises(ValueError, match="do not align"):
        nn.gat([], [], [], GRAPH, 0.2, np.float64)


# ---------------------------------------------------------------------------
# precision
# ---------------------------------------------------------------------------

def test_tensor_keeps_float32_and_float64_and_casts_the_rest():
    assert Tensor(np.zeros(2, np.float32)).data.dtype == np.float32
    assert Tensor(np.float32(1.5)).data.dtype == np.float32
    assert Tensor(np.zeros(2)).data.dtype == np.float64
    for other in (1.5, 2, [1, 2], np.arange(3), np.zeros(2, np.float16)):
        assert Tensor(other).data.dtype == np.float64


def test_float32_ops_backward_and_adamw_stay_float32():
    # a float64 constant or vjp anywhere would upcast silently (NEP 50)
    rng = np.random.default_rng(32)

    def f32(*shape):
        return Tensor(rng.normal(size=shape).astype(np.float32),
                      requires_grad=True)

    a, b, row, c = f32(5, 4), f32(5, 4), f32(1, 4), f32(4, 3)
    w43, w63, b13, outer2 = f32(4, 3), f32(6, 3), f32(1, 3), f32(3, 2)
    w33, b13b = f32(3, 3), f32(1, 3)
    gru_params = [f32(*s) for s in [(4, 3), (1, 3)] * 3]
    whs, a_srcs, a_dsts = gat_inputs(f32)
    params = [a, b, row, c, w43, w63, b13, outer2, w33, b13b] + gru_params \
        + whs + a_srcs + a_dsts
    outputs = {
        "matmul": lambda: tape.matmul(a, c),
        "add": lambda: add(a, row),
        "mul": lambda: mul(a, b),
        "scale": lambda: scale(a, 0.5),
        "concat": lambda: concat([a, b], axis=1),
        "sigmoid": lambda: sigmoid(a),
        "tanh": lambda: tanh(a),
        "gat": lambda: tape.gat(whs, a_srcs, a_dsts, GRAPH, 0.2, np.float32),
        "dense": lambda: tape.dense(a, w43, b13, relu=True),
        "pair_head": lambda: tape.pair_head(
            a, outer2, [(w63, b13), (w33, b13b)], nn.HeadBuffers()),
        # a float64 history is cast to the weights' dtype
        "gru": lambda: tape.gru(rng.normal(size=(5, 2)), *gru_params),
    }
    for name, build in outputs.items():
        zero_grads(params)
        out = build()
        loss = tape.mse_loss(out, constant(np.ones(out.shape, np.float32)))
        assert out.data.dtype == loss.data.dtype == np.float32, name
        backward(loss)
        reached = [p for p in params if p.grad is not None]
        assert reached, name
        assert all(p.grad.dtype == np.float32 for p in reached), name
    opt = AdamW({str(i): p.data for i, p in enumerate(params)}, lr=0.01)
    opt.step({name: np.ones_like(p) for name, p in opt.params.items()})
    assert all(p.data.dtype == np.float32 for p in params)
    assert all(m.dtype == np.float32
               for m in [*opt._m.values(), *opt._v.values()])


# ---------------------------------------------------------------------------
# the backward contract, on the test tape
# ---------------------------------------------------------------------------

def every_op(dtype):
    """One output of every op, on parameters of ``dtype``."""
    rng = np.random.default_rng(15)

    def param(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    a, b, row, c = param(5, 4), param(5, 4), param(1, 4), param(4, 3)
    w43, w63, b13, outer2 = param(4, 3), param(6, 3), param(1, 3), param(3, 2)
    w33, b13b = param(3, 3), param(1, 3)
    gru_params = [param(*s) for s in [(4, 3), (1, 3)] * 3]
    other = np.float64 if dtype == np.float32 else np.float32
    return {
        "matmul": tape.matmul(a, c),
        "add": add(a, row),
        "mul": mul(a, b),
        "scale": scale(a, 0.5),
        "concat": concat([a, b, row], axis=0),
        "sigmoid": sigmoid(a),
        "tanh": tanh(a),
        "gat": tape.gat(*gat_inputs(param), GRAPH, 0.2, dtype),
        # the output cast to the other dtype, the gradients cast back
        "gat_cast": tape.gat(*gat_inputs(param, heads=1), GRAPH, 0.2, other),
        "dense": tape.dense(a, w43, b13),
        "dense_relu": tape.dense(a, w43, b13, relu=True),
        "pair_head": tape.pair_head(a, outer2, [(w63, b13), (w33, b13b)],
                                    nn.HeadBuffers()),
        "pair_head_one_layer": tape.pair_head(a, outer2, [(w63, b13)],
                                              nn.HeadBuffers()),
        "gru": tape.gru(rng.normal(size=(5, 2)), *gru_params),
        "mse_loss": tape.mse_loss(a, b),
    }


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_op_returns_one_gradient_per_parent(dtype):
    rng = np.random.default_rng(16)
    for name, out in every_op(dtype).items():
        g = np.asarray(rng.normal(size=out.shape), dtype=out.data.dtype)
        grads = out._vjp(g)
        assert isinstance(grads, tuple), name
        assert len(grads) == len(out._parents) > 0, name
        for parent, grad in zip(out._parents, grads):
            assert grad.shape == parent.data.shape, name
            assert grad.dtype == parent.data.dtype, name


def test_backward_from_a_leaf_seeds_only_its_gradient():
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    backward(x)
    assert np.array_equal(x.grad, np.ones((1, 2)))


# ---------------------------------------------------------------------------
# inference: ops without grad
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_each_op_without_grad_returns_its_output_alone(dtype):
    """Without ``grad`` an op returns its output and no backward, with the
    bits of the output it returns beside its backward."""
    rng = np.random.default_rng(18)

    def param(*shape):
        return rng.normal(size=shape).astype(dtype)

    a, b, c, w63, b13, w33, b13b, outer2 = (param(*shape) for shape in (
        (5, 4), (5, 4), (4, 3), (6, 3), (1, 3), (3, 3), (1, 3), (3, 2)))
    gru_params = [param(*shape) for shape in [(4, 3), (1, 3)] * 3]
    calls = {
        "matmul": (nn.matmul, (a, c), {}),
        "dense": (nn.dense, (a, c, b13), {"relu": True}),
        "gat": (nn.gat, (*gat_inputs(param), GRAPH, 0.2, dtype), {}),
        "gru": (nn.gru, (rng.normal(size=(5, 2)), *gru_params), {}),
        "pair_halves": (nn.pair_halves, (a, outer2, w63, b13), {}),
        "pair_head": (nn.pair_head, (c, outer2 @ w63[4:], [(w33, b13b)],
                                     nn.HeadBuffers()), {}),
        "mse_loss": (nn.mse_loss, (a, b), {}),
    }
    for name, (op, args, kwargs) in calls.items():
        out = op(*args, **kwargs)
        with_grad, back = op(*args, grad=True, **kwargs)
        assert callable(back), name
        # pair_halves returns its two halves
        pairs = zip(out, with_grad) if isinstance(out, tuple) \
            else [(out, with_grad)]
        for alone, kept in pairs:
            assert alone.dtype == dtype \
                and alone.tobytes() == kept.tobytes(), name


# ---------------------------------------------------------------------------
# the estimator head as one op
# ---------------------------------------------------------------------------

def arrays(layers):
    """The arrays of a head's (w, b) Tensor pairs."""
    return [(w.data, b.data) for w, b in layers]


def head(inner, outer, layers, buffers, halves=None):
    """The head over every (inner row, outer row) pair on arrays: the first
    layer's ``nn.pair_halves`` (or the given ``halves``), then
    ``nn.pair_head`` over the later layers, without grad."""
    if halves is None:
        halves = nn.pair_halves(inner, outer, *layers[0])
    return nn.pair_head(*halves, layers[1:], buffers)


def head_inputs(rng, dtype, n, m, h, width, widths):
    """Inner (n, h) and outer (m, width) rows and a chain of (w, b) layers
    of the given output widths, all requiring a gradient."""
    def param(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    fan_in = [h + width] + list(widths[:-1])
    layers = [(param(i, o), param(1, o)) for i, o in zip(fan_in, widths)]
    return param(n, h), param(m, width), layers


def head_gradients(out, target, inner, outer, layers):
    """Every parent's gradient of the MSE of ``out`` against ``target``."""
    params = [inner, outer] + [t for pair in layers for t in pair]
    zero_grads(params)
    backward(tape.mse_loss(out, target))
    return [p.grad for p in params]


# (inner rows, outer rows, inner width, outer width, layer widths): the head
# with the recurrent branch (outer width h), without it (width 1), the
# shortest head ModelConfig accepts (fc_hidden=(): the pair layer alone),
# and one outer row
HEAD_CASES = {
    "gru": (7, 4, 5, 5, (9, 6, 3, 1)),
    "no_gru": (7, 4, 5, 1, (9, 6, 3, 1)),
    "shortest": (6, 3, 4, 4, (1,)),
    "shortest_no_gru": (6, 3, 4, 1, (1,)),
    "one_outer_row": (5, 1, 3, 3, (4, 1)),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", sorted(HEAD_CASES))
def test_pair_head_equals_the_dense_oracle_to_the_bit(dtype, case):
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    n, m, h, width, widths = HEAD_CASES[case]
    buffers = nn.HeadBuffers()
    # the second round runs on buffers the first one built
    for _ in range(2):
        inner, outer, layers = head_inputs(rng, dtype, n, m, h, width, widths)
        target = constant(rng.normal(size=(n * m, widths[-1])).astype(dtype))
        ref = dense_head(inner, outer, layers)
        want = head_gradients(ref, target, inner, outer, layers)
        out = tape.pair_head(inner, outer, layers, buffers)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, ref.data)
        got = head_gradients(out, target, inner, outer, layers)
        for a, b in zip(got, want):
            assert a.dtype == dtype and np.array_equal(a, b)
        for without_grad in (buffers, nn.HeadBuffers()):
            assert np.array_equal(head(inner.data, outer.data,
                                       arrays(layers), without_grad), ref.data)


def test_pair_head_random_shapes_equal_the_oracle_to_the_bit():
    rng = np.random.default_rng(21)
    for dtype in (np.float32, np.float64) * 4:
        n, m, h = rng.integers(1, 9, size=3)
        width = h if rng.random() < 0.5 else 1
        widths = tuple(rng.integers(1, 12, size=rng.integers(0, 4))) + (1,)
        inner, outer, layers = head_inputs(rng, dtype, n, m, h, width, widths)
        target = constant(rng.normal(size=(n * m, 1)).astype(dtype))
        ref = dense_head(inner, outer, layers)
        want = head_gradients(ref, target, inner, outer, layers)
        out = tape.pair_head(inner, outer, layers, nn.HeadBuffers())
        got = head_gradients(out, target, inner, outer, layers)
        assert np.array_equal(out.data, ref.data)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_pair_head_gradients_match_finite_differences():
    rng = np.random.default_rng(22)
    inner, outer, layers = head_inputs(rng, np.float64, 4, 3, 3, 2, (5, 4, 2))
    target = constant(rng.normal(size=(12, 2)))
    buffers = nn.HeadBuffers()
    params = [inner, outer] + [t for pair in layers for t in pair]
    err = grad_check(lambda: tape.mse_loss(
        tape.pair_head(inner, outer, layers, buffers), target), params)
    assert err < 1e-6


def test_pair_head_claims_no_buffers_without_grad():
    rng = np.random.default_rng(24)
    inner, outer, layers = head_inputs(rng, np.float32, 4, 3, 3, 3, (5, 2))
    buffers = nn.HeadBuffers()
    head(inner.data, outer.data, arrays(layers), buffers)
    assert buffers.shape is None and buffers.acts is None
    assert buffers.mask is None
    tape.pair_head(inner, outer, layers, buffers)
    assert [a.shape for a in buffers.acts] == [(12, 5)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pair_head_on_sliced_halves_equals_one_call_to_the_bit(dtype):
    """Halves computed once for every outer row and sliced give each slice
    the rows of one call over all outer rows, a one-row slice included. That
    holds on OpenBLAS's AVX-512 (SkylakeX) sgemm kernel; on the AVX2
    (Haswell) kernel a row's float32 bits depend on the call's rows."""
    rng = np.random.default_rng(26)
    inner, outer, layers = head_inputs(rng, dtype, 30, 7, 16, 16, (24, 8, 1))
    inner, outer, layers = inner.data, outer.data, arrays(layers)
    halves = nn.pair_halves(inner, outer, *layers[0])
    ref, _ = nn.pair_head(*halves, layers[1:], nn.HeadBuffers(), grad=True)
    for lo, hi in ((0, 7), (0, 1), (3, 4), (1, 3), (2, 7)):
        out = head(inner, outer[lo:hi], layers, nn.HeadBuffers(),
                   (halves[0], halves[1][lo:hi]))
        assert np.array_equal(out, ref[lo * 30:hi * 30])


# ---------------------------------------------------------------------------
# the GRU as one op
# ---------------------------------------------------------------------------

def gru_inputs(rng, dtype, batch, steps, size):
    """A (batch, steps) float64 history and the six GRU parameters, in
    ``nn.gru``'s order, of the given dtype and state width."""
    params = [Tensor((rng.normal(size=s) * 0.5).astype(dtype), requires_grad=True)
              for s in [(size + 1, size), (1, size)] * 3]
    return rng.normal(size=(batch, steps)), params


# (batch, steps, state width): one row, one step, both, the model's shape
# (40 windows, history 5, hidden 128) and a few small ones
GRU_SHAPES = [(1, 1, 1), (1, 5, 3), (7, 1, 4), (3, 4, 2), (13, 6, 9),
              (40, 5, 128)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", GRU_SHAPES, ids=str)
def test_gru_equals_the_taped_oracle_to_the_bit(dtype, shape):
    rng = np.random.default_rng(zlib.crc32(str(shape).encode()))
    hist, params = gru_inputs(rng, dtype, *shape)
    target = constant(rng.normal(size=(shape[0], shape[2])).astype(dtype))
    results = []
    for op in (taped_gru, tape.gru):
        zero_grads(params)
        out = op(hist, *params)
        backward(tape.mse_loss(out, target))
        results.append([out.data] + [p.grad for p in params])
    for got, want in zip(*reversed(results)):
        assert got.dtype == want.dtype == dtype
        # the same bits, the signs of zeros included
        assert got.tobytes() == want.tobytes()
    assert nn.gru(hist, *(p.data for p in params)).tobytes() \
        == results[1][0].tobytes()


def test_gru_keeps_no_step_arrays_without_grad():
    """Without ``grad`` only a step's arrays are alive at once; with it,
    every step's six arrays are kept for the backward."""
    rng = np.random.default_rng(27)
    hist, params = gru_inputs(rng, np.float64, 2000, 20, 16)
    params = [p.data for p in params]
    state_bytes = 2000 * 16 * 8
    peaks = []
    for grad in (False, True):
        tracemalloc.start()
        try:
            out = nn.gru(hist, *params, grad=grad)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del out
    assert peaks[0] < 16 * state_bytes < 20 * 6 * state_bytes < peaks[1]


def test_gru_rejects_misaligned_shapes():
    rng = np.random.default_rng(28)
    hist, params = gru_inputs(rng, np.float64, 2, 3, 4)
    params = [p.data for p in params]
    with pytest.raises(ValueError, match=r"\(2, 0\)"):
        nn.gru(hist[:, :0], *params)
    params[4] = np.zeros((4, 4))
    with pytest.raises(ValueError, match=r"\(5, 4\), \(1, 4\), \(5, 4\), "
                                         r"\(1, 4\), \(4, 4\), \(1, 4\)"):
        nn.gru(hist, *params)


# ---------------------------------------------------------------------------
# optimizer and scheduler
# ---------------------------------------------------------------------------

def test_adamw_first_step_closed_form():
    p = np.array([1.0])
    opt = AdamW({"p": p}, lr=0.002, weight_decay=0.01)
    opt.step({"p": np.array([0.5])})
    # decoupled decay then bias-corrected update: 1 - lr*wd - lr*(g/|g|)
    expected = 1.0 - 0.002 * 0.01 * 1.0 - 0.002 * (0.5 / (0.5 + 1e-8))
    assert abs(p[0] - expected) < 1e-12
    assert abs(p[0] - 0.99798) < 1e-5


def test_adamw_zero_grad_zero_decay_is_fixed_point():
    p = np.array([3.0])
    opt = AdamW({"p": p}, lr=0.002, weight_decay=0.0)
    for _ in range(5):
        opt.step({"p": np.array([0.0])})
    assert p[0] == 3.0


def test_adamw_identical_histories_update_identically():
    p1, p2 = np.array([2.0]), np.array([2.0])
    opt = AdamW({"p1": p1, "p2": p2}, lr=0.01)
    for g in (0.3, -0.2, 0.7):
        opt.step({"p1": np.array([g]), "p2": np.array([g])})
    assert p1[0] == p2[0]


def test_steplr_schedule():
    assert steplr(0.002, 80, 0.85, 0) == 0.002
    assert abs(steplr(0.002, 80, 0.85, 80) - 0.0017) < 1e-12
    assert steplr(0.002, 80, 0.85, 159) == steplr(0.002, 80, 0.85, 80)


# ---------------------------------------------------------------------------
# grad_check harness
# ---------------------------------------------------------------------------

def test_grad_check_linear_layer():
    rng = np.random.default_rng(5)
    w = rand_param(rng, (4, 3))
    b = rand_param(rng, (1, 3))
    x = constant(rng.normal(size=(6, 4)))
    y = constant(rng.normal(size=(6, 3)))

    def closure():
        return tape.mse_loss(add(tape.matmul(x, w), b), y)

    assert grad_check(closure, [w, b], eps=1e-6) < 1e-6


def test_grad_check_constant_closure():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def closure():
        return tape.mse_loss(constant([0.0]), constant([0.0]))

    assert grad_check(closure, [p], eps=1e-6) == 0.0
