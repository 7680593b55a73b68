import math
import zlib

import numpy as np
import pytest

from lcftraffic import nn
from lcftraffic.nn import AdamW, Tensor, backward, steplr

from gradcheck import grad_check


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
    nn.zero_grads(params)
    loss = make_loss()
    backward(loss)
    for p in params:
        fd = fd_gradient(make_loss, p)
        denom = np.maximum(np.abs(fd) + np.abs(p.grad), 1.0)
        rel = np.abs(fd - p.grad) / denom
        assert rel.max() < tol, rel.max()


def rand_param(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


ROWS = np.array([0, 2, 2, 4, 1, 0, 2])    # gather over 5 rows; row 3 unread
STARTS = np.array([0, 1, 3])              # segments of 1, 2 and 2 of 5 rows


@pytest.mark.parametrize("op_name", [
    "matmul", "add", "add_broadcast", "mul", "mul_broadcast", "concat",
    "relu", "leaky_relu", "sigmoid", "tanh", "dense", "dense_relu", "repeat",
    "tile", "gather", "segment_softmax", "segment_sum",
])
def test_primitive_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    a = rand_param(rng, (5, 4))
    b = rand_param(rng, (5, 4))
    c = rand_param(rng, (4, 3))
    row = rand_param(rng, (1, 4))
    target = nn.constant(rng.normal(size=(5, 4)))
    t53 = nn.constant(rng.normal(size=(5, 3)))
    t58 = nn.constant(rng.normal(size=(5, 8)))
    w43 = rand_param(rng, (4, 3))
    w53 = rand_param(rng, (5, 3))
    w63 = rand_param(rng, (6, 3))
    b13 = rand_param(rng, (1, 3))
    outer2 = rand_param(rng, (3, 2))
    outer1 = rand_param(rng, (3, 1))
    t153 = nn.constant(rng.normal(size=(15, 3)))
    t74 = nn.constant(rng.normal(size=(7, 4)))
    t34 = nn.constant(rng.normal(size=(3, 4)))

    builders = {
        "matmul": (lambda: nn.mse_loss(nn.matmul(a, c), t53), [a, c]),
        "add": (lambda: nn.mse_loss(nn.add(a, b), target), [a, b]),
        "add_broadcast": (lambda: nn.mse_loss(nn.add(a, row), target), [a, row]),
        "mul": (lambda: nn.mse_loss(nn.mul(a, b), target), [a, b]),
        "mul_broadcast": (lambda: nn.mse_loss(nn.mul(a, row), target), [a, row]),
        "concat": (lambda: nn.mse_loss(nn.concat([a, b], axis=1), t58), [a, b]),
        "relu": (lambda: nn.mse_loss(nn.relu(a), target), [a]),
        "leaky_relu": (lambda: nn.mse_loss(nn.leaky_relu(a, 0.2), target), [a]),
        "sigmoid": (lambda: nn.mse_loss(nn.sigmoid(a), target), [a]),
        "tanh": (lambda: nn.mse_loss(nn.tanh(a), target), [a]),
        "dense": (lambda: nn.mse_loss(nn.dense(a, w43, b13), t53),
                  [a, w43, b13]),
        "dense_relu": (lambda: nn.mse_loss(nn.dense(a, w43, b13, relu=True),
                                           t53), [a, w43, b13]),
        # pair_dense repeats each outer row over the inner rows and tiles
        # the inner rows over the outer ones; relu on, then off with a
        # width-1 outer input as in the head without the recurrent branch
        "repeat": (lambda: nn.mse_loss(nn.pair_dense(a, outer2, w63, b13,
                                                     relu=True), t153),
                   [a, outer2, w63, b13]),
        "tile": (lambda: nn.mse_loss(nn.pair_dense(a, outer1, w53, b13), t153),
                 [a, outer1, w53, b13]),
        # rows read twice and a row never read, as in the link graph
        "gather": (lambda: nn.mse_loss(nn.gather(a, ROWS), t74), [a]),
        "segment_softmax": (lambda: nn.mse_loss(nn.segment_softmax(a, STARTS),
                                                target), [a]),
        "segment_sum": (lambda: nn.mse_loss(nn.segment_sum(a, STARTS), t34),
                        [a]),
    }
    make_loss, params = builders[op_name]
    check_op(make_loss, params)


def test_leaky_relu_definition():
    out = nn.leaky_relu(nn.constant(np.array([-1.0, 2.0])), 0.2)
    assert out.data.tolist() == [-0.2, 2.0]


def test_segment_softmax_forced_values():
    scores = nn.constant(np.array([[5.0], [0.0], [math.log(2.0)]]))
    out = nn.segment_softmax(scores, np.array([0, 1]))
    assert np.allclose(out.data, [[1.0], [1 / 3], [2 / 3]], atol=1e-15)


def test_segment_softmax_segments_sum_to_one():
    rng = np.random.default_rng(11)
    starts = np.r_[0, np.cumsum(rng.integers(1, 9, size=29))]
    scores = rng.normal(size=(starts[-1] + 4, 3)) * 10
    out = nn.segment_softmax(nn.constant(scores), starts).data
    assert np.abs(np.add.reduceat(out, starts) - 1.0).max() < 1e-12


def test_gather_and_segment_sum_values():
    a = nn.constant(np.arange(6.0).reshape(3, 2))
    assert nn.gather(a, np.array([2, 0, 2])).data.tolist() == \
        [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]]
    assert nn.segment_sum(a, np.array([0, 1])).data.tolist() == \
        [[0.0, 1.0], [6.0, 8.0]]


@pytest.mark.parametrize("starts", [[], [1, 2], [0, 2, 2], [0, 3]])
def test_segment_ops_reject_empty_or_uncovered_segments(starts):
    a = nn.constant(np.zeros((3, 2)))
    for op in (nn.segment_softmax, nn.segment_sum):
        with pytest.raises(ValueError, match="start at row 0 and be non-empty"):
            op(a, np.array(starts, dtype=int))


def test_shape_mismatch_names_both_shapes():
    a = nn.constant(np.zeros((2, 3)))
    b = nn.constant(np.zeros((4, 5)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.matmul(a, b)
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.add(a, b)


def test_mse_loss_values_and_gradient():
    pred = Tensor(np.array([0.0, 2.0]), requires_grad=True)
    target = nn.constant(np.array([0.0, 0.0]))
    loss = nn.mse_loss(pred, target)
    assert loss.item() == 2.0
    backward(loss)
    assert np.allclose(pred.grad, 2 * (pred.data - target.data) / 2)

    assert nn.mse_loss(nn.constant([1.0, 2.0]), nn.constant([1.0, 2.0])).item() == 0.0

    def closure():
        return nn.mse_loss(pred, target)

    assert grad_check(closure, [pred], eps=1e-6) < 1e-8


def test_reused_tensor_accumulates_gradient():
    x = Tensor(np.array([[1.5]]), requires_grad=True)
    y = nn.add(nn.mul(x, x), x)  # x^2 + x, d/dx = 2x + 1
    backward(y)
    assert np.allclose(x.grad, 2 * 1.5 + 1)


def test_gradient_shared_by_two_parents_is_not_overwritten():
    # add hands one array to both parents; a's second contribution must
    # not leak into b's gradient
    a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
    b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
    backward(nn.mse_loss(nn.add(nn.add(a, b), a), nn.constant(np.zeros((1, 2)))))
    g = 2.0 * (2.0 * a.data + b.data) / 2.0
    assert np.array_equal(b.grad, g)
    assert np.array_equal(a.grad, 2.0 * g)


def test_dense_rejects_misaligned_shapes():
    x = nn.constant(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        nn.dense(x, nn.constant(np.zeros((4, 5))), nn.constant(np.zeros((1, 5))))
    with pytest.raises(ValueError, match=r"\(5,\)"):
        nn.dense(x, nn.constant(np.zeros((3, 5))), nn.constant(np.zeros(5)))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(1, 1\).*\(5, 2\)"):
        nn.pair_dense(x, nn.constant(np.zeros((1, 1))),
                      nn.constant(np.zeros((5, 2))), nn.constant(np.zeros((1, 2))))


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
    params = [a, b, row, c, w43, w63, b13, outer2]
    outputs = {
        "matmul": lambda: nn.matmul(a, c),
        "add": lambda: nn.add(a, row),
        "mul": lambda: nn.mul(a, b),
        "scale": lambda: nn.scale(a, 0.5),
        "concat": lambda: nn.concat([a, b], axis=1),
        "relu": lambda: nn.relu(a),
        "leaky_relu": lambda: nn.leaky_relu(a, 0.2),
        "sigmoid": lambda: nn.sigmoid(a),
        "tanh": lambda: nn.tanh(a),
        "gather": lambda: nn.gather(a, ROWS),
        "segment_softmax": lambda: nn.segment_softmax(a, STARTS),
        "segment_sum": lambda: nn.segment_sum(a, STARTS),
        "dense": lambda: nn.dense(a, w43, b13, relu=True),
        "pair_dense": lambda: nn.pair_dense(a, outer2, w63, b13, relu=True),
        "astype": lambda: nn.astype(nn.astype(a, np.float64), np.float32),
    }
    for name, build in outputs.items():
        nn.zero_grads(params)
        out = build()
        loss = nn.mse_loss(out, nn.constant(np.ones(out.shape, np.float32)))
        assert out.data.dtype == loss.data.dtype == np.float32, name
        backward(loss)
        reached = [p for p in params if p.grad is not None]
        assert reached, name
        assert all(p.grad.dtype == np.float32 for p in reached), name
    opt = AdamW(params, lr=0.01)
    for p in params:
        p.grad = np.ones_like(p.data)
    opt.step()
    assert all(p.data.dtype == np.float32 for p in params)
    assert all(m.dtype == np.float32 for m in opt._m + opt._v)


def test_astype_casts_the_gradient_back():
    x = Tensor(np.array([[0.1, -0.3]]), requires_grad=True)
    same = nn.astype(x, np.float64)
    assert same is x
    y = nn.astype(x, np.float32)
    assert y.data.dtype == np.float32
    assert np.array_equal(y.data, x.data.astype(np.float32))
    backward(nn.mse_loss(y, nn.constant(np.zeros((1, 2), np.float32))))
    assert x.grad.dtype == np.float64
    assert np.array_equal(x.grad, y.data.astype(np.float64))


# ---------------------------------------------------------------------------
# tape contract
# ---------------------------------------------------------------------------

def every_op(dtype):
    """One output of every op, on parameters of ``dtype``."""
    rng = np.random.default_rng(15)

    def param(*shape):
        return Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    a, b, row, c = param(5, 4), param(5, 4), param(1, 4), param(4, 3)
    w43, w63, b13, outer2 = param(4, 3), param(6, 3), param(1, 3), param(3, 2)
    other = np.float64 if dtype == np.float32 else np.float32
    return {
        "matmul": nn.matmul(a, c),
        "add": nn.add(a, row),
        "mul": nn.mul(a, b),
        "scale": nn.scale(a, 0.5),
        "concat": nn.concat([a, b, row], axis=0),
        "relu": nn.relu(a),
        "leaky_relu": nn.leaky_relu(a, 0.2),
        "sigmoid": nn.sigmoid(a),
        "tanh": nn.tanh(a),
        "gather": nn.gather(a, ROWS),
        "segment_softmax": nn.segment_softmax(a, STARTS),
        "segment_sum": nn.segment_sum(a, STARTS),
        "dense": nn.dense(a, w43, b13),
        "dense_relu": nn.dense(a, w43, b13, relu=True),
        "pair_dense": nn.pair_dense(a, outer2, w63, b13),
        "pair_dense_relu": nn.pair_dense(a, outer2, w63, b13, relu=True),
        "astype": nn.astype(a, other),
        "mse_loss": nn.mse_loss(a, b),
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
# inference mode
# ---------------------------------------------------------------------------

def test_no_grad_ops_leave_no_tape():
    rng = np.random.default_rng(4)
    x, w, b = (rand_param(rng, s) for s in ((3, 2), (2, 4), (1, 4)))
    taped = nn.relu(nn.dense(x, w, b))
    with nn.no_grad():
        out = nn.relu(nn.dense(x, w, b))
        loss = nn.mse_loss(out, nn.constant(np.zeros((3, 4))))
        leaf = Tensor(np.ones(2), requires_grad=True)
    for t in (out, loss):
        assert t._parents == () and t._vjp is None
        assert not t.requires_grad
    assert np.array_equal(out.data, taped.data)
    assert leaf.requires_grad
    # the tape records again after the block
    after = nn.dense(x, w, b)
    assert after.requires_grad and len(after._parents) == 3


def test_no_grad_keeps_no_closure_for_any_op():
    with nn.no_grad():
        outputs = every_op(np.float64)
    for name, out in outputs.items():
        assert out._vjp is None and out._parents == (), name
        assert not out.requires_grad, name


def test_no_grad_restores_the_mode_after_an_exception():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        with nn.no_grad():
            nn.matmul(x, nn.constant(np.ones((3, 3))))
    assert nn.matmul(x, x).requires_grad
    with nn.no_grad():
        with nn.no_grad():
            pass
        assert not nn.matmul(x, x).requires_grad
    assert nn.matmul(x, x).requires_grad


# ---------------------------------------------------------------------------
# optimizer and scheduler
# ---------------------------------------------------------------------------

def test_adamw_first_step_closed_form():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.5])
    opt = AdamW([p], lr=0.002, weight_decay=0.01)
    opt.step()
    # decoupled decay then bias-corrected update: 1 - lr*wd - lr*(g/|g|)
    expected = 1.0 - 0.002 * 0.01 * 1.0 - 0.002 * (0.5 / (0.5 + 1e-8))
    assert abs(p.data[0] - expected) < 1e-12
    assert abs(p.data[0] - 0.99798) < 1e-5


def test_adamw_zero_grad_zero_decay_is_fixed_point():
    p = Tensor(np.array([3.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = AdamW([p], lr=0.002, weight_decay=0.0)
    for _ in range(5):
        opt.step()
    assert p.data[0] == 3.0


def test_adamw_identical_histories_update_identically():
    p1 = Tensor(np.array([2.0]), requires_grad=True)
    p2 = Tensor(np.array([2.0]), requires_grad=True)
    opt = AdamW([p1, p2], lr=0.01)
    for g in (0.3, -0.2, 0.7):
        p1.grad = np.array([g])
        p2.grad = np.array([g])
        opt.step()
    assert p1.data[0] == p2.data[0]


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
    x = nn.constant(rng.normal(size=(6, 4)))
    y = nn.constant(rng.normal(size=(6, 3)))

    def closure():
        return nn.mse_loss(nn.add(nn.matmul(x, w), b), y)

    assert grad_check(closure, [w, b], eps=1e-6) < 1e-6


def test_grad_check_constant_closure():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)

    def closure():
        return nn.mse_loss(nn.constant([0.0]), nn.constant([0.0]))

    assert grad_check(closure, [p], eps=1e-6) == 0.0
