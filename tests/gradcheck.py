"""Finite-difference gradient checks."""

import numpy as np

from taped_ops import backward, zero_grads


def fd_error(loss, params, analytic, eps: float = 1e-6) -> float:
    """Max relative error between ``analytic`` gradients and central finite
    differences of ``loss()``, a float computed from the current values of
    ``params``; every entry of every parameter array is perturbed in place.
    The error denominator is floored at 1 so near-zero entries, where
    finite-difference roundoff dominates, are compared absolutely."""
    worst = 0.0
    for p, g in zip(params, analytic, strict=True):
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = loss()
            flat[i] = orig - eps
            f_minus = loss()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(fd) + abs(gflat[i]), 1.0)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst


def grad_check(closure, params, eps: float = 1e-6) -> float:
    """``fd_error`` of the taped backprop gradients: ``closure`` rebuilds
    the scalar loss, a taped ``Tensor``, from the current parameter values,
    and ``params`` are Tensors."""
    params = list(params)
    zero_grads(params)
    backward(closure())
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    return fd_error(lambda: closure().item(), [p.data for p in params],
                    analytic, eps)
