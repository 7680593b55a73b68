"""Finite-difference gradient checks for the tests of the autograd core."""

import numpy as np

from lcftraffic.nn import backward, zero_grads


def grad_check(closure, params, eps: float = 1e-6) -> float:
    """Max relative error between backprop and central finite differences.

    ``closure`` rebuilds the scalar loss from the current parameter values;
    every entry of every parameter is perturbed. The error denominator is
    floored at 1 so near-zero entries, where finite-difference roundoff
    dominates, are compared absolutely.
    """
    params = list(params)
    zero_grads(params)
    loss = closure()
    backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]
    worst = 0.0
    for p, g in zip(params, analytic):
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = closure().item()
            flat[i] = orig - eps
            f_minus = closure().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(fd) + abs(gflat[i]), 1.0)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
