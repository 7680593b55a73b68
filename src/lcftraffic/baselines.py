"""Building blocks of the reference estimators the learned model is
compared against: per-region mean speeds (MFD-P) and least squares (LR).

The predictors themselves, MFD (every link at the network mean speed),
MFD-P and LR, are assembled in :mod:`lcftraffic.harness`; the DNN / DNN-GRU
/ GAT ablations are configurations of the estimator in
:mod:`lcftraffic.model` (``config_from_name``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# vehicles: a link or a region holding less than this counts as empty
EMPTY_VEH = 1e-6
LR_RIDGE = 1e-8    # fit_lr's ridge term, for conditioning


def region_mean_speeds(speeds: np.ndarray, accumulation: np.ndarray,
                       labels: np.ndarray, k: int) -> np.ndarray:
    """Per-link estimate from each region's mean speed, for one window
    (Z,) or every window (W, Z) at once; the one rule that averages link
    speeds (the network mean speed is this rule with one region).

    Links are weighted by the vehicles present, and a region holding less
    than ``EMPTY_VEH`` vehicles takes the arithmetic mean. Unit
    accumulations (``np.ones_like``) give the plain average to the bit,
    which carries the refinement guarantee against a global-mean
    predictor. Each mean is clipped into the range of its region's link
    speeds, which rounding can leave.
    """
    weights = np.maximum(np.asarray(accumulation, dtype=float), 0.0)
    out = np.zeros_like(speeds)
    for r in range(k):
        mask = labels == r
        if not np.any(mask):
            continue
        # contiguous rows, so each window sums as it would alone
        s, a = (np.compress(mask, x, axis=-1) for x in (speeds, weights))
        held = a.sum(axis=-1)
        m = np.where(held >= EMPTY_VEH,
                     (s * a).sum(axis=-1) / np.maximum(held, EMPTY_VEH),
                     s.mean(axis=-1))
        out[..., mask] = np.clip(m, s.min(axis=-1), s.max(axis=-1))[..., None]
    return out


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.bias


def fit_lr(design: np.ndarray, targets: np.ndarray) -> LinearModel:
    """Ordinary least squares via normal equations, with the ``LR_RIDGE``
    term for conditioning. ``design`` holds one row per sample, its
    features then a last column of ones, the bias's; a caller writes its
    rows into it in place, so the fit holds one copy of them."""
    x = np.asarray(design, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2 or np.any(x[:, -1] != 1.0):
        raise ValueError("the design matrix needs a feature column and a "
                         "last column of ones")
    if x.shape[0] < x.shape[1] - 1:
        raise ValueError("need at least as many samples as features")
    gram = x.T @ x + LR_RIDGE * np.eye(x.shape[1])
    try:
        coef = np.linalg.solve(gram, x.T @ y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"normal equations are singular: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise ValueError("non-finite regression coefficients")
    return LinearModel(weights=coef[:-1], bias=float(coef[-1]))
