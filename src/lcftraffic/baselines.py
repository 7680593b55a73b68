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


def region_mean_speeds(speeds: np.ndarray, accumulation: np.ndarray,
                       labels: np.ndarray, k: int,
                       weighting: str = "accumulation") -> np.ndarray:
    """Per-link estimate from each region's mean speed at one window.

    "accumulation" weights links by vehicles present (empty regions fall
    back to the arithmetic mean); "arithmetic" is the plain average, which
    carries the refinement guarantee against a global-mean predictor.
    """
    out = np.zeros_like(speeds)
    weights = np.maximum(np.asarray(accumulation, dtype=float), 0.0)
    for r in range(k):
        mask = labels == r
        if not np.any(mask):
            continue
        if weighting == "accumulation" and weights[mask].sum() > 1e-9:
            m = float(np.average(speeds[mask], weights=weights[mask]))
        else:
            m = float(speeds[mask].mean())
        out[mask] = m
    return out


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.bias


def fit_lr(features: np.ndarray, targets: np.ndarray,
           ridge: float = 1e-8) -> LinearModel:
    """Ordinary least squares via normal equations, with a small ridge term
    for conditioning. The bias column is appended internally."""
    x = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if x.shape[0] < x.shape[1]:
        raise ValueError("need at least as many samples as features")
    xb = np.column_stack([x, np.ones(len(x))])
    gram = xb.T @ xb + ridge * np.eye(xb.shape[1])
    try:
        coef = np.linalg.solve(gram, xb.T @ y)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"normal equations are singular: {exc}") from exc
    if not np.all(np.isfinite(coef)):
        raise ValueError("non-finite regression coefficients")
    return LinearModel(weights=coef[:-1], bias=float(coef[-1]))
