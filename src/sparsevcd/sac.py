"""Sinking-attention calibration: the calibrated score transform. Its penalty
weights are the softmax of a support's cumulative-attention column sums."""

from __future__ import annotations

import numpy as np


def calibrate_scores(scores, weights, beta: float) -> np.ndarray:
    """Calibrated pre-softmax scores: ``(1 + beta) * s - beta * (w * s)``,
    elementwise, for one support or a ``(G, n)`` block of head rows.

    ``beta = 0`` returns the scores bit-exactly unchanged. Neither input is
    written; the products are rounded as written, in two new arrays.
    """
    s = np.asarray(scores, dtype=np.float64)
    if beta <= 0.0:
        if beta < 0:
            raise ValueError("beta must be non-negative")
        return s.copy()
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != s.shape:
        raise ValueError("scores and penalty weights must have equal shapes")
    penalty = np.multiply(w, s)
    penalty *= beta
    out = s * (1.0 + beta)
    out -= penalty
    return out
