"""Sinking-attention calibration: cumulative-attention penalty weights and the
calibrated score transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsevcd.numerics import stable_softmax


@dataclass
class PenaltyWeights:
    """Softmax-normalised cumulative-attention weights; larger weight marks a
    stronger sink."""

    w: np.ndarray
    beta: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


def penalty_weights_from(cumulative, beta: float = 0.0) -> PenaltyWeights:
    """Penalty weights from raw per-token cumulative attention values."""
    c = np.asarray(cumulative, dtype=np.float64)
    if c.shape[0] == 0:
        raise ValueError("penalty_weights: no tokens")
    return PenaltyWeights(stable_softmax(c), beta)


def calibrate_scores(scores, weights, beta: float) -> np.ndarray:
    """Calibrated pre-softmax scores: ``(1 + beta) * s - beta * (w * s)``,
    elementwise, for one support or a ``(G, n)`` block of head rows.

    ``beta = 0`` returns the scores bit-exactly unchanged.
    """
    s = np.asarray(scores, dtype=np.float64)
    if beta <= 0.0:
        if beta < 0:
            raise ValueError("beta must be non-negative")
        return s.copy()
    w = np.asarray(weights.w if isinstance(weights, PenaltyWeights) else weights,
                   dtype=np.float64)
    if w.shape != s.shape:
        raise ValueError("scores and penalty weights must have equal shapes")
    return (1.0 + beta) * s - beta * (w * s)
