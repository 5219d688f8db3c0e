"""Deterministic dense linear-algebra and probability primitives.

All arithmetic is float64. Reductions use strict left-to-right accumulation
(``np.add.accumulate`` is a sequential loop, unlike BLAS/pairwise ``np.dot``),
so identical inputs reproduce identical bits. ``-inf`` is the only legal
sentinel for masked logits; NaN anywhere is a bug.

The row-batched kernels (``matvec_rows``, ``causal_softmax``,
``causal_weighted_sum``) process a block of rows at once and keep that
order: every output element is reduced over the same terms, in the same
left-to-right order, as the per-row ``matvec`` / ``stable_softmax`` /
``weighted_sum_rows`` call it replaces, so row ``i`` of a batched result is
bit-identical to the per-row result. They loop over the reduced axis in
Python (one column, or one causal suffix, at a time) instead of building a
three-axis product.

``matvec`` picks its kernel by shape, with the same bits either way. Below
``COLUMN_LOOP_RATIO`` rows per column it reduces ``m * v`` with
``np.add.accumulate`` along each row. From there up it runs a Python loop
over the columns (``out += m[:, k] * v[k]``), which adds the same products
in the same order. Measured on a 2-vCPU VM (Python 3.11, numpy 2.4), per
call: at 8 columns, 2048 rows take 112-124 us with ``accumulate`` and
34-40 us with the loop, and 14 rows take 5 us and 11-21 us; the two cross at
about 300-384 rows for 8 columns, 350-400 for 16 and about 600 for 40.
A ratio of 48 keeps the toy transformer's attention over up to 383 rows
(8 columns per head), its weight matrices and the composer's 40-column
attention on ``accumulate``, and sends long attention supports to the loop.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")
COLUMN_LOOP_RATIO = 48


def as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    return v


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return np.ascontiguousarray(m)


def dot(a, b) -> float:
    """Inner product with fixed left-to-right accumulation."""
    a = as_vector(a)
    b = as_vector(b)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dot: length mismatch {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        return 0.0
    return float(np.add.accumulate(a * b)[-1])


def matvec(m, v) -> np.ndarray:
    """Row-wise dot of ``m`` against ``v``, left-to-right per row."""
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise ValueError(f"matvec: shape mismatch {m.shape} vs {v.shape[0]}")
    if m.shape[0] == 0:
        return np.zeros(0)
    if m.shape[1] == 0:
        return np.zeros(m.shape[0])
    if m.shape[0] < COLUMN_LOOP_RATIO * m.shape[1]:
        return np.add.accumulate(m * v, axis=1)[:, -1]
    out = m[:, 0] * v[0]
    for k in range(1, m.shape[1]):
        out += m[:, k] * v[k]
    return out


def weighted_sum_rows(weights, m) -> np.ndarray:
    """Sum of matrix rows scaled by ``weights``, accumulated top-to-bottom."""
    m = as_matrix(m)
    w = as_vector(weights)
    if w.shape[0] != m.shape[0]:
        raise ValueError(f"weighted_sum_rows: {w.shape[0]} weights for {m.shape[0]} rows")
    if m.shape[0] == 0:
        raise ValueError("weighted_sum_rows: empty matrix")
    return np.add.accumulate(w[:, None] * m, axis=0)[-1, :]


def stable_softmax(x) -> np.ndarray:
    """Max-subtracted softmax; -inf entries get probability exactly 0."""
    x = as_vector(x)
    if x.shape[0] == 0:
        raise ValueError("stable_softmax: empty support")
    m = np.max(x)
    if not np.isfinite(m):
        raise ValueError("stable_softmax: empty support (all entries are -inf)")
    e = np.exp(x - m)
    total = float(np.add.accumulate(e)[-1])
    return e / total


def matvec_rows(m, xs) -> np.ndarray:
    """``matvec(m, xs[i])`` for every row ``i`` of ``xs``, as an
    ``(len(xs), len(m))`` block; each sum runs over the columns in order."""
    m = as_matrix(m)
    xs = as_matrix(xs)
    if m.shape[1] != xs.shape[1]:
        raise ValueError(f"matvec_rows: shape mismatch {m.shape} vs {xs.shape}")
    if m.shape[1] == 0:
        return np.zeros((xs.shape[0], m.shape[0]))
    mt = m.T.copy()
    out = xs[:, 0:1] * mt[0]
    for k in range(1, mt.shape[0]):
        out += xs[:, k:k + 1] * mt[k]
    return out


def _check_causal(name: str, block: np.ndarray) -> None:
    if block.shape[0] != block.shape[1]:
        raise ValueError(f"{name}: expected a square (n, n) block, got {block.shape}")


def causal_softmax(scores) -> np.ndarray:
    """Row ``i`` is ``stable_softmax(scores[i, :i + 1])``, padded with exact
    zeros above the diagonal (entries there are ignored)."""
    s = as_matrix(scores)
    _check_causal("causal_softmax", s)
    if s.shape[0] == 0:
        raise ValueError("causal_softmax: empty support")
    tri = np.tri(s.shape[0], dtype=bool)
    s = np.where(tri, s, NEG_INF)
    m = np.max(s, axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        raise ValueError("causal_softmax: empty support (a row is all -inf)")
    # exp only below the diagonal; above it stays an exact zero
    e = np.exp(s - m, out=np.zeros_like(s), where=tri)
    # trailing exact zeros leave a left-to-right positive sum unchanged
    total = np.add.accumulate(e, axis=1)[:, -1:]
    return e / total


def causal_weighted_sum(weights, m) -> np.ndarray:
    """Row ``i`` is ``weighted_sum_rows(weights[i, :i + 1], m[:i + 1])``:
    only the terms ``j <= i`` are added, top to bottom."""
    w = as_matrix(weights)
    m = as_matrix(m)
    _check_causal("causal_weighted_sum", w)
    if w.shape[0] != m.shape[0]:
        raise ValueError(f"causal_weighted_sum: {w.shape[0]} weight rows for {m.shape[0]} rows")
    if m.shape[0] == 0:
        raise ValueError("causal_weighted_sum: empty matrix")
    out = w[:, 0:1] * m[0]
    for j in range(1, m.shape[0]):
        out[j:] += w[j:, j:j + 1] * m[j]
    return out
