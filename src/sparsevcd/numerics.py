"""Deterministic dense linear-algebra and probability primitives.

All arithmetic is float64. Reductions use strict left-to-right accumulation
(``np.add.accumulate`` is a sequential loop, unlike BLAS/pairwise ``np.dot``),
so identical inputs reproduce identical bits. ``-inf`` is the only legal
sentinel for masked logits; NaN anywhere is a bug.

The head-axis kernels are ``matvec``, ``weighted_sum_rows`` and
``stable_softmax`` given a head block: a leading axis of ``G`` heads, each
reduced on its own (``(G, n, k)`` rows against ``(G, k)`` queries,
``(G, n)`` weights over ``(G, n, k)`` rows, ``(G, n)`` scores). Head ``g``
of a block result is bit-identical to the 2-d (or 1-d) call on head ``g``'s
slice: every element is reduced over the same terms in the same order, the
dot over the features left to right, the weighted sum over the rows top to
bottom, the softmax total along the row. Nothing is summed across heads.
The blocks may be strided views (the cache keeps each head's rows
column-major, one column per row); the order does not depend on the layout.

``matvec`` also takes a row block: an ``(n, k)`` matrix against ``(b, k)``
rows gives the ``(b, n)`` block whose row ``i`` is bit-identical to
``matvec(m, v[i])``. The causal kernels (``causal_softmax``,
``causal_weighted_sum``) process a block of rows at once and keep the same
order: every output element is reduced over the same terms, in the same
left-to-right order, as the per-row ``stable_softmax`` /
``weighted_sum_rows`` call it replaces. ``causal_softmax`` is one
``stable_softmax`` call on the ``-inf``-padded block; ``causal_weighted_sum``
loops over the causal suffix in Python instead of building a three-axis
product.

``matvec`` picks its kernel by shape, with the same bits either way. Below
``COLUMN_LOOP_RATIO`` rows per column (rows counted over all heads of a
block, or ``b * n`` for a row block) it reduces ``m * v`` with
``np.add.accumulate`` along each row. From there up it runs a Python loop
over the columns (``out += m[..., k] * v[..., k]``), which adds the same
products in the same order; a row block's matrix is first laid out
column-major, so each column the loop reads is contiguous. The loop pays
a fixed cost per column and the ``accumulate`` a larger cost per element,
so long blocks go to the loop. Measured on a 2-vCPU VM (Python 3.11, numpy
2.4), per call, on column-major head blocks (the cache's layout): at 2
heads of 8 columns, 64 rows take 15 us with ``accumulate`` and 18 us with
the loop, 256 rows 43 us and 26 us, 512 rows 85 us and 37 us; one head of
40 columns (the composer) crosses at about 400 rows. A ratio of 16 sends
the toy transformer's attention from 64 rows per head (2 heads) to the
loop and keeps its weight matrices and the composer's attention, at most
14 rows, on ``accumulate``.
"""

from __future__ import annotations

import numpy as np

NEG_INF = float("-inf")
COLUMN_LOOP_RATIO = 16


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return np.ascontiguousarray(m)


def matvec(m, v) -> np.ndarray:
    """Row-wise dot of ``m`` against ``v``, left-to-right per row.

    ``m`` is ``(n, k)`` against ``v`` ``(k,)``; or a head block
    ``(G, n, k)`` against ``(G, k)``: head ``g``'s rows against ``v[g]``;
    or ``(n, k)`` against a row block ``(b, k)``, giving ``(b, n)``: row
    ``i`` is ``m`` against ``v[i]``.
    """
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    size = m.size
    if not 2 <= m.ndim <= 3 or v.shape != m.shape[:-2] + m.shape[-1:]:
        if m.ndim != 2 or v.ndim != 2 or v.shape[1] != m.shape[1]:
            raise ValueError(f"matvec: shape mismatch {m.shape} vs {v.shape}")
        size *= v.shape[0]  # a row block
        m = np.asfortranarray(m)
    k = m.shape[-1]
    if size == 0:
        return np.zeros((m * v[..., None, :]).shape[:-1])
    if size < COLUMN_LOOP_RATIO * k * k:
        return np.add.accumulate(m * v[..., None, :], axis=-1)[..., -1]
    out = m[..., 0] * v[..., 0:1]
    for j in range(1, k):
        out += m[..., j] * v[..., j:j + 1]
    return out


def weighted_sum_rows(weights, m) -> np.ndarray:
    """Sum of matrix rows scaled by ``weights``, accumulated top-to-bottom.

    ``(n,)`` weights over ``(n, k)`` rows, or a head block: ``(G, n)``
    weights over ``(G, n, k)`` rows, one sum per head.
    """
    m = np.asarray(m, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if not 2 <= m.ndim <= 3 or w.shape != m.shape[:-1]:
        raise ValueError(f"weighted_sum_rows: {w.shape} weights for {m.shape} rows")
    if m.shape[-2] == 0:
        raise ValueError("weighted_sum_rows: empty matrix")
    return np.add.accumulate(w[..., None] * m, axis=-2)[..., -1, :]


def stable_softmax(x) -> np.ndarray:
    """Max-subtracted softmax along the last axis (a vector, or one row per
    head); -inf entries get probability exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"stable_softmax: expected a vector or a head block, got {x.shape}")
    if x.shape[-1] == 0:
        raise ValueError("stable_softmax: empty support")
    m = x.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise ValueError("stable_softmax: empty support (all entries are -inf)")
    e = np.exp(x - m)
    return e / np.add.accumulate(e, axis=-1)[..., -1:]


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
    # -inf above the diagonal gives exact zeros there, and trailing exact
    # zeros leave a left-to-right positive sum unchanged
    return stable_softmax(np.where(np.tri(s.shape[0], dtype=bool), s, NEG_INF))


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
