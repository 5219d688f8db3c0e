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
``matvec(m, v[i])``. ``causal_attention`` is a whole causal attention
head over ``n`` positions, and keeps every reduction order of the per-row
kernels: row ``i`` is bit-identical to ``stable_softmax`` of
``matvec(k[:i + 1], q[i]) / scale`` summed over ``v[:i + 1]`` by
``weighted_sum_rows``. It scores only the lower triangle, one block of
``CAUSAL_BLOCK`` query rows ``[a, b)`` at a time against keys ``0..b-1``,
with ``-inf`` above the diagonal of the block's last ``b - a`` columns. A
row's finite scores are the same dot products, ``exp`` of the ``-inf``
entries is exactly 0, and trailing exact zeros leave a left-to-right
positive sum unchanged, so no row depends on the block size. The weights go
to ``causal_weighted_sum``, which loops over the causal suffix in Python
instead of building a three-axis product (row ``i`` adds only the terms
``j <= i``, top to bottom).

Smaller blocks pay more Python per block, larger ones score more of the
upper triangle. Measured on a 2-vCPU VM (Python 3.11, numpy 2.4), per
``causal_attention`` call on one head of 8 features (the toy transformer's)
at n = 272 (the longest prefix of the ``contrastive-deep-256`` bench),
weighted sum included: 8-row blocks took 4.0-4.6 ms, 16 rows 3.3-3.8 ms,
32 to 64 rows 3.1-3.4 ms, 128 rows 3.8-4.0 ms and one block of all 272
rows, which scores the whole square, 4.9-5.0 ms; at n = 100, 64-row blocks
took 655 us and 16-row blocks 780 us. ``CAUSAL_BLOCK = 64`` sits in the
flat minimum.

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
CAUSAL_BLOCK = 64


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


def causal_attention(q, k, v, scale) -> np.ndarray:
    """Causal attention of ``(n, d)`` queries over ``(n, d)`` keys and
    ``(n, e)`` values: row ``i`` is ``weighted_sum_rows(stable_softmax(
    matvec(k[:i + 1], q[i]) / scale), v[:i + 1])``, scored in blocks of
    ``CAUSAL_BLOCK`` query rows over the lower triangle only."""
    q, k, v = as_matrix(q), as_matrix(k), as_matrix(v)
    n = q.shape[0]
    if k.shape != q.shape or v.shape[0] != n:
        raise ValueError(f"causal_attention: queries {q.shape}, keys {k.shape}, "
                         f"values {v.shape}")
    if n == 0:
        raise ValueError("causal_attention: empty support")
    upper = ~np.tri(min(n, CAUSAL_BLOCK), dtype=bool)
    weights = np.zeros((n, n))
    for a in range(0, n, CAUSAL_BLOCK):
        b = min(a + CAUSAL_BLOCK, n)
        scores = matvec(k[:b], q[a:b]) / scale
        scores[:, a:][upper[: b - a, : b - a]] = NEG_INF
        weights[a:b, :b] = stable_softmax(scores)
    return causal_weighted_sum(weights, v)


def causal_weighted_sum(weights, m) -> np.ndarray:
    """Row ``i`` is ``weighted_sum_rows(weights[i, :i + 1], m[:i + 1])``:
    only the terms ``j <= i`` are added, top to bottom."""
    w = as_matrix(weights)
    m = as_matrix(m)
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"causal_weighted_sum: expected a square (n, n) block, got {w.shape}")
    if w.shape[0] != m.shape[0]:
        raise ValueError(f"causal_weighted_sum: {w.shape[0]} weight rows for {m.shape[0]} rows")
    if m.shape[0] == 0:
        raise ValueError("causal_weighted_sum: empty matrix")
    out = w[:, 0:1] * m[0]
    for j in range(1, m.shape[0]):
        out[j:] += w[j:, j:j + 1] * m[j]
    return out
