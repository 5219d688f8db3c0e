"""Deterministic dense linear-algebra and probability primitives.

All arithmetic is float64. Every sum adds its terms one at a time in a
fixed order, each product rounded before it is added, so identical inputs
reproduce identical bits (BLAS, ``np.dot`` and ``np.add.reduce`` split sums
into pairwise or SIMD partial sums, and may fuse a multiply into the add).
``-inf`` is the only legal sentinel for masked logits; NaN anywhere is a
bug. ``stable_softmax`` raises on a row whose maximum is not finite: one
that is all ``-inf`` (an empty support), or that holds ``+inf`` or NaN.

The head-axis kernels are ``matvec``, ``weighted_sum_rows`` and
``stable_softmax`` given a head block: a leading axis of ``G`` heads, each
reduced on its own (``(G, n, k)`` rows against ``(G, k)`` queries,
``(G, n)`` weights over ``(G, n, k)`` rows, ``(G, n)`` scores). Head ``g``
of a block result is bit-identical to the 2-d (or 1-d) call on head ``g``'s
slice: every element is reduced over the same terms in the same order, the
dot over the features left to right, the weighted sum over the rows top to
bottom, the softmax total along the row. Nothing is summed across heads.
The blocks may be strided views, and the order does not depend on the
layout. The cache hands out keys with the rows running fastest (one column
per row) and values with the features running fastest (one row per row),
the layouts in which ``matvec`` and ``weighted_sum_rows`` sum without a copy.

``matvec`` also takes a row block, ``v`` with one more leading axis: row
``i`` of the result is bit-identical to ``matvec(m, v[i])``, a head block
taking each head's row block in turn. ``causal_attention`` is a whole
causal attention head over ``n`` positions, and keeps every reduction order
of the per-row kernels: row ``i`` is bit-identical to ``stable_softmax`` of
``matvec(k[:i + 1], q[i]) / scale`` summed over ``v[:i + 1]`` by
``weighted_sum_rows``. It scores only the lower triangle, one block of
``CAUSAL_BLOCK`` query rows ``[a, b)`` at a time against keys ``0..b-1``,
and holds each block key-major: a ``(b, b - a)`` array with the keys down
the rows, ``-inf`` wherever a key comes after its query. The queries are
laid out rows-fastest once per call (``q.T``), so a block's scores are one
``_ordered_sum`` over the features with nothing copied, and the max, the
softmax total and the context then all reduce along the key axis, top to
bottom, as the per-row kernels reduce along the row; each of the block's
einsums runs its inner loop over the block's queries. ``exp`` of a ``-inf``
score is exactly 0, and trailing exact zeros leave a positive total as it
is. In the context a key after its query adds one trailing term
``0.0 * v[j]`` to the query's sum: ``±0.0`` for a finite value, which
changes no sum but an exact zero (``-0.0 + +0.0`` is ``+0.0``), or NaN for
a value that is not finite. So a block's entries that come out exactly zero
or not finite, and only those, are summed again in order over their row's
own prefix. A model's contexts have none (a test counts them over a 256-row
``forward_sequence``), so no row depends on the block size and the exact
path costs one check per block. ``causal_weighted_sum`` is the same block
sum over given weights, with ``+0.0`` in place of those above the diagonal.

The long sums. ``matvec``, ``weighted_sum_rows``, the causal kernels and
the models' pooling all sum through ``_ordered_sum``. A sum of fewer
than ``EINSUM_MIN_TERMS`` terms (counted over the whole call) is
``np.add.accumulate`` along the summed axis, a sequential loop by
definition. A longer one is one ``np.einsum(..., optimize=False)``. On
numpy 2.4 that adds each output element's terms in order, with a separate
multiply and add, when two conditions hold:

* the summed axis is not the innermost axis in memory. numpy's iterator
  then runs its inner loop along the output's last axis, adding one term to
  each of its elements per pass. With the summed axis innermost, einsum
  splits it into SIMD partial sums.
* the output's last axis has at least 2 elements. With one, the summed
  axis is innermost again.

``_ordered_sum`` checks both on the factors' strides, and copies a factor
whose output axis does not run faster than its summed axis. The einsum
starts each element at ``+0.0`` where the sequential sum starts at its
first term. The two differ only when every term is ``-0.0``: the einsum
returns ``+0.0`` there. So a result with any exact zero is recomputed by
``accumulate``. ``tests/test_ordered_sums.py`` checks all four kernels
against the sequential sums bit for bit, and under numpy's default, AVX2
and baseline kernels (``NPY_DISABLE_CPU_FEATURES``).

Measured on a 2-vCPU VM (Python 3.11, numpy 2.4.6), per call, with
``accumulate`` against the einsum. On 2 heads of 8 features in the cache's
layout, 32 rows (512 terms) took 12.3 us against 11.4 us, 64 rows 16.7 us
against 11.6 us, and 512 rows 69.7 us against 12.6 us. One head of 40
features (the composer) at 14 rows (560 terms) took 9.2 us against 9.6 us.
Pooling 64 rows of 16 took 5.8 us against 7.8 us, and 256 rows 17.5 us
against 7.8 us. ``EINSUM_MIN_TERMS = 1024`` keeps the composer's calls (at
most 14 rows of 40) on ``accumulate``. It sends to the einsum the toy
transformer's attention from 64 rows on (over both heads), its
feed-forward and unembedding products, its layer's products over the row
blocks of ``forward_sequence``, and every causal block's scores, softmax
total and context once they reach 1,024 terms.

Smaller causal blocks pay more Python per block, larger ones score and sum
more of the upper triangle. Measured on the same VM, per
``causal_attention`` call on one head of 8 features (the toy
transformer's), medians of 21 interleaved rounds of 20 calls in two runs.
The ``contrastive-deep-256`` bench's prefixes run 216 to 246 rows; at
n = 232, 48-row blocks took 580-600 us, 64 rows 548-579 us, 96 rows
548-561 us and 128 rows 530-547 us, and at n = 224 and 240 the four sizes
were as close. At n = 272 (about the longest prefix the bench allows,
with every visual token kept) they took 753-765, 730-737,
674-676 and 738-742 us; at n = 100, 64-row blocks took 181-257 us and
96 rows 207-299 us. No size is 5% faster than 64 rows over the bench's
prefixes (96 rows is 8% faster only at 272), so ``CAUSAL_BLOCK = 64``
stays.
"""

from __future__ import annotations

import functools

import numpy as np

NEG_INF = float("-inf")
EINSUM_MIN_TERMS = 1024
CAUSAL_BLOCK = 64


def as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {m.shape}")
    return m


def _ordered_sum(axis: int, n_terms: int, a: np.ndarray,
                 b: np.ndarray | None = None) -> np.ndarray:
    """Sum over ``axis`` (-1 or -2) of ``a``, or of ``a * b`` broadcast (both
    of one ndim), ``n_terms`` products in all (the count only picks the
    path): each output element adds its terms in index order, from the
    first, each product rounded before it is added.

    A sum of at least ``EINSUM_MIN_TERMS`` terms is one ``np.einsum``, with
    each factor that varies along both the summed axis and the output's last
    axis laid out so that the latter runs faster (copied if it does not), as
    the module docstring explains. An output that is exactly zero may be a
    sum of ``-0.0`` terms whose sign the einsum's ``+0.0`` start lost, so
    any zero output sends the call to ``np.add.accumulate``, as every
    shorter sum goes.
    """
    if n_terms >= EINSUM_MIN_TERMS:
        fast = -2 if axis == -1 else -1
        factors = [a] if b is None else [a, b]
        compared = False
        for i, f in enumerate(factors):
            if f.shape[axis] > 1 and f.shape[fast] > 1:
                if not 0 < abs(f.strides[fast]) < f.strides[axis]:
                    factors[i] = (np.ascontiguousarray(f) if fast == -1 else
                                  np.ascontiguousarray(f.swapaxes(-1, -2)).swapaxes(-1, -2))
                compared = True
        if compared:
            out = np.einsum(_subscripts(a.ndim, axis, len(factors)), *factors,
                            optimize=False)
            if np.count_nonzero(out) == out.size:
                return out
    product = a if b is None else a * b
    return np.add.accumulate(product, axis=axis)[_LAST[axis]]


_LAST = {-1: (Ellipsis, -1), -2: (Ellipsis, -1, slice(None))}


@functools.cache  # np.einsum parses a string it has seen before faster
def _subscripts(nd: int, axis: int, n_factors: int) -> str:
    labels = "abcd"[:nd]
    return ",".join([labels] * n_factors) + "->" + labels.replace(labels[axis], "")


def matvec(m, v) -> np.ndarray:
    """Row-wise dot of ``m`` against ``v``, left-to-right per row.

    ``m`` is ``(n, k)`` rows or a head block ``(G, n, k)``. ``v`` has its
    query shape, ``(k,)`` or ``(G, k)`` (head ``g``'s rows against ``v[g]``),
    or is a row block of those, row ``i`` giving ``m`` against ``v[i]``.
    """
    m = np.asarray(m, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if not 2 <= m.ndim <= 3 or v.shape[v.ndim == m.ndim:] != m.shape[:-2] + m.shape[-1:]:
        raise ValueError(f"matvec: shape mismatch {m.shape} vs {v.shape}")
    n_terms = m.size
    if v.ndim == m.ndim:  # a row block
        if m.ndim == 3:  # of a head block: each head's rows in turn
            return np.array([matvec(m[g], v[:, g]) for g in range(len(m))]).swapaxes(0, 1)
        m, n_terms = m[None], n_terms * len(v)
    v = v[..., None, :]
    if m.shape[-1] == 0:
        return np.zeros(np.broadcast_shapes(m.shape, v.shape)[:-1])
    return _ordered_sum(-1, n_terms, m, v)


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
    return _ordered_sum(-2, m.size, w[..., None], m)


def stable_softmax(x) -> np.ndarray:
    """Max-subtracted softmax along the last axis (a vector, or one row per
    head); -inf entries get probability exactly 0.

    A row that is all ``-inf`` (an empty support), or that holds ``+inf`` or
    NaN, raises ``ValueError``: its maximum is then not finite. The input
    is never written; the shift, ``exp`` and division reuse one new array.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"stable_softmax: expected a vector or a head block, got {x.shape}")
    if x.shape[-1] == 0:
        raise ValueError("stable_softmax: empty support")
    m = np.maximum.reduce(x, axis=-1, keepdims=True)
    if np.count_nonzero(np.isfinite(m)) != m.size:
        if np.isnan(m).any() or np.isposinf(m).any():
            raise ValueError("stable_softmax: non-finite entries (NaN or +inf)")
        raise ValueError("stable_softmax: empty support (all entries are -inf)")
    e = np.subtract(x, m)
    np.exp(e, out=e)
    return np.divide(e, np.add.accumulate(e, axis=-1)[..., -1:], out=e)


def causal_attention(q, k, v, scale) -> np.ndarray:
    """Causal attention of ``(n, d)`` queries over ``(n, d)`` keys and
    ``(n, e)`` values: row ``i`` is ``weighted_sum_rows(stable_softmax(
    matvec(k[:i + 1], q[i]) / scale), v[:i + 1])``, scored in key-major
    blocks of ``CAUSAL_BLOCK`` query rows over the lower triangle only."""
    q, k, v = as_matrix(q), as_matrix(k), as_matrix(v)
    n, d = q.shape
    if k.shape != q.shape or v.shape[0] != n:
        raise ValueError(f"causal_attention: queries {q.shape}, keys {k.shape}, "
                         f"values {v.shape}")
    if n == 0:
        raise ValueError("causal_attention: empty support")
    # queries rows-fastest once, so no block's queries are copied to be summed
    q_t = np.ascontiguousarray(q.T)
    after = np.tri(min(n, CAUSAL_BLOCK), k=-1, dtype=bool)  # key a + j after query a + r
    out = np.empty((n, v.shape[1]))
    for a in range(0, n, CAUSAL_BLOCK):
        b = min(a + CAUSAL_BLOCK, n)
        rows = b - a
        # scores[j, r]: key j against query a + r, the dot over the features
        scores = (_ordered_sum(-2, b * rows * d, k[:b, :, None], q_t[None, :, a:b])
                  if d else np.zeros((b, rows)))
        scores /= scale
        np.copyto(scores[a:], NEG_INF, where=after[:rows, :rows])
        top = scores.max(axis=0)
        if not np.isfinite(top).all():
            raise ValueError("causal_attention: empty support (all entries are -inf)")
        e = np.exp(np.subtract(scores, top, out=scores), out=scores)
        e /= _ordered_sum(-2, e.size, e)
        out[a:b] = _causal_block(e, v, a)
    return out


def causal_weighted_sum(weights, m) -> np.ndarray:
    """Row ``i`` is ``weighted_sum_rows(weights[i, :i + 1], m[:i + 1])``:
    only the terms ``j <= i`` are added, top to bottom, and the weights
    above the diagonal are ignored. Rows go in blocks of ``CAUSAL_BLOCK``
    through ``_causal_block``, as ``causal_attention``'s contexts do."""
    w, m = as_matrix(weights), as_matrix(m)
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"causal_weighted_sum: expected a square (n, n) block, got {w.shape}")
    if w.shape[0] != m.shape[0]:
        raise ValueError(f"causal_weighted_sum: {w.shape[0]} weight rows for {m.shape[0]} rows")
    n = m.shape[0]
    if n == 0:
        raise ValueError("causal_weighted_sum: empty matrix")
    out = np.empty(m.shape)
    for a in range(0, n, CAUSAL_BLOCK):
        b = min(a + CAUSAL_BLOCK, n)
        # key-major, with +0.0 for every key after its query
        out[a:b] = _causal_block(np.triu(w[a:b, :b].T, -a), m, a)
    return out


def _causal_block(w, m, a: int) -> np.ndarray:
    """The contexts of query rows ``[a, b)`` from key-major weights ``w``
    (``(b, b - a)``, ``+0.0`` wherever a key comes after its query) over
    value rows ``m[:b]``: row ``r`` sums ``w[j, r] * m[j]`` over
    ``j = 0..a + r``, top to bottom. One ``_ordered_sum`` over all ``b``
    keys; the entries the trailing ``0.0 * m[j]`` terms can change, those
    exactly zero or not finite (the module docstring says why), go to
    ``_prefix_sums``."""
    b = len(w)
    out = _ordered_sum(-2, w.size * m.shape[1], m[:b].T[:, :, None], w[None])
    if np.count_nonzero(out) < out.size or not np.isfinite(out).all():
        redo = np.nonzero((out == 0) | ~np.isfinite(out))
        out[redo] = _prefix_sums(w, m, a, *redo)
    return out.T


def _prefix_sums(w, m, a: int, feats, queries) -> np.ndarray:
    """``_causal_block``'s entries ``(feats, queries)``, each summed in order
    over its own query's prefix ``j = 0..a + r`` only."""
    running = np.add.accumulate(w[:, queries] * m[: len(w), feats], axis=0)
    return running[a + queries, np.arange(len(queries))]
