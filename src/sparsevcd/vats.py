"""Visual-aware token selection: saliency scores, exact top-S masks, and
density-peak clustering/merging of pruned tokens."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sparsevcd.cache import KvCache
from sparsevcd.errors import ConfigError
from sparsevcd.numerics import stable_softmax

DENSITY_EPS = 1e-8


@dataclass
class ClusterAssignment:
    """Partition of the pruned tokens: canonical labels plus per-cluster
    (center, ascending member indices, softmax-of-delta merge weights)."""

    labels: np.ndarray
    centers: np.ndarray
    members: list[np.ndarray]
    weights: list[np.ndarray]

    @property
    def n_clusters(self) -> int:
        return len(self.members)


def visual_saliency(cache: KvCache, layers) -> np.ndarray:
    """Softmax-normalised visual saliency over a cache's tokens.

    ``r_i`` is the attention mass token ``i``'s query rows have placed on
    visual-key columns, averaged over the given layers and all heads. The
    requested layers must hold aligned row sets (always true in logical mode).
    """
    layers = list(layers)
    if not layers:
        raise ValueError("visual_saliency: need at least one layer")
    if not cache.has_visual(layers[0]):
        raise ValueError("visual_saliency: no visual tokens")
    n = cache.rows(layers[0])
    if n == 0:
        raise ValueError("visual_saliency: empty cache")
    block = []
    for ell in layers:
        if cache.rows(ell) != n:
            raise ValueError("visual_saliency: row sets diverge across the requested layers")
        block.append(cache.r_block(ell))
    return _mean_softmax(np.concatenate(block))


def layer_visual_saliency(cache: KvCache, layer: int) -> np.ndarray:
    """Layer-local saliency, used when compaction has made row sets diverge."""
    return _mean_softmax(cache.r_block(layer))


def _mean_softmax(r_rows: np.ndarray) -> np.ndarray:
    """Softmax of the mean of the ``r`` rows, summed in order (layer by
    layer, head by head). The accumulators only ever add non-negative mass
    to +0.0, so starting the sum at the first row equals starting at 0.0."""
    return stable_softmax(np.add.accumulate(r_rows, axis=0)[-1] / r_rows.shape[0])


def select_topS(delta: np.ndarray, s: int, w_recent: int = 0) -> np.ndarray:
    """Exact solution of the budgeted retention problem: the boolean mask
    keeping the ``s`` tokens with the highest aggregate saliency ``delta``
    (ties keep the earlier position).

    With ``w_recent > 0`` the trailing window is force-retained and the
    remaining budget is filled by top saliency; with ``w_recent = 0`` the
    result is the unconstrained optimum of the sparsification objective.
    """
    n = delta.shape[0]
    if not 1 <= s <= n:
        raise ConfigError(f"retention budget {s} outside [1, {n}]")
    if w_recent > s:
        raise ConfigError("recency window cannot exceed the retention budget")
    flags = np.zeros(n, dtype=bool)
    if w_recent > 0:
        flags[n - w_recent:] = True
    budget = s - int(flags.sum())
    if budget > 0:
        open_idx = np.nonzero(~flags)[0]
        order = np.lexsort((open_idx, -delta[open_idx]))
        flags[open_idx[order[:budget]]] = True
    return flags


def attention_error(ip, pruned) -> float:
    """Squared attention deviation of pruning rows ``pruned``: per head the
    sum of ``<K_i, q>**2`` over the pruned rows, top to bottom, averaged
    over the heads. ``ip`` is the ``(heads, rows)`` block of unscaled inner
    products."""
    ip = np.asarray(ip, dtype=np.float64)
    pruned = np.asarray(pruned, dtype=np.int64)
    if pruned.shape[0] == 0:
        return 0.0
    terms = ip[:, pruned]
    per_head = np.add.accumulate(terms * terms, axis=1)[:, -1]
    # non-negative terms: summing from head 0 equals summing from 0.0
    return float(np.add.accumulate(per_head)[-1] / ip.shape[0])


def pairwise_distances(cols: np.ndarray, start: int = 0) -> np.ndarray:
    """Euclidean distances of points ``start..n`` to all ``n`` points, as an
    ``(n - start, n)`` block; ``start=0`` gives the full matrix.

    ``cols`` holds the points as columns, one feature per row. Each squared
    sum runs over the features in order, so an entry's bits depend only on
    its two points: ``(a - b)**2 == (b - a)**2``, and the block is exactly
    symmetric and equal to any gather of a larger matrix.
    """
    diff = cols[:, None, :] - cols[:, start:, None]
    diff *= diff
    acc = diff[0]
    for plane in diff[1:]:
        acc += plane
    return np.sqrt(acc, out=acc)


def cluster_pruned(keys, deltas, k: int, rho_merge: float = 0.25,
                   precomputed: bool = False) -> ClusterAssignment:
    """k-nearest-neighbour density-peak clustering of the pruned tokens.

    Density is the reciprocal mean distance to the k nearest peers (plus a
    small epsilon); each point's separation is its distance to the nearest
    strictly-denser point (the global peak gets the maximum pairwise
    distance). Centers are the top ``ceil(rho_merge * n)`` points (at least
    one) by density * separation; the rest inherit the cluster of their
    nearest denser point (a densest point that is not a center joins its
    nearest center). All ties break on the lower index. Each cluster's merge
    weights are the softmax of its members' saliency.

    ``keys`` is an ``(n, features)`` array, or with ``precomputed`` the
    ``(n, n)`` matrix of its ``pairwise_distances``.
    """
    points = np.asarray(keys, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("cluster_pruned: need a non-empty 2-d key array")
    deltas = np.asarray(deltas, dtype=np.float64)
    n = points.shape[0]
    if precomputed and points.shape != (n, n):
        raise ValueError("cluster_pruned: a precomputed distance matrix must be square")
    if deltas.shape != (n,):
        raise ValueError("cluster_pruned: one saliency score per pruned token")
    if k < 1:
        raise ConfigError("knn k must be at least 1")
    if n == 1:
        return ClusterAssignment(np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64),
                                 [np.array([0])], [np.array([1.0])])
    k = min(k, n - 1)
    dist = points if precomputed else pairwise_distances(np.ascontiguousarray(points.T))
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    rho = 1.0 / (DENSITY_EPS + np.mean(np.sort(off, axis=1)[:, :k], axis=1))

    # total order: higher density first, lower index wins ties
    rank_order = np.lexsort((np.arange(n), -rho))
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[rank_order] = np.arange(n)

    # nearest strictly-denser point; argmin keeps the lowest index on ties
    denser = np.where(rank_of[None, :] < rank_of[:, None], dist, np.inf)
    nearest_denser = np.argmin(denser, axis=1)
    sep = denser[np.arange(n), nearest_denser]
    peak = rank_order[0]
    sep[peak] = dist.max()

    n_clusters = min(max(1, int(np.ceil(rho_merge * n))), n)
    gamma = rho * sep
    center_order = np.lexsort((np.arange(n), -gamma))
    centers = np.sort(center_order[:n_clusters])

    # each point's chain of nearest denser points ends at a center, which
    # points to itself; the peak, unless a center, points to its nearest
    # center. Pointer jumping halves every chain per pass.
    parent = nearest_denser
    parent[peak] = centers[int(np.lexsort((centers, dist[peak, centers]))[0])]
    parent[centers] = centers
    while True:
        jumped = parent[parent]
        if np.array_equal(jumped, parent):
            break
        parent = jumped
    labels = np.empty(n, dtype=np.int64)
    labels[centers] = np.arange(n_clusters)
    labels = labels[parent]

    # members ascending within each cluster; each softmax is one row of a
    # -inf-padded block whose trailing exact zeros leave the row sum unchanged
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels, minlength=n_clusters)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cell = (labels[order], np.arange(n) - np.repeat(starts, sizes))
    block = np.full((n_clusters, int(sizes.max())), -np.inf)
    block[cell] = deltas[order]
    flat_w = stable_softmax(block)[cell]
    spans = list(zip(starts.tolist(), ends.tolist()))
    members = [order[a:b] for a, b in spans]
    weights = [flat_w[a:b] for a, b in spans]
    return ClusterAssignment(labels, centers, members, weights)


def merge_clusters(assignment: ClusterAssignment, rows) -> np.ndarray:
    """Merge-weighted sum of each cluster's member rows, as an
    ``(n_clusters, rows.shape[1])`` block.

    Row ``c`` is ``weighted_sum_rows(weights[c], rows[members[c]])`` bit for
    bit: the weighted member rows fill an ``(slots, clusters, features)``
    block padded with ``-0.0``, and its slot planes are added in order.
    ``x + -0.0 == x`` for every ``x``, so the padding leaves each sum as is.
    """
    rows = np.asarray(rows, dtype=np.float64)
    sizes = np.array([m.shape[0] for m in assignment.members], dtype=np.int64)
    terms = (np.concatenate(assignment.weights)[:, None]
             * rows[np.concatenate(assignment.members)])
    starts = np.cumsum(sizes) - sizes
    slot = np.arange(terms.shape[0]) - np.repeat(starts, sizes)
    block = np.full((int(sizes.max()), sizes.shape[0], rows.shape[1]), -0.0)
    block[slot, np.repeat(np.arange(sizes.shape[0]), sizes)] = terms
    agg = block[0].copy()
    for plane in block[1:]:
        agg += plane
    return agg
