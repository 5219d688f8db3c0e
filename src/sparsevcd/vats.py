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
    """Partition of the pruned tokens, flat in ``MergedRecords``' layout:
    ``members`` lists the points cluster by cluster, ascending within each,
    ``weights`` their merge weights (per cluster the softmax of the members'
    saliencies), and ``cell`` each member's (cluster, slot) in the padded
    ``(n_clusters, sizes.max())`` block its weight came from. Labels number
    the clusters by ascending center."""

    labels: np.ndarray         # (n,) cluster of each point
    centers: np.ndarray        # (m,) center point of each cluster
    members: np.ndarray        # (n,) points, cluster by cluster
    sizes: np.ndarray          # (m,) members per cluster
    weights: np.ndarray        # (n,) merge weight of each member
    cell: tuple[np.ndarray, np.ndarray]  # (n,) cluster and (n,) slot of each member

    @property
    def n_clusters(self) -> int:
        return self.sizes.shape[0]


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
    if not 0 <= w_recent <= s:
        raise ConfigError(f"recency window {w_recent} outside [0, the retention budget {s}]")
    flags = np.zeros(n, dtype=bool)
    flags[n - w_recent:] = True
    # a stable sort keeps the earlier of two equal scores first
    flags[np.argsort(-delta[: n - w_recent], kind="stable")[: s - w_recent]] = True
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
    ``(n, n)`` matrix of its ``pairwise_distances`` (zero on the diagonal,
    nowhere negative). Returns the flat assignment described at
    ``ClusterAssignment``.
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
        zero = np.zeros(1, dtype=np.int64)
        return ClusterAssignment(zero, zero, zero, np.ones(1, dtype=np.int64), np.ones(1),
                                 (zero, zero))
    k = min(k, n - 1)
    dist = points if precomputed else pairwise_distances(np.ascontiguousarray(points.T))
    # a row's own exact zero sorts first (no distance is below +0.0), so
    # columns 1..k hold the k nearest peers
    ranked = np.sort(dist, axis=1)
    rho = 1.0 / (DENSITY_EPS + np.add.reduce(ranked[:, 1:k + 1], axis=1) / k)

    # total order: higher density first, lower index wins ties
    rank_order = np.argsort(-rho, kind="stable")
    rank_of = np.empty(n, dtype=np.int64)
    rank_of[rank_order] = np.arange(n)

    # nearest strictly-denser point; argmin keeps the lowest index on ties
    denser = np.where(rank_of[None, :] < rank_of[:, None], dist, np.inf)
    nearest_denser = np.argmin(denser, axis=1)
    sep = denser[np.arange(n), nearest_denser]
    peak = rank_order[0]
    sep[peak] = ranked[:, -1].max()

    n_clusters = min(max(1, int(np.ceil(rho_merge * n))), n)
    centers = np.sort(np.argsort(-(rho * sep), kind="stable")[:n_clusters])

    # each point's chain of nearest denser points ends at a center, which
    # points to itself; the peak, unless a center, points to its nearest
    # center. Pointer jumping doubles every pointer's reach per pass, and no
    # chain is longer than n - 1 links.
    parent = nearest_denser
    parent[peak] = centers[np.argmin(dist[peak, centers])]
    parent[centers] = centers
    for _ in range((n - 1).bit_length()):
        parent = parent[parent]
    labels = np.searchsorted(centers, parent)

    # members ascending within each cluster; each softmax is one row of a
    # -inf-padded block whose trailing exact zeros leave the row sum unchanged
    members = np.argsort(labels, kind="stable")
    cluster = labels[members]
    cell = (cluster, np.arange(n) - np.searchsorted(cluster, cluster))
    sizes = np.bincount(labels)
    block = np.full((n_clusters, int(sizes.max())), -np.inf)
    block[cell] = deltas[members]
    return ClusterAssignment(labels, centers, members, sizes, stable_softmax(block)[cell], cell)


def merge_clusters(assignment: ClusterAssignment, rows) -> np.ndarray:
    """Merge-weighted sum of each cluster's member rows, as an
    ``(n_clusters, rows.shape[1])`` block.

    With ``members_c`` and ``weights_c`` cluster ``c``'s slices of the flat
    ``members`` and ``weights``, row ``c`` is ``weighted_sum_rows(weights_c,
    rows[members_c])`` bit for bit: the weighted member rows fill the
    assignment's cells, transposed, of a ``(slots, n_clusters, features)``
    block padded with ``-0.0``, and its slot planes are added in order.
    ``x + -0.0 == x`` for every ``x``, so the padding leaves each sum as is.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cluster, slot = assignment.cell
    block = np.full((int(assignment.sizes.max()), assignment.n_clusters, rows.shape[1]), -0.0)
    block[slot, cluster] = assignment.weights[:, None] * rows[assignment.members]
    agg = block[0].copy()
    for plane in block[1:]:
        agg += plane
    return agg
