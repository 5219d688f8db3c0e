"""Visual-aware token selection: saliency scores, exact top-S masks, and
density-peak clustering/merging of pruned tokens."""

from __future__ import annotations

import math
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


class SaliencySums:
    """Per row, its ``r`` entries summed in order, layer by layer and head
    by head, kept from one call to the next.

    A sum is final once its row is no longer the last: the engine writes a
    row's ``r`` only while that row is the query, and logical mode never
    moves a row. So ``update`` sums only the rows from the last one it saw
    on, and a row's bits are those of summing every row afresh. The sums
    hold at most twice the rows, as capacity doubles.
    """

    def __init__(self):
        self.final = 0
        self.sums = np.empty(0)

    def fork(self) -> "SaliencySums":
        twin = SaliencySums()
        twin.final, twin.sums = self.final, self.sums.copy()
        return twin

    def update(self, blocks) -> np.ndarray:
        """The sums of every row of the ``(heads, n)`` ``r`` blocks, one per
        layer, in order: a view valid until the next call. A later block may
        be narrower, and its missing rows count as ``+0.0``."""
        a, n = self.final, blocks[0].shape[1]
        if n > self.sums.shape[0]:
            grown = np.empty(max(n, 2 * self.sums.shape[0]))
            grown[:a] = self.sums[:a]
            self.sums = grown
        parts = [b[:, a:] for b in blocks]
        if any(p.shape[1] < n - a for p in parts):
            parts = [np.pad(p, ((0, 0), (0, n - a - p.shape[1]))) for p in parts]
        rows = np.concatenate(parts)
        self.sums[a:n] = np.add.accumulate(rows, axis=0)[-1]
        self.final = n - 1
        return self.sums[:n]


def visual_saliency(cache: KvCache, layers, kept: SaliencySums | None = None) -> np.ndarray:
    """Softmax-normalised visual saliency over a cache's tokens.

    ``r_i`` is the attention mass token ``i``'s query rows have placed on
    visual-key columns, averaged over the given layers and all heads. The
    rows are the first layer's. A later layer may hold one row fewer: in
    logical mode, a layer that the newest row has not reached yet, where
    that row's ``r`` is still zero and counts as zero. A layer holding more
    rows, or two or more fewer, raises. ``kept`` carries the row sums from
    one call to the next (see ``SaliencySums``); without it every row is
    summed.
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
        if not n - 1 <= cache.rows(ell) <= n:
            raise ValueError("visual_saliency: row sets diverge across the requested layers")
        block.append(cache.r_block(ell))
    kept = SaliencySums() if kept is None else kept
    return _mean_softmax(kept.update(block), len(layers) * cache.heads)


def layer_visual_saliency(cache: KvCache, layer: int) -> np.ndarray:
    """Layer-local saliency, used when compaction has made row sets diverge."""
    return _mean_softmax(SaliencySums().update([cache.r_block(layer)]), cache.heads)


def _mean_softmax(sums: np.ndarray, terms: int) -> np.ndarray:
    """Softmax of the mean of ``terms`` ``r`` rows, from their sums taken in
    order (layer by layer, head by head). The accumulators only ever add
    non-negative mass to +0.0, so starting a sum at its first row equals
    starting at 0.0."""
    return stable_softmax(sums / terms)


def select_topS(delta: np.ndarray, s: int, w_recent: int = 0) -> np.ndarray:
    """Exact solution of the budgeted retention problem: the boolean mask
    keeping the ``s`` tokens with the highest aggregate saliency ``delta``
    (ties keep the earlier position; ``delta`` holds no NaN).

    With ``w_recent > 0`` the trailing window is force-retained and the
    remaining budget is filled by top saliency; with ``w_recent = 0`` the
    result is the unconstrained optimum of the sparsification objective.

    The rows kept by saliency are those at or above the ``need``-th highest
    score, found by one partition, less the latest rows equal to it when
    more than ``need`` tie there: the first ``need`` rows of a stable sort
    by descending score, without the sort.
    """
    n = delta.shape[0]
    if not 1 <= s <= n:
        raise ConfigError(f"retention budget {s} outside [1, {n}]")
    if not 0 <= w_recent <= s:
        raise ConfigError(f"recency window {w_recent} outside [0, the retention budget {s}]")
    flags = np.zeros(n, dtype=bool)
    flags[n - w_recent:] = True
    need, m = s - w_recent, n - w_recent
    if need:
        head, top = delta[:m], flags[:m]
        cut = np.partition(head, m - need)[m - need]
        np.greater_equal(head, cut, out=top)
        extra = np.count_nonzero(top) - need
        if extra:
            top[(head == cut).nonzero()[0][-extra:]] = False
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
    terms = ip.take(pruned, axis=1)
    terms *= terms
    per_head = np.add.accumulate(terms, axis=1)[:, -1].tolist()
    # Python floats add and divide as float64 does; non-negative terms:
    # summing from head 0 equals summing from 0.0
    total = per_head[0]
    for x in per_head[1:]:
        total += x
    return total / ip.shape[0]


def pairwise_distances(cols: np.ndarray, start: int = 0) -> np.ndarray:
    """Euclidean distances of points ``start..n`` to all ``n`` points, as an
    ``(n - start, n)`` block; ``start=0`` gives the full matrix.

    ``cols`` holds the points as columns, one feature per row. Each squared
    sum runs over the features in order, so an entry's bits depend only on
    its two points: ``(a - b)**2 == (b - a)**2``, and the block is exactly
    symmetric and equal to any gather of a larger matrix.

    The sum is one ``np.einsum`` over the leading (feature) axis. That axis
    is the outermost in memory, so numpy's iterator runs the inner loop
    along the block's rows, adding one feature's squares to every entry per
    pass, in feature order, with a separate multiply and add (see
    ``numerics``). It starts each entry at ``+0.0`` where an in-order sum
    starts at its first square, and ``+0.0 + x == x`` for every square
    ``x``: no square is ``-0.0``.
    """
    diff = cols[:, None, :] - cols[:, start:, None]
    acc = np.einsum("fmn,fmn->mn", diff, diff, optimize=False)
    return np.sqrt(acc, out=acc)


def cluster_pruned(dist, deltas, k: int, rho_merge: float = 0.25) -> ClusterAssignment:
    """k-nearest-neighbour density-peak clustering of the pruned tokens.

    Density is the reciprocal mean distance to the k nearest peers (plus a
    small epsilon); each point's separation is its distance to the nearest
    strictly-denser point (the global peak gets the maximum pairwise
    distance). Centers are the top ``ceil(rho_merge * n)`` points (at least
    one) by density * separation; the rest inherit the cluster of their
    nearest denser point (a densest point that is not a center joins its
    nearest center). All ties break on the lower index. Each cluster's merge
    weights are the softmax of its members' saliency.

    ``dist`` is the points' ``(n, n)`` ``pairwise_distances`` matrix (zero
    on the diagonal, nowhere negative). Returns the flat assignment
    described at ``ClusterAssignment``.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.size == 0:
        raise ValueError("cluster_pruned: need a non-empty square distance matrix")
    n = len(dist)
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.shape != (n,):
        raise ValueError("cluster_pruned: one saliency score per pruned token")
    if k < 1:
        raise ConfigError("knn k must be at least 1")
    if n == 1:
        zero = np.zeros(1, dtype=np.int64)
        return ClusterAssignment(zero, zero, zero, np.ones(1, dtype=np.int64), np.ones(1),
                                 (zero, zero))
    k = min(k, n - 1)
    # a row's own exact zero sorts first (no distance is below +0.0), so
    # columns 1..k hold the k nearest peers
    ranked = dist.copy()
    ranked.sort(axis=1)
    # -rho = -1 / (eps + mean), each step in place (-1 / x is -(1 / x) bit
    # for bit); the order and the scores below need only the negated density
    rho = np.add.reduce(ranked[:, 1:k + 1], axis=1)
    rho /= k
    rho += DENSITY_EPS
    neg_rho = np.divide(-1.0, rho, out=rho)

    # total order: higher density first, lower index wins ties
    rank_order = neg_rho.argsort(kind="stable")
    # the narrowest integers that hold the ranks: the n x n compare below
    # costs half as much in int16 as in int64
    rank_of = rank_order.argsort().astype(np.int16 if n <= 2**15 else np.int64)
    every = np.arange(n)

    # nearest strictly-denser point; argmin keeps the lowest index on ties
    denser = np.where(rank_of[None, :] < rank_of[:, None], dist, np.inf)
    nearest_denser = denser.argmin(axis=1)
    sep = denser[every, nearest_denser]
    peak = rank_order[0]
    sep[peak] = np.maximum.reduce(ranked[:, -1])

    # -(rho * sep), as (-rho) * sep has the same bits
    n_clusters = min(max(1, math.ceil(rho_merge * n)), n)
    centers = (neg_rho * sep).argsort(kind="stable")[:n_clusters]
    centers.sort()

    # each point's chain of nearest denser points ends at a center, which
    # points to itself; the peak, unless a center, points to its nearest
    # center. Pointer jumping doubles every pointer's reach per pass, and no
    # chain is longer than n - 1 links.
    parent = nearest_denser
    parent[peak] = -1
    parent[centers] = centers
    if parent[peak] < 0:
        parent[peak] = centers[dist[peak, centers].argmin()]
    for _ in range((n - 1).bit_length()):
        parent = parent[parent]
    labels = centers.searchsorted(parent)

    # members ascending within each cluster; each softmax is one row of a
    # -inf-padded block whose trailing exact zeros leave the row sum unchanged
    members = labels.argsort(kind="stable")
    cluster = labels[members]
    cell = (cluster, every - cluster.searchsorted(cluster))
    sizes = np.bincount(labels)
    block = np.empty((n_clusters, int(sizes.max())))
    block.fill(-np.inf)
    block[cell] = deltas[members]
    return ClusterAssignment(labels, centers, members, sizes, stable_softmax(block)[cell], cell)


def merge_clusters(assignment: ClusterAssignment, rows) -> np.ndarray:
    """Merge-weighted sum of each cluster's member rows, as an
    ``(n_clusters, rows.shape[1])`` block.

    With ``members_c`` and ``weights_c`` cluster ``c``'s slices of the flat
    ``members`` and ``weights``, row ``c`` is ``weighted_sum_rows(weights_c,
    rows[members_c])`` bit for bit: the weighted member rows fill the
    assignment's cells, transposed, of a ``(slots, n_clusters, features)``
    block padded with ``-0.0``, and one reduction adds its slot planes in
    order. ``x + -0.0 == x`` for every ``x``, so the padding leaves each sum
    as is, and so does the reduction's start at ``-0.0`` (its default,
    ``+0.0``, would turn a sum of ``-0.0`` terms into ``+0.0``). The slot
    axis is the outermost, so numpy's inner loop runs along a plane, adding
    one slot to every element per pass; a spare all-``-0.0`` cluster keeps
    every plane at two or more elements (with one, the slot axis would be
    the inner loop, summed pairwise).
    """
    rows = np.asarray(rows, dtype=np.float64)
    cluster, slot = assignment.cell
    m = assignment.n_clusters
    block = np.empty((int(assignment.sizes.max()), m + 1, rows.shape[1]))
    block.fill(-0.0)
    weighted = rows.take(assignment.members, axis=0)
    weighted *= assignment.weights[:, None]
    block[slot, cluster] = weighted
    return np.add.reduce(block, axis=0, initial=-0.0)[:m]
