"""Per-layer key-value store with pending prune plans, merged-token
records, visual-token flags, and attention accumulators.

A cache instance is owned by exactly one decode session. Two maintenance modes:

* ``logical`` — every token stays physically present; pruning is a pending
  plan per layer (a retention mask plus virtual merged-token records),
  recomputed per step.
* ``compacted`` — pruned rows are physically evicted and each cluster is
  appended as one aggregate row (exempt from later pruning).

Layout: each layer keeps all of its rows in one growable float64 buffer,
one column per row. A column holds, per head, the key; then per head the
value; then per head the column accumulator ``c`` and the visual-mass
accumulator ``r``; then the row's visual flag and aggregate flag. So a
head's keys are a ``(dim, rows)`` block, the heads' keys an ``(H, dim,
rows)`` block, and ``c`` / ``r`` ``(H, rows)`` blocks; the accessors hand
them out as views (keys and values transposed to ``(H, rows, dim)``).
Appending a token writes one column; growing, compacting and cloning a
layer each move one buffer.

A layer's pending prune is one dict of plans, ``{None | head: (mask,
MergedRecords)}``: ``None`` keys the mask every head shares, a head number
that head's overlay (logical mode only). A plan covers the rows present
when it was installed; the engine clears (logical) or compacts (compacted)
it before the layer's next append. The records are columns in the same
layout, one per cluster: the merge of the members' columns, whose visual
row is the merge weight the cluster's visual members carry.

Attention runs once per layer over head groups: all heads when the layer
shares one mask, one head per group when per-head overlays are installed.
A group is a slice of heads, or a head number for a group of one: its
arrays then drop the head axis, and the same kernels run on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sparsevcd.numerics import matvec, stable_softmax, weighted_sum_rows
from sparsevcd.sac import calibrate_scores


@dataclass
class MergedRecords:
    """A layer's clusters of pruned rows, each merged into one virtual
    aggregate row; cluster ``j`` is column ``j`` of ``columns``."""

    members: np.ndarray        # (total,) physical rows of the members, cluster by cluster
    sizes: np.ndarray          # (m,) members per cluster
    weights: np.ndarray        # (total,) merge weights; each cluster's sum to 1
    columns: np.ndarray        # (fields, m) merged member columns, in the layer's layout

    def __len__(self) -> int:
        return self.sizes.shape[0]

    @property
    def visual_weight(self) -> np.ndarray:
        """(m,) merge weight carried by each cluster's visual members."""
        return self.columns[-2]


@dataclass
class SupportView:
    """Attention support for one head group of a layer: retained raw rows,
    then the virtual aggregates."""

    heads: int | slice         # a head number drops the head axis below
    keys: np.ndarray           # (G, size, dim)
    values: np.ndarray         # (G, size, dim)
    c: np.ndarray              # (G, size)
    raw_idx: np.ndarray | slice  # physical rows of the retained raw entries
    n_raw: int
    records: MergedRecords     # logical-mode virtual aggregates, in order

    @property
    def size(self) -> int:
        return self.keys.shape[-2]


@dataclass
class Attention:
    """One layer's attention: context per head, and per head group its
    support and the attention rows folded into the accumulators."""

    context: np.ndarray        # (H, dim)
    rows: list[np.ndarray]     # per group (G, size), or (size,) for a lone head
    supports: list[SupportView]


@dataclass
class CompactStats:
    evicted: int = 0
    aggregates: int = 0
    no_op: bool = False


class _LayerState:
    """One layer's rows, one column each, and its pending prune plans; see
    the module docstring."""

    def __init__(self, heads: int, dim: int, cap: int = 16):
        hd = heads * dim
        self.heads, self.dim = heads, dim
        self._keys = slice(0, hd)
        self._values = slice(hd, 2 * hd)
        self._c = slice(2 * hd, 2 * hd + heads)
        self._r = slice(2 * hd + heads, 2 * hd + 2 * heads)
        self.n = 0
        fields = 2 * hd + 2 * heads + 2
        self._adopt(np.zeros((fields, cap)))
        self.raw_present = 0        # raw rows physically present
        self.n_visual = 0           # rows whose visual flag is set
        self.no_records = MergedRecords(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                                        np.zeros(0), np.zeros((fields, 0)))  # never written
        self.plans: dict[int | None, tuple[np.ndarray, MergedRecords]] = {}

    def blocks(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of a block of columns in this layer's layout (at least the
        key, value and ``c`` fields): ``(H, rows, dim)`` keys and values,
        and ``(H, rows)`` ``c``."""
        shape = (self.heads, self.dim, cols.shape[1])
        return (cols[self._keys].reshape(shape).swapaxes(1, 2),
                cols[self._values].reshape(shape).swapaxes(1, 2), cols[self._c])

    def _adopt(self, data: np.ndarray) -> None:
        """Take ``data`` as the buffer, with full-capacity views of its
        fields: ``(H, cap, dim)`` keys and values, ``(H, cap)`` ``c`` and
        ``r``, and the two flag rows."""
        self.data = data
        self.k_all, self.v_all, self.c_all = self.blocks(data)
        self.r_all = data[self._r]
        self.flags = data[-2:]      # visual, aggregate

    # live views, (H, n) / (n,)
    @property
    def c(self) -> np.ndarray:
        return self.c_all[:, : self.n]

    @property
    def r(self) -> np.ndarray:
        return self.r_all[:, : self.n]

    @property
    def visual(self) -> np.ndarray:
        return self.flags[0, : self.n]

    @property
    def is_agg(self) -> np.ndarray:
        return self.flags[1, : self.n]

    def append(self, keys: np.ndarray, values: np.ndarray, visual: bool) -> int:
        if self.n == self.data.shape[1]:
            grown = np.zeros((self.data.shape[0], 2 * self.n))
            grown[:, : self.n] = self.data[:, : self.n]
            self._adopt(grown)
        # columns past n are zero, so the new row's c and r start at 0
        col = self.data[:, self.n]
        col[self._keys] = keys.reshape(-1)
        col[self._values] = values.reshape(-1)
        col[-2:] = (1.0 if visual else 0.0, 0.0)
        self.n += 1
        self.raw_present += 1
        if visual:
            self.n_visual += 1
        return self.n - 1

    def replace(self, columns: np.ndarray) -> None:
        self.n = columns.shape[1]
        data = np.zeros((self.data.shape[0], max(16, self.n)))
        data[:, : self.n] = columns
        self._adopt(data)

    def clone(self) -> "_LayerState":
        out = _LayerState.__new__(_LayerState)
        out.__dict__.update(self.__dict__)
        out._adopt(self.data.copy())
        # plans are replaced, never written in place
        out.plans = dict(self.plans)
        return out


class KvCache:
    """Session-owned KV store; see module docstring for the two modes."""

    def __init__(self, layers: int, heads: int, dim: int, mode: str = "logical",
                 accumulate_raw_scores: bool = False):
        if layers < 1 or heads < 1 or dim < 1:
            raise ValueError("layers, heads and dim must be positive")
        if mode not in ("logical", "compacted"):
            raise ValueError(f"unknown cache mode {mode!r}")
        self.layers = layers
        self.heads = heads
        self.dim = dim
        self.mode = mode
        self.accumulate_raw_scores = accumulate_raw_scores
        self.sqrt_dim = math.sqrt(dim)
        # head groups; a lone head is addressed by its number, so its blocks
        # drop the head axis (numpy calls on 1-d rows cost less than on 2-d)
        self._all_heads = [slice(0, heads) if heads > 1 else 0]
        self._each_head = list(range(heads))
        self._layers = [_LayerState(heads, dim) for _ in range(layers)]
        self.n_logical = 0
        self.peak_rows = 0

    # ------------------------------------------------------------------ rows

    def append(self, layer: int, keys, values, visual: bool = False) -> int:
        """Append one token's keys and values, ``(heads, dim)`` each, to a
        layer; returns the row index. The logical length advances on the
        layer-0 append."""
        keys = np.asarray(keys, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        shape = (self.heads, self.dim)
        if keys.shape != shape or values.shape != shape:
            raise ValueError(f"append: expected ({self.heads}, {self.dim}) blocks, "
                             f"got {keys.shape} and {values.shape}")
        st = self._layers[layer]
        pos = st.append(keys, values, visual)
        if layer == 0:
            self.n_logical += 1
        self.peak_rows = max(self.peak_rows, st.n)
        return pos

    def rows(self, layer: int) -> int:
        return self._layers[layer].n

    def max_rows(self) -> int:
        return max(st.n for st in self._layers)

    # ------------------------------------------------------------- flags/sets

    def visual_flags(self, layer: int) -> np.ndarray:
        return self._layers[layer].visual > 0.5

    def has_visual(self, layer: int) -> bool:
        return self._layers[layer].n_visual > 0

    def raw_rows(self, layer: int) -> np.ndarray:
        st = self._layers[layer]
        if st.raw_present == st.n:  # no aggregates, as in every logical-mode layer
            return np.arange(st.n)
        return np.nonzero(st.is_agg < 0.5)[0]

    def raw_present(self, layer: int) -> int:
        return self._layers[layer].raw_present

    def mask_view(self, layer: int, head: int | None = None) -> np.ndarray:
        """The retention mask a head (or, for ``None``, every head) attends
        through: its overlay, else the shared mask, else all rows."""
        st = self._layers[layer]
        plan = st.plans.get(head) or st.plans.get(None)
        return np.ones(st.n, dtype=bool) if plan is None else plan[0]

    def key_block(self, layer: int) -> np.ndarray:
        """Every head's keys as an ``(H, rows, dim)`` view."""
        st = self._layers[layer]
        return st.k_all[:, : st.n]

    def c_block(self, layer: int) -> np.ndarray:
        """Every head's column accumulators, ``(H, rows)``, writable."""
        return self._layers[layer].c

    def r_block(self, layer: int) -> np.ndarray:
        """Every head's visual-mass accumulators, ``(H, rows)``, writable."""
        return self._layers[layer].r

    def c_view(self, layer: int, head: int) -> np.ndarray:
        return self._layers[layer].c[head]

    def r_view(self, layer: int, head: int) -> np.ndarray:
        return self._layers[layer].r[head]

    def key_rows(self, layer: int, head: int) -> np.ndarray:
        st = self._layers[layer]
        return st.k_all[head, : st.n]

    def value_rows(self, layer: int, head: int) -> np.ndarray:
        st = self._layers[layer]
        return st.v_all[head, : st.n]

    def gather(self, layer: int, idx: np.ndarray) -> np.ndarray:
        """Rows ``idx`` of the layer as a ``(len(idx), fields)`` table: the
        transposed columns (merging it column by column merges each field,
        and the merged table transposed is ``MergedRecords.columns``)."""
        return self._layers[layer].data[:, idx].T

    # -------------------------------------------------------------- attention

    def head_groups(self, layer: int) -> list[int | slice]:
        """All heads together, or one head per group once per-head
        overlays are installed."""
        plans = self._layers[layer].plans
        return self._each_head if len(plans) > (None in plans) else self._all_heads

    def support(self, layer: int, heads: int | slice) -> SupportView:
        """Current attention support of a head group: retained rows followed
        by virtual aggregates."""
        st = self._layers[layer]
        n = st.n
        # a slice group shares the mask: overlays split the layer into heads
        plan = (isinstance(heads, int) and st.plans.get(heads)) or st.plans.get(None)
        mask, records = plan or (None, st.no_records)
        if mask is None or (mask.all() and not len(records)):
            return SupportView(heads, st.k_all[heads, ..., :n, :], st.v_all[heads, ..., :n, :],
                               st.c_all[heads, :n], slice(0, n), n, records)
        raw_idx = np.nonzero(mask)[0]
        top = st._c.stop            # the key, value and c fields
        K, V, c = st.blocks(np.concatenate([st.data[:top, raw_idx], records.columns[:top]],
                                           axis=1))
        return SupportView(heads, K[heads], V[heads], c[heads], raw_idx, raw_idx.shape[0],
                           records)

    def attend(self, layer: int, q, beta: float = 0.0) -> Attention:
        """Scaled-dot attention of each head's query (``q`` is
        ``(heads, dim)``) over its support, one head group at a time.

        ``beta > 0`` applies sinking-attention calibration to the scores
        (penalty weights: the softmax of the support's ``c``). Every
        attention row is folded into the accumulators; pruned tokens
        contribute nothing. Returns one row entry per head group, aligned
        with the supports. Raises on an empty support.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.heads, self.dim):
            raise ValueError(f"attend: query block {q.shape} != ({self.heads}, {self.dim})")
        context = np.empty((self.heads, self.dim))
        rows, supports = [], []
        query_row = self.rows(layer) - 1
        for heads in self.head_groups(layer):
            sup = self.support(layer, heads)
            if sup.size == 0:
                raise ValueError("attend: empty support")
            s = matvec(sup.keys, q[heads]) / self.sqrt_dim
            cal = calibrate_scores(s, stable_softmax(sup.c), beta) if beta > 0.0 else s
            row = stable_softmax(cal)
            context[heads] = weighted_sum_rows(row, sup.values)
            self.record_attention(layer, heads, row, s, sup, query_row)
            rows.append(row)
            supports.append(sup)
        return Attention(context, rows, supports)

    # ----------------------------------------------------------- accumulators

    def record_attention(self, layer: int, heads: int | slice, rows: np.ndarray,
                         scores: np.ndarray, support: SupportView,
                         query_row: int) -> None:
        """Fold one step's attention rows (``(G, size)``, one per head of
        the group, or one ``(size,)`` row) into the accumulators.

        Rows index the support; column sums get the rows (or the raw scores
        when the cache accumulates raw scores), with aggregate entries
        redistributed to their members by merge weight (clusters are
        disjoint, so one scatter adds each member once). The querying
        token's visual-mass entry gets the probability mass landing on
        visual rows: the raw rows' flags, then the records' visual weights,
        summed along the row.
        """
        st = self._layers[layer]
        contrib = scores if self.accumulate_raw_scores else rows
        n_raw = support.n_raw
        rec = support.records
        c = st.c_all[heads]
        c[..., support.raw_idx] += contrib[..., :n_raw]
        flags = st.flags[0, support.raw_idx]
        if len(rec):
            amounts = np.repeat(contrib[..., n_raw:], rec.sizes, axis=-1)
            c[..., rec.members] += amounts * rec.weights
            flags = np.concatenate([flags, rec.visual_weight])
        st.r_all[heads, query_row] += np.add.accumulate(rows * flags, axis=-1)[..., -1]

    # ---------------------------------------------------------- sparsification

    def set_sparsification(self, layer: int, mask: np.ndarray,
                           records: MergedRecords | None = None,
                           head: int | None = None) -> None:
        """Install a layer's plan: a copy of a raw-row retention mask plus
        merged records.

        ``head=None`` installs the shared per-layer mask; an integer head
        installs a per-head overlay (logical mode only).
        """
        st = self._layers[layer]
        mask = np.array(mask, dtype=bool)
        if mask.shape[0] != st.n:
            raise ValueError("set_sparsification: mask length must equal row count")
        st.plans[head] = (mask, st.no_records if records is None else records)

    def clear_sparsification(self, layer: int) -> None:
        self._layers[layer].plans.clear()

    def compact(self) -> CompactStats:
        """Physically apply the shared plans: evict pruned raws and append
        one aggregate row per merged record (visual 0, aggregate 1); the
        plans are then spent."""
        stats = CompactStats()
        for st in self._layers:
            mask, records = st.plans.get(None, (None, st.no_records))
            if mask is None or (mask.all() and not len(records)):
                continue
            if len(st.plans) > 1:
                raise ValueError("compact: per-head masks cannot be compacted")
            del st.plans[None]
            keep = np.nonzero(mask)[0]
            stats.evicted += int(st.n - keep.shape[0])
            stats.aggregates += len(records)
            aggregates = records.columns.copy()
            aggregates[-2:] = [[0.0], [1.0]]
            st.replace(np.concatenate([st.data[:, keep], aggregates], axis=1))
            st.raw_present = int((st.is_agg < 0.5).sum())
            st.n_visual = int((st.visual > 0.5).sum())
            self.peak_rows = max(self.peak_rows, st.n)
        stats.no_op = not (stats.evicted or stats.aggregates)
        return stats

    # ----------------------------------------------------------------- misc

    def clone(self) -> "KvCache":
        out = KvCache.__new__(KvCache)
        out.__dict__.update(self.__dict__)
        out._layers = [st.clone() for st in self._layers]
        return out
