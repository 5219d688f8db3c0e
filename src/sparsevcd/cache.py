"""Per-layer key-value store with pending prune plans, merged-token
records, visual-token flags, and attention accumulators.

A cache instance is owned by exactly one decode session. Two maintenance modes:

* ``logical`` — every token stays physically present; pruning is a pending
  plan per layer (a retention mask plus virtual merged-token records),
  recomputed per step.
* ``compacted`` — pruned rows are physically evicted and each cluster is
  appended as one aggregate row (exempt from later pruning).

Layout: each layer keeps its rows in two growable float64 buffers, each in
the layout its attention sum reads without a copy. The column buffer has one
column per row: per head the key, then per head the column accumulator
``c`` and the visual-mass accumulator ``r``, then the visual and aggregate
flags. So the keys are an ``(H, dim, rows)`` block, ``matvec``'s layout,
and ``c`` / ``r`` are ``(H, rows)`` blocks. The value buffer has one row
per row, every head's value side by side, so the values are an ``(H, rows,
dim)`` view with the features fastest, ``weighted_sum_rows``' layout.

A layer's pending prune is one plan, installed whole by one
``set_sparsification`` call: an ``(R, n)`` retention mask with one
``MergedRecords`` per mask row, ``R = 1`` a mask every head shares and
``R = H`` one per head (logical mode only). The engine clears (logical) or
compacts (compacted) it before the layer's next append. The install checks
that every head's plan keeps as many rows and clusters as the others, so
attention is one call per layer over the ``(H, size)`` head block: an
unmasked support is a view, a masked one one gather per buffer, and no head
is reduced with another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from sparsevcd.numerics import _ordered_sum, stable_softmax
from sparsevcd.sac import calibrate_scores


@dataclass
class MergedRecords:
    """A layer's clusters of pruned rows, each merged into one virtual
    aggregate row; cluster ``j`` is column ``j`` of ``columns``, whose
    visual row is the merge weight the cluster's visual members carry."""

    members: np.ndarray        # (total,) physical rows of the members, cluster by cluster
    sizes: np.ndarray          # (m,) members per cluster
    weights: np.ndarray        # (total,) merge weights; each cluster's sum to 1
    columns: np.ndarray        # (fields, m) merged member rows, in the gather table's layout

    def __len__(self) -> int:
        return self.sizes.shape[0]


@dataclass
class SupportView:
    """A layer's attention support as a head block: per head its retained
    raw rows, then its records' virtual aggregates. Arrays with a leading
    ``R`` have one row per mask row of the plan (``R = 1`` is shared by
    every head)."""

    keys: np.ndarray           # (H, size, dim)
    values: np.ndarray         # (H, size, dim)
    c: np.ndarray              # (H, size)
    visual: np.ndarray         # (R, size) visual flags, then the records' visual weights
    raw_idx: np.ndarray | slice  # (R, n_raw) physical rows of the retained raw entries
    n_raw: int
    sources: np.ndarray | None  # (R, rows) each physical row's support column, with records
    scales: np.ndarray | None   # (R, rows) the factor on that column's attention

    @property
    def size(self) -> int:
        return self.keys.shape[-2]


@dataclass
class Attention:
    """One layer's attention: context per head, the support, and the
    attention rows folded into the accumulators."""

    context: np.ndarray        # (H, dim)
    rows: np.ndarray           # (H, size)
    support: SupportView


@dataclass
class CompactStats:
    evicted: int = 0
    aggregates: int = 0
    no_op: bool = False


class _LayerState:
    """One layer's rows, in a column buffer and a value buffer, and its
    pending prune plan; see the module docstring."""

    def __init__(self, heads: int, dim: int):
        self.heads, self.dim, self.hd, self.n = heads, dim, heads * dim, 0
        fields = self.hd + 2 * heads + 2
        self.adopt(np.zeros((fields, 0)), np.zeros((0, self.hd)), 16)
        self.raw_present = 0        # raw rows physically present
        self.n_visual = 0           # rows whose visual flag is set
        self.install()

    def install(self, mask=None, records=(), raw_idx=None, sources=None, scales=None) -> None:
        """Replace the pending plan; no arguments drop it. ``mask`` is the
        ``(R, n)`` retention mask, ``records`` one ``MergedRecords`` per
        mask row, ``raw_idx`` the ``(R, kept)`` rows each mask row keeps,
        and ``sources`` / ``scales`` the records' ``(R, n)`` index (see
        ``KvCache.record_attention``), ``None`` without records."""
        self.mask, self.records, self.raw_idx = mask, records, raw_idx
        self.sources, self.scales = sources, scales

    def adopt(self, columns: np.ndarray, values: np.ndarray, cap: int) -> None:
        """Copy the first ``n`` columns and value rows into new buffers of
        ``cap`` rows (columns past ``n`` are zero, and nothing writes them
        before ``append``), with full-capacity views: ``(H, dim, cap)`` key
        columns, ``(H, cap, dim)`` keys and values, ``(H, cap)`` ``c`` and
        ``r``, and the two flag rows."""
        h, d, hd, n = self.heads, self.dim, self.hd, self.n
        self.data = np.zeros((columns.shape[0], cap))
        self.vals = np.empty((cap, hd))
        if n:
            self.data[:, :n] = columns[:, :n]
            self.vals[:n] = values[:n]
        self.k_cols = self.data[:hd].reshape(h, d, cap)
        self.k_all = self.k_cols.swapaxes(1, 2)
        self.v_all = self.vals.reshape(cap, h, d).swapaxes(0, 1)
        self.c_all = self.data[hd: hd + h]
        self.r_all = self.data[hd + h: hd + 2 * h]
        self.flags = self.data[-2:]      # visual, aggregate

    def append(self, keys: np.ndarray, values: np.ndarray, visual: bool) -> int:
        n = self.n
        if n == self.vals.shape[0]:
            self.adopt(self.data, self.vals, 2 * n)
        # column n is zero, so the row's c, r and aggregate flag start at 0
        self.data[: self.hd, n] = keys.reshape(-1)
        self.vals[n] = values.reshape(-1)
        self.n = n + 1
        self.raw_present += 1
        if visual:
            self.flags[0, n] = 1.0
            self.n_visual += 1
        return n

    def clone(self) -> "_LayerState":
        out = _LayerState.__new__(_LayerState)
        out.__dict__.update(self.__dict__)
        # the plan is replaced, never written in place
        out.adopt(self.data, self.vals, self.data.shape[1])
        return out


_NOT_PRUNED = "set_sparsification: the records' members must be the mask's pruned rows"


def _record_index(mask: np.ndarray, raw_idx: np.ndarray, records) -> tuple:
    """The ``(R, n)`` index through which an attend moves ``c`` to a plan's
    rows: per mask row, each row's support column and the factor on that
    column's attention. A kept row takes its own column and 1; a member
    takes its cluster's column, after the kept rows, and its merge weight.

    Raises ``ValueError`` unless each row's records hold each of its pruned
    rows once and no other row. Filled from -1, every entry is set exactly
    when the members, as many as the pruned rows and none negative, cover
    every pruned row.
    """
    kept = raw_idx.shape[1]
    sources = np.empty(mask.shape, dtype=np.int64)
    sources.fill(-1)
    scales = np.empty(mask.shape)
    scales.fill(1.0)
    columns = np.arange(kept)
    for src, scale, cols, rec in zip(sources, scales, raw_idx, records):
        members = rec.members
        if members.shape[0] != src.shape[0] - kept or (
                members.shape[0] and np.minimum.reduce(members) < 0):
            raise ValueError(_NOT_PRUNED)
        src[cols] = columns
        try:
            src[members] = np.arange(kept, kept + len(rec)).repeat(rec.sizes)
        except IndexError:
            raise ValueError(_NOT_PRUNED) from None
        if np.minimum.reduce(src) < 0:
            raise ValueError(_NOT_PRUNED)
        scale[members] = rec.weights
    return sources, scales


@functools.cache
def _constants(heads: int, dim: int) -> tuple:
    """A cache's constant arrays, built once per shape and shared read-only:
    a head index for ``(H, k)`` fancy indices, per head its key rows, its
    ``c`` row and the visual row of a column, and the empty records of a
    plan without clusters."""
    heads_col = np.arange(heads)[:, None]
    hd = heads * dim
    fields = np.concatenate([np.arange(hd).reshape(heads, dim), hd + heads_col,
                             np.full((heads, 1), hd + 2 * heads)], axis=1)
    none = np.zeros(0, dtype=np.int64)
    records = MergedRecords(none, none, np.zeros(0), np.zeros((2 * hd + 2 * heads + 2, 0)))
    for a in (heads_col, fields, none, records.weights, records.columns):
        a.flags.writeable = False
    return heads_col, fields, records


class KvCache:
    """Session-owned KV store; see module docstring for the two modes."""

    def __init__(self, layers: int, heads: int, dim: int, mode: str = "logical",
                 accumulate_raw_scores: bool = False):
        if layers < 1 or heads < 1 or dim < 1:
            raise ValueError("layers, heads and dim must be positive")
        if mode not in ("logical", "compacted"):
            raise ValueError(f"unknown cache mode {mode!r}")
        self.layers, self.heads, self.dim, self.mode = layers, heads, dim, mode
        self.accumulate_raw_scores = accumulate_raw_scores
        self.sqrt_dim = math.sqrt(dim)
        self._heads, self._head_fields, self._no_records = _constants(heads, dim)
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
        st = self._layers[layer]
        return st.flags[0, : st.n] > 0.5

    def has_visual(self, layer: int) -> bool:
        return self._layers[layer].n_visual > 0

    def raw_rows(self, layer: int) -> np.ndarray:
        st = self._layers[layer]
        if st.raw_present == st.n:  # no aggregates, as in every logical-mode layer
            return np.arange(st.n)
        return np.nonzero(st.flags[1, : st.n] < 0.5)[0]

    def raw_present(self, layer: int) -> int:
        return self._layers[layer].raw_present

    def mask_view(self, layer: int, head: int | None = None) -> np.ndarray:
        """The retention mask a head attends through, all rows without a
        plan; ``None`` asks for the mask every head shares."""
        st = self._layers[layer]
        if st.mask is None:
            return np.ones(st.n, dtype=bool)
        if head is None and st.mask.shape[0] > 1:
            raise ValueError("mask_view: the heads' masks differ; name a head")
        return st.mask[0 if head is None else head % st.mask.shape[0]]

    def retained_raw(self, layer: int) -> int:
        """How many raw rows each head attends through (every head keeps as
        many): the rows the plan keeps, every raw row without a plan."""
        st = self._layers[layer]
        if st.mask is None:
            return st.raw_present
        return int(np.count_nonzero(st.mask[0][self.raw_rows(layer)]))

    def key_block(self, layer: int) -> np.ndarray:
        """Every head's keys as an ``(H, rows, dim)`` view."""
        st = self._layers[layer]
        return st.k_all[:, : st.n]

    def c_block(self, layer: int) -> np.ndarray:
        """Every head's column accumulators, ``(H, rows)``, writable."""
        st = self._layers[layer]
        return st.c_all[:, : st.n]

    def r_block(self, layer: int) -> np.ndarray:
        """Every head's visual-mass accumulators, ``(H, rows)``, writable."""
        st = self._layers[layer]
        return st.r_all[:, : st.n]

    def c_view(self, layer: int, head: int) -> np.ndarray:
        return self.c_block(layer)[head]

    def r_view(self, layer: int, head: int) -> np.ndarray:
        return self.r_block(layer)[head]

    def key_rows(self, layer: int, head: int) -> np.ndarray:
        return self.key_block(layer)[head]

    def value_rows(self, layer: int, head: int) -> np.ndarray:
        st = self._layers[layer]
        return st.v_all[head, : st.n]

    def gather(self, layer: int, idx: np.ndarray) -> np.ndarray:
        """Rows ``idx`` of the layer as a ``(len(idx), fields)`` table: the
        value row, then the column (merging the table column by column
        merges each field, and the merged table transposed is
        ``MergedRecords.columns``)."""
        st = self._layers[layer]
        return np.concatenate([st.vals.take(idx, axis=0), st.data.take(idx, axis=1).T], axis=1)

    # -------------------------------------------------------------- attention

    def support(self, layer: int) -> SupportView:
        """Current attention support of every head: retained rows followed
        by virtual aggregates, one gather per buffer."""
        st = self._layers[layer]
        n, mask, records = st.n, st.mask, st.records
        if mask is None or (mask.all() and not len(records[0])):
            return SupportView(st.k_all[:, :n], st.v_all[:, :n], st.c_all[:, :n],
                               st.flags[:1, :n], slice(0, n), n, None, None)
        h, d, hd = self.heads, self.dim, st.hd
        raw_idx = st.raw_idx
        if mask.shape[0] == 1:
            rec, kept = records[0], raw_idx[0]
            # take keeps the columns C-ordered (a[:, idx] is F-ordered), so
            # every field runs along the rows, as the score matvec sums them
            cols = np.concatenate([st.data.take(kept, axis=1), rec.columns[hd:]], axis=1)
            keys = cols[:hd].reshape(h, d, -1)
            c, visual = cols[hd: hd + h], cols[-2:-1]
            values = np.concatenate([st.vals.take(kept, axis=0), rec.columns[:hd].T]).reshape(
                -1, h, d).swapaxes(0, 1)
        else:
            # head h's key rows, c row and visual row at its own rows, then
            # the same fields of its own records
            table = np.stack([rec.columns for rec in records])
            fields = self._head_fields
            cols = np.concatenate([
                np.take(st.data, fields[:, :, None] * st.data.shape[1] + raw_idx[:, None]),
                table[self._heads, fields + hd]], axis=2)
            keys, c, visual = cols[:, :d], cols[:, d], cols[:, d + 1]
            values = np.concatenate([st.v_all[self._heads, raw_idx],
                                     table[self._heads, fields[:, :d]].swapaxes(1, 2)], axis=1)
        return SupportView(keys.swapaxes(1, 2), values, c, visual, raw_idx, raw_idx.shape[1],
                           st.sources, st.scales)

    def attend(self, layer: int, q, beta: float = 0.0) -> Attention:
        """Scaled-dot attention of each head's query (``q`` is
        ``(heads, dim)``) over its support, all heads in one block.

        ``beta > 0`` applies sinking-attention calibration to the scores
        (penalty weights: the softmax of the support's ``c``). Every
        attention row is folded into the accumulators; pruned tokens
        contribute nothing. Raises on an empty support.

        The query and the support are checked here, so the score and the
        context are the ``_ordered_sum`` calls ``matvec`` and
        ``weighted_sum_rows`` make, without their second shape pass.
        """
        q = np.asarray(q, dtype=np.float64)
        if q.shape != (self.heads, self.dim):
            raise ValueError(f"attend: query block {q.shape} != ({self.heads}, {self.dim})")
        sup = self.support(layer)
        if sup.size == 0:
            raise ValueError("attend: empty support")
        s = _ordered_sum(-1, sup.keys.size, sup.keys, q[:, None])
        s /= self.sqrt_dim
        cal = calibrate_scores(s, stable_softmax(sup.c), beta) if beta > 0.0 else s
        rows = stable_softmax(cal)
        context = _ordered_sum(-2, sup.values.size, rows[..., None], sup.values)
        self.record_attention(layer, rows, s, sup, self._layers[layer].n - 1)
        return Attention(context, rows, sup)

    # ----------------------------------------------------------- accumulators

    def record_attention(self, layer: int, rows: np.ndarray, scores: np.ndarray,
                         support: SupportView, query_row: int) -> None:
        """Fold one step's ``(H, size)`` attention rows into the
        accumulators.

        Rows index the support; column sums get the rows (or the raw scores
        when the cache accumulates raw scores), with aggregate entries
        redistributed to their members by merge weight. Under records every
        row gets one term, its ``sources`` column times its ``scales``
        factor (``x * 1.0 == x`` for a kept row), so the terms are one
        gather added to the rows in place. The querying token's visual-mass
        entry gets the probability mass landing on visual rows: the raw
        rows' flags, then the records' visual weights, summed along the row.
        """
        st = self._layers[layer]
        contrib = scores if self.accumulate_raw_scores else rows
        src = support.sources
        if src is not None:
            terms = contrib.take(src[0], axis=1) if len(src) == 1 else contrib[self._heads, src]
            terms *= support.scales
            c = st.c_all[:, : terms.shape[1]]
            c += terms
        elif isinstance(support.raw_idx, slice):
            c = st.c_all[:, support.raw_idx]
            c += contrib
        else:
            st.c_all[self._heads, support.raw_idx] += contrib[:, : support.n_raw]
        st.r_all[:, query_row] += np.add.accumulate(rows * support.visual, axis=-1)[:, -1]

    # ---------------------------------------------------------- sparsification

    def set_sparsification(self, layer: int, mask: np.ndarray, records=None) -> None:
        """Install a layer's plan, replacing any earlier one: a copy of a
        raw-row retention mask plus merged records (``None`` for none).

        An ``(n,)`` mask is shared by every head and takes one records
        value; an ``(H, n)`` mask has one row per head (logical mode only)
        and takes a sequence of H. Every row must keep as many rows and
        records as the others, as ``support`` reads them as one block. A
        row's non-empty records must hold each of its pruned rows once and
        no other row, as ``attend`` moves their ``c`` through them.

        The install also builds what every attend through the plan reads:
        the rows each mask row keeps and, with records, the records' index
        (``_record_index``).
        """
        st = self._layers[layer]
        mask = np.array(mask, dtype=bool)
        if mask.shape == (st.n,):
            mask, records = mask[None], (self._no_records if records is None else records,)
        elif mask.shape != (self.heads, st.n) or records is None or len(records) != self.heads:
            raise ValueError("set_sparsification: expected an (n,) mask or an (H, n) "
                             "mask with H records, n the row count")
        else:
            records = tuple(self._no_records if rec is None else rec for rec in records)
            kept = np.count_nonzero(mask, axis=1)
            if (kept != kept[0]).any() or any(len(rec) != len(records[0]) for rec in records):
                raise ValueError("set_sparsification: every head must keep as many rows "
                                 "and records")
        raw_idx = mask.ravel().nonzero()[0].reshape(mask.shape[0], -1)
        if mask.shape[0] > 1:
            raw_idx -= self._heads * st.n
        if len(records[0]):
            st.install(mask, records, raw_idx, *_record_index(mask, raw_idx, records))
        else:
            st.install(mask, records, raw_idx)

    def clear_sparsification(self, layer: int) -> None:
        self._layers[layer].install()

    def compact(self) -> CompactStats:
        """Physically apply the shared plans: evict pruned raws and append
        one aggregate row per merged record (visual 0, aggregate 1); the
        plans are then spent."""
        stats = CompactStats()
        for st in self._layers:
            mask = st.mask
            if mask is None or (mask.all() and not len(st.records[0])):
                continue
            if mask.shape[0] > 1:
                raise ValueError("compact: per-head masks cannot be compacted")
            records, keep = st.records[0], st.raw_idx[0]
            st.install()
            stats.evicted += int(st.n - keep.shape[0])
            stats.aggregates += len(records)
            aggregates = records.columns[st.hd:].copy()
            aggregates[-2:] = [[0.0], [1.0]]
            st.n = keep.shape[0] + len(records)
            st.adopt(np.concatenate([st.data[:, keep], aggregates], axis=1),
                     np.concatenate([st.vals[keep], records.columns[: st.hd].T]), max(16, st.n))
            st.raw_present = int(np.count_nonzero(st.flags[1, : st.n] < 0.5))
            st.n_visual = int(np.count_nonzero(st.flags[0, : st.n] > 0.5))
            self.peak_rows = max(self.peak_rows, st.n)
        stats.no_op = not (stats.evicted or stats.aggregates)
        return stats

    # ----------------------------------------------------------------- misc

    def clone(self) -> "KvCache":
        out = KvCache.__new__(KvCache)
        out.__dict__.update(self.__dict__)
        out._layers = [st.clone() for st in self._layers]
        return out
