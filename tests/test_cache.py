from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd import numerics
from sparsevcd.cache import KvCache, MergedRecords
from sparsevcd.models import ToyTransformer
from sparsevcd.numerics import matvec
from sparsevcd.vats import (attention_error, cluster_pruned, merge_clusters,
                            pairwise_distances)


def distances(points):
    """The ``(n, n)`` matrix ``cluster_pruned`` takes, of ``(n, features)`` points."""
    return pairwise_distances(np.ascontiguousarray(points.T))


def fill_cache(n_tokens, layers=1, heads=1, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    cache = KvCache(layers, heads, dim)
    for _ in range(n_tokens):
        for ell in range(layers):
            pairs = [(rng.normal(size=dim), rng.normal(size=dim)) for _ in range(heads)]
            cache.append(ell, [k for k, _ in pairs], [v for _, v in pairs])
    return cache, rng


def record(members, weights, keys, vals, cs, rs):
    """One non-visual cluster: per head its key, value, ``c`` and ``r``."""
    return members, weights, keys, vals, cs, rs


def merged(clusters):
    """The clusters as one ``MergedRecords`` block: one column per cluster
    in the gather table's layout (per head the value, per head the key, ``c``
    and ``r`` per head, then the visual and aggregate flags, both 0)."""
    columns = np.stack([np.concatenate([np.concatenate(cl[3]), np.concatenate(cl[2]),
                                        cl[4], cl[5], [0.0, 0.0]]) for cl in clusters], axis=1)
    return MergedRecords(
        np.concatenate([cl[0] for cl in clusters]),
        np.array([len(cl[0]) for cl in clusters]),
        np.concatenate([cl[1] for cl in clusters]),
        columns)


def singleton_record(cache, layer, member):
    keys = [cache.key_rows(layer, h)[member].copy() for h in range(cache.heads)]
    vals = [cache.value_rows(layer, h)[member].copy() for h in range(cache.heads)]
    cs = [float(cache.c_view(layer, h)[member]) for h in range(cache.heads)]
    rs = [float(cache.r_view(layer, h)[member]) for h in range(cache.heads)]
    return record(np.array([member]), np.array([1.0]), keys, vals, cs, rs)


def attend_head0(cache, q):
    """Head 0's attention row and raw scaled scores, from the per-layer
    attention path of a one-head cache."""
    q = np.reshape(q, (1, -1))
    att = cache.attend(0, q)
    return att.rows[0], matvec(att.support.keys[0], q[0]) / cache.sqrt_dim


def pruned_error(cache, q):
    """The engine's attention error of the installed layer-0 mask."""
    pruned = np.nonzero(~cache.mask_view(0))[0]
    return attention_error(matvec(cache.key_block(0), np.reshape(q, (1, -1))), pruned)


def test_append_positions_and_length():
    cache = KvCache(1, 1, 3)
    assert cache.append(0, [[1.0, 0, 0]], [[0, 1.0, 0]]) == 0
    assert cache.n_logical == 1
    assert cache.append(0, [[0, 1.0, 0]], [[0, 0, 1.0]]) == 1
    assert cache.n_logical == 2
    assert cache.rows(0) == 2


def test_append_dim_mismatch():
    cache = KvCache(1, 1, 3)
    with pytest.raises(ValueError):
        cache.append(0, [[1.0, 2.0]], [[1.0, 2.0, 3.0]])


def test_append_after_compaction_position():
    # 10 tokens, retain 7, merge the 3 pruned into one aggregate: next append
    # lands at position 8
    cache, rng = fill_cache(10)
    mask = np.ones(10, dtype=bool)
    mask[[2, 5, 7]] = False
    rec_keys = [np.mean(cache.key_rows(0, 0)[[2, 5, 7]], axis=0)]
    rec_vals = [np.mean(cache.value_rows(0, 0)[[2, 5, 7]], axis=0)]
    rec = record(np.array([2, 5, 7]), np.array([1 / 3] * 3),
                 rec_keys, rec_vals, [0.0], [0.0])
    cache.set_sparsification(0, mask, merged([rec]))
    stats = cache.compact()
    assert stats.evicted == 3 and stats.aggregates == 1
    assert cache.rows(0) == 8
    pos = cache.append(0, [rng.normal(size=4)], [rng.normal(size=4)])
    assert pos == 8
    assert cache.n_logical == 11


def test_masked_attention_all_retained_equals_full_bitwise():
    cache, rng = fill_cache(8)
    q = rng.normal(size=4)
    row, scores = attend_head0(cache, q)
    K = cache.key_rows(0, 0)
    ref_scores = np.add.accumulate(K * q, axis=1)[:, -1] / np.sqrt(4)
    e = np.exp(ref_scores - np.max(ref_scores))
    ref_row = e / float(np.add.accumulate(e)[-1])
    assert np.array_equal(scores, ref_scores)
    assert np.array_equal(row, ref_row)


def test_masked_attention_single_retained():
    cache, rng = fill_cache(5)
    mask = np.zeros(5, dtype=bool)
    mask[3] = True
    cache.set_sparsification(0, mask)
    row, _ = attend_head0(cache, rng.normal(size=4))
    assert row.shape == (1,)
    assert row[0] == 1.0


def test_masked_attention_matches_bruteforce_over_retained():
    cache, rng = fill_cache(8, seed=3)
    q = rng.normal(size=4)
    mask = np.ones(8, dtype=bool)
    mask[[1, 4, 6]] = False
    cache.set_sparsification(0, mask)
    row, _ = attend_head0(cache, q)
    # independent brute force over the 5 retained rows
    kept = [i for i in range(8) if mask[i]]
    scores = []
    for i in kept:
        k = cache.key_rows(0, 0)[i]
        scores.append(sum(a * b for a, b in zip(k, q)) / np.sqrt(4))
    scores = np.array(scores)
    ref = np.exp(scores - scores.max())
    ref = ref / ref.sum()
    assert np.allclose(row, ref, atol=1e-12)


def test_masked_attention_empty_support():
    cache, rng = fill_cache(3)
    cache.set_sparsification(0, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        attend_head0(cache, rng.normal(size=4))


def test_attention_error_all_retained_is_zero():
    cache, rng = fill_cache(6)
    assert pruned_error(cache, rng.normal(size=4)) == 0.0


def test_attention_error_all_pruned_and_termwise():
    cache, rng = fill_cache(6, seed=5)
    q = rng.normal(size=4)
    K = cache.key_rows(0, 0).copy()
    cache.set_sparsification(0, np.zeros(6, dtype=bool))
    full = pruned_error(cache, q)
    expected = sum(float(np.dot(K[i], q)) ** 2 for i in range(6))
    assert abs(full - expected) < 1e-12

    mask = np.ones(6, dtype=bool)
    mask[[2, 4]] = False
    cache.set_sparsification(0, mask)
    partial = pruned_error(cache, q)
    expected = sum(float(np.dot(K[i], q)) ** 2 for i in (2, 4))
    assert abs(partial - expected) < 1e-12


def test_attention_error_superset_monotone():
    cache, rng = fill_cache(10, seed=9)
    q = rng.normal(size=4)
    order = list(range(10))
    rng.shuffle(order)
    mask = np.zeros(10, dtype=bool)
    previous = None
    for i in order:
        mask[i] = True
        cache.set_sparsification(0, mask.copy())
        err = pruned_error(cache, q)
        if previous is not None:
            assert err <= previous + 1e-15
        previous = err


def test_compact_noop_reported():
    cache, _ = fill_cache(4, heads=2)
    stats = cache.compact()
    assert stats.evicted == 0 and stats.aggregates == 0
    assert cache.rows(0) == 4
    # a per-head plan cannot be compacted, whether or not the heads' masks
    # agree
    for second in ([True, False, True, True], [True, True, False, True]):
        cache.set_sparsification(0, np.array([[True, False, True, True], second]),
                                 [None, None])
        with pytest.raises(ValueError, match="per-head"):
            cache.compact()
    assert cache.rows(0) == 4


def test_unequal_per_head_plans_are_rejected():
    # support reads every head's rows as one block, so a head keeping more
    # rows or records than another would read rows past the layer's end
    cache, rng = fill_cache(8, heads=2)

    def mask(pruned):
        out = np.ones(8, dtype=bool)
        out[pruned] = False
        return out

    def singletons(pruned):
        pruned = np.array(pruned)
        ones = np.ones(pruned.shape[0])
        return MergedRecords(pruned, ones.astype(np.int64), ones, cache.gather(0, pruned).T)

    def one_cluster(pruned):
        pruned = np.array(pruned)
        return MergedRecords(pruned, np.array([pruned.shape[0]]),
                             np.full(pruned.shape[0], 1 / pruned.shape[0]),
                             cache.gather(0, pruned).mean(axis=0)[:, None])

    five, seven = mask([1, 3, 5]), mask([6])
    for plan in ([five, seven], [seven, five]):
        with pytest.raises(ValueError, match="as many rows and records"):
            cache.set_sparsification(0, np.stack(plan), [None, None])
    for records in ([singletons([2, 6]), one_cluster([0, 3])],
                    [singletons([2, 6]), None]):
        with pytest.raises(ValueError, match="as many rows and records"):
            cache.set_sparsification(0, np.stack([mask([2, 6]), mask([0, 3])]), records)
    assert cache.mask_view(0, 0).all() and cache.mask_view(0, 1).all()
    cache.set_sparsification(0, np.stack([mask([2, 6]), mask([0, 3])]),
                             [singletons([2, 6]), singletons([0, 3])])
    sup = cache.attend(0, rng.normal(size=(2, 4))).support
    assert sup.size == 8
    assert sup.raw_idx.tolist() == [[0, 1, 3, 4, 5, 7], [1, 2, 4, 5, 6, 7]]


def test_records_must_have_the_pruned_rows_as_members():
    # attend moves each pruned row's c through the records: members [2, 3]
    # under a mask pruning rows 2 and 5 gave kept row 3 its c twice and
    # pruned row 5 none
    cache, _ = fill_cache(8)
    mask = np.ones(8, dtype=bool)
    mask[[2, 5]] = False

    def one_cluster(members):
        members = np.array(members)
        return MergedRecords(members, np.array([2]), np.full(2, 0.5),
                             cache.gather(0, members).mean(axis=0)[:, None])

    with pytest.raises(ValueError, match="pruned rows"):
        cache.set_sparsification(0, mask, one_cluster([2, 3]))
    assert cache.mask_view(0).all()
    cache.set_sparsification(0, mask, one_cluster([5, 2]))
    cache.set_sparsification(0, mask)   # merge_pruned = false: no records


def test_compact_evicts_pruned_rows_without_records():
    # pruning without merging (merge_pruned=False) compacts to the kept rows
    cache, _ = fill_cache(10, heads=2)
    keys = cache.key_rows(0, 1).copy()
    mask = np.ones(10, dtype=bool)
    mask[[0, 4, 9]] = False
    cache.set_sparsification(0, mask)
    stats = cache.compact()
    assert stats.evicted == 3 and stats.aggregates == 0
    assert cache.rows(0) == 7
    assert np.array_equal(cache.key_rows(0, 1), keys[mask])


def test_compact_four_pruned_one_cluster():
    cache, _ = fill_cache(10)
    mask = np.ones(10, dtype=bool)
    mask[[1, 3, 5, 7]] = False
    keys = [np.mean(cache.key_rows(0, 0)[[1, 3, 5, 7]], axis=0)]
    vals = [np.mean(cache.value_rows(0, 0)[[1, 3, 5, 7]], axis=0)]
    rec = record(np.array([1, 3, 5, 7]), np.full(4, 0.25), keys, vals, [0.0], [0.0])
    cache.set_sparsification(0, mask, merged([rec]))
    cache.compact()
    assert cache.rows(0) == 7  # 10 - 4 + 1


def test_logical_vs_compacted_argmax_with_singleton_clusters():
    # singleton clusters with weight 1 keep every key/value; both modes must
    # score the next query identically (support order matches: retained then
    # aggregates)
    def build(mode):
        cache, rng = fill_cache(9, seed=13)
        mask = np.ones(9, dtype=bool)
        mask[[2, 6]] = False
        recs = [singleton_record(cache, 0, 2), singleton_record(cache, 0, 6)]
        cache.set_sparsification(0, mask, merged(recs))
        if mode == "compacted":
            cache.compact()
        return cache, rng

    logical, rng_a = build("logical")
    compacted, rng_b = build("compacted")
    q = rng_a.normal(size=4)
    row_a, scores_a = attend_head0(logical, q)
    row_b, scores_b = attend_head0(compacted, q)
    assert np.array_equal(scores_a, scores_b)
    assert int(np.argmax(row_a)) == int(np.argmax(row_b))


def test_accumulator_column_sums_match_replay():
    # decode-style usage through the model, then replay the recorded rows
    m = ToyTransformer(5, d_model=8, layers=2, heads=2, vocab=16)
    cache = m.new_cache()
    recorded = []  # per forward, per layer, the attention rows

    def attend(layer, q):
        att = cache.attend(layer, q)
        if layer == 0:
            recorded.append([])
        recorded[-1].append(att.rows)
        return att

    for t in [1, 2, 3, 4, 5, 6, 7, 8] * 4:  # length 32
        m.forward_step(cache, m.embed_text([t])[0], attend=attend)
    for ell in range(2):
        for h in range(2):
            replay = np.zeros(cache.rows(ell))
            for rows in recorded:
                row = rows[ell][h]
                replay[: row.shape[0]] += row
            assert np.array_equal(replay, cache.c_view(ell, h))


def test_visual_flags_and_clone():
    cache = KvCache(1, 1, 2)
    cache.append(0, [[1.0, 0.0]], [[1.0, 0.0]], visual=True)
    cache.append(0, [[0.0, 1.0]], [[0.0, 1.0]])
    assert list(np.nonzero(cache.visual_flags(0))[0]) == [0]
    twin = cache.clone()
    twin.append(0, [[1.0, 1.0]], [[1.0, 1.0]])
    assert cache.rows(0) == 2 and twin.rows(0) == 3
    assert np.array_equal(twin.key_rows(0, 0)[:2], cache.key_rows(0, 0))



def test_clone_plans_are_independent():
    cache, _ = fill_cache(6, heads=2)
    shared = np.array([True, False, True, True, False, True])
    cache.set_sparsification(0, shared)
    twin = cache.clone()
    twin.clear_sparsification(0)
    assert np.array_equal(cache.mask_view(0), shared)
    assert twin.mask_view(0).all()
    per_head = np.stack([shared, np.array([False, True, True, True, False, True])])
    cache.set_sparsification(0, per_head, [None, None])
    twin = cache.clone()
    twin.clear_sparsification(0)
    assert np.array_equal(cache.mask_view(0, head=1), per_head[1])
    assert np.array_equal(cache.mask_view(0, head=0), shared)
    assert twin.mask_view(0).all()


@pytest.mark.parametrize("head", [None, 0])
def test_set_sparsification_copies_the_mask(head):
    # the shared mask (head None) or head 0's row of a per-head mask
    cache, _ = fill_cache(5, heads=2)
    mask = np.array([True, False, True, True, True])
    if head is None:
        cache.set_sparsification(0, mask)
    else:
        mask = np.stack([mask, mask[::-1]])
        cache.set_sparsification(0, mask, [None, None])
    mask[:] = False
    assert list(cache.mask_view(0, head)) == [True, False, True, True, True]


@pytest.mark.parametrize("mode", ["logical", "compacted"])
def test_cached_row_counts_match_the_flag_rows(mode):
    """The visual-row and raw-row counts a layer keeps equal a recount of
    its flag rows after appends, after a plan ends the way ``mode`` ends it
    (cleared in logical mode, compacted in compacted mode) and on a clone."""
    rng = np.random.default_rng(17)

    def append(cache, n):
        for _ in range(n):
            visual = bool(rng.random() < 0.4)
            for layer in range(cache.layers):
                cache.append(layer, rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), visual)

    def check(cache):
        for layer in range(cache.layers):
            visual = cache.visual_flags(layer)
            raw = np.nonzero(cache.gather(layer, np.arange(cache.rows(layer)))[:, -1] < 0.5)[0]
            assert cache._layers[layer].n_visual == np.count_nonzero(visual)
            assert cache.has_visual(layer) == bool(visual.any())
            assert cache.raw_present(layer) == raw.shape[0]
            assert np.array_equal(cache.raw_rows(layer), raw)

    cache = KvCache(2, 2, 3)
    check(cache)
    append(cache, 14)
    check(cache)
    for layer in range(cache.layers):
        # layer 0 prunes every visual row, layer 1 every other row
        visual = cache.visual_flags(layer)
        pruned = np.nonzero(visual)[0] if layer == 0 else np.arange(0, cache.rows(layer), 2)
        mask = np.ones(cache.rows(layer), dtype=bool)
        mask[pruned] = False
        table = cache.gather(layer, pruned)
        asg = cluster_pruned(distances(table[:, 6:12]), rng.random(pruned.shape[0]), k=2,
                             rho_merge=0.5)
        cache.set_sparsification(layer, mask, MergedRecords(
            pruned[asg.members], asg.sizes, asg.weights, merge_clusters(asg, table).T))
    if mode == "compacted":
        cache.compact()
        assert not cache.has_visual(0)
    else:
        # a pending plan moves no row, and clearing it leaves every row present
        check(cache)
        for layer in range(cache.layers):
            cache.clear_sparsification(layer)
        assert cache.has_visual(0) and cache.rows(0) == 14
    check(cache)
    append(cache, 5)
    check(cache)
    twin = cache.clone()
    append(twin, 4)
    check(twin)
    check(cache)


head_block_cases = st.fixed_dictionaries({
    "heads": st.integers(2, 3),
    "dim": st.integers(1, 6),
    "n": st.integers(2, 90),
    "plan": st.sampled_from([None, "shared", "per_head"]),
    "merge": st.booleans(),
    "beta": st.sampled_from([0.0, 0.25]),
    "raw_scores": st.booleans(),
    "mode": st.sampled_from(["logical", "compacted"]),
    "seed": st.integers(0, 2**16),
})


@settings(max_examples=60, deadline=None)
@given(head_block_cases)
def test_head_block_attend_equals_single_head_caches(case):
    """``attend`` over an ``(H, n)`` head block is bit for bit H one-head
    caches holding the same rows: contexts, attention rows, ``c`` and
    ``r``, unmasked, under a shared or a per-head plan with or without
    records, and on after a compaction."""
    rng = np.random.default_rng(case["seed"])
    h, dim, n = case["heads"], case["dim"], case["n"]
    mode = case["mode"]
    plan = "shared" if mode == "compacted" and case["plan"] == "per_head" else case["plan"]
    block = KvCache(1, h, dim, accumulate_raw_scores=case["raw_scores"])
    singles = [KvCache(1, 1, dim, accumulate_raw_scores=case["raw_scores"])
               for _ in range(h)]

    def append(rows):
        for _ in range(rows):
            k, v, visual = rng.normal(size=(h, dim)), rng.normal(size=(h, dim)), rng.random() < 0.3
            block.append(0, k, v, visual)
            for g, one in enumerate(singles):
                one.append(0, k[g:g + 1], v[g:g + 1], visual)
            attend()

    def attend():
        q = rng.normal(size=(h, dim)) * 2.0
        att = block.attend(0, q, case["beta"])
        for g, one in enumerate(singles):
            ref = one.attend(0, q[g:g + 1], case["beta"])
            assert att.context[g].tobytes() == ref.context[0].tobytes()
            assert att.rows[g].tobytes() == ref.rows[0].tobytes()
            assert block.c_view(0, g).tobytes() == one.c_view(0, 0).tobytes()
            assert block.r_view(0, g).tobytes() == one.r_view(0, 0).tobytes()

    append(n)
    if plan is not None:
        pruned_count = int(rng.integers(1, n))
        masks, block_records = [], []
        for head in ([None] if plan == "shared" else range(h)):
            pruned = np.sort(rng.permutation(n)[:pruned_count])
            mask = np.ones(n, dtype=bool)
            mask[pruned] = False
            asg = cluster_pruned(distances(rng.random((pruned_count, 2))),
                                 rng.random(pruned_count), k=2, rho_merge=0.4)
            for cache in [block] + ([singles[head]] if head is not None else singles):
                records = MergedRecords(pruned[asg.members], asg.sizes, asg.weights,
                                        merge_clusters(asg, cache.gather(0, pruned)).T)
                records = records if case["merge"] else None
                if cache is block:
                    masks.append(mask)
                    block_records.append(records)
                else:
                    cache.set_sparsification(0, mask, records)
        if plan == "shared":
            block.set_sparsification(0, masks[0], block_records[0])
        else:
            block.set_sparsification(0, np.stack(masks), block_records)
        attend()
        if mode == "compacted":
            for cache in [block] + singles:
                cache.compact()
            append(3)
        else:
            attend()


record_index_cases = st.fixed_dictionaries({
    "heads": st.integers(1, 3),
    "dim": st.integers(1, 4),
    "n": st.integers(2, 60),
    "per_head": st.booleans(),
    "rho_merge": st.sampled_from([0.2, 0.5, 1.0]),   # 1.0: single-member records
    "raw_scores": st.booleans(),
    "beta": st.sampled_from([0.0, 0.3]),
    "seed": st.integers(0, 2**16),
})


@settings(max_examples=60, deadline=None)
@given(record_index_cases)
def test_planned_attend_moves_c_as_a_per_member_loop(case):
    """Through the install-time index, a planned attend adds to ``c``
    exactly what a scalar loop adds: each kept row its own column, each
    member its cluster's column times its merge weight, under a shared or a
    per-head plan, in either accumulation mode."""
    rng = np.random.default_rng(case["seed"])
    h, dim, n = case["heads"], case["dim"], case["n"]
    cache = KvCache(1, h, dim, accumulate_raw_scores=case["raw_scores"])
    for _ in range(n):
        cache.append(0, rng.normal(size=(h, dim)), rng.normal(size=(h, dim)), rng.random() < 0.3)
        cache.attend(0, rng.normal(size=(h, dim)))
    pruned_count = int(rng.integers(1, n))
    masks, plan = [], []
    for _ in range(h if case["per_head"] else 1):
        pruned = np.sort(rng.permutation(n)[:pruned_count])
        mask = np.ones(n, dtype=bool)
        mask[pruned] = False
        asg = cluster_pruned(distances(rng.random((pruned_count, 2))), rng.random(pruned_count),
                             k=2, rho_merge=case["rho_merge"])
        masks.append(mask)
        plan.append(MergedRecords(pruned[asg.members], asg.sizes, asg.weights,
                                  merge_clusters(asg, cache.gather(0, pruned)).T))
    if case["per_head"]:
        cache.set_sparsification(0, np.stack(masks), plan)
    else:
        cache.set_sparsification(0, masks[0], plan[0])
    before = cache.c_block(0).copy()
    q = rng.normal(size=(h, dim))
    att = cache.attend(0, q, beta=case["beta"])
    sup = att.support
    want = before.copy()
    for g in range(h):
        if case["raw_scores"]:
            contrib = (matvec(sup.keys[g], q[g]) / cache.sqrt_dim).tolist()
        else:
            contrib = att.rows[g].tolist()
        r = g if case["per_head"] else 0
        for j, row in enumerate(np.flatnonzero(masks[r])):
            want[g, row] += contrib[j]
        rec, first = plan[r], 0
        for cluster, size in enumerate(rec.sizes):
            for member, weight in zip(rec.members[first:first + size],
                                      rec.weights[first:first + size]):
                want[g, member] += contrib[sup.n_raw + cluster] * float(weight)
            first += size
    assert cache.c_block(0).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["unmasked", "shared", "per-head", "compacted"])
def test_long_attend_sums_copy_no_factor(case):
    # 2 heads of 8 over at least 64 rows pass EINSUM_MIN_TERMS, so the score
    # matvec and the value sum are einsums; the support hands both their
    # factors in the summing layout, so _ordered_sum copies neither
    cache, rng = fill_cache(96, heads=2, dim=8)
    assert 2 * 8 * 64 >= numerics.EINSUM_MIN_TERMS
    masks, records = [], []
    for _ in range({"unmasked": 0, "per-head": 2}.get(case, 1)):
        pruned = np.sort(rng.permutation(96)[:24])
        masks.append(np.ones(96, dtype=bool))
        masks[-1][pruned] = False
        asg = cluster_pruned(distances(rng.random((24, 2))), rng.random(24), k=2)
        records.append(MergedRecords(pruned[asg.members], asg.sizes, asg.weights,
                                     merge_clusters(asg, cache.gather(0, pruned)).T))
    if case == "per-head":
        cache.set_sparsification(0, np.stack(masks), records)
    elif case != "unmasked":
        cache.set_sparsification(0, masks[0], records[0])
    if case == "compacted":
        cache.compact()
        assert cache.rows(0) == 96 - 24 + 6
    patch = mock.patch.object
    with patch(numerics.np, "ascontiguousarray", wraps=np.ascontiguousarray) as copies, \
            patch(numerics.np, "einsum", wraps=np.einsum) as einsums:
        cache.attend(0, rng.normal(size=(2, 8)), beta=0.1)
    assert einsums.call_count == 2
    assert copies.call_count == 0
