import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsevcd.cache import KvCache
from sparsevcd.errors import ConfigError
from sparsevcd.numerics import stable_softmax, weighted_sum_rows
from sparsevcd.oracle import brute_force_mask, objective_value, reference_clustering
from sparsevcd.vats import (ClusterAssignment, cluster_pruned, merge_clusters,
                            pairwise_distances, select_topS, visual_saliency)

# frozen from an mpmath (50-digit) softmax of [1, 2, 3]
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]


def cache_with_r(r_values, heads=1, visual_first=True):
    n = len(r_values)
    cache = KvCache(1, heads, 2)
    for i in range(n):
        cache.append(0, [[float(i), 0.0]] * heads, [[0.0, 1.0]] * heads,
                     visual=(i == 0 and visual_first))
    for h in range(heads):
        cache.r_view(0, h)[:] = np.asarray(r_values, dtype=np.float64)
    return cache


def test_visual_saliency_uniform():
    cache = cache_with_r([2.0, 2.0, 2.0, 2.0])
    p = visual_saliency(cache, [0])
    assert np.allclose(p, 0.25, atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-9


def test_visual_saliency_saturation():
    cache = cache_with_r([20.0, 0.0, 0.0, 0.0])
    p = visual_saliency(cache, [0])
    assert p[0] > 0.999
    assert np.all(p[1:] < 1e-3)


def test_visual_saliency_matches_softmax_reference():
    cache = cache_with_r([1.0, 2.0, 3.0])
    p = visual_saliency(cache, [0])
    assert np.allclose(p, SOFTMAX_123, atol=1e-12, rtol=0.0)


def test_visual_saliency_requires_visual_tokens():
    cache = cache_with_r([1.0, 2.0], visual_first=False)
    with pytest.raises(ValueError, match="no visual tokens"):
        visual_saliency(cache, [0])


def test_select_all_retained():
    g, p, lam = np.array([3.0, 1.0, 2.0]), np.full(3, 1 / 3), 0.5
    mask = select_topS(g + lam * p, 3, 0)
    assert mask.all()
    assert abs(objective_value(mask, g, p, lam) - (-0.5)) < 1e-12  # = -lambda


def test_select_matches_bruteforce_enumeration():
    rng = np.random.default_rng(42)
    for trial in range(50):
        length = 6
        g = rng.normal(size=length) ** 2
        p_raw = rng.random(length)
        p = p_raw / p_raw.sum()
        lam = float(rng.random())
        mask = select_topS(g + lam * p, 3, 0)
        keys = rng.normal(size=(length, 4))
        # reuse the same g by scaling keys so <K_i, q> matches sqrt(g_i)
        q = np.array([1.0, 0.0, 0.0, 0.0])
        keys[:, 0] = np.sqrt(g)
        keys[:, 1:] = 0.0
        _, best = brute_force_mask(q, keys, p, lam, 3)
        assert abs(objective_value(mask, g, p, lam) - best) < 1e-12


def test_select_tie_break_keeps_earlier_position():
    mask = select_topS(np.array([1.0, 1.0, 1.0, 1.0]), 2, 0)
    assert list(mask) == [True, True, False, False]


def test_select_recency_window_forced():
    mask = select_topS(np.array([10.0, 9.0, 0.0, 0.0]), 2, w_recent=2)
    assert list(mask) == [False, False, True, True]


def test_select_budget_validation():
    with pytest.raises(ConfigError):
        select_topS(np.ones(4), 5, 0)
    with pytest.raises(ConfigError):
        select_topS(np.ones(4), 2, w_recent=3)


def test_select_scale_invariance():
    rng = np.random.default_rng(3)
    g = rng.normal(size=12) ** 2
    p = rng.dirichlet(np.ones(12))
    base = select_topS(g + 0.7 * p, 5, 0)
    for c in (0.25, 0.5, 2.0, 4.0, 1024.0, 3.0):
        scaled = select_topS(c * g + 0.7 * (c * p), 5, 0)
        assert np.array_equal(base, scaled)


def test_objective_all_masks():
    g = np.array([4.0, 1.0, 9.0])
    p = np.array([0.2, 0.3, 0.5])
    lam = 0.4
    assert abs(objective_value(np.ones(3, dtype=bool), g, p, lam) - (-lam)) < 1e-12
    assert abs(objective_value(np.zeros(3, dtype=bool), g, p, lam) - g.sum()) < 1e-12


def test_objective_equals_const_minus_retained_delta():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = 10
        g = rng.normal(size=n) ** 2
        p = rng.dirichlet(np.ones(n))
        lam = float(rng.random() * 2)
        flags = rng.random(n) < 0.5
        direct = objective_value(flags, g, p, lam)
        algebraic = g.sum() - float((flags * (g + lam * p)).sum())
        assert abs(direct - algebraic) < 1e-12


def test_distance_kernel_equals_a_per_pair_loop_bitwise():
    """Entry (i, j) is the square root of the squared differences summed
    feature by feature in Python floats, for any ``start`` and either sign
    of the differences (so the block is exactly symmetric)."""
    rng = np.random.default_rng(5)
    for n, f in [(1, 3), (2, 1), (9, 6), (23, 16)]:
        cols = rng.normal(size=(f, n)) * 10.0 ** rng.integers(-3, 4, size=(f, 1))
        for start in sorted({0, n // 2, n - 1}):
            block = pairwise_distances(cols, start)
            assert block.shape == (n - start, n)
            for i in range(start, n):
                for j in range(n):
                    acc = 0.0
                    for x in cols[:, i] - cols[:, j]:
                        acc += float(x) * float(x)
                    assert block[i - start, j] == math.sqrt(acc)
        full = pairwise_distances(cols)
        assert full.tobytes() == full.T.copy().tobytes()
        dist = cluster_pruned(full, np.zeros(n), k=3, precomputed=True)
        keys = cluster_pruned(cols.T, np.zeros(n), k=3)
        assert np.array_equal(dist.labels, keys.labels)
    with pytest.raises(ValueError):
        cluster_pruned(np.zeros((3, 2)), np.zeros(3), k=1, precomputed=True)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.integers(1, 24), st.sampled_from(["normal", "grid", "equal"]),
       st.integers(0, 2**16))
def test_distance_fill_is_the_sequential_sum(n, f, keys, seed):
    """The einsum fill equals squaring each feature's differences and
    adding the planes in feature order from the first, bit for bit, for
    every ``start``: an einsum that summed the features in another order, or
    started at ``-0.0``, would differ."""
    rng = np.random.default_rng(seed)
    if keys == "normal":
        cols = rng.normal(size=(f, n)) * 2.0 ** rng.integers(-40, 40, size=(f, 1))
    elif keys == "grid":
        cols = rng.integers(-1, 2, size=(f, n)).astype(np.float64)
    else:
        cols = np.full((f, n), -0.5)
    for start in sorted({0, n // 2, n - 1}):
        diff = cols[:, None, :] - cols[:, start:, None]
        acc = diff[0] * diff[0]
        for plane in diff[1:]:
            acc = acc + plane * plane
        assert pairwise_distances(cols, start).tobytes() == np.sqrt(acc).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 90), st.sampled_from(["normal", "ties", "signed zeros", "infinite"]),
       st.integers(0, 2**16), st.data())
def test_select_keeps_the_first_rows_of_a_stable_sort(n, kind, seed, data):
    """The selection is the first ``s - w`` rows of a stable sort by
    descending score, plus the window, with ties on the earlier row."""
    rng = np.random.default_rng(seed)
    delta = rng.normal(size=n)
    if kind == "ties":
        delta = rng.integers(0, 3, size=n).astype(np.float64)
    elif kind == "signed zeros":
        delta = rng.choice([-0.0, 0.0, 1.0], size=n)
    elif kind == "infinite":
        delta[rng.random(n) < 0.3] = rng.choice([np.inf, -np.inf])
    s = data.draw(st.integers(1, n))
    w = data.draw(st.integers(0, s))
    want = np.zeros(n, dtype=bool)
    want[n - w:] = True
    want[np.argsort(-delta[: n - w], kind="stable")[: s - w]] = True
    assert np.array_equal(select_topS(delta, s, w), want)


def test_cluster_single_point():
    out = cluster_pruned(np.array([[1.0, 2.0]]), np.array([0.5]), k=5)
    assert out.n_clusters == 1
    assert list(out.labels) == [0]
    assert np.allclose(out.weights[0], [1.0])


def test_cluster_duplicate_pairs_split():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0], [10.0, 10.0]])
    out = cluster_pruned(pts, np.zeros(4), k=3, rho_merge=0.5)
    assert out.labels[0] == out.labels[1]
    assert out.labels[2] == out.labels[3]
    assert out.labels[0] != out.labels[2]


def test_cluster_matches_reference_on_planted_blobs():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 3)) * 0.1
    b = rng.normal(size=(4, 3)) * 0.1 + 8.0
    pts = np.vstack([a, b])
    deltas = rng.random(8)
    engine = cluster_pruned(pts, deltas, k=3)
    ref_labels, ref_centers = reference_clustering(pts, 3, 2)
    assert list(engine.labels) == list(ref_labels)
    assert list(engine.centers) == list(ref_centers)


def test_cluster_labels_the_longest_nearest_denser_chain():
    """Gaps that widen along a line make each point's nearest denser point
    its left neighbour: one chain through all n points to the only center."""
    for n in range(2, 40):
        pts = np.cumsum(np.arange(n, dtype=np.float64))[:, None]
        out = cluster_pruned(pts, np.zeros(n), k=1, rho_merge=0.01)
        ref_labels, ref_centers = reference_clustering(pts, 1, 1)
        assert list(out.centers) == list(ref_centers) == [0]
        assert list(out.labels) == list(ref_labels) == [0] * n


def test_cluster_totality_and_weight_sums():
    rng = np.random.default_rng(23)
    for trial in range(25):
        n = int(rng.integers(1, 20))
        pts = rng.normal(size=(n, 5))
        deltas = rng.random(n)
        out = cluster_pruned(pts, deltas, k=5)
        seen = out.members
        assert sorted(seen.tolist()) == list(range(n))
        assert out.n_clusters <= n
        for w in np.split(out.weights, np.cumsum(out.sizes)[:-1]):
            assert abs(w.sum() - 1.0) < 1e-9


def test_merge_singleton_is_identity():
    one = np.array([0])
    asg = ClusterAssignment(one, one, one, np.array([1]), np.array([1.0]), (one, one))
    keys = np.array([[1.5, -2.0]])
    vals = np.array([[0.5, 0.25]])
    agg_k, = merge_clusters(asg, keys)
    agg_v, = merge_clusters(asg, vals)
    assert np.array_equal(agg_k, keys[0])
    assert np.array_equal(agg_v, vals[0])


def test_merge_identical_members():
    asg = ClusterAssignment(np.array([0, 0]), np.array([0]), np.array([0, 1]), np.array([2]),
                            np.array([0.3, 0.7]), (np.array([0, 0]), np.array([0, 1])))
    keys = np.array([[2.0, 2.0], [2.0, 2.0]])
    vals = np.array([[1.0, 0.0], [1.0, 0.0]])
    agg_k, = merge_clusters(asg, keys)
    agg_v, = merge_clusters(asg, vals)
    assert np.allclose(agg_k, [2.0, 2.0], atol=1e-15)
    assert np.allclose(agg_v, [1.0, 0.0], atol=1e-15)


def test_merge_equal_saliency_averages():
    pts = np.array([[1.0, 0.0], [0.0, 1.0]])
    out = cluster_pruned(pts, np.array([0.5, 0.5]), k=1)
    agg_k, = merge_clusters(out, pts)
    assert np.allclose(agg_k, [0.5, 0.5], atol=1e-12)


@st.composite
def grid_clusterings(draw):
    """Points on a 3x3x3 integer grid with integer saliencies, so distances,
    densities and saliencies tie, plus rows to merge."""
    n = draw(st.integers(1, 130))
    ints = arrays(np.int64, (n, 3), elements=st.integers(0, 2))
    return (draw(ints).astype(np.float64),
            draw(arrays(np.int64, n, elements=st.integers(-2, 2))).astype(np.float64),
            draw(arrays(np.float64, (n, 4), elements=st.floats(-4.0, 4.0))),
            draw(st.integers(1, 12)), draw(st.floats(0.01, 1.0)))


@settings(max_examples=60, deadline=None)
@given(grid_clusterings())
def test_flat_assignment_layout_and_merge(case):
    """The flat assignment lists every point once, cluster by cluster and
    ascending within each; each cluster's slice of the weights is the
    softmax of its members' saliencies, and its merged row the weighted sum
    of its members' rows, bit for bit."""
    points, deltas, rows, k, rho_merge = case
    n = points.shape[0]
    out = cluster_pruned(points, deltas, k, rho_merge=rho_merge)
    assert sorted(out.members.tolist()) == list(range(n))
    assert np.array_equal(out.sizes, np.bincount(out.labels))
    assert np.array_equal(out.labels[out.centers], np.arange(out.n_clusters))
    merged = merge_clusters(out, rows)
    assert merged.shape == (out.n_clusters, rows.shape[1])
    ends = np.cumsum(out.sizes)
    for c, (a, b) in enumerate(zip(ends - out.sizes, ends)):
        members, weights = out.members[a:b], out.weights[a:b]
        assert np.all(out.labels[members] == c)
        assert np.all(np.diff(members) > 0)
        assert np.all(out.cell[0][a:b] == c) and np.array_equal(out.cell[1][a:b], np.arange(b - a))
        assert weights.tobytes() == stable_softmax(deltas[members]).tobytes()
        assert merged[c].tobytes() == weighted_sum_rows(weights, rows[members]).tobytes()


# ------------------------------------------------- clustering regression pin

CLUSTER_FIXTURE = Path(__file__).with_name("cluster_fixture.json")
CLUSTER_NS = list(range(1, 41)) + [64, 100, 128, 256, 512]
CLUSTER_KS = range(1, 13)  # numpy's mean sums pairwise from 8 terms up
CLUSTER_FIELDS = ("labels", "centers", "members", "weights", "merged")


def _cluster_case(kind: str, n: int):
    """Seeded (points, deltas, rows): normal points, or a 3x3x3 integer grid
    whose duplicates and tied saliencies exercise every tie-break."""
    rng = np.random.default_rng([("normal", "grid").index(kind), n])
    if kind == "normal":
        points = rng.normal(size=(n, 6))
        deltas = rng.normal(size=n)
    else:
        points = rng.integers(0, 3, size=(n, 3)).astype(np.float64)
        deltas = rng.integers(-2, 3, size=n).astype(np.float64)
    return points, deltas, rng.normal(size=(n, 5))


def _cluster_digests(kind: str, n: int) -> dict:
    points, deltas, rows = _cluster_case(kind, n)
    hashes = {name: hashlib.sha256() for name in CLUSTER_FIELDS}
    for k in CLUSTER_KS:
        out = cluster_pruned(points, deltas, k)
        hashes["labels"].update(out.labels.astype(np.int64).tobytes())
        hashes["centers"].update(out.centers.astype(np.int64).tobytes())
        hashes["members"].update(out.sizes.astype(np.int64).tobytes())
        hashes["members"].update(out.members.astype(np.int64).tobytes())
        hashes["weights"].update(out.weights.tobytes())
        hashes["merged"].update(np.ascontiguousarray(merge_clusters(out, rows)).tobytes())
    return {name: h.hexdigest() for name, h in hashes.items()}


def test_clustering_and_merge_match_pinned_digests():
    """Labels, centers, members and the bytes of the weights and merged rows
    are pinned for n up to 512 and k up to 12, so a change to the clustering
    or merge arithmetic that moves one bit fails here."""
    pinned = json.loads(CLUSTER_FIXTURE.read_text())
    assert len(pinned) == 2 * len(CLUSTER_NS)
    for kind in ("normal", "grid"):
        for n in CLUSTER_NS:
            assert _cluster_digests(kind, n) == pinned[f"{kind}/{n}"], (kind, n)
