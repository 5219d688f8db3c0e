from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd import numerics
from sparsevcd.numerics import (CAUSAL_BLOCK, EINSUM_MIN_TERMS, NEG_INF,
                                causal_attention, causal_weighted_sum, matvec,
                                stable_softmax, weighted_sum_rows)

# expected values frozen from an mpmath (50-digit) softmax evaluation
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]


def dot(a, b) -> float:
    """An inner product is ``matvec`` on a one-row matrix."""
    return float(matvec([a], b)[0])


def test_dot_orthogonal():
    assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_dot_hand_arithmetic():
    assert dot([2.0, 3.0], [4.0, 5.0]) == 23.0


def test_dot_repeated_small_terms():
    # oracle: left-to-right direct summation of 0.01 eight times
    x = [0.1] * 8
    expected = 0.0
    for v in x:
        expected += v * v
    assert abs(dot(x, x) - 0.08) < 1e-15
    assert dot(x, x) == expected


def test_dot_length_mismatch():
    with pytest.raises(ValueError):
        dot([1.0, 2.0], [1.0])


def test_matvec_identity():
    v = np.array([3.0, -1.0, 2.5])
    assert np.array_equal(matvec(np.eye(3), v), v)


def test_matvec_zero_matrix():
    assert np.array_equal(matvec(np.zeros((4, 3)), [1.0, 2.0, 3.0]), np.zeros(4))


def test_matvec_hand_arithmetic():
    out = matvec([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0])
    assert np.array_equal(out, [3.0, 7.0])


def test_matvec_shape_mismatch():
    with pytest.raises(ValueError):
        matvec(np.zeros((2, 3)), [1.0, 2.0])


def test_softmax_constant_input():
    for c in (0.0, -17.25, 400.0):
        out = stable_softmax([c, c, c])
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)


def test_softmax_masked_entry():
    out = stable_softmax([NEG_INF, 0.0])
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_softmax_against_extended_precision_reference():
    out = stable_softmax([1.0, 2.0, 3.0])
    assert np.allclose(out, SOFTMAX_123, atol=1e-12, rtol=0.0)


def test_softmax_empty_support():
    with pytest.raises(ValueError, match="empty support"):
        stable_softmax([NEG_INF, NEG_INF])
    with pytest.raises(ValueError):
        stable_softmax([])


@given(st.integers(0, 3), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.sampled_from(["finite", "all -inf", "+inf", "nan"]))
@settings(max_examples=200, deadline=None)
def test_softmax_rejects_non_finite_rows_and_keeps_its_bits(heads, n, seed, poison):
    # heads == 0 is a vector, else a (heads, n) head block; one row may be
    # poisoned: all -inf (an empty support), or holding +inf or NaN
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=10.0, size=(max(heads, 1), n))
    x[rng.random(x.shape) < 0.3] = NEG_INF
    x[:, rng.integers(n)] = rng.normal(size=len(x))  # every row keeps a finite entry
    bad = int(rng.integers(len(x)))
    if poison == "all -inf":
        x[bad] = NEG_INF
    elif poison != "finite":
        x[bad, rng.integers(n)] = np.inf if poison == "+inf" else np.nan
    if heads == 0:
        x = x[0]
    before = x.copy()
    if poison == "finite":
        # the formula the in-place kernel replaced, bit for bit
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        expected = e / np.add.accumulate(e, axis=-1)[..., -1:]
        assert stable_softmax(x).tobytes() == expected.tobytes()
    else:
        match = "empty support" if poison == "all -inf" else "non-finite"
        with pytest.raises(ValueError, match=match):
            stable_softmax(x)
    assert x.tobytes() == before.tobytes()  # the input is never written


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=32),
       st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
@settings(max_examples=200, deadline=None)
def test_softmax_sums_to_one_across_magnitudes(xs, scale):
    out = stable_softmax(np.array(xs) * scale)
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out >= 0.0)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=16),
       st.floats(min_value=-100, max_value=100))
@settings(max_examples=200, deadline=None)
def test_softmax_shift_invariance(xs, c):
    a = stable_softmax(np.array(xs))
    b = stable_softmax(np.array(xs) + c)
    assert np.allclose(a, b, atol=1e-12)


def test_bit_exact_repeatability():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(23, 17))
    v = rng.normal(size=17)
    first = matvec(m, v)
    for _ in range(5):
        assert np.array_equal(matvec(m, v), first)
    assert dot(v, v) == dot(v, v)


def test_weighted_sum_rows_matches_manual():
    w = np.array([0.25, 0.75])
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = weighted_sum_rows(w, m)
    assert np.allclose(out, [0.25 * 1 + 0.75 * 3, 0.25 * 2 + 0.75 * 4], atol=1e-15)


# ------------------------------------------------------- row-batched kernels

def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_row_matvec(m, v):
    """Reference: each row's products summed left to right on their own."""
    return np.array([np.add.accumulate(row * v)[-1] if v.shape[0] else 0.0
                     for row in m])


@given(st.integers(0, 40), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_matvec_is_per_row_accumulate_bitwise(cols, frac, column_major, seed):
    # terms from 0 to twice the einsum threshold, on row-major matrices
    # (copied rows-fastest for the einsum) and column-major ones
    rows = int(frac * 2 * EINSUM_MIN_TERMS / max(cols, 1))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, cols))
    if column_major:
        m = np.asfortranarray(m)
    v = rng.normal(size=cols)
    got = matvec(m, v)
    assert got.shape == (rows,)
    assert bitwise_equal(got, per_row_matvec(m, v))


@pytest.mark.parametrize("cols", [1, 8, 40])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_matvec_kernels_agree_at_the_threshold(cols, offset):
    rng = np.random.default_rng(cols)
    m = np.asfortranarray(rng.normal(size=(EINSUM_MIN_TERMS // cols + offset, cols)))
    v = rng.normal(size=cols)
    assert bitwise_equal(matvec(m, v), per_row_matvec(m, v))


@given(st.integers(1, 4), st.integers(1, 16), st.floats(0.0, 1.0), st.booleans(),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_head_blocks_are_per_head_calls_bitwise(heads, cols, frac, column_major, seed):
    # terms from 0 to twice the einsum threshold for the whole block, so
    # both paths are drawn, on row-major and column-major blocks
    rows = int(frac * 2 * EINSUM_MIN_TERMS / (cols * heads))
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(heads, rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(heads, rows, cols))
    if column_major:
        block = np.ascontiguousarray(block.transpose(0, 2, 1)).transpose(0, 2, 1)
    q = rng.normal(size=(heads, cols))
    got = matvec(block, q)
    assert got.shape == (heads, rows)
    for g in range(heads):
        assert bitwise_equal(got[g], per_row_matvec(block[g], q[g]))
    # against a row block of queries: each head's rows in turn
    xs = rng.normal(size=(3, heads, cols))
    got = matvec(block, xs)
    assert got.shape == (3, heads, rows)
    for i in range(3):
        for g in range(heads):
            assert bitwise_equal(got[i, g], matvec(block[g], xs[i, g]))
    if rows == 0:
        return
    w = rng.uniform(size=(heads, rows))
    scores = rng.normal(size=(heads, rows)) * 30.0
    ctx = weighted_sum_rows(w, block)
    probs = stable_softmax(scores)
    for g in range(heads):
        assert bitwise_equal(ctx[g], np.add.accumulate(w[g][:, None] * block[g], axis=0)[-1])
        assert bitwise_equal(probs[g], stable_softmax(scores[g]))


def test_head_blocks_reject_bad_shapes():
    with pytest.raises(ValueError):
        matvec(np.ones((2, 3, 4)), np.ones((3, 4)))
    with pytest.raises(ValueError):
        matvec(np.ones((1, 2, 3, 4)), np.ones((1, 2, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):  # two batch axes
        matvec(np.ones((2, 3, 4)), np.ones((5, 1, 2, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):
        matvec(np.ones((3, 4)), np.ones((5, 2, 4)))
    with pytest.raises(ValueError, match="shape mismatch"):  # wrong head count
        matvec(np.ones((2, 3, 4)), np.ones((5, 3, 4)))
    with pytest.raises(ValueError):
        weighted_sum_rows(np.ones((2, 3)), np.ones((2, 4, 5)))
    with pytest.raises(ValueError):
        weighted_sum_rows(np.ones((2, 0)), np.ones((2, 0, 5)))
    with pytest.raises(ValueError, match="empty support"):
        stable_softmax([[0.0, 1.0], [NEG_INF, NEG_INF]])
    with pytest.raises(ValueError):
        stable_softmax(np.ones((2, 2, 2)))


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_matvec_row_block_is_per_row_matvec_bitwise(rows, cols, out, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(out, cols)) * 10.0 ** rng.integers(-3, 4, size=(out, cols))
    xs = rng.normal(size=(rows, cols))
    got = matvec(m, xs)
    assert got.shape == (rows, out)
    for i in range(rows):
        assert bitwise_equal(got[i], matvec(m, xs[i]))


def qkv_rows(rng, n, d, e):
    """Queries, keys and values whose scores span several orders of magnitude."""
    q = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-2, 2, size=(n, 1))
    return q, rng.normal(size=(n, d)) * 3.0, rng.normal(size=(n, e))


@given(st.integers(1, 150), st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_causal_kernels_are_per_prefix_calls_bitwise(n, d, e, seed):
    rng = np.random.default_rng(seed)
    q, k, v = qkv_rows(rng, n, d, e)
    scale = np.sqrt(d)
    ctx = causal_attention(q, k, v, scale)
    assert ctx.shape == (n, e)
    for i in range(n):
        row = stable_softmax(matvec(k[: i + 1], q[i]) / scale)
        assert bitwise_equal(ctx[i], weighted_sum_rows(row, v[: i + 1]))


def zero_column(rng, kind, n):
    """A value column whose prefix sums come out exactly zero: all ``-0.0``;
    a run of ``-0.0`` then mixed ``±0.0`` (a later ``+0.0`` would turn the
    run's ``-0.0`` sums positive); or ``±c`` in turn, which cancels to
    ``+0.0`` at every even prefix under equal weights."""
    if kind == "-0.0":
        return np.full(n, -0.0)
    if kind == "±0.0":
        mixed = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        return np.where(np.arange(n) < rng.integers(1, n + 1), -0.0, mixed)
    return rng.normal() * (-1.0) ** np.arange(n)


@given(st.integers(1, 150), st.integers(1, 4), st.sampled_from(["-0.0", "±0.0", "cancel"]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_causal_kernels_keep_exact_zero_sums_bitwise(n, e, kind, seed):
    rng = np.random.default_rng(seed)
    q, k, v = qkv_rows(rng, n, 4, e)
    v[:, -1] = zero_column(rng, kind, n)
    weights = np.tril(rng.uniform(size=(n, n)))
    if kind == "cancel":
        k[:] = k[0]  # a row's scores are all equal, and so are its weights
        weights = np.tril(np.full((n, n), rng.uniform()))
    with mock.patch.object(numerics, "_prefix_sums", wraps=numerics._prefix_sums) as resums:
        ctx = causal_attention(q, k, v, 2.0)
        summed = causal_weighted_sum(weights, v)
    assert resums.call_count > 0 or (kind == "cancel" and n == 1)
    for i in range(n):
        row = stable_softmax(matvec(k[: i + 1], q[i]) / 2.0)
        assert bitwise_equal(ctx[i], weighted_sum_rows(row, v[: i + 1]))
        assert bitwise_equal(summed[i], weighted_sum_rows(weights[i, : i + 1], v[: i + 1]))
    if kind == "-0.0":
        assert np.signbit(ctx[:, -1]).all() and np.signbit(summed[:, -1]).all()


def test_causal_rows_reduce_only_over_the_prefix():
    rng = np.random.default_rng(3)
    n = 2 * CAUSAL_BLOCK + 9
    q, k, v = qkv_rows(rng, n, 4, 3)
    clean = causal_attention(q, k, v, 2.0)
    for i in (0, 5, CAUSAL_BLOCK - 1, CAUSAL_BLOCK, CAUSAL_BLOCK + 1, n - 2):
        # inf keys would make the later rows' own softmax raise
        noise = rng.normal(size=(n - i - 1, 1)) * 1e6
        for later_v in (noise, np.inf):
            k2, v2 = k.copy(), v.copy()
            k2[i + 1:] = noise
            v2[i + 1:] = later_v
            # rows after i may turn inf or nan; rows up to i must not notice
            with np.errstate(invalid="ignore", over="ignore"):
                got = causal_attention(q, k2, v2, 2.0)
            assert bitwise_equal(got[: i + 1], clean[: i + 1])
    weights = rng.uniform(size=(9, 9))
    noisy_weights = weights.copy()
    noisy_weights[np.triu_indices(9, 1)] = 1e300
    values = rng.normal(size=(9, 4))
    assert bitwise_equal(causal_weighted_sum(noisy_weights, values),
                         causal_weighted_sum(np.tril(weights), values))


@pytest.mark.parametrize("n", [1, 2, CAUSAL_BLOCK, CAUSAL_BLOCK + 1, 2 * CAUSAL_BLOCK + 3])
def test_causal_attention_does_not_depend_on_the_block_size(n, monkeypatch):
    q, k, v = qkv_rows(np.random.default_rng(n), n, 8, 8)
    outs = []
    for block in (1, 2, 3, 64, n + 5):
        monkeypatch.setattr(numerics, "CAUSAL_BLOCK", block)
        outs.append(causal_attention(q, k, v, np.sqrt(8)).tobytes())
    assert outs == [outs[0]] * len(outs)


def test_row_batched_kernels_edge_shapes():
    assert bitwise_equal(matvec([[2.0, 3.0]], [[1.0, 1.0]]), [[5.0]])
    assert bitwise_equal(matvec(np.ones((3, 0)), np.ones((2, 0))), np.zeros((2, 3)))
    assert matvec(np.ones((3, 2)), np.ones((0, 2))).shape == (0, 3)
    assert bitwise_equal(causal_attention([[-5.0]], [[3.0]], [[2.0, 3.0]], 2.0), [[2.0, 3.0]])
    assert bitwise_equal(causal_weighted_sum([[1.0]], [[2.0, 3.0]]), [[2.0, 3.0]])


def test_row_batched_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        matvec(np.ones((3, 4)), np.ones((2, 5)))
    with pytest.raises(ValueError):
        matvec(np.ones(4), np.ones((2, 4)))
    with pytest.raises(ValueError):
        causal_attention(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError):
        causal_attention(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 3)), 1.0)
    with pytest.raises(ValueError, match="empty support"):
        causal_attention([[NEG_INF]], [[1.0]], [[1.0]], 1.0)
    with pytest.raises(ValueError, match="empty support"):
        causal_attention(np.ones((0, 2)), np.ones((0, 2)), np.ones((0, 2)), 1.0)
    with pytest.raises(ValueError):
        causal_weighted_sum(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        causal_weighted_sum(np.ones((3, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        causal_weighted_sum(np.ones((0, 0)), np.ones((0, 2)))
