import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd.numerics import (COLUMN_LOOP_RATIO, NEG_INF, causal_softmax,
                                causal_weighted_sum, dot, matvec, matvec_rows,
                                stable_softmax, weighted_sum_rows)

# expected values frozen from an mpmath (50-digit) softmax evaluation
SOFTMAX_123 = [0.09003057317038046, 0.24472847105479764, 0.6652409557748219]


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


@given(st.integers(0, 40), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_matvec_is_per_row_accumulate_bitwise(cols, frac, seed):
    # rows from 0 to twice the column-loop threshold for this column count,
    # so both kernels are drawn
    rows = int(frac * 2 * COLUMN_LOOP_RATIO * max(cols, 1))
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4, size=(rows, cols))
    v = rng.normal(size=cols)
    got = matvec(m, v)
    assert got.shape == (rows,)
    assert bitwise_equal(got, per_row_matvec(m, v))


@pytest.mark.parametrize("cols", [1, 8, 40])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_matvec_kernels_agree_at_the_threshold(cols, offset):
    rng = np.random.default_rng(cols)
    m = rng.normal(size=(COLUMN_LOOP_RATIO * cols + offset, cols))
    v = rng.normal(size=cols)
    assert bitwise_equal(matvec(m, v), per_row_matvec(m, v))


@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_matvec_rows_is_per_row_matvec_bitwise(rows, cols, out, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(out, cols)) * 10.0 ** rng.integers(-3, 4, size=(out, cols))
    xs = rng.normal(size=(rows, cols))
    got = matvec_rows(m, xs)
    assert got.shape == (rows, out)
    for i in range(rows):
        assert bitwise_equal(got[i], matvec(m, xs[i]))


@given(st.integers(1, 40), st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_causal_kernels_are_per_prefix_calls_bitwise(n, cols, seed):
    rng = np.random.default_rng(seed)
    scores = rng.normal(size=(n, n)) * 30.0
    values = rng.normal(size=(n, cols))
    weights = causal_softmax(scores)
    ctx = causal_weighted_sum(weights, values)
    for i in range(n):
        assert bitwise_equal(weights[i, : i + 1], stable_softmax(scores[i, : i + 1]))
        assert bitwise_equal(ctx[i], weighted_sum_rows(weights[i, : i + 1], values[: i + 1]))
    assert np.all(weights[np.triu_indices(n, 1)] == 0.0)


def test_causal_rows_reduce_only_over_the_prefix():
    rng = np.random.default_rng(3)
    n = 9
    scores = rng.normal(size=(n, n))
    weights = rng.uniform(size=(n, n))
    values = rng.normal(size=(n, 4))
    noisy_scores, noisy_weights = scores.copy(), weights.copy()
    upper = np.triu_indices(n, 1)
    noisy_scores[upper] = np.inf
    noisy_weights[upper] = 1e300
    for i in range(n):
        later_values = values.copy()
        later_values[i + 1:] = rng.normal(size=(n - i - 1, 4)) * 1e6
        assert bitwise_equal(causal_weighted_sum(weights, later_values)[i],
                             causal_weighted_sum(weights, values)[i])
    assert bitwise_equal(causal_softmax(noisy_scores), causal_softmax(scores))
    assert bitwise_equal(causal_weighted_sum(noisy_weights, values),
                         causal_weighted_sum(np.tril(weights), values))


def test_row_batched_kernels_edge_shapes():
    assert bitwise_equal(matvec_rows([[2.0, 3.0]], [[1.0, 1.0]]), [[5.0]])
    assert bitwise_equal(matvec_rows(np.ones((3, 0)), np.ones((2, 0))), np.zeros((2, 3)))
    assert matvec_rows(np.ones((3, 2)), np.ones((0, 2))).shape == (0, 3)
    assert bitwise_equal(causal_softmax([[-5.0]]), [[1.0]])
    assert bitwise_equal(causal_weighted_sum([[1.0]], [[2.0, 3.0]]), [[2.0, 3.0]])


def test_row_batched_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        matvec_rows(np.ones((3, 4)), np.ones((2, 5)))
    with pytest.raises(ValueError):
        matvec_rows(np.ones(4), np.ones((2, 4)))
    with pytest.raises(ValueError):
        causal_softmax(np.ones((2, 3)))
    with pytest.raises(ValueError):
        causal_softmax([[NEG_INF]])
    with pytest.raises(ValueError):
        causal_softmax(np.ones((0, 0)))
    with pytest.raises(ValueError):
        causal_weighted_sum(np.ones((2, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        causal_weighted_sum(np.ones((3, 3)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        causal_weighted_sum(np.ones((0, 0)), np.ones((0, 2)))
