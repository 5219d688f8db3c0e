import numpy as np
import pytest

from sparsevcd.cache import KvCache
from sparsevcd.numerics import stable_softmax
from sparsevcd.sac import calibrate_scores

# frozen from an mpmath (50-digit) softmax of [3, 1, 0]
SOFTMAX_310 = [0.8437947344813395, 0.11419519938459448, 0.04201006613406605]


def test_uniform_history_gives_uniform_weights():
    w = stable_softmax([5.0, 5.0, 5.0, 5.0])
    assert np.allclose(w, 0.25, atol=1e-12)
    assert abs(w.sum() - 1.0) < 1e-9


def test_dominant_column_is_strict_max():
    w = stable_softmax([1.0, 9.0, 1.5, 0.0])
    assert int(np.argmax(w)) == 1
    assert w[1] > max(w[0], w[2], w[3])


def test_weights_match_softmax_reference():
    w = stable_softmax([3.0, 1.0, 0.0])
    assert np.allclose(w, SOFTMAX_310, atol=1e-12, rtol=0.0)


def test_weights_from_cache_support():
    cache = KvCache(1, 1, 2)
    for i in range(3):
        cache.append(0, [[float(i), 0.0]], [[0.0, 1.0]])
    cache.c_view(0, 0)[:] = np.array([3.0, 1.0, 0.0])
    w = stable_softmax(cache.support(0).c[0])
    assert np.allclose(w, SOFTMAX_310, atol=1e-12)


def test_weights_empty_error():
    with pytest.raises(ValueError):
        stable_softmax([])
    cache = KvCache(1, 1, 2)
    with pytest.raises(ValueError):
        stable_softmax(cache.support(0).c[0])


def test_beta_zero_is_bit_exact_identity():
    rng = np.random.default_rng(5)
    s = rng.normal(size=33)
    w = rng.dirichlet(np.ones(33))
    out = calibrate_scores(s, w, 0.0)
    assert np.array_equal(out, s)


def test_degenerate_single_token_identity():
    s = np.array([1.7])
    out = calibrate_scores(s, np.array([1.0]), 0.3)
    assert abs(out[0] - s[0]) < 1e-12


def test_penalty_monotone_in_weight():
    # equal positive raw scores: the heavier-weighted token scores lower
    rng = np.random.default_rng(8)
    for _ in range(200):
        s_val = float(rng.random() * 10 + 0.1)
        w = rng.dirichlet(np.ones(4))
        beta = float(rng.random() * 2 + 0.01)
        out = calibrate_scores(np.full(4, s_val), w, beta)
        order_w = np.argsort(w)
        for lo, hi in zip(order_w[:-1], order_w[1:]):
            if w[hi] > w[lo]:
                assert out[hi] < out[lo]


def test_post_calibration_softmax_normalised():
    rng = np.random.default_rng(12)
    for _ in range(50):
        s = rng.normal(size=10)
        w = rng.dirichlet(np.ones(10))
        cal = calibrate_scores(s, w, 0.1)
        assert abs(stable_softmax(cal).sum() - 1.0) < 1e-9


def test_default_beta_value():
    from sparsevcd.config import SparsifyConfig
    assert SparsifyConfig().beta == 0.1
