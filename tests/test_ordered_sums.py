"""The engine's long sums against their sequential references, bit for bit.

``matvec``, ``weighted_sum_rows``, ``causal_weighted_sum`` and the models'
pooling run long sums through one ``np.einsum`` and short ones through
``np.add.accumulate``. Every case here must equal the plain sequential
reference: ``np.add.accumulate`` along the summed axis (which adds each
element's terms one by one, in order), or for the causal sum a Python loop
over the causal suffix.

Run as a script (``python tests/test_ordered_sums.py``) it prints a digest
of the kernels over a fixed grid; the dispatch test compares that digest
across numpy's CPU dispatch settings.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd import numerics
from sparsevcd.config import ModelConfig
from sparsevcd.models import ToyTransformer, model_from_config
from sparsevcd.numerics import (EINSUM_MIN_TERMS, causal_weighted_sum, matvec,
                                weighted_sum_rows)

SRC = Path(__file__).resolve().parent.parent / "src"

# numpy's own switch for its SIMD kernels: the default (AVX-512 on hosts that
# have it), the AVX2 kernels, and the baseline kernels
DISPATCH_SETTINGS = ["", "X86_V4 AVX512_ICL AVX512_SPR",
                     "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"]

TOY = ToyTransformer(0)
COMPOSER = model_from_config(ModelConfig(kind="composer", vocab=20))


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def laid_out(x, layout):
    """``x`` in C order, in Fortran order, or as the cache hands out keys
    and values: rows fastest, inside a wider buffer."""
    if layout == "C":
        return np.ascontiguousarray(x)
    if layout == "F":
        return np.asfortranarray(x)
    n = x.shape[-2]
    buf = np.zeros(x.shape[:-2] + (x.shape[-1], 2 * n + 3))
    buf[..., :n] = x.swapaxes(-1, -2)
    return buf[..., :n].swapaxes(-1, -2)


def spread(rng, shape, binades):
    """Normal draws scaled by powers of two in ``[-binades, binades]``;
    ``np.ldexp`` is exact, so the inputs do not depend on the CPU dispatch
    (``10.0 ** k`` does)."""
    return np.ldexp(rng.normal(size=shape), rng.integers(-binades, binades + 1, size=shape))


# ---------------------------------------------------------------- references

def sequential_matvec(m, v):
    return np.add.accumulate(m * v[..., None, :], axis=-1)[..., -1]


def sequential_weighted_sum(w, m):
    return np.add.accumulate(w[..., None] * m, axis=-2)[..., -1, :]


def suffix_loop(w, m):
    """Row ``i`` adds ``w[i, j] * m[j]`` for ``j = 0..i``, one ``j`` at a time."""
    out = w[:, 0:1] * m[0]
    for j in range(1, m.shape[0]):
        out[j:] += w[j:, j:j + 1] * m[j]
    return out


# -------------------------------------------------------------- properties

lengths = st.one_of(st.sampled_from([1, 2, 63, 64, 65]), st.integers(1, 4100))
features = st.sampled_from([1, 2, 8, 40])
layouts = st.sampled_from(["cache", "C", "F"])
# 2**996 is about 6.7e299
scales = st.sampled_from([0, 10, 996])
seeds = st.integers(0, 2**32 - 1)


@given(lengths, features, st.integers(1, 3), layouts, scales, st.booleans(), seeds)
@settings(max_examples=80, deadline=None)
def test_matvec_is_the_sequential_sum(n, k, heads, layout, binades, zero_row, seed):
    rng = np.random.default_rng(seed)
    m = spread(rng, (heads, n, k), binades)
    q = np.abs(rng.normal(size=(heads, k))) + 0.5
    if zero_row:
        m[:, rng.integers(n)] = -0.0
    block = laid_out(m, layout)
    assert bitwise_equal(matvec(block, q), sequential_matvec(block, q))
    lone = laid_out(m[0], layout)
    got = matvec(lone, q[0])
    assert bitwise_equal(got, sequential_matvec(lone, q[0]))
    if zero_row:
        assert np.signbit(got[np.all(m[0] == 0.0, axis=-1)]).all()
    xs = rng.normal(size=(3, k))
    rows = np.add.accumulate(lone[None] * xs[:, None], axis=-1)[..., -1]
    assert bitwise_equal(matvec(lone, xs), rows)
    xs = rng.normal(size=(3, heads, k))
    rows = np.add.accumulate(block[None] * xs[:, :, None], axis=-1)[..., -1]
    assert bitwise_equal(matvec(block, xs), rows)


@given(lengths, features, st.integers(1, 3), layouts, scales, st.booleans(), seeds)
@settings(max_examples=80, deadline=None)
def test_weighted_sum_rows_is_the_sequential_sum(n, k, heads, layout, binades, zero_col, seed):
    rng = np.random.default_rng(seed)
    m = spread(rng, (heads, n, k), binades)
    w = rng.uniform(size=(heads, n))
    if zero_col:
        m[..., -1] = -0.0
    block = laid_out(m, layout)
    got = weighted_sum_rows(w, block)
    assert bitwise_equal(got, sequential_weighted_sum(w, block))
    assert bitwise_equal(weighted_sum_rows(w[0], laid_out(m[0], layout)),
                         sequential_weighted_sum(w[0], m[0]))
    if zero_col:
        assert np.signbit(got[:, -1]).all()


@given(st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128, 129]), st.integers(1, 200)),
       features, scales, st.booleans(), seeds)
@settings(max_examples=60, deadline=None)
def test_causal_weighted_sum_is_the_suffix_loop(n, f, binades, zero_col, seed):
    rng = np.random.default_rng(seed)
    values = spread(rng, (n, f), binades)
    if zero_col:
        values[:, -1] = -0.0
    weights = np.tril(rng.uniform(size=(n, n)))
    got = causal_weighted_sum(weights, values)
    assert bitwise_equal(got, suffix_loop(weights, values))
    if zero_col:
        assert np.signbit(got[:, -1]).all()


@given(lengths, st.sampled_from([1, 2, 16, 40]), scales, st.booleans(), seeds)
@settings(max_examples=60, deadline=None)
def test_pooling_is_the_sequential_sum(n, d, binades, zero_col, seed):
    rng = np.random.default_rng(seed)
    embs = spread(rng, (n, d), binades)
    if zero_col:
        embs[:, 0] = -0.0
    total = np.add.accumulate(embs, axis=0)[-1]
    assert bitwise_equal(COMPOSER.pool_embeddings(embs), total)
    assert bitwise_equal(TOY.pool_embeddings(embs, "mean"), total / float(n))
    if zero_col:
        assert np.signbit(COMPOSER.pool_embeddings(embs)[0])


# ------------------------------------------------------------- fixed cases

A = 1.0 + 2.0**-30
C = -(1.0 + 2.0**-29)


def test_products_are_rounded_before_they_are_added():
    # a * a is 1 + 2**-29 + 2**-60; rounded, it cancels C exactly, while a
    # fused multiply-add would keep the 2**-60
    n = EINSUM_MIN_TERMS
    rows = np.asfortranarray(np.tile([C, A], (n, 1)))
    assert bitwise_equal(matvec(rows, [1.0, A]), np.zeros(n))
    assert bitwise_equal(matvec(rows, np.tile([1.0, A], (3, 1))), np.zeros((3, n)))
    pair = np.array([[C] * n, [A] * n])
    assert bitwise_equal(weighted_sum_rows([1.0, A], pair), np.zeros(n))
    got = causal_weighted_sum([[1.0, 0.0], [1.0, A]], pair)
    assert bitwise_equal(got[1], np.zeros(n))


def test_long_sums_take_the_einsum_path():
    # without this the properties above could pass on accumulate alone
    rng = np.random.default_rng(0)
    keys = laid_out(rng.normal(size=(2, EINSUM_MIN_TERMS, 8)), "cache")
    with mock.patch.object(numerics.np, "einsum", wraps=np.einsum) as einsum:
        matvec(keys, rng.normal(size=(2, 8)))
        weighted_sum_rows(rng.uniform(size=(2, EINSUM_MIN_TERMS)), keys)
        causal_weighted_sum(np.tril(rng.uniform(size=(200, 200))), rng.normal(size=(200, 8)))
        TOY.pool_embeddings(rng.normal(size=(EINSUM_MIN_TERMS, 16)))
    assert einsum.call_count >= 6
    with mock.patch.object(numerics.np, "einsum", wraps=np.einsum) as einsum:
        matvec(keys[:, :4], rng.normal(size=(2, 8)))
        COMPOSER.pool_embeddings(rng.normal(size=(14, 40)))
    assert einsum.call_count == 0


# ---------------------------------------------------------------- dispatch

def kernel_digest() -> str:
    """SHA-256 over the four kernels' outputs on a fixed grid of lengths,
    widths, layouts and magnitudes (``exp`` is not involved)."""
    h = hashlib.sha256()
    rng = np.random.default_rng(20261019)
    for n in (1, 2, 63, 64, 65, 300, 2100):
        for k in (1, 8, 40):
            for layout in ("cache", "C", "F"):
                m = spread(rng, (2, n, k), 996)
                block = laid_out(m, layout)
                q = rng.normal(size=(2, k))
                w = rng.uniform(size=(2, n))
                h.update(matvec(block, q).tobytes())
                h.update(matvec(block[0], rng.normal(size=(3, k))).tobytes())
                h.update(weighted_sum_rows(w, block).tobytes())
                h.update(TOY.pool_embeddings(m[0]).tobytes())
            if n <= 300:
                h.update(causal_weighted_sum(np.tril(rng.uniform(size=(n, n))),
                                             spread(rng, (n, k), 996)).tobytes())
    return h.hexdigest()


def test_kernel_digests_do_not_depend_on_the_cpu_dispatch():
    digests = []
    for setting in DISPATCH_SETTINGS:
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=setting,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        digests.append(done.stdout.strip())
    assert digests[0] == kernel_digest()
    assert digests == [digests[0]] * len(DISPATCH_SETTINGS), dict(zip(DISPATCH_SETTINGS, digests))


if __name__ == "__main__":
    print(kernel_digest())
