"""SplitMix64 block draws against the scalar stream, and the toy
transformer's weights pinned bit for bit.

``SplitMix64.uniforms(n)`` draws ``n`` values in one block of numpy
``uint64`` arithmetic; it must equal ``n`` calls of ``uniform()`` bitwise
and leave the stream where they would. The weight digest below was captured
from the scalar draws before the model moved to block draws.

Run as a script (``python tests/test_rng.py``) it prints the weight digest;
the dispatch test compares that digest across numpy's CPU dispatch settings.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsevcd.models import ToyTransformer
from sparsevcd.rng import SplitMix64

SRC = Path(__file__).resolve().parent.parent / "src"
GAMMA = 0x9E3779B97F4A7C15
MAX64 = 2**64 - 1

# numpy's own switch for its SIMD kernels, as in tests/test_ordered_sums.py
DISPATCH_SETTINGS = ["", "X86_V4 AVX512_ICL AVX512_SPR",
                     "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"]

WEIGHT_CONFIGS = [
    dict(seed=0),
    dict(seed=3, d_model=32),
    dict(seed=MAX64, d_model=8, layers=1, vocab=8),
    dict(seed=0, d_model=24, heads=3),
]

# sha256 of weight_digest()'s arrays, captured from the scalar draws
WEIGHT_DIGEST = "e2b87739c7c0119b3736fb4812142bbeff09264c631ad402665a1c157155e384"


def scalar_draws(seed, n):
    rng = SplitMix64(seed)
    return np.array([rng.uniform() for _ in range(n)], dtype=np.float64), rng


# -------------------------------------------------------------- block draws

seeds = st.one_of(
    st.sampled_from([0, 1, MAX64, MAX64 - GAMMA + 1]),
    # seeds whose state wraps past 2**64 within the first few draws
    st.integers(1, 8).map(lambda k: (-k * GAMMA) % 2**64),
    st.integers(0, MAX64),
)


@given(seeds, st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 300)))
@settings(max_examples=150, deadline=None)
def test_block_draw_is_the_scalar_draws(seed, n):
    want, scalar = scalar_draws(seed, n)
    block = SplitMix64(seed)
    got = block.uniforms(n)
    assert got.dtype == np.float64 and got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert block.state == scalar.state
    assert block.next_u64() == scalar.next_u64()


def test_long_block_draw_is_the_scalar_draws():
    n = 65_537 + 3
    for seed in (0, MAX64):
        want, scalar = scalar_draws(seed, n)
        block = SplitMix64(seed)
        assert block.uniforms(n).tobytes() == want.tobytes()
        assert block.state == scalar.state
        assert block.next_u64() == scalar.next_u64()


def test_block_draws_continue_the_stream():
    want, _ = scalar_draws(MAX64, 40)
    rng = SplitMix64(MAX64)
    parts = [rng.uniforms(7), np.array([rng.uniform()]), rng.uniforms(0), rng.uniforms(32)]
    assert np.concatenate(parts).tobytes() == want.tobytes()


# ------------------------------------------------------------------ weights

def weight_digest() -> str:
    """SHA-256 over every weight array of the toy transformer and every
    visual base embedding, for each config in ``WEIGHT_CONFIGS``."""
    h = hashlib.sha256()
    for cfg in WEIGHT_CONFIGS:
        m = ToyTransformer(**cfg)
        arrays = [m.embedding, m.unembedding]
        for ell in range(m.layers):
            arrays += m.w_q[ell] + m.w_k[ell] + m.w_v[ell] + m.w_o[ell]
            arrays += [m.w_ff1[ell], m.w_ff2[ell], m.w_qkv[ell], m.w_o_heads[ell]]
        arrays += [m.visual_base_embedding(f) for f in range(m.vocab)]
        for a in arrays:
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_weights_match_the_scalar_draws():
    assert weight_digest() == WEIGHT_DIGEST


def test_weight_digest_does_not_depend_on_the_cpu_dispatch():
    digests = []
    for setting in DISPATCH_SETTINGS:
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=setting,
                   PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        digests.append(done.stdout.strip())
    assert digests == [WEIGHT_DIGEST] * len(DISPATCH_SETTINGS), dict(zip(DISPATCH_SETTINGS, digests))


if __name__ == "__main__":
    print(weight_digest())
