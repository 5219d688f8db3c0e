"""SplitMix64 generator: the single PRNG used everywhere for portable determinism."""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# the stream's constants as numpy scalars, for block draws
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1_U64 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2_U64 = np.uint64(0x94D049BB133111EB)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit bijective scramble of ``x``."""
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def combine(*parts: int) -> int:
    """Fold several integers into one 64-bit seed, order-sensitively."""
    acc = 0
    for p in parts:
        acc = mix64((acc ^ (p & _MASK64)) & _MASK64)
    return acc


class SplitMix64:
    """Sequential SplitMix64 stream seeded with a 64-bit state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` ``uniform()`` draws as one array, bit for bit: the
        state after ``i`` draws is ``state + i * gamma`` mod 2**64, and
        wrapping ``uint64`` array arithmetic computes the mix exactly."""
        z = np.arange(1, n + 1, dtype=np.uint64) * _GAMMA_U64 + np.uint64(self.state)
        self.state = (self.state + n * _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * _MIX1_U64
        z = (z ^ (z >> 27)) * _MIX2_U64
        z ^= z >> 31
        return (z >> 11) * (1.0 / (1 << 53))

    def gauss(self) -> float:
        """Standard normal via Box-Muller; consumes two draws."""
        u1 = self.uniform()
        u2 = self.uniform()
        # guard log(0)
        while u1 <= 0.0:
            u1 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def step_seed(session_seed: int, step: int) -> int:
    """Per-step seed derived from the session seed; stable across runs."""
    return combine(session_seed, step, 0)
