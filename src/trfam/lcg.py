"""Minimal 64-bit linear congruential generator.

Used for every pseudo-random element of the package (gradient-check probe
points, random test instances) so that the exact same streams can be
reproduced in any language from the constants below, without depending on
numpy's generator internals.
"""

from __future__ import annotations

import numpy as np

# Knuth's MMIX multiplier/increment, modulus 2^64.
_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    """x_{n+1} = (a*x_n + c) mod 2^64, doubles from the top 53 bits."""

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (_A * self.state + _C) & _MASK
        return self.state

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = self.next_u64() >> 11  # 53 bits
        return lo + (hi - lo) * (u * (1.0 / (1 << 53)))

    def vector(self, n: int, lo: float = -1.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])
