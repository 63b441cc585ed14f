"""Deterministic random stream for stochastic subsampling.

Cross-platform reproducibility matters more here than statistical
sophistication: the generator is splitmix64 (Steele, Lea & Flood's
reference constants), a 64-bit mixer whose output for a given seed is
identical on every OS, CPU, and Python build. Fitting a model twice
with the same seed must produce byte-identical results, so nothing in
this package draws randomness from any other source.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1
# splitmix64's increment and its two mixing multipliers
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# Bytes of temporaries that one block of sample_blocks holds at most (a block
# holds at least one stage, whatever that takes).
BLOCK_BYTES = 1 << 16


class SplitMix64:
    """splitmix64 stream. Seeds are taken modulo 2**64."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Integer in [0, n) by multiply-shift; bias < n/2**64, negligible here."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next_u64() * n) >> 64

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def sample_without_replacement(n: int, k: int, rng: SplitMix64) -> list[int]:
    """First k entries of a partial Fisher-Yates pass over range(n), sorted.

    Consumes exactly k draws from the stream. The result is sorted so that
    downstream summation order does not depend on draw order.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    idx = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    head = idx[:k]
    head.sort()
    return head


def sample_blocks(n: int, k: int, rng: SplitMix64, stages: int) -> Iterator[np.ndarray]:
    """Yield ``stages`` samples, each the rows ``sample_without_replacement(n,
    k, rng)`` returns, as an ascending ``np.intp`` array, and leave ``rng``
    where those calls would, each time a sample is yielded. Nothing else may
    draw from ``rng`` until the generator is done.

    splitmix64's t-th output is a function of ``seed + t * gamma`` alone (a
    counter-based stream; Salmon et al., SC 2011), so the samples are drawn a
    block of stages at a time, by ``_block_rows``, which needs n < 2**32. A
    block's temporaries take about BLOCK_BYTES.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n >= 1 << 32:
        raise ValueError("need n < 2**32")
    # a stage's row ids, its draws, one draw-sized temporary and three cells of the swaps
    size = max(1, BLOCK_BYTES // (8 * (n + 2 * k + 3)))
    for first in range(0, stages, size):
        state, block = rng._state, min(size, stages - first)
        for b, rows in enumerate(_block_rows(n, k, state, block), 1):
            rng._state = (state + b * k * _GAMMA) & _MASK64
            yield rows


def _block_rows(n: int, k: int, state: int, block: int) -> np.ndarray:
    """The samples of ``block`` consecutive stages from a stream at ``state``,
    one sorted row each, for n < 2**32: all their draws in one uint64 numpy
    pass, then the partial Fisher-Yates swaps of every stage at once, one step
    per draw position. ``below``'s 128-bit product is formed exactly from the
    draw's 32-bit halves."""
    z = np.arange(1, block * k + 1, dtype=np.uint64).reshape(block, k)
    z *= np.uint64(_GAMMA)
    z += np.uint64(state)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    # (z * span) >> 64 = (hi * span + (lo * span >> 32)) >> 32, each term below 2**64
    span = n - np.arange(k, dtype=np.uint64)  # draw i picks among the n - i rows not yet taken
    lo = z & np.uint64(0xFFFFFFFF)
    lo *= span
    lo >>= np.uint64(32)
    z >>= np.uint64(32)
    z *= span
    z += lo
    del lo
    z >>= np.uint64(32)
    pick = z.view(np.int64)  # below 2**32
    pick += np.arange(k)
    idx = np.empty((block, n), dtype=np.intp)
    idx[:] = np.arange(n)
    at = np.arange(block)
    for i in range(k):  # each stage swaps its entry i with its pick, as the scalar pass does
        idx[:, i], idx[at, pick[:, i]] = idx[at, pick[:, i]], idx[:, i].copy()
    del z, pick
    return np.sort(idx[:, :k], axis=1)
