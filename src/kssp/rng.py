"""Deterministic 64-bit pseudo random generator for instance generation.

SplitMix64 (Steele, Lea and Flood's mixing function). It is tiny, has a
full 2**64 period, and is trivial to reimplement in any language, so
instances generated from a seed here can be regenerated bit for bit
elsewhere. ``random.Random`` is deliberately not used: its stream is not
specified across implementations.
"""
from __future__ import annotations

import operator

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seedable generator; the same seed always yields the same stream.

    The seed is an int, taken modulo 2**64; an int-like object, one with
    ``__index__``, seeds as its int. Any other seed, such as ``1.5`` or
    ``"7"``, raises ValueError.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        try:
            self._state = operator.index(seed) & _MASK
        except TypeError:
            raise ValueError(f"seed must be an int, got {seed!r}") from None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, low: float, high: float) -> float:
        """Uniform double in [low, high), built from the top 53 bits.

        Equal bounds are allowed and always return ``low``; the draw is
        still consumed, so the stream position does not depend on the
        bounds.
        """
        if low > high:
            raise ValueError("low must not exceed high")
        u = (self.next_u64() >> 11) * 2.0 ** -53
        return low + (high - low) * u

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias.

        Rejection sampling over the tail of the 64-bit range; at most a
        2x expected cost even for adversarial ``n``.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        threshold = (1 << 64) % n
        while True:
            r = self.next_u64()
            if r >= threshold:
                return r % n

    def distinct_pair(self, n: int) -> tuple[int, int]:
        """Two distinct uniform integers in [0, n); used for s-t draws."""
        if n < 2:
            raise ValueError("need at least two values to draw a pair")
        first = self.below(n)
        second = self.below(n)
        while second == first:
            second = self.below(n)
        return first, second
