"""Deterministic 64-bit pseudo random generator for instance generation.

SplitMix64 (Steele, Lea and Flood's mixing function). It is tiny, has a
full 2**64 period, and is trivial to reimplement in any language, so
instances generated from a seed here can be regenerated bit for bit
elsewhere. ``random.Random`` is deliberately not used: its stream is not
specified across implementations.

The i-th output depends only on ``seed + i * gamma``, so the stream can
also be drawn a block at a time (:meth:`SplitMix64.uniforms`), bit for
bit the same as one draw at a time.
"""
from __future__ import annotations

import operator
import sys
from array import array

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53  # the weight of the lowest of a draw's top 53 bits
_LANES = 4096  # draws mixed at once by SplitMix64.uniforms, one 128-bit lane each


def _packed(words) -> int:
    """One int holding the i-th word in its i-th 128-bit lane, lowest lane first."""
    return int.from_bytes(b"".join(w.to_bytes(16, "little") for w in words), "little")


# lane i of a full block holds 1, 2**64 - 1, 2**53 - 1 and (i + 1) * gamma mod 2**64;
# a product of lanes below 2**64 stays below 2**128, so it stays in its lane
_ONES = _packed([1] * _LANES)
_LOW64, _LOW53 = _ONES * _MASK, _ONES * ((1 << 53) - 1)
_STEPS = _packed(range(1, _LANES + 1)) * _GAMMA & _LOW64


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
        u = (self.next_u64() >> 11) * _UNIT
        return low + (high - low) * u

    def uniforms(self, count: int, low: float, high: float) -> list[float]:
        """``count`` draws of :meth:`uniform`, bit for bit, leaving the same state.

        Draw i of a block is mixed in 128-bit lane i of one int, from the
        state ``state + (i + 1) * gamma``. Each xor-shift is masked back to
        the low 64 bits of every lane before its multiply, so no bit reaches
        the next lane, and the lanes are read out little-endian on any host.
        """
        if low > high:
            raise ValueError("low must not exceed high")
        span = high - low
        draws: list[float] = []
        for done in range(0, count, _LANES):
            lanes = min(_LANES, count - done)
            low64 = _LOW64 & (1 << 128 * lanes) - 1  # the lanes of this block only
            z = (_STEPS + self._state * _ONES) & low64
            z = ((z ^ (z >> 30)) & low64) * 0xBF58476D1CE4E5B9 & low64
            z = ((z ^ (z >> 27)) & low64) * 0x94D049BB133111EB & low64
            z = (z ^ (z >> 31)) >> 11 & _LOW53
            words = array("Q", z.to_bytes(16 * lanes, "little"))
            if sys.byteorder == "big":
                words.byteswap()
            draws += [low + span * (x * _UNIT) for x in words[::2]]
            self._state = (self._state + lanes * _GAMMA) & _MASK
        return draws

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
