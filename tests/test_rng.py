"""Generator determinism and known-answer checks."""
from __future__ import annotations

import math
import sys

import pytest

import kssp.rng
from kssp.rng import SplitMix64

from conftest import run_capped


def test_known_answer_stream():
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(1234567)
    b = SplitMix64(1234567)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a = SplitMix64(1)
    b = SplitMix64(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_seed_wraps_to_64_bits():
    a = SplitMix64(2**64 + 5)
    b = SplitMix64(5)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]


def test_uniform_frozen_values():
    rng = SplitMix64(42)
    assert rng.uniform(0.0, 10.0) == 7.415648787718233
    assert rng.uniform(0.0, 10.0) == 1.599103928769201
    assert rng.uniform(0.0, 10.0) == 2.786011302551387


def test_uniform_respects_bounds():
    rng = SplitMix64(99)
    for _ in range(1000):
        x = rng.uniform(-2.5, 3.5)
        assert -2.5 <= x < 3.5


def test_uniform_degenerate_and_reversed_bounds():
    rng = SplitMix64(0)
    assert rng.uniform(1.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        rng.uniform(2.0, 1.0)
    # the degenerate draw above still consumed one stream step
    assert rng.next_u64() == 0x6E789E6AA1B965F4


def test_below_range_and_coverage():
    rng = SplitMix64(7)
    seen = set()
    for _ in range(200):
        v = rng.below(4)
        assert 0 <= v < 4
        seen.add(v)
    assert seen == {0, 1, 2, 3}


def test_below_one_is_always_zero():
    rng = SplitMix64(3)
    assert all(rng.below(1) == 0 for _ in range(16))


def test_below_rejects_nonpositive():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.below(0)
    with pytest.raises(ValueError):
        rng.below(-3)


def test_distinct_pair():
    rng = SplitMix64(11)
    for _ in range(100):
        a, b = rng.distinct_pair(5)
        assert a != b
        assert 0 <= a < 5
        assert 0 <= b < 5


def test_distinct_pair_needs_two_values():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.distinct_pair(1)


B = kssp.rng._LANES  # draws per block of the bulk draw


@pytest.mark.parametrize("count", [0, 1, B - 1, B, B + 1, 3 * B + 17])
@pytest.mark.parametrize(
    "low, high",
    [(0.0, 10.0), (3.25, 3.25), (1.0, math.nextafter(1.0, 2.0)), (0.0, 1e300), (0.0, sys.float_info.max)],
)
def test_uniforms_draws_what_uniform_draws(count, low, high):
    one, bulk = SplitMix64(2024), SplitMix64(2024)
    bulk.next_u64()  # a state that is not the seed's
    one.next_u64()
    expected = [one.uniform(low, high) for _ in range(count)]
    drawn = bulk.uniforms(count, low, high)
    assert [x.hex() for x in drawn] == [x.hex() for x in expected]
    assert all(type(x) is float for x in drawn)
    # and the stream goes on where count scalar draws leave it
    assert bulk.next_u64() == one.next_u64()


def test_uniforms_refuses_what_uniform_refuses():
    rng = SplitMix64(5)
    with pytest.raises(ValueError, match="low must not exceed high"):
        rng.uniforms(3, 2.0, 1.0)
    # a refused draw consumes nothing
    assert rng.next_u64() == SplitMix64(5).next_u64()


def test_the_block_ints_are_made_on_the_first_bulk_draw_not_at_import():
    """``kssp solve`` draws nothing, so it never makes the four 64 KB ints of a full block."""
    widest = "max(v.bit_length() for v in vars(kssp.rng).values() if isinstance(v, int))"
    done = run_capped("-c", f"import kssp.cli, kssp.rng\nprint({widest})")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) <= 64
