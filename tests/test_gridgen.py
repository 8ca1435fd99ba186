"""Grid instance generator: shape, determinism, and frozen draws."""
from __future__ import annotations

import sys

import pytest

from kssp.graph import GraphError
from kssp.gridgen import check_count, check_grid, gen_grid, sample_pairs, seeded_grids
from kssp.rng import SplitMix64

from conftest import IntLike


def test_two_by_two_is_fully_frozen():
    g = gen_grid(2, 2, seed=0)
    assert g.node_count == 4
    assert list(g.arcs()) == [
        (0, 1, 8.833108082136427),
        (1, 0, 4.3152799704851),
        (0, 2, 0.26433771592597743),
        (2, 0, 9.708819781538285),
        (1, 3, 1.0634669156721244),
        (3, 1, 3.2732576421812576),
        (2, 3, 1.7386786595968284),
        (3, 2, 7.71546556331567),
    ]


@pytest.mark.parametrize(
    "rows, cols, nodes, arcs",
    [
        (1, 1, 1, 0),
        (1, 3, 3, 4),
        (2, 2, 4, 8),
        (3, 4, 12, 34),
        (100, 100, 10000, 39600),
    ],
)
def test_shape(rows, cols, nodes, arcs):
    g = gen_grid(rows, cols, seed=1)
    assert g.node_count == nodes
    assert g.arc_count == arcs
    assert arcs == 2 * (rows * (cols - 1) + cols * (rows - 1))


def test_arcs_share_one_int_object_per_node():
    g = gen_grid(20, 30, seed=2)
    ends = g.arc_tail + g.arc_head
    assert sorted(set(ends)) == list(range(600))
    assert len({id(v) for v in ends}) == 600


def test_same_seed_is_bit_identical():
    a = gen_grid(5, 7, seed=123)
    b = gen_grid(5, 7, seed=123)
    assert a.arc_cost == b.arc_cost
    assert a.arc_tail == b.arc_tail
    assert a.arc_head == b.arc_head


def test_different_seeds_differ():
    a = gen_grid(5, 7, seed=123)
    b = gen_grid(5, 7, seed=124)
    assert a.arc_cost != b.arc_cost


def test_cost_bounds_are_respected():
    g = gen_grid(10, 10, 5.0, 6.0, seed=9)
    assert all(5.0 <= w < 6.0 for w in g.arc_cost)
    # int bounds draw the float bounds' bits, and a top bound at the float maximum draws no inf
    assert gen_grid(4, 5, 1, 7, seed=3).arc_cost == gen_grid(4, 5, 1.0, 7.0, seed=3).arc_cost
    assert all(type(w) is float for w in gen_grid(4, 5, 1, 7, seed=3).arc_cost)
    top = gen_grid(30, 30, 2.0**970, sys.float_info.max, seed=4)
    assert all(2.0**970 <= w <= sys.float_info.max for w in top.arc_cost)
    assert not top.folds_in_range


def test_rejects_bad_arguments():
    with pytest.raises(GraphError):
        gen_grid(0, 3)
    with pytest.raises(GraphError):
        gen_grid(3, 0)
    with pytest.raises(GraphError):
        gen_grid(2, 2, 7.0, 3.0)
    with pytest.raises(GraphError, match="cost_low must be nonnegative"):
        check_grid(2, 2, -1.0, 10.0)
    with pytest.raises(GraphError, match="cost_high must be finite"):
        check_grid(2, 2, 0.0, float("inf"))
    low, high = check_grid(1, 1, 0, 0)[2:]
    assert type(low) is type(high) is float and low == high == 0.0
    # bounds that are not numbers in the float range, which once raised TypeError or OverflowError
    for low, high in [("0", 10.0), (0.0, None), (0.0, "10"), (b"1", 2.0), (0.0, 10**400)]:
        with pytest.raises(GraphError, match="^cost bounds must be numbers in the float range, got "):
            check_grid(2, 2, low, high)
        with pytest.raises(GraphError, match="^cost bounds must be numbers in the float range, got "):
            gen_grid(2, 2, low, high)
        with pytest.raises(GraphError, match="^cost bounds must be numbers in the float range, got "):
            seeded_grids(2, 2, 0, 1, low, high)
    with pytest.raises(ValueError, match="grid count"):
        seeded_grids(3, 3, -1, 0)
    with pytest.raises(ValueError, match="pair count"):
        sample_pairs(SplitMix64(0), 9, -2)
    # counts and shapes must be ints; a float would only fail later, in range(), as a TypeError
    with pytest.raises(ValueError, match="grid count must be an int, got 2.0"):
        seeded_grids(3, 3, 2.0, 1)
    with pytest.raises(ValueError, match="pair count must be an int, got 1.5"):
        sample_pairs(SplitMix64(1), 5, 1.5)
    with pytest.raises(ValueError, match="pair count must be an int, got nan"):
        check_count(float("nan"), "pair")
    # no list holds more than sys.maxsize draws, so such a count is refused before the first
    assert check_count(sys.maxsize, "pair") == sys.maxsize
    for count in (sys.maxsize + 1, 10**400):
        with pytest.raises(ValueError, match=f"^pair count must be at most {sys.maxsize}$"):
            sample_pairs(SplitMix64(1), 5, count)
        with pytest.raises(ValueError, match=f"^grid count must be at most {sys.maxsize}$"):
            seeded_grids(3, 3, count, 0)
    with pytest.raises(GraphError, match="grid shape must be ints, got 2.0x3"):
        gen_grid(2.0, 3)
    with pytest.raises(GraphError, match="grid shape must be ints, got 3x2.0"):
        seeded_grids(3, 2.0, 1, 0)
    # and so must seeds, which would otherwise fail in SplitMix64's mask as a TypeError
    with pytest.raises(ValueError, match="seed must be an int, got 1.5"):
        gen_grid(2, 2, seed=1.5)
    with pytest.raises(ValueError, match="seed must be an int, got 1.5"):
        seeded_grids(3, 3, 1, 1.5)
    with pytest.raises(ValueError, match="seed must be an int, got '7'"):
        gen_grid(2, 2, seed="7")
    with pytest.raises(ValueError, match="seed must be an int, got '7'"):
        seeded_grids(3, 3, 0, "7")


def test_sample_pairs_frozen_and_distinct():
    pairs = sample_pairs(SplitMix64(3), 9, 4)
    assert pairs == [(0, 3), (3, 5), (0, 7), (3, 4)]
    assert all(s != t for s, t in pairs)


def test_sample_pairs_deterministic():
    a = sample_pairs(SplitMix64(77), 100, 50)
    b = sample_pairs(SplitMix64(77), 100, 50)
    assert a == b
    assert all(0 <= s < 100 and 0 <= t < 100 and s != t for s, t in a)


def test_seeded_grids_draw_every_cost_seed_before_the_pair_seeds():
    master = SplitMix64(5)
    draws = [master.next_u64() for _ in range(6)]
    grids = list(seeded_grids(2, 3, 3, 5, cost_low=1.0, cost_high=2.0))
    assert [cost_seed for cost_seed, _, _ in grids] == draws[:3]
    for (cost_seed, g, pair_rng), pair_seed in zip(grids, draws[3:]):
        assert list(g.arcs()) == list(gen_grid(2, 3, 1.0, 2.0, cost_seed).arcs())
        assert pair_rng.next_u64() == SplitMix64(pair_seed).next_u64()
    assert list(seeded_grids(2, 3, 0, 5)) == []


def test_int_like_counts_and_shapes_draw_as_their_ints():
    got = [(seed, list(g.arcs())) for seed, g, _ in seeded_grids(IntLike(2), IntLike(3), IntLike(2), 5)]
    assert got == [(seed, list(g.arcs())) for seed, g, _ in seeded_grids(2, 3, 2, 5)]
    assert sample_pairs(SplitMix64(3), 9, IntLike(4)) == sample_pairs(SplitMix64(3), 9, 4)
    # seeds too, and True seeds as 1
    assert list(gen_grid(3, 2, seed=IntLike(7)).arcs()) == list(gen_grid(3, 2, seed=7).arcs())
    assert list(gen_grid(3, 2, seed=True).arcs()) == list(gen_grid(3, 2, seed=1).arcs())
    got = [(seed, list(g.arcs())) for seed, g, _ in seeded_grids(2, 3, 2, IntLike(5))]
    assert got == [(seed, list(g.arcs())) for seed, g, _ in seeded_grids(2, 3, 2, 5)]
