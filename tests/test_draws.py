"""Byte-fed exact draws: rejection at the exact bound, ordered samples
without repeats, and Fisher-Yates over every accepted choice sequence."""

import itertools
import random

import pytest

from iplt.draws import below, distinct, distinct_rows, shuffle, subset

from oracles import StubRng

WORD = 2**32


@pytest.mark.parametrize("bound", [3, 17, 1000, 65521, 2**31 + 1, 2**32 - 1])
def test_below_rejects_exactly_the_words_past_the_last_full_range(bound):
    """floor(2^32/b)*b - 1 is the last word kept; floor(2^32/b)*b is redrawn."""
    limit = WORD // bound * bound
    rng = StubRng([limit - 1])
    assert below(rng, bound, 1) == [(limit - 1) % bound]
    assert rng.exhausted()
    rng = StubRng([limit, 1, limit, limit - 1, 2])
    assert below(rng, bound, 2) == [1, (limit - 1) % bound]
    assert not rng.exhausted()
    assert below(rng, bound, 1) == [2]


@pytest.mark.parametrize("bound", [1, 2, 2**16, 2**32])
def test_below_keeps_every_word_for_a_divisor_of_2_32(bound):
    """When b divides 2^32 no word is rejected."""
    rng = StubRng([WORD - 1, 0])
    assert below(rng, bound, 2) == [(WORD - 1) % bound, 0]
    assert rng.exhausted()


def test_subset_draws_the_smaller_side():
    """7 of 10 draws the 3-element complement, 2 of 10 the subset itself."""
    rng = StubRng([8, 0, 4])
    assert subset(rng, 10, 7) == [1, 2, 3, 5, 6, 7, 9]
    assert rng.exhausted()
    rng = StubRng([8, 0])
    assert subset(rng, 10, 2) == [0, 8]
    assert rng.exhausted()
    for count in (-1, 11):
        with pytest.raises(ValueError):
            subset(rng, 10, count)


@pytest.mark.parametrize("bound", [0, -1, 2**32 + 1])
def test_below_refuses_a_bound_outside_1_to_2_32(bound):
    """Bounds below 1 or above 2^32 raise ValueError."""
    with pytest.raises(ValueError):
        below(StubRng([0]), bound, 1)


def test_distinct_skips_repeats_in_draw_order():
    """The first occurrences, in order: 2, 0 from the first three draws,
    then 1 from the next three, whose last value is not read."""
    rng = StubRng([2, 2, 0, 2, 1, 0])
    assert distinct(rng, 3, 3) == [2, 0, 1]
    assert rng.exhausted()
    for count in (-1, 4):
        with pytest.raises(ValueError):
            distinct(rng, 3, count)
    assert distinct(rng, 0, 0) == []


@pytest.mark.parametrize("n", [1, 2, 5, 17])
def test_distinct_of_everything_is_a_permutation(n):
    """distinct(rng, n, n) returns a permutation of range(n)."""
    for seed in range(5):
        assert sorted(distinct(random.Random(seed), n, n)) == list(range(n))


def test_distinct_rows_refill_only_the_row_that_repeats():
    """Row 1 repeats and draws two refills after both rows' first draws."""
    rng = StubRng([4, 1, 3, 3, 0, 2])
    assert distinct_rows(rng, 5, 2, 2) == [[4, 1], [3, 0]]
    assert rng.exhausted()


def test_shuffle_maps_each_choice_sequence_to_its_own_permutation():
    """n = 4: positions 3, 2, 1 choose below 4, 3, 2, and the 24 accepted
    choice sequences give each of the 24 permutations exactly once."""
    seen = []
    for choices in itertools.product(range(4), range(3), range(2)):
        seq = [0, 1, 2, 3]
        rng = StubRng(choices)
        shuffle(rng, seq)
        assert rng.exhausted()
        seen.append(tuple(seq))
    assert sorted(seen) == sorted(itertools.permutations(range(4)))


def test_shuffle_redraws_a_rejected_position():
    """2^32 - 1 is past the last full range for 3, so position 2 redraws
    after the first three words; the others keep theirs."""
    seq = [0, 1, 2, 3]
    rng = StubRng([0, WORD - 1, 1, 2])
    shuffle(rng, seq)
    assert rng.exhausted()
    want = [0, 1, 2, 3]
    shuffle(StubRng([0, 2, 1]), want)
    assert seq == want


def test_draws_accept_any_random_source():
    """SystemRandom supplies the bytes as well as a seeded Random."""
    for rng in (random.Random(0), random.SystemRandom()):
        assert all(0 <= v < 7 for v in below(rng, 7, 50))
        seq = list(range(10))
        shuffle(rng, seq)
        assert sorted(seq) == list(range(10))
