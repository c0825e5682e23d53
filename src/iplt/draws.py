"""Exact uniform draws fed by rng bytes.

Every random draw in the package goes through three calls: below,
distinct and shuffle (distinct_rows, subset and nonzero are built on the
first two).  Each reads rng.randbytes(4 * count) and splits the bytes into
little-endian 32-bit words with struct, so any random.Random can supply
them: seeded Mersenne Twister for tests and replays, random.SystemRandom
(os.urandom) for a private query.

The draws are exact, not approximately uniform.  A word w is kept for a
bound b only when w < floor(2^32 / b) * b, so w % b is uniform on
range(b); a rejected word is replaced by a fresh one.  distinct keeps the
first occurrence of each value among independent below draws, which is a
uniform ordered sample without repeats.  shuffle is Fisher-Yates (Knuth,
TAOCP vol. 2, 3.4.2, Algorithm P): one rejection-checked word per position.
"""

from __future__ import annotations

import operator
import random
import struct
from typing import MutableSequence

_WORD = 1 << 32


def _words(rng: random.Random, count: int) -> tuple[int, ...]:
    """count independent uniform 32-bit words from rng's bytes."""
    return struct.unpack(f"<{count}I", rng.randbytes(4 * count))


def below(rng: random.Random, bound: int, count: int) -> list[int]:
    """count independent uniform draws from range(bound), 1 <= bound <= 2^32."""
    if not 1 <= bound <= _WORD:
        raise ValueError(f"bound must be in [1, 2^32], got {bound}")
    limit = _WORD - _WORD % bound  # floor(2^32 / bound) * bound
    out: list[int] = []
    while len(out) < count:
        out += [w % bound for w in _words(rng, count - len(out)) if w < limit]
    return out


def distinct_rows(
    rng: random.Random, bound: int, rows: int, count: int
) -> list[list[int]]:
    """rows independent uniform ordered samples of count distinct values
    from range(bound).

    One below call draws count values per row.  A row keeps the first
    occurrence of each value, and only a row that repeated one draws more,
    count values at a time, until it has count distinct values; the values
    drawn after that are not read.  Each row is therefore exactly a
    distinct(rng, bound, count) draw, whatever the other rows drew.
    """
    if not 0 <= count <= bound:
        raise ValueError(f"cannot draw {count} distinct values below {bound}")
    if count == 0:
        return [[] for _ in range(rows)]  # bound may be 0: nothing to draw from
    flat = below(rng, bound, rows * count)
    out = []
    for r in range(0, rows * count, count):
        row = flat[r : r + count]
        if len(set(row)) < count:
            seen = dict.fromkeys(row)
            while len(seen) < count:
                seen.update(dict.fromkeys(below(rng, bound, count)))
            row = list(seen)[:count]
        out.append(row)
    return out


def distinct(rng: random.Random, bound: int, count: int) -> list[int]:
    """A uniform ordered sample of count distinct values from range(bound)."""
    return distinct_rows(rng, bound, 1, count)[0]


def subset(rng: random.Random, bound: int, count: int) -> list[int]:
    """A uniform count-subset of range(bound), sorted.

    A subset is uniform exactly when its complement is, so this draws
    whichever of the two is smaller with distinct.
    """
    if not 0 <= count <= bound:
        raise ValueError(f"cannot draw {count} distinct values below {bound}")
    if 2 * count <= bound:
        return sorted(distinct(rng, bound, count))
    return sorted(set(range(bound)).difference(distinct(rng, bound, bound - count)))


def shuffle(rng: random.Random, seq: MutableSequence) -> None:
    """Shuffle seq in place into a uniform permutation (Fisher-Yates).

    Position i, from the last down to 1, swaps with the position that one
    word below i + 1 names; a rejected word is replaced by a below draw.  A
    word below 2^32 - len(seq) is kept at every position, so the rejection
    check runs only when some word reaches that far.
    """
    n = len(seq)
    if n < 2:
        return
    bounds = range(n, 1, -1)
    words = _words(rng, n - 1)
    js = list(map(operator.mod, words, bounds))
    if max(words) >= _WORD - n:
        for k, (w, bound) in enumerate(zip(words, bounds)):
            if w >= _WORD - _WORD % bound:
                (js[k],) = below(rng, bound, 1)
    for i, j in zip(range(n - 1, 0, -1), js):
        seq[i], seq[j] = seq[j], seq[i]


def nonzero(rng: random.Random, q: int, count: int) -> list[int]:
    """count independent uniform draws from 1..q-1."""
    return [v + 1 for v in below(rng, q - 1, count)]
