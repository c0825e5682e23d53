"""Download-rate bounds, the exhaustive ILP oracle, and rate sweeps.

All rates are exact fractions.Fraction values; decimal rendering happens
only at the CSV boundary so equality tests never involve tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import BadShape, TooLarge


def check_shape(K: int, D: int, L: int) -> None:
    """Raise BadShape unless K, D, L are ints with 1 <= L <= D <= K."""
    for name, v in (("K", K), ("D", D), ("L", L)):
        if not isinstance(v, int):
            raise BadShape(f"{name} must be an int, got {type(v).__name__}")
    if not 1 <= L <= D <= K:
        raise BadShape(f"need 1 <= L <= D <= K, got L={L} D={D} K={K}")


def slot_width(D: int, R: int) -> int:
    """S = gcd(D, R), the width of the AlignS slots; S = D when R = 0."""
    return math.gcd(D + R, R) if R else D


def capacity_upper(K: int, D: int, L: int) -> Fraction:
    """Upper bound on the rate: 1 / (floor(K/D) + min(1, R/L)), R = K mod D."""
    check_shape(K, D, L)
    R = K % D
    return Fraction(1) / (K // D + min(Fraction(1), Fraction(R, L)))


def capacity_lower(K: int, D: int, L: int) -> Fraction:
    """Achievable rate: 1 / (floor(K/D) + min(R/S, R/L)), S = gcd(D, R)."""
    check_shape(K, D, L)
    R = K % D
    return Fraction(1) / (K // D + min(Fraction(R, slot_width(D, R)), Fraction(R, L)))


def capacity_exact(K: int, D: int, L: int) -> Optional[Fraction]:
    """The exact capacity when the bounds meet: R <= L or R divides D.

    Returns None when the tightness condition fails.  D | K is the R = 0
    instance of the condition and yields D/K.
    """
    check_shape(K, D, L)
    R = K % D
    if R <= L or D % R == 0:
        return capacity_upper(K, D, L)
    return None


def jplt_rate(K: int, D: int, L: int) -> Fraction:
    """Optimal rate when the whole support must stay jointly private."""
    check_shape(K, D, L)
    return Fraction(L, K - D + L)


def ilp_bruteforce(K: int, D: int, L: int) -> int:
    """Exact minimum answer rows by dynamic programming over part sizes.

    Minimizes the sum of min(L, part) over all multisets of parts in [1, D]
    summing to K with at least one part equal to D (the demand block).  The
    forced D-part costs L; the rest is a DP over the remaining mass.
    """
    check_shape(K, D, L)
    if K > 60:
        raise TooLarge(f"exhaustive ILP guard is K <= 60, got K={K}")
    rest = K - D
    dp = [0] * (rest + 1)
    for x in range(1, rest + 1):
        dp[x] = min(min(L, j) + dp[x - j] for j in range(1, min(D, x) + 1))
    return L + dp[rest]


@dataclass(frozen=True)
class RateBounds:
    """The bound pair for one (K, D, L), plus the joint-privacy comparison rate."""

    lower: Fraction
    upper: Fraction
    exact: Optional[Fraction]
    jplt: Fraction


def rate_bounds(K: int, D: int, L: int) -> RateBounds:
    """All four rate quantities for one parameter triple."""
    return RateBounds(
        lower=capacity_lower(K, D, L),
        upper=capacity_upper(K, D, L),
        exact=capacity_exact(K, D, L),
        jplt=jplt_rate(K, D, L),
    )


@dataclass(frozen=True)
class SweepRow:
    """One emitted sweep row."""

    D: int
    L: int
    bounds: RateBounds


@dataclass(frozen=True)
class SweepSkip:
    """A skipped D value and why; rendered as a comment line."""

    D: int
    reason: str


def sweep(K: int, ratio: Fraction, d_values: Sequence[int]) -> list[Union[SweepRow, SweepSkip]]:
    """Evaluate the bounds over a D grid at fixed L/D ratio.

    D values where L = ratio * D is not a positive integer, or where the
    triple is out of range, are skipped with a reason instead of failing.
    """
    ratio = Fraction(ratio)
    out: list[Union[SweepRow, SweepSkip]] = []
    for D in d_values:
        lf = ratio * D
        if lf.denominator != 1:
            out.append(SweepSkip(D, f"L = ratio*D = {lf} is not integral"))
            continue
        L = int(lf)
        if not 1 <= L <= D <= K:
            out.append(SweepSkip(D, f"L={L} D={D} K={K} violates 1 <= L <= D <= K"))
            continue
        out.append(SweepRow(D, L, rate_bounds(K, D, L)))
    return out


def decimal6(x: Fraction) -> str:
    """Exact rational rendered as a decimal with 6 fractional digits."""
    return str((Decimal(x.numerator) / Decimal(x.denominator)).quantize(Decimal("0.000001")))


def render_csv(rows: Sequence[Union[SweepRow, SweepSkip]]) -> str:
    """CSV with header D,L,iplt_lower,iplt_upper,jplt,exact and LF endings.

    Rates carry 6 fractional digits; the exact cell is empty when the
    tightness condition fails; skipped D values become comment lines.
    """
    lines = ["D,L,iplt_lower,iplt_upper,jplt,exact"]
    for row in rows:
        if isinstance(row, SweepSkip):
            lines.append(f"# D={row.D} skipped: {row.reason}")
            continue
        b = row.bounds
        exact = decimal6(b.exact) if b.exact is not None else ""
        lines.append(
            f"{row.D},{row.L},{decimal6(b.lower)},{decimal6(b.upper)},{decimal6(b.jplt)},{exact}"
        )
    return "\n".join(lines) + "\n"
