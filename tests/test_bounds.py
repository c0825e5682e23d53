"""Rate bounds, the ILP oracle, and the sweep/CSV surface."""

from fractions import Fraction

import pytest

from iplt.bounds import (
    SweepRow,
    SweepSkip,
    capacity_exact,
    capacity_lower,
    capacity_upper,
    decimal6,
    ilp_bruteforce,
    jplt_rate,
    rate_bounds,
    render_csv,
    sweep,
)
from iplt.errors import BadShape, TooLarge

from oracles import closed_form_rows, partitions_min_rows


def test_pinned_example_values():
    """The three documented triples give the documented rates."""
    assert capacity_upper(24, 8, 2) == Fraction(1, 3)
    assert capacity_lower(24, 8, 2) == Fraction(1, 3)
    assert capacity_exact(24, 8, 2) == Fraction(1, 3)
    assert jplt_rate(24, 8, 2) == Fraction(2, 18)

    assert capacity_upper(24, 9, 2) == Fraction(1, 3)
    assert capacity_lower(24, 9, 2) == Fraction(1, 4)
    assert capacity_exact(24, 9, 2) is None
    assert jplt_rate(24, 9, 2) == Fraction(2, 17)

    assert capacity_upper(24, 7, 2) == Fraction(1, 4)
    assert capacity_lower(24, 7, 2) == Fraction(2, 9)
    assert capacity_exact(24, 7, 2) is None
    assert jplt_rate(24, 7, 2) == Fraction(2, 19)


def test_divisible_case_rate_is_d_over_k():
    """When D divides K both bounds collapse to D/K."""
    for K, D in ((24, 8), (20, 5), (9, 3), (7, 7)):
        for L in range(1, D + 1):
            assert capacity_upper(K, D, L) == Fraction(D, K)
            assert capacity_lower(K, D, L) == Fraction(D, K)
            assert capacity_exact(K, D, L) == Fraction(D, K)


def test_full_demand_exact():
    """D = L makes the bounds meet (R <= L always holds then)."""
    assert capacity_exact(24, 7, 7) == Fraction(7, 24)
    assert capacity_lower(24, 7, 7) == Fraction(7, 24)


def test_validation_rejects_bad_triples():
    """Out-of-range and non-integer parameters raise BadShape."""
    for fn in (capacity_upper, capacity_lower, capacity_exact, jplt_rate, ilp_bruteforce):
        with pytest.raises(BadShape):
            fn(10, 11, 1)
        with pytest.raises(BadShape):
            fn(10, 4, 0)
        with pytest.raises(BadShape):
            fn(10, 4, 5)
        with pytest.raises(BadShape):
            fn(10.0, 4, 2)


def test_bound_ordering_and_tightness_grid():
    """lower <= upper with equality exactly on R <= L or R | D, for K <= 30."""
    for K in range(1, 31):
        for D in range(1, K + 1):
            for L in range(1, D + 1):
                lo, up = capacity_lower(K, D, L), capacity_upper(K, D, L)
                assert lo <= up
                R = K % D
                tight = R <= L or D % R == 0
                assert (lo == up) == tight
                exact = capacity_exact(K, D, L)
                assert (exact is not None) == tight
                if exact is not None:
                    assert exact == up
                assert capacity_lower(K, D, L) >= jplt_rate(K, D, L)


def test_ilp_matches_closed_form_to_40():
    """The DP optimum equals L*floor(K/D) + min(L, R) exhaustively."""
    for K in range(1, 41):
        for D in range(1, K + 1):
            for L in range(1, D + 1):
                assert ilp_bruteforce(K, D, L) == closed_form_rows(K, D, L)


def test_ilp_matches_partition_oracle_small():
    """The DP agrees with brute-force partition search for K <= 12."""
    for K in range(1, 13):
        for D in range(1, K + 1):
            for L in range(1, D + 1):
                assert ilp_bruteforce(K, D, L) == partitions_min_rows(K, D, L)


def test_ilp_boundary_values():
    """Single-block and degenerate triples have obvious optima."""
    assert ilp_bruteforce(7, 7, 3) == 3
    assert ilp_bruteforce(1, 1, 1) == 1
    assert ilp_bruteforce(24, 8, 2) == 6
    assert ilp_bruteforce(24, 7, 2) == 8


def test_ilp_guard():
    """Instances beyond K = 60 are refused."""
    with pytest.raises(TooLarge):
        ilp_bruteforce(61, 5, 2)
    ilp_bruteforce(60, 5, 2)


def test_rate_bounds_bundle():
    """rate_bounds packages the four quantities consistently."""
    rb = rate_bounds(24, 7, 2)
    assert rb.lower == Fraction(2, 9)
    assert rb.upper == Fraction(1, 4)
    assert rb.exact is None
    assert rb.jplt == Fraction(2, 19)


def test_sweep_skips_and_rows():
    """Non-integral L and out-of-range triples become skips, not errors."""
    rows = sweep(24, Fraction(1, 4), [4, 6, 8, 30])
    assert isinstance(rows[0], SweepRow) and rows[0].L == 1
    assert isinstance(rows[1], SweepSkip)
    assert "not integral" in rows[1].reason
    assert isinstance(rows[2], SweepRow)
    assert isinstance(rows[3], SweepSkip)


def test_sweep_large_grid_values():
    """K = 1000 at ratio 0.6: D = 250 gives rate 1/4, D = K gives rate 1."""
    rows = sweep(1000, Fraction(3, 5), [250, 1000])
    r250, r1000 = rows
    assert isinstance(r250, SweepRow) and r250.L == 150
    assert r250.bounds.lower == Fraction(1, 4)
    assert r250.bounds.upper == Fraction(1, 4)
    assert r250.bounds.jplt == Fraction(150, 900) == Fraction(1, 6)
    assert isinstance(r1000, SweepRow) and r1000.L == 600
    assert r1000.bounds.lower == Fraction(1)
    assert r1000.bounds.upper == Fraction(1)
    assert r1000.bounds.jplt == Fraction(1)


def test_decimal6_rendering():
    """Exact fractions render with six fractional digits, round-half-even."""
    assert decimal6(Fraction(1, 6)) == "0.166667"
    assert decimal6(Fraction(1, 3)) == "0.333333"
    assert decimal6(Fraction(1, 2)) == "0.500000"
    assert decimal6(Fraction(1)) == "1.000000"


def test_render_csv_golden():
    """The CSV has the pinned header, LF endings, and empty open cells."""
    text = render_csv(sweep(24, Fraction(1, 4), [4, 6, 8]))
    lines = text.split("\n")
    assert lines[0] == "D,L,iplt_lower,iplt_upper,jplt,exact"
    assert lines[1] == "4,1,0.166667,0.166667,0.047619,0.166667"
    assert lines[2] == "# D=6 skipped: L = ratio*D = 3/2 is not integral"
    assert lines[3] == "8,2,0.333333,0.333333,0.111111,0.333333"
    assert text.endswith("\n") and "\r" not in text


def test_render_csv_open_exact_cell():
    """A triple with open capacity leaves the exact column empty."""
    text = render_csv(sweep(24, Fraction(2, 7), [7]))
    row = text.strip().split("\n")[1]
    assert row == "7,2,0.222222,0.250000,0.105263,"
