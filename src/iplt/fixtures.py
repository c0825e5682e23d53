"""Three fully pinned protocol instances over GF(17) for regression checks.

Every random draw is hard-coded: demands, shuffles, decoy blocks, planted
slots, Cauchy parameters, scalings, embeddings, and the full permutation.
Tables are written 1-based exactly as printed in the worked displays they
reproduce and converted to the package's 0-based convention on load.

Example 1: K=24, D=8, L=2 (R=0, AlignS), demand planted at block 2 of 3.
Example 2: K=24, D=9, L=2 (R=6, S=3, AlignS), demand on the trailing block.
Example 3: K=24, D=7, L=2 (R=3, S=1, ParityEmbed), demand on the trailing
block via a parity-check embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .matrix import FqMatrix, cauchy, hstack
from .protocol import (
    ClientSecret,
    Demand,
    ProtocolParams,
    Query,
    _assemble_align_trailing,
    derive_params,
    slot_columns,
)


@dataclass(frozen=True)
class ExampleFixture:
    """One pinned instance: parameters, demand, query, secret, and the
    recomputation targets specific to the example, including the AlignS
    records (coefficient matrix, Cauchy points, scalings) it pins."""

    name: str
    params: ProtocolParams
    demand: Demand
    query: Query
    secret: ClientSecret
    expected: dict[str, Any]


def _pi_from_table(table: dict[int, int], k: int) -> tuple[int, ...]:
    """1-based {message: position} table to a 0-based permutation tuple."""
    assert len(table) == k
    assert sorted(table) == list(range(1, k + 1))
    assert sorted(table.values()) == list(range(1, k + 1))
    pi = [0] * k
    for msg, pos in table.items():
        pi[msg - 1] = pos - 1
    return tuple(pi)


def _zero_based(seq) -> tuple[int, ...]:
    return tuple(v - 1 for v in seq)


def _example_1() -> ExampleFixture:
    q = 17
    params = derive_params(24, 8, 2, q)
    demand = Demand(
        _zero_based((2, 4, 5, 7, 8, 10, 11, 18)),
        FqMatrix(q, [(2, 15, 3, 6, 1, 4, 11, 13), (6, 9, 4, 3, 11, 15, 13, 8)]),
    )
    shuffled = Demand(
        _zero_based((5, 8, 11, 2, 4, 7, 10, 18)),
        FqMatrix(q, [(3, 1, 11, 2, 15, 6, 4, 13), (4, 11, 13, 6, 9, 3, 15, 8)]),
        check_mds=False,
    )
    g1 = FqMatrix(q, [(1, 4, 7, 6, 3, 12, 4, 9), (5, 7, 6, 9, 3, 15, 2, 1)])
    g3 = FqMatrix(q, [(9, 13, 2, 10, 7, 1, 15, 3), (9, 11, 12, 3, 13, 13, 7, 10)])
    pi = _pi_from_table(
        {
            1: 1, 22: 2, 13: 3, 19: 4, 24: 5, 17: 6, 20: 7, 12: 8,
            5: 9, 8: 10, 11: 11, 2: 12, 4: 13, 7: 14, 10: 15, 18: 16,
            3: 17, 15: 18, 9: 19, 21: 20, 16: 21, 14: 22, 6: 23, 23: 24,
        },
        24,
    )
    return ExampleFixture(
        name="example 1",
        params=params,
        demand=demand,
        query=Query((g1, shuffled.V), g3, pi),
        secret=ClientSecret(b=1, shuffled=shuffled),
        expected={"c_matrix": g3},
    )


def _example_2() -> ExampleFixture:
    q = 17
    params = derive_params(24, 9, 2, q)
    demand = Demand(
        _zero_based((2, 4, 5, 7, 8, 10, 11, 18, 23)),
        FqMatrix(
            q,
            [(2, 15, 3, 6, 1, 4, 11, 13, 9), (6, 9, 4, 3, 11, 15, 13, 8, 1)],
        ),
    )
    shuffled = Demand(
        _zero_based((10, 4, 8, 11, 7, 23, 18, 2, 5)),
        FqMatrix(
            q,
            [(4, 15, 1, 11, 6, 9, 13, 2, 3), (15, 9, 11, 13, 3, 1, 8, 6, 4)],
        ),
        check_mds=False,
    )
    g1 = FqMatrix(q, [(3, 14, 11, 8, 4, 10, 5, 5, 6), (12, 16, 3, 4, 6, 3, 7, 15, 4)])
    decoy2 = FqMatrix(q, [(1, 4, 7), (5, 7, 6)])
    decoy4 = FqMatrix(q, [(6, 3, 12), (9, 3, 15)])
    v = shuffled.V
    c_matrix = hstack(
        [
            v.take_cols(range(0, 3)),
            decoy2,
            v.take_cols(range(3, 6)),
            decoy4,
            v.take_cols(range(6, 9)),
        ]
    )
    x, y = (1, 5, 7), (11, 16)
    alpha = (3, 2, 1, 10, 4)
    c = (1, 13)
    trailing = _assemble_align_trailing(params, c_matrix, cauchy(q, x, y), alpha)
    pi = _pi_from_table(
        {
            17: 1, 22: 2, 20: 3, 14: 4, 24: 5, 21: 6, 19: 7, 15: 8,
            6: 9, 10: 10, 4: 11, 8: 12, 1: 13, 13: 14, 16: 15, 11: 16,
            7: 17, 23: 18, 9: 19, 3: 20, 12: 21, 18: 22, 2: 23, 5: 24,
        },
        24,
    )
    secret = ClientSecret(
        b=1,
        shuffled=shuffled,
        h=tuple(slot_columns(params.S, (0, 2, 4))),
        trailing=trailing,
    )
    return ExampleFixture(
        name="example 2",
        params=params,
        demand=demand,
        query=Query((g1,), trailing, pi),
        secret=secret,
        expected={
            "c_matrix": c_matrix,
            "cauchy_x": x,
            "cauchy_y": y,
            "alpha": alpha,
            "omega": FqMatrix(q, [(5, 9), (14, 3), (4, 15)]),
            "c": c,
            "planted_alpha": {0: 3, 2: 1, 4: 4},
            "trailing_coefs": (
                (15, 1, 1, 0, 0),
                (8, 6, 0, 10, 0),
                (12, 13, 0, 0, 4),
            ),
        },
    )


def _example_3() -> ExampleFixture:
    q = 17
    params = derive_params(24, 7, 2, q)
    demand = Demand(
        _zero_based((2, 4, 7, 10, 15, 18, 23)),
        FqMatrix(q, [(2, 15, 6, 4, 11, 13, 9), (6, 9, 3, 15, 13, 8, 1)]),
    )
    shuffled = Demand(
        _zero_based((4, 10, 7, 23, 18, 2, 15)),
        FqMatrix(q, [(15, 4, 6, 9, 13, 2, 11), (9, 15, 3, 1, 8, 6, 13)]),
        check_mds=False,
    )
    g1 = FqMatrix(q, [(11, 5, 10, 1, 15, 2, 7), (16, 10, 16, 6, 1, 1, 13)])
    g2 = FqMatrix(q, [(5, 8, 14, 7, 4, 3, 16), (3, 5, 8, 1, 6, 2, 15)])
    # The trailing generator and the parity matrix below are generalized
    # Reed-Solomon matrices on the points (4, 6, 8, 9, 10, 2, 15, 3, 5, 12);
    # duality, the pinned recovery transform, and the embedded null-space
    # columns jointly force the generator's column 8 multiplier to 4 and the
    # parity's column 2 multiplier to 16 (1-based columns).
    g3 = FqMatrix(
        q,
        [
            (3, 14, 11, 8, 4, 10, 8, 4, 5, 6),
            (12, 16, 3, 4, 6, 3, 1, 12, 8, 4),
            (14, 11, 7, 2, 9, 6, 15, 2, 6, 14),
            (5, 15, 5, 1, 5, 12, 4, 6, 13, 15),
            (3, 5, 6, 9, 16, 7, 9, 1, 14, 10),
        ],
    )
    pi = _pi_from_table(
        {
            8: 1, 14: 2, 17: 3, 22: 4, 19: 5, 16: 6, 13: 7, 3: 8,
            20: 9, 24: 10, 21: 11, 1: 12, 6: 13, 12: 14, 4: 15, 5: 16,
            10: 17, 7: 18, 9: 19, 23: 20, 18: 21, 2: 22, 11: 23, 15: 24,
        },
        24,
    )
    secret = ClientSecret(
        b=2,
        shuffled=shuffled,
        h=_zero_based((1, 3, 4, 6, 7, 8, 10)),
        trailing=g3,
    )
    return ExampleFixture(
        name="example 3",
        params=params,
        demand=demand,
        query=Query((g1, g2), g3, pi),
        secret=secret,
        expected={
            "lam": FqMatrix(
                q,
                [
                    (8, 5, 9, 6, 14, 11, 13),
                    (15, 6, 13, 12, 6, 16, 3),
                    (9, 14, 15, 7, 5, 14, 2),
                    (2, 10, 16, 14, 7, 8, 7),
                    (8, 12, 8, 11, 3, 7, 16),
                ],
            ),
            "parity": FqMatrix(
                q,
                [
                    (8, 16, 5, 9, 2, 6, 14, 11, 4, 13),
                    (15, 11, 6, 13, 3, 12, 6, 16, 3, 3),
                    (9, 15, 14, 15, 13, 7, 5, 14, 15, 2),
                    (2, 5, 10, 16, 11, 14, 7, 8, 7, 7),
                    (8, 13, 12, 8, 8, 11, 3, 7, 1, 16),
                ],
            ),
            "t_matrix": FqMatrix(q, [(6, 4, 13, 1, 0), (0, 6, 4, 13, 1)]),
            "u_matrix": FqMatrix(
                q,
                [
                    (15, 0, 4, 6, 0, 9, 13, 2, 0, 11),
                    (9, 0, 15, 3, 0, 1, 8, 6, 0, 13),
                ],
            ),
        },
    )


_BUILDERS = {1: _example_1, 2: _example_2, 3: _example_3}


def example_fixture(which: int) -> ExampleFixture:
    """Load pinned instance 1, 2, or 3."""
    if which not in _BUILDERS:
        raise ValueError(f"no example {which}; choose 1, 2, or 3")
    return _BUILDERS[which]()
