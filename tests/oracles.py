"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way (Leibniz determinants,
minor expansions, exhaustive partition search) and shares no code with the
package under test, so agreement between the two is meaningful evidence.
StubRng, at the end, is the byte source that drives iplt.draws through
chosen words in the exact draw tests.
"""

from __future__ import annotations

import itertools
import struct
from fractions import Fraction


def naive_inverse(a: int, q: int) -> int:
    """Inverse by exhaustive search over the field."""
    a %= q
    for b in range(1, q):
        if (a * b) % q == 1:
            return b
    raise ZeroDivisionError(f"{a} has no inverse mod {q}")


def leibniz_det(rows: list[list[int]], q: int) -> int:
    """Determinant as the signed sum over all permutations."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j = i
            length = 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term = term * rows[i][perm[i]]
        total += term
    return total % q


def six_points_on_a_conic(cols: list[tuple[int, int, int]], q: int) -> bool:
    """Whether six points of the projective plane lie on one conic.

    A conic is a nonzero combination of the monomials x^2, y^2, z^2, xy, xz
    and yz; it passes through all six points iff the 6 x 6 matrix of those
    monomials evaluated at the points is singular.
    """
    rows = [[x * x, y * y, z * z, x * y, x * z, y * z] for x, y, z in cols]
    return leibniz_det(rows, q) == 0


# Coefficient matrix of an MDS [6, 3] code over GF(17) that is not GRS: the
# first five columns lie on the conic y^2 = xz and the sixth, (1, 1, 5),
# does not, while no three columns are collinear.  A [6, 3] code is GRS iff
# its six columns lie on a common conic.
NON_GRS_V_17 = ((1, 1, 1, 1, 1, 1), (0, 1, 2, 3, 4, 1), (0, 1, 4, 9, 16, 5))


def naive_rank(rows: list[list[int]], q: int) -> int:
    """Rank as the largest r with some invertible r x r minor."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for r in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), r):
            for ci in itertools.combinations(range(n), r):
                sq = [[rows[i][j] for j in ci] for i in ri]
                if leibniz_det(sq, q) != 0:
                    return r
    return 0


def naive_matmul(a: list[list[int]], b: list[list[int]], q: int) -> list[list[int]]:
    """Schoolbook matrix product mod q."""
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            s = 0
            for k in range(inner):
                s += a[i][k] * b[k][j]
            out[i][j] = s % q
    return out


def naive_is_mds(rows: list[list[int]], q: int) -> bool:
    """MDS test by Leibniz determinants of every maximal minor."""
    r = len(rows)
    n = len(rows[0]) if r else 0
    for ci in itertools.combinations(range(n), r):
        sq = [[row[j] for j in ci] for row in rows]
        if leibniz_det(sq, q) == 0:
            return False
    return True


def naive_align_trailing(c_rows, omega_rows, alpha, L: int, S: int, t: int, m: int, q: int):
    """AlignS trailing block written one width-S slot block at a time.

    Row block i holds alpha_j * omega[i][j] times slot j of C for j < t,
    alpha_j times slot j at the diagonal slot j = t + i, and zeros elsewhere.
    """
    width = (t + m) * S
    rows = [[0] * width for _ in range(m * L)]
    for i in range(m):
        for j in range(t + m):
            if j < t:
                coef = alpha[j] * omega_rows[i][j] % q
            elif j == t + i:
                coef = alpha[j] % q
            else:
                continue
            for u in range(L):
                for p in range(j * S, j * S + S):
                    rows[i * L + u][p] = coef * c_rows[u][p] % q
    return rows


def closed_form_rows(K: int, D: int, L: int) -> int:
    """The claimed optimal answer row count L*floor(K/D) + min(L, K mod D)."""
    return L * (K // D) + min(L, K % D)


def partitions_min_rows(K: int, D: int, L: int) -> int:
    """Minimum answer rows by brute force over all partitions of K.

    Enumerates every multiset of part sizes in [1, D] summing to K that
    contains at least one part of size exactly D, and charges min(L, part)
    per part.  Exponential; only usable for small K.
    """
    best = [None]

    def go(remaining: int, max_part: int, have_d: bool, cost: int) -> None:
        if best[0] is not None and cost >= best[0]:
            return
        if remaining == 0:
            if have_d:
                best[0] = cost if best[0] is None else min(best[0], cost)
            return
        for part in range(min(max_part, remaining), 0, -1):
            go(
                remaining - part,
                part,
                have_d or part == D,
                cost + min(L, part),
            )

    go(K, D, False, 0)
    assert best[0] is not None
    return best[0]


def exact_posterior(candidates, index: int) -> Fraction:
    """Posterior of one index from (support, weight) pairs, summed exactly."""
    total = Fraction(0)
    for support, weight in candidates:
        if index in support:
            total += weight
    return total


def v1_query_payload(query) -> bytes:
    """The retired dense v1 query payload of a query, for golden digests.

    q (8 LE), K (4 LE) and the generator's row count (4 LE), then dense G
    row-major in 8-byte LE entries, then pi as K 4-byte LE words.
    """
    g = query.G
    k = len(query.pi)
    entries = [v for row in g.data for v in row]
    return b"".join(
        [
            struct.pack("<QII", g.q, k, g.rows),
            struct.pack(f"<{len(entries)}Q", *entries),
            struct.pack(f"<{k}I", *query.pi),
        ]
    )


def v3_query_payload(query) -> bytes:
    """The retired 4-byte block query payload (kind 0x03), for golden digests.

    Seven 4-byte LE header words (q, K, n, L, D, trailing rows and cols),
    then every decoy block and the trailing block row-major, then pi, all
    as 4-byte LE words.
    """
    blocks, trailing = query.blocks, query.trailing
    L, D = (blocks[0].rows, blocks[0].cols) if blocks else (0, 0)
    head = [query.q, len(query.pi), len(blocks), L, D, trailing.rows, trailing.cols]
    words = head + [v for blk in (*blocks, trailing) for row in blk.data for v in row]
    words += query.pi
    return struct.pack(f"<{len(words)}I", *words)


def v2_answer_payload(y) -> bytes:
    """The retired 8-byte answer payload (kind 0x02), for golden digests:
    rows and N as 4-byte LE words, then the entries as 8-byte LE words."""
    entries = [v for row in y.data for v in row]
    return struct.pack("<II", y.rows, y.cols) + struct.pack(f"<{len(entries)}Q", *entries)


class StubRng:
    """Minimal rng stand-in: randbytes serves preset values, in order, as
    the little-endian 32-bit words that iplt.draws reads."""

    def __init__(self, values):
        self._vals = list(values)

    def randbytes(self, n: int) -> bytes:
        count = n // 4
        words, self._vals = self._vals[:count], self._vals[count:]
        return struct.pack(f"<{count}I", *words)

    def exhausted(self) -> bool:
        return not self._vals
