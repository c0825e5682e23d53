"""Dense exact linear algebra over GF(q).

Matrices are immutable, row-major tuples of tuples of ints reduced mod q.
Everything is computed exactly with integer arithmetic; no floats anywhere.
Structured constructions used by the protocol live here too: Cauchy blocks,
generalized Reed-Solomon (GRS) generators, recovery of a GRS code's points
and multipliers, and GRS extension around pinned columns.

Entries are checked once, where they enter the program.  FqMatrix(q, data,
cols) checks the type, range and shape of data from outside: demand files,
fixtures, library callers.  store.unpack_entries checks entries decoded
from bytes.  Matrices the package builds from entries already checked or
reduced mod q (products, transposes, selections, eliminations, decoy and
Cauchy blocks, the server's answer) come from FqMatrix._reduced, which
checks nothing; tests/test_reduced_sites.py lists the functions that may
call it.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import random
from typing import Iterable, Optional, Sequence

from .draws import below, distinct, distinct_rows, nonzero
from .errors import (
    BadGrsParameters,
    DegenerateCauchy,
    InconsistentSystem,
    NotGrs,
    ShapeError,
)


class FqMatrix:
    """Immutable dense matrix over GF(q); entries are ints in [0, q).

    The constructor is for data from outside the program, and checks it.
    Entries must be of type int exactly: a float, a bool or a string is
    rejected with ValueError rather than converted.  The checks run over
    whole rows with builtins; entries are walked one by one only after a
    check has failed, to name the offending entry.  Matrices built inside
    the package from entries already reduced mod q skip the checks through
    _reduced.
    """

    __slots__ = ("q", "rows", "cols", "data")

    def __init__(self, q: int, data: Iterable[Iterable[int]], cols: int | None = None):
        rows_t = tuple(map(tuple, data))
        if rows_t:
            width = len(rows_t[0])
            if len(set(map(len, rows_t))) != 1:
                raise ShapeError("rows have unequal lengths")
            if cols is not None and cols != width:
                raise ShapeError(f"declared cols={cols} but rows have {width}")
            if width:
                if set(map(type, itertools.chain.from_iterable(rows_t))) != {int}:
                    bad = next(v for row in rows_t for v in row if type(v) is not int)
                    raise ValueError(f"entry {bad!r} is a {type(bad).__name__}, not an int")
                if min(map(min, rows_t)) < 0 or max(map(max, rows_t)) >= q:
                    bad = next(v for row in rows_t for v in row if not 0 <= v < q)
                    raise ValueError(f"entry {bad} not reduced mod {q}")
        else:
            width = 0 if cols is None else cols
        self.q = q
        self.rows = len(rows_t)
        self.cols = width
        self.data = rows_t

    # -- constructors ------------------------------------------------------

    @classmethod
    def _reduced(cls, q: int, rows: tuple[tuple[int, ...], ...], cols: int) -> "FqMatrix":
        """A rows x cols matrix from a tuple of tuples of ints already in
        [0, q), with cols entries each; nothing is checked or copied."""
        m = object.__new__(cls)
        m.q = q
        m.rows = len(rows)
        m.cols = cols
        m.data = rows
        return m

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FqMatrix":
        return cls(q, [[0] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def random(cls, q: int, rows: int, cols: int, rng: random.Random) -> "FqMatrix":
        flat = below(rng, q, rows * cols)
        return cls(q, [flat[r * cols : (r + 1) * cols] for r in range(rows)], cols=cols)

    # -- access --------------------------------------------------------------

    def __getitem__(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def to_rows(self) -> list[list[int]]:
        """Mutable copy of the entries."""
        return [list(row) for row in self.data]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.data)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FqMatrix)
            and other.q == self.q
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self) -> int:
        return hash((self.q, self.cols, self.data))

    def __repr__(self) -> str:
        return f"FqMatrix(q={self.q}, {self.rows}x{self.cols})"

    # -- arithmetic ----------------------------------------------------------

    def mul(self, other: "FqMatrix") -> "FqMatrix":
        if self.q != other.q:
            raise ShapeError(f"field mismatch: GF({self.q}) vs GF({other.q})")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        q = self.q
        bt = other.transpose().data
        out = tuple(
            tuple([sum(map(operator.mul, row, col)) % q for col in bt]) for row in self.data
        )
        return FqMatrix._reduced(q, out, other.cols)

    def transpose(self) -> "FqMatrix":
        cols = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return FqMatrix._reduced(self.q, cols, self.rows)

    # -- selection -----------------------------------------------------------

    def take_rows(self, idx: Sequence[int]) -> "FqMatrix":
        return FqMatrix._reduced(self.q, tuple([self.data[i] for i in idx]), self.cols)

    def take_cols(self, idx: Sequence[int]) -> "FqMatrix":
        return FqMatrix._reduced(
            self.q, tuple(tuple([row[j] for j in idx]) for row in self.data), len(idx)
        )


def hstack(mats: Sequence[FqMatrix]) -> FqMatrix:
    """Stack matrices horizontally; all must share q and row count."""
    if not mats:
        raise ShapeError("hstack of nothing")
    q, nrows = mats[0].q, mats[0].rows
    for m in mats:
        if m.q != q or m.rows != nrows:
            raise ShapeError("hstack mismatch")
    rows = [sum((m.data[i] for m in mats), ()) for i in range(nrows)]
    return FqMatrix(q, rows, cols=sum(m.cols for m in mats))


# -- elimination -----------------------------------------------------------


def _rref(rows: list[list[int]], q: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots: list[int] = []
    pr = 0
    for c in range(ncols):
        if pr == m:
            break
        pv = next((r for r in range(pr, m) if rows[r][c]), None)
        if pv is None:
            continue
        rows[pr], rows[pv] = rows[pv], rows[pr]
        inv = pow(rows[pr][c], q - 2, q)
        rows[pr] = [(v * inv) % q for v in rows[pr]]
        lead = rows[pr]
        for r in range(m):
            if r != pr and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % q for v, w in zip(rows[r], lead)]
        pivots.append(c)
        pr += 1
    return rows, pivots


def rank(m: FqMatrix) -> int:
    """Rank by exact Gaussian elimination."""
    _, pivots = _rref(m.to_rows(), m.q)
    return len(pivots)


def right_null_space(m: FqMatrix) -> FqMatrix:
    """Basis for {x : m @ x^T = 0}, as rows, canonicalized by RREF.

    Returns a (cols - rank) x cols matrix; zero rows count means the null
    space is trivial.
    """
    q = m.q
    red, piv = _rref(m.to_rows(), q)
    pivset = set(piv)
    free = [c for c in range(m.cols) if c not in pivset]
    basis: list[list[int]] = []
    for f in free:
        v = [0] * m.cols
        v[f] = 1
        for r, pc in enumerate(piv):
            v[pc] = (-red[r][f]) % q
        basis.append(v)
    if not basis:
        return FqMatrix._reduced(q, (), m.cols)
    canon, cpiv = _rref(basis, q)
    return FqMatrix._reduced(q, tuple(map(tuple, canon[: len(cpiv)])), m.cols)


def solve(a: FqMatrix, b: FqMatrix) -> FqMatrix:
    """One solution X of a @ X = b; raises InconsistentSystem if none exists.

    Free variables are set to zero, so the result is deterministic.
    """
    if a.q != b.q:
        raise ShapeError("field mismatch in solve")
    if a.rows != b.rows:
        raise ShapeError(f"solve shape mismatch: {a.rows} vs {b.rows} rows")
    n = a.cols
    aug = [list(ra) + list(rb) for ra, rb in zip(a.data, b.data)]
    if not aug:
        return FqMatrix.zeros(a.q, n, b.cols)
    red, piv = _rref(aug, a.q)
    x = [[0] * b.cols for _ in range(n)]
    for r, pc in enumerate(piv):
        if pc >= n:
            raise InconsistentSystem("no solution: pivot in the constant block")
        x[pc] = list(red[r][n:])
    return FqMatrix._reduced(a.q, tuple(map(tuple, x)), b.cols)


def _invertible(square: list[list[int]], q: int) -> bool:
    """Exact invertibility test by elimination with early exit."""
    n = len(square)
    rows = [row[:] for row in square]
    for c in range(n):
        pv = next((r for r in range(c, n) if rows[r][c]), None)
        if pv is None:
            return False
        rows[c], rows[pv] = rows[pv], rows[c]
        inv = pow(rows[c][c], q - 2, q)
        lead = [(v * inv) % q for v in rows[c]]
        rows[c] = lead
        for r in range(c + 1, n):
            if rows[r][c]:
                f = rows[r][c]
                rows[r] = [(v - f * w) % q for v, w in zip(rows[r], lead)]
    return True


# -- MDS machinery ----------------------------------------------------------


def first_singular_minor(m: FqMatrix) -> Optional[tuple[int, ...]]:
    """The lexicographically first column subset whose maximal minor is singular.

    Returns None when every maximal (rows x rows) minor is invertible.  A
    matrix with more rows than columns has no maximal minors and the call is
    a usage error (ShapeError).  A 0-row matrix has no singular minor.
    """
    r, n = m.rows, m.cols
    if r > n:
        raise ShapeError(f"is_mds needs rows <= cols, got {r}x{n}")
    if r == 0:
        return None
    colv = [m.column(j) for j in range(n)]
    for sub in itertools.combinations(range(n), r):
        sq = [[colv[j][i] for j in sub] for i in range(r)]
        if not _invertible(sq, m.q):
            return sub
    return None


def is_mds(m: FqMatrix) -> bool:
    """True iff every maximal minor of m is invertible.

    A GRS code is MDS (Roth and Seroussi 1985), so when grs_parameters
    proves m GRS that certificate decides, in O(k n^2).  Only when it
    raises NotGrs are the minors enumerated (first_singular_minor).
    """
    try:
        grs_parameters(m)
    except NotGrs:
        return first_singular_minor(m) is None
    return True


def cauchy(q: int, x: Sequence[int], y: Sequence[int]) -> FqMatrix:
    """Cauchy matrix w[i][j] = 1 / (x[i] - y[j]) over GF(q).

    All of x and y together must be distinct mod q, otherwise some entry
    would divide by zero (DegenerateCauchy).
    """
    xs = [v % q for v in x]
    ys = [v % q for v in y]
    if len(set(xs + ys)) != len(xs) + len(ys):
        raise DegenerateCauchy("cauchy parameters collide mod q")
    return FqMatrix._reduced(
        q, tuple(tuple([pow((xi - yj) % q, q - 2, q) for yj in ys]) for xi in xs), len(ys)
    )


def grs_generator(
    q: int,
    k: int,
    n: int,
    points: Sequence[int],
    multipliers: Sequence[int],
) -> FqMatrix:
    """Generator of a generalized Reed-Solomon code: entry[i][j] = m_j * p_j^i.

    Requires 0 <= k <= n <= q, n distinct evaluation points, and n nonzero
    column multipliers; every maximal minor is then a scaled Vandermonde
    determinant, hence invertible, so the result is MDS by construction.
    """
    if not 0 <= k <= n:
        raise BadGrsParameters(f"need 0 <= k <= n, got k={k} n={n}")
    if n > q:
        raise BadGrsParameters(f"need n <= q for distinct points, got n={n} q={q}")
    pts = [p % q for p in points]
    mults = [m % q for m in multipliers]
    if len(pts) != n or len(set(pts)) != n:
        raise BadGrsParameters("points must be n distinct field elements")
    if len(mults) != n or 0 in mults:
        raise BadGrsParameters("multipliers must be n nonzero field elements")
    return FqMatrix(q, _grs_rows(q, k, pts, mults), cols=n)


def _grs_rows(q: int, k: int, pts: list[int], mults: list[int]) -> list[list[int]]:
    """Rows m_j * p_j^i, i < k, by recurrence: row 0 is the multipliers
    themselves (p^0 = 1, also for p = 0), and row i + 1 is row i times the
    points, entry by entry."""
    rows = [mults]
    for _ in range(k - 1):
        rows.append([v * p % q for v, p in zip(rows[-1], pts)])
    return rows[:k]


def random_grs(q: int, k: int, n: int, rng: random.Random) -> FqMatrix:
    """Random GRS generator: uniform distinct points, uniform nonzero multipliers."""
    return random_grs_blocks(q, k, n, 1, rng)[0]


def random_grs_blocks(q: int, k: int, n: int, count: int, rng: random.Random) -> list[FqMatrix]:
    """count independent random_grs(q, k, n) draws, drawn as one batch.

    The points of all blocks come from one draw, refilled only for a block
    that repeats a point (draws.distinct_rows), and the multipliers from
    another; the row recurrence then runs once over all count * n columns.
    """
    if not 0 <= k <= n:
        raise BadGrsParameters(f"need 0 <= k <= n, got k={k} n={n}")
    if n > q:
        raise BadGrsParameters(f"need n <= q, got n={n} q={q}")
    if count == 0:
        return []  # nothing to draw; skips the batch's fixed cost on small shapes
    points = [p for row in distinct_rows(rng, q, count, n) for p in row]
    rows = tuple(map(tuple, _grs_rows(q, k, points, nonzero(rng, q, count * n))))
    return [
        FqMatrix._reduced(q, tuple(row[c * n : (c + 1) * n] for row in rows), n)
        for c in range(count)
    ]


def grs_parameters(g: FqMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Points and multipliers of the GRS code that g generates.

    Returns finite distinct points P and nonzero multipliers m such that
    grs_generator(q, k, n, P, m) has the row space of g, or raises NotGrs
    when no such pair exists.  In the systematic form [I | A] of a GRS code,
    A[i][j] = c_i d_j / (y_j - x_i) is a generalized Cauchy matrix (Roth and
    Seroussi, "On generator matrices of MDS codes", 1985).  Dividing out the
    scalings c and d places the first parity point at infinity, x_0 at 0
    and y_1 at 1, which fixes every other point; z -> 1/(z - a) for an
    unused field element a then makes all points finite.  When k <= 1 or
    n - k <= 1 any distinct points work.  The closing row-space comparison
    is the proof that g is GRS.  Draws no randomness and costs O(k n^2)
    field operations.
    """
    q, k, n = g.q, g.rows, g.cols
    if n > q:
        raise NotGrs(f"a GRS code of length {n} needs {n} distinct points, GF({q}) has {q}")
    red, piv = _rref(g.to_rows(), q)
    if piv != list(range(k)):
        raise NotGrs("the leading columns are dependent, so the code is not MDS")
    r = n - k
    a = [row[k:] for row in red]
    if any(v == 0 for row in a for v in row):
        raise NotGrs("the systematic form has a zero entry, so the code is not MDS")

    def inv(v: int) -> int:
        return pow(v, q - 2, q)

    if k <= 1 or r <= 1:
        points = list(range(n))
    else:
        # With A's scalings divided out, c[i][j] = y_j / (y_j - x_i).
        c = [[a[i][j] * a[0][0] * inv(a[i][0] * a[0][j]) % q for j in range(r)] for i in range(k)]
        if 1 in c[1][1:]:
            raise NotGrs("a parity point collides with the point at infinity")
        xs = [(1 - inv(c[i][1])) % q for i in range(k)]
        ys = [c[1][j] * xs[1] * inv(c[1][j] - 1) % q for j in range(1, r)]
        finite = xs + ys
        if len(set(finite)) != n - 1 or any(
            c[i][j] != ys[j - 1] * inv(ys[j - 1] - xs[i]) % q
            for i in range(k)
            for j in range(1, r)
        ):
            raise NotGrs("the systematic form is not a generalized Cauchy matrix")
        used = set(finite)
        shift = next(z for z in range(q) if z not in used)
        points = [inv(z - shift) for z in xs] + [0] + [inv(z - shift) for z in ys]
    if k == 0 or r == 0:
        mults = [1] * n
    else:
        # rref(V diag(m)) = [I | diag(m_x)^-1 A' diag(m_y)] for the systematic
        # part A' of the unit-multiplier generator V; solve with m_x[0] = 1.
        base, _ = _rref(grs_generator(q, k, n, points, [1] * n).to_rows(), q)
        my = [a[0][j] * inv(base[0][k + j]) % q for j in range(r)]
        mx = [base[i][k] * my[0] * inv(a[i][0]) % q for i in range(k)]
        mults = mx + my
    if _rref(grs_generator(q, k, n, points, mults).to_rows(), q)[0] != red:
        raise NotGrs("the recovered points and multipliers do not reproduce the code")
    return tuple(points), tuple(mults)


def grs_extend(
    g: FqMatrix,
    points: Sequence[int],
    multipliers: Sequence[int],
    positions: Sequence[int],
    width: int,
    rng: random.Random,
) -> FqMatrix:
    """MDS matrix of the given width whose columns at positions equal g.

    points and multipliers must describe the row space of g, as returned by
    grs_parameters.  Every other column gets a fresh point, drawn uniformly
    from the field elements not yet used, and a uniform nonzero multiplier.
    The result is T @ ext for the GRS generator ext over all columns and the
    one T with T @ ext[:, positions] = g, so it is MDS by construction and
    keeps g bit-identical at positions.
    """
    q, k, n = g.q, g.rows, g.cols
    if width > q:
        raise BadGrsParameters(f"need width <= q for distinct points, got width={width} q={q}")
    pinned = set(positions)
    if len(positions) != n or len(pinned) != n or not pinned <= set(range(width)):
        raise ShapeError(f"need {n} distinct positions in [0, {width}), got {list(positions)}")
    free = [col for col in range(width) if col not in pinned]
    pts = [0] * width
    mults = [0] * width
    for j, col in enumerate(positions):
        pts[col], mults[col] = points[j], multipliers[j]
    # Index i of the q - n unused field elements stands for the i-th
    # smallest of them.  Below the j-th smallest used point (from 0) lie
    # p - j unused ones, so i lands past exactly the used points whose
    # p - j <= i.
    gaps = [p - j for j, p in enumerate(sorted(points))]
    fresh = distinct(rng, q - n, len(free))
    for col, i, m in zip(free, fresh, nonzero(rng, q, len(free))):
        pts[col], mults[col] = i + bisect.bisect_right(gaps, i), m
    ext = grs_generator(q, k, width, pts, mults)
    try:
        t = solve(ext.take_cols(positions).transpose(), g.transpose()).transpose()
    except InconsistentSystem:
        raise NotGrs("g is not in the row space of the given GRS parameters") from None
    return t.mul(ext)
