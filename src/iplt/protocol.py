"""Private linear transformation protocol engine.

Builds single-server queries that hide every demanded index individually,
computes server answers, and recovers the demanded linear combinations.

The query generator is block-diagonal: n square-ish decoy blocks of shape
L x D followed by one trailing block covering the last D + R positions,
where R = K mod D.  The demand block is planted at a random block position
b; if b lands on the trailing block the construction branches:

* AlignS (L <= S, S = gcd(D, R)): the trailing block is a Cauchy-scaled
  arrangement of an L x (D+R) MDS matrix whose column blocks hide the
  demand across t+1 of t+m width-S slots, with interference alignment
  coefficients cancelling the unused slots.
* ParityEmbed (L > S): the trailing block is the generator of an MDS code
  whose parity check embeds the null space of the demand matrix at D secret
  column positions.

Both planted arrangements extend the demand's generalized Reed-Solomon
(GRS) code, or its dual, by R fresh evaluation points (matrix.grs_extend).
Either way the demand sits at trailing columns h, and the client recovers
it with the one T that solves T @ trailing = U, where U is V placed at h
(embedding_transform).

Every draw reads rng.randbytes through iplt.draws, which turns the bytes
into exact uniform draws, so any random.Random can feed a query and a seed
fully determines it.  A seed does not replay a query recorded while the
draws went through random.Random's own randrange, sample and shuffle: it
now gives a different query from the same distribution.  Privacy assumes
the server cannot predict rng, so a private query draws from an
unpredictable one (random.SystemRandom).
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .bounds import check_shape, slot_width
from .draws import below, distinct, nonzero, shuffle, subset
from .errors import (
    AlignmentSingular,
    BadShape,
    FieldTooSmall,
    InconsistentSystem,
    NotMds,
    RecoveryInconsistent,
    ShapeError,
)
from .field import check_field
from .matrix import (
    FqMatrix,
    cauchy,
    grs_extend,
    grs_parameters,
    is_mds,
    random_grs,
    random_grs_blocks,
    right_null_space,
    solve,
)

ALIGN_S = "AlignS"
PARITY_EMBED = "ParityEmbed"


@dataclass(frozen=True)
class ProtocolParams:
    """Derived protocol shape for (K, D, L, q) with N columns per message.

    R = K mod D, S = gcd(D, R) (S = D when R = 0), n = floor(K/D) - 1.
    t and m are the trailing-block slot counts for the AlignS case and are
    None for ParityEmbed, which stores only the final answer row count.
    """

    K: int
    D: int
    L: int
    q: int
    N: int
    R: int
    S: int
    n: int
    case: str
    answer_rows: int
    t: Optional[int] = None
    m: Optional[int] = None


def derive_params(K: int, D: int, L: int, q: int, N: int = 1) -> ProtocolParams:
    """Validate (K, D, L, q, N) and derive the protocol shape.

    Raises BadShape unless 1 <= L <= D <= K and N >= 1, NotPrime for a
    composite q, and FieldTooSmall when q < D + (K mod D).
    """
    check_shape(K, D, L)
    for name, v in (("q", q), ("N", N)):
        if not isinstance(v, int):
            raise BadShape(f"{name} must be an int, got {type(v).__name__}")
    if N < 1:
        raise BadShape(f"need N >= 1, got N={N}")
    check_field(q)
    R = K % D
    S = slot_width(D, R)
    if q < D + R:
        raise FieldTooSmall(f"need q >= D + R = {D + R}, got q={q}")
    n = K // D - 1
    if L <= S:
        t = D // S - 1
        m = R // S + 1
        return ProtocolParams(
            K=K, D=D, L=L, q=q, N=N, R=R, S=S, n=n,
            case=ALIGN_S, answer_rows=L * (n + m), t=t, m=m,
        )
    return ProtocolParams(
        K=K, D=D, L=L, q=q, N=N, R=R, S=S, n=n,
        case=PARITY_EMBED, answer_rows=L * (n + 1) + R,
    )


def achieved_rate(params: ProtocolParams) -> Fraction:
    """Exact download rate L / answer_rows of the protocol."""
    return Fraction(params.L, params.answer_rows)


class Demand:
    """A demand: D distinct message indices W and an MDS L x D matrix V.

    The target of retrieval is V @ X_W, the L linear combinations of the
    demanded messages.  Column j of V is the coefficient of message W[j],
    so a simultaneous permutation of W and V's columns leaves the target
    unchanged.  Constructors that accept untrusted input keep check_mds
    True; internal constructions that are MDS by construction may skip it.
    """

    __slots__ = ("W", "V")

    def __init__(self, w: Sequence[int], v: FqMatrix, *, check_mds: bool = True):
        w = tuple(int(i) for i in w)
        if len(w) == 0:
            raise BadShape("demand must name at least one index")
        if len(set(w)) != len(w):
            raise BadShape("demand indices must be distinct")
        if any(i < 0 for i in w):
            raise BadShape("demand indices must be nonnegative")
        if v.cols != len(w):
            raise BadShape(f"V has {v.cols} columns for {len(w)} indices")
        if not 1 <= v.rows <= v.cols:
            raise BadShape(f"need 1 <= L <= D, got V of shape {v.rows}x{v.cols}")
        if check_mds and not is_mds(v):
            raise NotMds("coefficient matrix has a singular maximal minor")
        self.W = w
        self.V = v

    @classmethod
    def random(cls, params: ProtocolParams, rng: random.Random) -> "Demand":
        """Uniform sorted support and a random GRS coefficient matrix."""
        w = subset(rng, params.K, params.D)
        v = random_grs(params.q, params.L, params.D, rng)
        return cls(w, v, check_mds=False)

    def value(self, x: FqMatrix) -> FqMatrix:
        """The demanded combinations V @ X_W for a full message matrix."""
        return self.V.mul(x.take_rows(self.W))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Demand) and other.W == self.W and other.V == self.V

    def __repr__(self) -> str:
        return f"Demand(W={self.W}, V={self.V!r})"


@dataclass(frozen=True)
class Query:
    """What the server sees: the generator's diagonal blocks and the permutation pi.

    G is block-diagonal: the n decoy blocks (L x D each) followed by the
    trailing block, each starting where the previous one ends in rows and
    columns.  pi[i] is the position of message i in the permuted ordering;
    the server applies G to the permuted message matrix.  Queries are
    wire-decodable data and are validated by decoders and audits, not on
    construction.
    """

    blocks: tuple[FqMatrix, ...]
    trailing: FqMatrix
    pi: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.trailing.q

    @property
    def G(self) -> FqMatrix:
        """The dense generator, assembled from the blocks on every access.

        Only bench/run.py's traced replay reads it (query.G.q); no package code does."""
        blocks = (*self.blocks, self.trailing)
        width = sum(blk.cols for blk in blocks)
        g_rows = [[0] * width for _ in range(sum(blk.rows for blk in blocks))]
        row = col = 0
        for blk in blocks:
            for u, entries in enumerate(blk.data):
                g_rows[row + u][col : col + blk.cols] = entries
            row += blk.rows
            col += blk.cols
        return FqMatrix(self.q, g_rows, cols=width)


@dataclass(frozen=True)
class ClientSecret:
    """Client-side state needed to recover the demand from the answer.

    b is the 0-based block index where the demand was planted, and shuffled
    is the demand after its secret column shuffle.  When b lands on the
    trailing block, h holds the demand's columns inside it, in demand-column
    order (the planted width-S slots for AlignS, the embedding set for
    ParityEmbed), and trailing is the trailing block itself; otherwise both
    are None.
    """

    b: int
    shuffled: Demand
    h: Optional[tuple[int, ...]] = None
    trailing: Optional[FqMatrix] = None


def select_block(params: ProtocolParams, rng: random.Random) -> int:
    """Sample the demand block: block j < n with weight D/K, block n with (D+R)/K."""
    (v,) = below(rng, params.K, 1)
    return min(v // params.D, params.n)


def shuffle_demand(demand: Demand, rng: random.Random) -> Demand:
    """Apply one uniform column shuffle to (W, V); the target V @ X_W is unchanged."""
    idx = list(range(len(demand.W)))
    shuffle(rng, idx)
    w = tuple(demand.W[i] for i in idx)
    return Demand(w, demand.V.take_cols(idx), check_mds=False)


def alignment_coefficients(
    q: int,
    t: int,
    k_idx: Sequence[int],
    l_idx: Sequence[int],
    omega: FqMatrix,
) -> tuple[int, ...]:
    """Combining coefficients c over l_idx, normalized to c[0] = 1.

    The alignment system requires the c-weighted combination of the omega
    rows indexed by l_idx to vanish on every column-block of [0, t) that is
    not in k_idx.  For a true Cauchy omega that homogeneous system has
    nullity exactly one and a zero-free solution; anything else raises
    AlignmentSingular (it signals corrupted input, not bad luck).
    """
    r, s = len(k_idx), len(l_idx)
    if r + s != t + 1 or s < 1:
        raise BadShape(f"need |k_idx| + |l_idx| = t+1 with |l_idx| >= 1, got {r}+{s}")
    kset = set(k_idx)
    unchosen = [j for j in range(t) if j not in kset]
    m1 = FqMatrix._reduced(
        q, tuple(tuple([omega.data[l - t][ku] for l in l_idx]) for ku in unchosen), s
    )
    ns = right_null_space(m1)
    if ns.rows != 1:
        raise AlignmentSingular(f"alignment nullity {ns.rows}, expected 1")
    v = ns.data[0]
    if v[0] == 0:
        raise AlignmentSingular("cannot normalize: leading coefficient is zero")
    inv0 = pow(v[0], q - 2, q)
    c = tuple((x * inv0) % q for x in v)
    if any(x == 0 for x in c):
        raise AlignmentSingular("alignment solution has a zero coefficient")
    return c


def solve_alignment(
    q: int,
    t: int,
    m: int,
    k_idx: Sequence[int],
    l_idx: Sequence[int],
    omega: FqMatrix,
    rng: random.Random,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Alignment coefficients and block scalings for a planted slot subset.

    k_idx (subset of [0, t)) and l_idx (subset of [t, t+m)) are the planted
    slots, |k_idx| + |l_idx| = t + 1.  Returns (c, alpha): c are the
    combining coefficients over l_idx normalized to c[0] = 1, and alpha are
    the t+m column-block scalings chosen so the combination reproduces the
    planted blocks with coefficient 1; unplanted slots get random nonzero
    alpha.  Degeneracies raise AlignmentSingular.
    """
    if omega.rows != m or omega.cols != t:
        raise ShapeError(f"omega must be {m}x{t}, got {omega.rows}x{omega.cols}")
    c = alignment_coefficients(q, t, k_idx, l_idx, omega)
    s = len(l_idx)
    alpha: list[Optional[int]] = [None] * (t + m)
    for j, l in enumerate(l_idx):
        alpha[l] = pow(c[j], q - 2, q)
    for ku in k_idx:
        ssum = sum(c[j] * omega.data[l_idx[j] - t][ku] for j in range(s)) % q
        if ssum == 0:
            raise AlignmentSingular("aligned sum vanished at a planted slot")
        alpha[ku] = pow(ssum, q - 2, q)
    free = [j for j in range(t + m) if alpha[j] is None]
    for j, a in zip(free, nonzero(rng, q, len(free))):
        alpha[j] = a
    return c, tuple(alpha)  # type: ignore[arg-type]


def slot_columns(S: int, slots: Sequence[int]) -> list[int]:
    """Columns of the AlignS width-S slots, in slot order: slot j covers j*S .. j*S + S - 1."""
    return [j * S + v for j in slots for v in range(S)]


def _assemble_align_trailing(
    params: ProtocolParams,
    c_matrix: FqMatrix,
    omega: FqMatrix,
    alpha: Sequence[int],
) -> FqMatrix:
    """AlignS trailing block: m x (t+m) grid of scaled width-S column blocks.

    Row block i holds alpha_j * omega[i][j] * C_j for j < t, alpha_j * C_j at
    the diagonal slot j = t + i, and zero blocks elsewhere.  Those scales form
    one m x (t+m) table, and row (i, u) is C's row u with entry p scaled by
    table[i][p // S].
    """
    S, t, m, q = params.S, params.t, params.m, params.q
    assert t is not None and m is not None
    table = [
        [alpha[j] * w % q for j, w in enumerate(row)]
        + [alpha[t + i] if j == i else 0 for j in range(m)]
        for i, row in enumerate(omega.data)
    ]
    rows = tuple(
        tuple([scale[p // S] * v % q for p, v in enumerate(src)])
        for scale in table
        for src in c_matrix.data
    )
    return FqMatrix._reduced(q, rows, c_matrix.cols)


def demand_positions(
    params: ProtocolParams, b: int, h: Optional[Sequence[int]] = None
) -> list[int]:
    """Positions of the shuffled demand indices, in demand-column order.

    Block b < n occupies its contiguous D positions; on the trailing block
    demand column j sits at trailing offset h[j].
    """
    D, n = params.D, params.n
    if b < n:
        return [b * D + j for j in range(D)]
    if h is None:
        raise BadShape("trailing placement needs h")
    return [n * D + p for p in h]


def _dual_multipliers(q: int, points: Sequence[int], mults: Sequence[int]) -> tuple[int, ...]:
    """Multipliers u with GRS(P, m)^perp = GRS(P, u): u_j = 1 / (m_j prod_{i != j} (P_j - P_i))."""
    return tuple(
        pow(mj * math.prod(pj - pi for pi in points if pi != pj) % q, q - 2, q)
        for pj, mj in zip(points, mults)
    )


def build_query(
    demand: Demand,
    params: ProtocolParams,
    rng: random.Random,
) -> tuple[Query, ClientSecret]:
    """Build one query hiding the demand, plus the client's recovery secret.

    Sub-steps, all driven by rng: shuffle the demand columns, sample the
    demand block b, draw decoy diagonal blocks, build the trailing block per
    case, and extend the demand placement to a full permutation uniformly.

    Privacy assumes the server cannot predict rng: a seeded Random makes a
    reproducible query, not a private one (use random.SystemRandom()).

    When R > 0 and L < D a demand planted on the trailing block is extended
    by fresh GRS evaluation points, so V must generate a GRS code (every
    MDS V with L <= 2 or D - L <= 2 does).  Otherwise NotGrs is raised
    before any draw from rng, so whether a query can be built never depends
    on the secret block b.
    """
    K, D, L, q, n, R = params.K, params.D, params.L, params.q, params.n, params.R
    if demand.V.q != q:
        raise BadShape(f"demand over GF({demand.V.q}), params over GF({q})")
    if len(demand.W) != D or demand.V.rows != L:
        raise BadShape(
            f"demand shape {demand.V.rows}x{len(demand.W)} does not match (L={L}, D={D})"
        )
    if max(demand.W) >= K:
        raise BadShape(f"demand index {max(demand.W)} out of range for K={K}")
    grs = grs_parameters(demand.V) if R and L < D else None

    shuffled = shuffle_demand(demand, rng)
    if grs is not None:
        col = {w: j for j, w in enumerate(demand.W)}
        points, mults = (tuple(seq[col[w]] for w in shuffled.W) for seq in grs)
    b = select_block(params, rng)
    diag = random_grs_blocks(q, L, D, n - (b < n), rng)
    if b < n:
        diag.insert(b, shuffled.V)

    h: Optional[tuple[int, ...]] = None

    if params.case == ALIGN_S:
        t, m = params.t, params.m
        assert t is not None and m is not None
        pts = distinct(rng, q, t + m)
        omega = cauchy(q, pts[:m], pts[m:])
        if b == n:
            planted = subset(rng, t + m, t + 1)
            h = tuple(slot_columns(params.S, planted))
            if grs is None:
                c_matrix = shuffled.V
            else:
                c_matrix = grs_extend(shuffled.V, points, mults, h, D + R, rng)
            k_idx = [j for j in planted if j < t]
            l_idx = [j for j in planted if j >= t]
            _, alpha = solve_alignment(q, t, m, k_idx, l_idx, omega, rng)
        else:
            c_matrix = random_grs(q, L, D + R, rng)
            alpha = tuple(nonzero(rng, q, t + m))
        trailing = _assemble_align_trailing(params, c_matrix, omega, alpha)
    elif b == n:
        h = tuple(subset(rng, D + R, D))
        if grs is None:
            trailing = random_grs(q, D + R, D + R, rng)
        else:
            lam = right_null_space(shuffled.V)
            hmat = grs_extend(lam, points, _dual_multipliers(q, points, mults), h, D + R, rng)
            trailing = right_null_space(hmat)
    else:
        trailing = random_grs(q, L + R, D + R, rng)

    demand_pos = demand_positions(params, b, h)

    # The positions the demand leaves free, shuffled, go to the other
    # messages in ascending order.  Inserting each demand message's position
    # at its own index, in ascending message order, then puts pi[msg] at msg.
    pi = list(itertools.filterfalse(set(demand_pos).__contains__, range(K)))
    shuffle(rng, pi)
    for msg, pos in sorted(zip(shuffled.W, demand_pos)):
        pi.insert(msg, pos)

    secret = ClientSecret(b, shuffled, h, trailing if b == n else None)
    return Query(tuple(diag), trailing, tuple(pi)), secret


def embedding_transform(
    v: FqMatrix, h: Sequence[int], trailing: FqMatrix
) -> tuple[FqMatrix, FqMatrix]:
    """Trailing-block recovery: (U, T) where U holds V's column j at trailing
    column h[j] and zeros elsewhere, and T solves T @ trailing = U.

    T is unique because both constructions give the trailing block full row
    rank.  Raises RecoveryInconsistent when no such T exists.
    """
    where = {col: j for j, col in enumerate(h)}
    zero = (0,) * v.rows
    ut = FqMatrix._reduced(
        v.q,
        tuple([v.column(where[p]) if p in where else zero for p in range(trailing.cols)]),
        v.rows,
    )
    try:
        t_mat = solve(trailing.transpose(), ut).transpose()
    except InconsistentSystem as exc:
        raise RecoveryInconsistent(str(exc)) from None
    return ut.transpose(), t_mat


def is_permutation(pi: Sequence[int]) -> bool:
    """Whether pi is a bijection on range(len(pi)), checked with builtins."""
    k = len(pi)
    return not pi or (len(set(pi)) == k and min(pi) >= 0 and max(pi) < k)


def inverse_permutation(pi: Sequence[int]) -> list[int]:
    """inv with inv[pi[i]] = i, for a permutation pi of range(len(pi))."""
    inv = [0] * len(pi)
    for msg, pos in enumerate(pi):
        inv[pos] = msg
    return inv


_Packing = tuple[tuple[int, ...], int, tuple[int, ...]]

# The last (X, packing) pair _packed_rows built.  It holds X itself, so the
# identity check there can never match a recycled id.
_last_packing: Optional[tuple[FqMatrix, _Packing]] = None


def _packed_rows(x: FqMatrix) -> _Packing:
    """(shifts, mask, packed): packed[i] holds X's row i, entry c in the
    b-bit slot that starts at bit shifts[c] = c * b, and mask = 2^b - 1.

    b = (K (q-1)^2).bit_length(), so a dot product of at most K entries of
    a G row with a column of X fits its slot and never carries into the next.
    X is immutable and the server answers from one store, so the packing is
    kept for the last X seen, matched by identity: hashing X would read the
    whole store on every call.
    """
    global _last_packing
    last = _last_packing  # one read: server threads may replace it meanwhile
    if last is not None and last[0] is x:
        return last[1]
    b = (x.rows * (x.q - 1) ** 2).bit_length()
    shifts = tuple(c * b for c in range(x.cols))
    packed = tuple(sum(map(operator.lshift, row, shifts)) for row in x.data)
    packing = shifts, (1 << b) - 1, packed
    _last_packing = x, packing
    return packing


def answer(query: Query, x: FqMatrix) -> FqMatrix:
    """Server side: the answer Y = G @ X_permuted (answer_rows x N) for the
    message matrix X (K x N).

    Each row of X is packed into one int of N slots, once per store (see
    _packed_rows).  Each block row then yields its N outputs from one sum
    of products over the packed rows that pi places in the block's columns,
    split out by shift, mask and mod q.  The result is exact, dense G is
    never built, and a query costs O(nnz(G)) big-int multiply-adds.
    """
    pi = query.pi
    if x.rows != len(pi):
        raise ShapeError(f"store has {x.rows} messages, query expects {len(pi)}")
    if x.q != query.q:
        raise ShapeError(f"store over GF({x.q}), query over GF({query.q})")
    blocks = (*query.blocks, query.trailing)
    width = sum(blk.cols for blk in blocks)
    if width != len(pi):
        raise ShapeError(f"G has {width} columns but pi covers {len(pi)} messages")
    q = x.q
    shifts, mask, packed = _packed_rows(x)
    permuted = list(map(packed.__getitem__, inverse_permutation(pi)))
    rows: list[tuple[int, ...]] = []
    col = 0
    for blk in blocks:
        segment = permuted[col : col + blk.cols]
        for r in blk.data:
            total = sum(map(operator.mul, r, segment))
            rows.append(tuple([((total >> s) & mask) % q for s in shifts]))
        col += blk.cols
    return FqMatrix._reduced(q, tuple(rows), x.cols)


def recover(
    y: FqMatrix,
    secret: ClientSecret,
    params: ProtocolParams,
    demand: Demand,
) -> FqMatrix:
    """Client side: extract V @ X_W from the answer Y.

    Demand block b < n: the b-th L-row slice of Y.  Trailing block, in both
    cases: solve T @ trailing = U for the unique T (trailing has full row
    rank) and apply it, where U embeds the shuffled V at the secret columns h.
    """
    L, n, q = params.L, params.n, params.q
    if y.rows != params.answer_rows:
        raise ShapeError(f"answer has {y.rows} rows, expected {params.answer_rows}")
    if y.q != q:
        raise ShapeError(f"answer over GF({y.q}), params over GF({q})")
    if set(demand.W) != set(secret.shuffled.W):
        raise BadShape("demand does not match the secret's shuffled demand")
    b = secret.b
    if b < n:
        return y.take_rows(range(b * L, (b + 1) * L))
    assert secret.h is not None and secret.trailing is not None
    _, t_mat = embedding_transform(secret.shuffled.V, secret.h, secret.trailing)
    return t_mat.mul(y.take_rows(range(n * L, y.rows)))
