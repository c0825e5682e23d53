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

All randomness flows through one random.Random instance, so a seed fully
determines the query.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    for name, v in (("K", K), ("D", D), ("L", L), ("q", q), ("N", N)):
        if not isinstance(v, int):
            raise BadShape(f"{name} must be an int, got {type(v).__name__}")
    if not 1 <= L <= D <= K:
        raise BadShape(f"need 1 <= L <= D <= K, got L={L} D={D} K={K}")
    if N < 1:
        raise BadShape(f"need N >= 1, got N={N}")
    check_field(q)
    R = K % D
    S = math.gcd(D + R, R) if R else D
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
        w = sorted(rng.sample(range(params.K), params.D))
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
    """What the server sees: the generator matrix G and the permutation pi.

    pi[i] is the position of message i in the permuted ordering; the server
    applies G to the permuted message matrix.  Queries are wire-decodable
    data and are validated by decoders and audits, not on construction.
    """

    G: FqMatrix
    pi: tuple[int, ...]


@dataclass(frozen=True)
class ClientSecret:
    """Client-side state needed to recover the demand from the answer.

    b is the 0-based block index where the demand was planted.  The AlignS
    fields (cauchy_x, cauchy_y, alpha, c_matrix) are populated for every
    AlignS query so the trailing block always has the same texture; k_idx,
    l_idx and c only exist when the demand landed on the trailing block.
    h is the ParityEmbed column-embedding set, and trailing is the trailing
    generator block itself (kept when b lands on it; recovery needs it in
    the ParityEmbed case).
    """

    b: int
    shuffled: Demand
    cauchy_x: Optional[tuple[int, ...]] = None
    cauchy_y: Optional[tuple[int, ...]] = None
    alpha: Optional[tuple[int, ...]] = None
    c_matrix: Optional[FqMatrix] = None
    k_idx: Optional[tuple[int, ...]] = None
    l_idx: Optional[tuple[int, ...]] = None
    c: Optional[tuple[int, ...]] = None
    h: Optional[tuple[int, ...]] = None
    trailing: Optional[FqMatrix] = None


@dataclass(frozen=True)
class Answer:
    """The server's reply: Y = G @ X_permuted, an answer_rows x N matrix."""

    Y: FqMatrix


def select_block(params: ProtocolParams, rng: random.Random) -> int:
    """Sample the demand block: block j < n with weight D/K, block n with (D+R)/K."""
    v = rng.randrange(params.K)
    return min(v // params.D, params.n)


def shuffle_demand(demand: Demand, rng: random.Random) -> Demand:
    """Apply one uniform column shuffle to (W, V); the target V @ X_W is unchanged."""
    idx = list(range(len(demand.W)))
    rng.shuffle(idx)
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
    m1 = FqMatrix(q, [[omega.data[l - t][ku] for l in l_idx] for ku in unchosen], cols=s)
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
    for j in range(t + m):
        if alpha[j] is None:
            alpha[j] = rng.randrange(1, q)
    return c, tuple(alpha)  # type: ignore[arg-type]


def _assemble_align_trailing(
    params: ProtocolParams,
    c_matrix: FqMatrix,
    omega: FqMatrix,
    alpha: Sequence[int],
) -> FqMatrix:
    """AlignS trailing block: m x (t+m) grid of scaled width-S column blocks.

    Row block i holds alpha_j * omega[i][j] * C_j for j < t, alpha_j * C_j at
    the diagonal slot j = t + i, and zero blocks elsewhere.
    """
    L, S, t, m, q = params.L, params.S, params.t, params.m, params.q
    assert t is not None and m is not None
    width = (t + m) * S
    rows = [[0] * width for _ in range(m * L)]
    for i in range(m):
        for j in range(t + m):
            if j < t:
                coef = (alpha[j] * omega.data[i][j]) % q
            elif j == t + i:
                coef = alpha[j] % q
            else:
                continue
            for u in range(L):
                src = c_matrix.data[u]
                dst = rows[i * L + u]
                for v in range(S):
                    dst[j * S + v] = (coef * src[j * S + v]) % q
    return FqMatrix(q, rows, cols=width)


def demand_positions(
    params: ProtocolParams,
    b: int,
    k_idx: Optional[Sequence[int]] = None,
    l_idx: Optional[Sequence[int]] = None,
    h: Optional[Sequence[int]] = None,
) -> list[int]:
    """Positions of the shuffled demand indices, in demand-column order.

    Block b < n occupies its contiguous D positions.  On the trailing block
    the AlignS case spreads the demand over the planted width-S slots (the
    k slots first, then the l slots), while ParityEmbed places column j at
    trailing offset h[j].
    """
    D, n = params.D, params.n
    if b < n:
        return [b * D + j for j in range(D)]
    if params.case == ALIGN_S:
        S = params.S
        if k_idx is None or l_idx is None:
            raise BadShape("AlignS trailing placement needs k_idx and l_idx")
        r = len(k_idx)
        out = []
        for j1 in range(1, D + 1):
            e = (j1 + S - 1) // S
            blk = k_idx[e - 1] if j1 <= r * S else l_idx[e - r - 1]
            f = S if j1 % S == 0 else j1 % S
            out.append(n * D + blk * S + (f - 1))
        return out
    if h is None:
        raise BadShape("ParityEmbed trailing placement needs h")
    return [n * D + h[j] for j in range(D)]


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
    diag = [shuffled.V if i == b else random_grs(q, L, D, rng) for i in range(n)]

    k_idx: Optional[tuple[int, ...]] = None
    l_idx: Optional[tuple[int, ...]] = None
    c: Optional[tuple[int, ...]] = None
    h: Optional[tuple[int, ...]] = None
    cauchy_x: Optional[tuple[int, ...]] = None
    cauchy_y: Optional[tuple[int, ...]] = None
    alpha: Optional[tuple[int, ...]] = None
    c_matrix: Optional[FqMatrix] = None

    if params.case == ALIGN_S:
        t, m, S = params.t, params.m, params.S
        assert t is not None and m is not None
        pts = rng.sample(range(q), t + m)
        cauchy_x, cauchy_y = tuple(pts[:m]), tuple(pts[m:])
        omega = cauchy(q, cauchy_x, cauchy_y)
        if b == n:
            planted = sorted(rng.sample(range(t + m), t + 1))
            k_idx = tuple(j for j in planted if j < t)
            l_idx = tuple(j for j in planted if j >= t)
            if grs is None:
                c_matrix = shuffled.V
            else:
                positions = [j * S + v for j in planted for v in range(S)]
                c_matrix = grs_extend(shuffled.V, points, mults, positions, D + R, rng)
            c, alpha = solve_alignment(q, t, m, k_idx, l_idx, omega, rng)
        else:
            c_matrix = random_grs(q, L, D + R, rng)
            alpha = tuple(rng.randrange(1, q) for _ in range(t + m))
        trailing = _assemble_align_trailing(params, c_matrix, omega, alpha)
    elif b == n:
        h = tuple(sorted(rng.sample(range(D + R), D)))
        if grs is None:
            trailing = random_grs(q, D + R, D + R, rng)
        else:
            lam = right_null_space(shuffled.V)
            hmat = grs_extend(lam, points, _dual_multipliers(q, points, mults), h, D + R, rng)
            trailing = right_null_space(hmat)
    else:
        trailing = random_grs(q, L + R, D + R, rng)

    g_rows = [[0] * K for _ in range(params.answer_rows)]
    for i, blk in enumerate(diag):
        for u in range(L):
            g_rows[i * L + u][i * D : (i + 1) * D] = blk.data[u]
    for u in range(trailing.rows):
        g_rows[n * L + u][n * D :] = trailing.data[u]
    g = FqMatrix(q, g_rows, cols=K)

    demand_pos = demand_positions(params, b, k_idx=k_idx, l_idx=l_idx, h=h)

    used = set(demand_pos)
    wset = set(shuffled.W)
    rest_msgs = [i for i in range(K) if i not in wset]
    rest_pos = [p for p in range(K) if p not in used]
    rng.shuffle(rest_pos)
    pi = [0] * K
    for j, msg in enumerate(shuffled.W):
        pi[msg] = demand_pos[j]
    for msg, pos in zip(rest_msgs, rest_pos):
        pi[msg] = pos

    secret = ClientSecret(
        b=b,
        shuffled=shuffled,
        cauchy_x=cauchy_x,
        cauchy_y=cauchy_y,
        alpha=alpha,
        c_matrix=c_matrix,
        k_idx=k_idx,
        l_idx=l_idx,
        c=c,
        h=h,
        trailing=trailing if b == n else None,
    )
    return Query(g, tuple(pi)), secret


def composed_generator(query: Query) -> FqMatrix:
    """G with the permutation folded in: column i is G's column pi[i]."""
    g, pi = query.G, query.pi
    if g.cols != len(pi):
        raise ShapeError(f"G has {g.cols} columns but pi covers {len(pi)} messages")
    return FqMatrix(
        g.q,
        [[row[p] for p in pi] for row in g.data],
        cols=len(pi),
    )


def answer(query: Query, x: FqMatrix) -> Answer:
    """Server side: apply the query to the message matrix X (K x N)."""
    if x.rows != len(query.pi):
        raise ShapeError(f"store has {x.rows} messages, query expects {len(query.pi)}")
    if x.q != query.G.q:
        raise ShapeError(f"store over GF({x.q}), query over GF({query.G.q})")
    return Answer(composed_generator(query).mul(x))


def recover(
    ans: Answer,
    secret: ClientSecret,
    params: ProtocolParams,
    demand: Demand,
) -> FqMatrix:
    """Client side: extract V @ X_W from the answer.

    Demand block b < n: the b-th L-row slice of Y.  AlignS trailing: the
    c-weighted combination of the planted row blocks.  ParityEmbed trailing:
    solve T @ trailing = U for the unique T (trailing has full row rank) and
    apply it, where U embeds the shuffled V at the secret columns h.
    """
    y = ans.Y
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
    if params.case == ALIGN_S:
        t = params.t
        assert t is not None and secret.l_idx is not None and secret.c is not None
        acc = [[0] * y.cols for _ in range(L)]
        for coef, l in zip(secret.c, secret.l_idx):
            base = n * L + (l - t) * L
            for u in range(L):
                src = y.data[base + u]
                dst = acc[u]
                for col in range(y.cols):
                    dst[col] = (dst[col] + coef * src[col]) % q
        return FqMatrix(q, acc, cols=y.cols)
    assert secret.h is not None and secret.trailing is not None
    trailing = secret.trailing
    vt = secret.shuffled.V
    width = params.D + params.R
    u_rows = [[0] * width for _ in range(L)]
    for j, col in enumerate(secret.h):
        for row in range(L):
            u_rows[row][col] = vt.data[row][j]
    u = FqMatrix(q, u_rows, cols=width)
    try:
        t_mat = solve(trailing.transpose(), u.transpose()).transpose()
    except InconsistentSystem as exc:
        raise RecoveryInconsistent(str(exc)) from None
    return t_mat.mul(y.take_rows(range(n * L, n * L + trailing.rows)))
