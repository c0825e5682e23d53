"""Protocol engine: parameter derivation, query building, recovery."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from iplt import (
    AlignmentSingular,
    BadShape,
    ClientSecret,
    Demand,
    FieldTooSmall,
    FqMatrix,
    NotGrs,
    NotMds,
    NotPrime,
    Query,
    RecoveryInconsistent,
    ShapeError,
    achieved_rate,
    alignment_coefficients,
    answer,
    audit_individual_privacy,
    build_query,
    capacity_lower,
    cauchy,
    demand_positions,
    derive_params,
    example_fixture,
    recover,
    select_block,
    shuffle_demand,
    solve_alignment,
)

from iplt.matrix import grs_generator, grs_parameters, random_grs_blocks, right_null_space
from iplt.protocol import ALIGN_S, _assemble_align_trailing

from oracles import NON_GRS_V_17, StubRng, naive_align_trailing, naive_matmul

Q = 17


# -- parameter derivation -----------------------------------------------------


def test_derive_params_example_triples():
    """The three pinned parameter triples derive the documented shapes."""
    p1 = derive_params(24, 8, 2, Q)
    assert (p1.case, p1.R, p1.S, p1.n, p1.t, p1.m) == ("AlignS", 0, 8, 2, 0, 1)
    assert p1.answer_rows == 6

    p2 = derive_params(24, 9, 2, Q)
    assert (p2.case, p2.R, p2.S, p2.n, p2.t, p2.m) == ("AlignS", 6, 3, 1, 2, 3)
    assert p2.answer_rows == 8

    p3 = derive_params(24, 7, 2, Q)
    assert (p3.case, p3.R, p3.S, p3.n) == ("ParityEmbed", 3, 1, 2)
    assert (p3.t, p3.m) == (None, None)
    assert p3.answer_rows == 9


def test_derive_params_validation():
    """Shape, primality, size, and N constraints are all enforced."""
    with pytest.raises(BadShape):
        derive_params(2, 3, 1, Q)
    with pytest.raises(BadShape):
        derive_params(10, 4, 0, Q)
    with pytest.raises(BadShape):
        derive_params(10, 4, 5, Q)
    with pytest.raises(BadShape):
        derive_params(10, 4, 2, Q, N=0)
    with pytest.raises(BadShape):
        derive_params(10.0, 4, 2, Q)
    with pytest.raises(NotPrime):
        derive_params(24, 7, 2, 15)
    with pytest.raises(FieldTooSmall):
        derive_params(24, 7, 2, 7)


def test_achieved_rate_examples():
    """The pinned triples achieve 1/3, 1/4, and 2/9."""
    assert achieved_rate(derive_params(24, 8, 2, Q)) == Fraction(1, 3)
    assert achieved_rate(derive_params(24, 9, 2, Q)) == Fraction(1, 4)
    assert achieved_rate(derive_params(24, 7, 2, Q)) == Fraction(2, 9)


def _prime_at_least(n):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        if p >= n:
            return p
    raise AssertionError(n)


def test_achieved_rate_matches_capacity_lower_grid():
    """The protocol's rate equals the claimed achievable bound everywhere."""
    for K in range(1, 21):
        for D in range(1, K + 1):
            for L in range(1, D + 1):
                q = _prime_at_least(D + (K % D))
                params = derive_params(K, D, L, q)
                assert achieved_rate(params) == capacity_lower(K, D, L)


# -- demand -------------------------------------------------------------------


def test_demand_validation():
    """Bad supports and non-MDS coefficients are rejected."""
    v = FqMatrix(Q, [[1, 2], [3, 4]])
    with pytest.raises(BadShape):
        Demand((), FqMatrix(Q, [], cols=0))
    with pytest.raises(BadShape):
        Demand((1, 1), v)
    with pytest.raises(BadShape):
        Demand((-1, 2), v)
    with pytest.raises(BadShape):
        Demand((1, 2, 3), v)
    with pytest.raises(BadShape):
        Demand((1,), FqMatrix(Q, [[1], [2]]))
    with pytest.raises(NotMds):
        Demand((0, 1), FqMatrix(Q, [[1, 2], [2, 4]]))
    d = Demand((0, 1), FqMatrix(Q, [[1, 2], [2, 5]]))
    assert d == Demand((0, 1), FqMatrix(Q, [[1, 2], [2, 5]]))
    assert "Demand" in repr(d)


def test_demand_value_manual():
    """V @ X_W picks the demanded rows and combines them."""
    d = Demand((2, 0), FqMatrix(Q, [[1, 2]]))
    x = FqMatrix(Q, [[10], [11], [12]])
    assert d.value(x) == FqMatrix(Q, [[(12 + 2 * 10) % Q]])


def test_demand_random_properties():
    """Random demands have sorted distinct supports and MDS coefficients."""
    params = derive_params(12, 5, 2, Q)
    for seed in range(5):
        d = Demand.random(params, random.Random(seed))
        assert list(d.W) == sorted(set(d.W))
        assert len(d.W) == 5 and max(d.W) < 12
        Demand(d.W, d.V)


def test_shuffle_demand_preserves_value():
    """Shuffling permutes columns jointly, leaving the target unchanged."""
    d = Demand((0, 2, 4), FqMatrix(Q, [[1, 2, 3], [4, 5, 7]]))
    x = FqMatrix.random(Q, 5, 2, random.Random(1))
    for seed in range(6):
        s = shuffle_demand(d, random.Random(seed))
        assert sorted(s.W) == sorted(d.W)
        assert s.value(x) == d.value(x)


# -- block selection ----------------------------------------------------------


def test_select_block_exact_weights():
    """Block j < n is hit by D draws, the trailing block by D + R draws."""
    params = derive_params(24, 7, 2, Q)
    counts = {}
    for v in range(24):
        b = select_block(params, StubRng([v]))
        counts[b] = counts.get(b, 0) + 1
    assert counts == {0: 7, 1: 7, 2: 10}


def test_batched_decoy_blocks_are_exact_grs_draws():
    """Each block of one batched draw is the GRS generator of its own
    distinct points and nonzero multipliers, and grs_parameters recovers
    its code.  Block 0 repeats point 5 and draws three refills: 5 again is
    skipped, 9 completes the block, and 0 is not read."""
    words = [
        *(1, 5, 5), *(2, 3, 4),  # points, one draw for both blocks
        *(5, 9, 0),  # block 0's refills
        *(0, 3, 15), *(1, 16, 7),  # multipliers: w % 16 + 1
    ]
    rng = StubRng(words)
    blocks = random_grs_blocks(Q, 2, 3, 2, rng)
    assert rng.exhausted()
    expected = [((1, 5, 9), (1, 4, 16)), ((2, 3, 4), (2, 1, 8))]
    assert len(blocks) == 2
    for blk, (points, mults) in zip(blocks, expected):
        assert blk == grs_generator(Q, 2, 3, points, mults)
        got = grs_generator(Q, 2, 3, *grs_parameters(blk))
        assert right_null_space(got) == right_null_space(blk)


# -- alignment ----------------------------------------------------------------


def test_alignment_coefficients_pinned_instance():
    """The pinned AlignS instance yields c = (1, 13)."""
    omega = cauchy(Q, (1, 5, 7), (11, 16))
    assert alignment_coefficients(Q, 2, (0,), (2, 4), omega) == (1, 13)


def test_solve_alignment_pinned_instance():
    """Planted block scalings are forced: alpha_0, alpha_2, alpha_4 = 3, 1, 4."""
    omega = cauchy(Q, (1, 5, 7), (11, 16))
    c, alpha = solve_alignment(Q, 2, 3, (0,), (2, 4), omega, random.Random(0))
    assert c == (1, 13)
    assert (alpha[0], alpha[2], alpha[4]) == (3, 1, 4)
    assert all(1 <= a < Q for a in alpha)


def test_alignment_coefficients_rejects_bad_shapes():
    """Slot count mismatches and degenerate systems raise."""
    omega = cauchy(Q, (1, 5, 7), (11, 16))
    with pytest.raises(BadShape):
        alignment_coefficients(Q, 2, (0, 1), (2, 4), omega)
    with pytest.raises(BadShape):
        alignment_coefficients(Q, 2, (0, 1, 2), (), omega)
    flat = FqMatrix(Q, [[1, 1], [1, 1], [1, 1]])
    with pytest.raises(AlignmentSingular):
        alignment_coefficients(Q, 2, (), (2, 3, 4), flat)


def test_solve_alignment_shape_guard():
    """omega must be m x t."""
    with pytest.raises(ShapeError):
        solve_alignment(Q, 2, 3, (0,), (2, 4), cauchy(Q, (1, 5), (11, 16)), random.Random(0))


def test_alignment_zero_slot_case():
    """t = 0 (R = 0 shapes) has the trivial single coefficient c = (1,)."""
    omega = FqMatrix(Q, [], cols=0)
    assert alignment_coefficients(Q, 0, (), (0,), omega) == (1,)


# -- demand positions ---------------------------------------------------------


def test_demand_positions_match_fixture_permutations():
    """pi sends the shuffled support exactly onto the computed positions."""
    for which in (1, 2, 3):
        fx = example_fixture(which)
        secret, params = fx.secret, fx.params
        pos = demand_positions(params, secret.b, secret.h)
        assert [fx.query.pi[w] for w in secret.shuffled.W] == pos


def test_demand_positions_requires_trailing_data():
    """Missing k/l or h data on the trailing block raises BadShape."""
    p2 = derive_params(24, 9, 2, Q)
    with pytest.raises(BadShape):
        demand_positions(p2, p2.n)
    p3 = derive_params(24, 7, 2, Q)
    with pytest.raises(BadShape):
        demand_positions(p3, p3.n)
    assert demand_positions(p3, 0) == list(range(7))


# -- query building -----------------------------------------------------------


def test_build_query_validation():
    """Demands that do not fit the parameters are rejected."""
    params = derive_params(12, 5, 2, Q)
    rng = random.Random(0)
    good = Demand.random(params, random.Random(1))
    with pytest.raises(BadShape):
        build_query(Demand((0, 1, 2, 3, 11), FqMatrix(19, [[1, 2, 3, 4, 5]])), params, rng)
    with pytest.raises(BadShape):
        build_query(Demand((0, 1), FqMatrix(Q, [[1, 2], [2, 5]])), params, rng)
    bad_l = Demand(good.W, good.V.take_rows([0]))
    with pytest.raises(BadShape):
        build_query(bad_l, params, rng)
    with pytest.raises(BadShape):
        build_query(Demand((0, 1, 2, 3, 12), good.V), params, rng)


def test_build_query_rejects_non_grs_demand_up_front():
    """A non-GRS V raises NotGrs at every seed before any rng draw whenever
    a trailing plant would extend it (R > 0 and L < D), in both cases."""
    v = FqMatrix(Q, NON_GRS_V_17)
    demand = Demand(range(6), v)
    for K in (15, 16):
        params = derive_params(K, 6, 3, Q)
        assert params.R and params.n == 1
        for seed in range(20):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(NotGrs):
                build_query(demand, params, rng)
            assert rng.getstate() == state
    assert {derive_params(K, 6, 3, Q).case for K in (15, 16)} == {"AlignS", "ParityEmbed"}
    params = derive_params(12, 6, 3, Q)
    for seed in range(4):
        rng = random.Random(seed)
        query, secret = build_query(demand, params, rng)
        x = FqMatrix.random(Q, 12, 1, rng)
        assert recover(answer(query, x), secret, params, demand) == demand.value(x)


# Shapes with K < 2D: n = 0, so every query plants on the trailing block.
# q is 17 and the smallest prime >= D + R = K, which is K itself, the
# tightest field the extension fits in, whenever K is prime.
GRS_GRID = [
    (K, D, L, q)
    for D in range(2, 8)
    for K in range(D + 1, 2 * D)
    for L in range(1, D)
    for q in sorted({_prime_at_least(K), 17})
]


def test_trailing_plants_never_fail_on_grs_demands():
    """Every GRS demand on the K < 2D grid builds, recovers exactly and
    passes the privacy audit, in both cases and at q = D + R."""
    cases = set()
    tight = 0
    for K, D, L, q in GRS_GRID:
        params = derive_params(K, D, L, q)
        assert params.n == 0
        cases.add(params.case)
        tight += q == K
        for seed in range(2):
            rng = random.Random(seed)
            demand = Demand.random(params, rng)
            query, secret = build_query(demand, params, rng)
            assert secret.b == params.n
            x = FqMatrix.random(q, K, 1, rng)
            assert recover(answer(query, x), secret, params, demand) == demand.value(x)
            assert audit_individual_privacy(query, params, demand).ok
    assert cases == {"AlignS", "ParityEmbed"}
    assert tight


def test_build_query_deterministic():
    """Identical seeds produce identical queries and secrets."""
    params = derive_params(12, 5, 2, Q)
    demand = Demand.random(params, random.Random(5))
    q1, s1 = build_query(demand, params, random.Random(9))
    q2, s2 = build_query(demand, params, random.Random(9))
    assert q1 == q2
    assert s1 == s2


def test_build_query_structure():
    """The generator is block diagonal and pi is a permutation."""
    params = derive_params(10, 4, 2, Q)
    for seed in range(4):
        rng = random.Random(seed)
        demand = Demand.random(params, rng)
        query, secret = build_query(demand, params, rng)
        g = query.G
        assert (g.rows, g.cols) == (params.answer_rows, 10)
        assert sorted(query.pi) == list(range(10))
        for u in range(params.L):
            assert not any(g.data[u][4:]) or params.n == 0
        for u in range(params.n * params.L, g.rows):
            assert not any(g.data[u][: params.n * 4])


def test_composed_generator_manual():
    """Column i of the generator answer applies is G's column pi[i]."""
    g = FqMatrix(Q, [[1, 2, 3], [4, 5, 6]])
    identity = FqMatrix(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    comp = answer(Query((), g, (2, 0, 1)), identity)
    assert comp == FqMatrix(Q, [[3, 1, 2], [6, 4, 5]])
    with pytest.raises(ShapeError):
        answer(Query((), g, (0, 1)), identity.take_rows([0, 1]))


def test_answer_validation():
    """The server rejects stores that do not match the query."""
    params = derive_params(10, 4, 2, Q)
    rng = random.Random(0)
    demand = Demand.random(params, rng)
    query, _ = build_query(demand, params, rng)
    with pytest.raises(ShapeError):
        answer(query, FqMatrix.random(Q, 9, 1, rng))
    with pytest.raises(ShapeError):
        answer(query, FqMatrix.random(19, 10, 1, rng))


# AlignS with R = 0, AlignS with R > 0, and ParityEmbed with K < 2D, whose
# trailing block spans all K columns: the widest dot product a slot holds.
ORACLE_SHAPES = [(12, 4, 2), (14, 4, 2), (7, 4, 3)]


def _dense_answer(query, x):
    """G @ X with X's rows in permuted order, by the schoolbook oracle."""
    permuted = [None] * x.rows
    for msg, pos in enumerate(query.pi):
        permuted[pos] = list(x.data[msg])
    return FqMatrix(x.q, naive_matmul(query.G.to_rows(), permuted, x.q), cols=x.cols)


def _saturated(query):
    """The query with every generator entry set to q - 1."""
    q = query.q

    def full(blk):
        return FqMatrix(q, [[q - 1] * blk.cols] * blk.rows, cols=blk.cols)

    return Query(tuple(map(full, query.blocks)), full(query.trailing), query.pi)


@pytest.mark.parametrize("q", [2**31 - 1, 65521])
@pytest.mark.parametrize("N", [1, 4])
@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=lambda s: "K{}-D{}-L{}".format(*s))
def test_answer_matches_dense_oracle(shape, N, q):
    """The packed answer equals G @ X_permuted at the widest slot the field
    allows (q = 2^31 - 1) and at the bench's field, also when every entry of
    G and X is q - 1, the largest dot product a slot must hold."""
    params = derive_params(*shape, q, N)
    for seed in range(3):
        rng = random.Random(seed)
        query, _ = build_query(Demand.random(params, rng), params, rng)
        x = FqMatrix.random(q, params.K, N, rng)
        assert answer(query, x) == _dense_answer(query, x)
    top = FqMatrix(q, [[q - 1] * N] * params.K, cols=N)
    assert answer(_saturated(query), top) == _dense_answer(_saturated(query), top)


def test_answer_alternating_stores():
    """Two stores of the same K, N and q answered in turn each get their own
    answer: the cached packing never serves the other store."""
    params = derive_params(14, 4, 2, 65521, 4)
    rng = random.Random(5)
    stores = [FqMatrix.random(params.q, params.K, params.N, rng) for _ in range(2)]
    for _ in range(3):
        query, _ = build_query(Demand.random(params, rng), params, rng)
        for x in (*stores, *reversed(stores)):
            assert answer(query, x) == _dense_answer(query, x)


def test_answer_never_hashes_the_store(monkeypatch):
    """The packing is cached by store identity: hashing X would read all of
    it on every call, so answer must work, and agree, when hashing fails."""
    params = derive_params(14, 4, 2, 65521, 4)
    rng = random.Random(8)
    query, _ = build_query(Demand.random(params, rng), params, rng)
    x = FqMatrix.random(params.q, params.K, params.N, rng)
    want = answer(query, FqMatrix(params.q, x.to_rows()))

    def no_hash(self):
        raise AssertionError("answer hashed the store")

    monkeypatch.setattr(FqMatrix, "__hash__", no_hash)
    assert answer(query, x) == want
    assert answer(query, x) == want


def test_answer_threads_share_the_packing_cache():
    """Server threads answering from two stores at once, with thread switches
    forced often, each get their own store's answer from the shared cache."""
    params = derive_params(14, 4, 2, 65521, 4)
    rng = random.Random(9)
    query, _ = build_query(Demand.random(params, rng), params, rng)
    stores = [FqMatrix.random(params.q, params.K, params.N, rng) for _ in range(2)]
    wants = [_dense_answer(query, x) for x in stores]

    def work(k):
        return all(answer(query, stores[(k + i) % 2]) == wants[(k + i) % 2] for i in range(50))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(work, k) for k in range(6)]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(interval)


# -- end-to-end recovery --------------------------------------------------------


END_TO_END_SHAPES = [
    (10, 4, 1, 17),
    (10, 4, 2, 17),
    (12, 5, 2, 17),
    (7, 3, 3, 17),
    (8, 4, 2, 17),
    (24, 9, 2, 17),
    (24, 8, 2, 19),
]


def _roundtrip(K, D, L, q, seed, N=1):
    params = derive_params(K, D, L, q, N)
    rng = random.Random(seed)
    demand = Demand.random(params, rng)
    query, secret = build_query(demand, params, rng)
    x = FqMatrix.random(q, K, N, random.Random(seed + 999))
    got = recover(answer(query, x), secret, params, demand)
    assert got == demand.value(x)
    return secret.b, params


@pytest.mark.parametrize("shape", END_TO_END_SHAPES)
def test_recovery_roundtrip(shape):
    """recover(answer(build_query)) returns V @ X_W on every branch."""
    K, D, L, q = shape
    blocks = set()
    params = None
    for seed in range(8):
        b, params = _roundtrip(K, D, L, q, seed)
        blocks.add(b)
    assert params.n in blocks, "trailing-block branch never exercised"
    assert any(b < params.n for b in blocks), "decoy-block branch never exercised"


def test_recovery_roundtrip_wide_messages():
    """Recovery is exact for multi-column messages (N = 2 and N = 3)."""
    for N in (2, 3):
        for seed in range(3):
            _roundtrip(12, 5, 2, 17, seed, N=N)
            _roundtrip(10, 4, 2, 17, seed, N=N)


def test_recover_validation():
    """Answers with the wrong shape or field are rejected."""
    params = derive_params(10, 4, 2, Q)
    rng = random.Random(3)
    demand = Demand.random(params, rng)
    query, secret = build_query(demand, params, rng)
    x = FqMatrix.random(Q, 10, 1, rng)
    y = answer(query, x)
    with pytest.raises(ShapeError):
        recover(y.take_rows(range(3)), secret, params, demand)
    with pytest.raises(ShapeError):
        recover(FqMatrix(19, y.to_rows()), secret, params, demand)
    other = Demand.random(params, random.Random(77))
    assert set(other.W) != set(demand.W)
    with pytest.raises(BadShape):
        recover(y, secret, params, other)


def test_recover_inconsistent_embedding():
    """A corrupted embedding secret cannot solve the recovery system, on an
    AlignS and on a ParityEmbed trailing block."""
    for shape in ((24, 9, 2, Q), (12, 5, 2, Q)):
        params = derive_params(*shape)
        for seed in range(40):
            rng = random.Random(seed)
            demand = Demand.random(params, rng)
            query, secret = build_query(demand, params, rng)
            if secret.b == params.n:
                break
        else:
            raise AssertionError(f"no trailing-block seed found at {shape}")
        x = FqMatrix.random(Q, params.K, 1, random.Random(seed))
        rows = secret.shuffled.V.to_rows()
        rows[0][0] = (rows[0][0] + 1) % Q
        bad = ClientSecret(
            b=secret.b,
            shuffled=Demand(secret.shuffled.W, FqMatrix(Q, rows), check_mds=False),
            h=secret.h,
            trailing=secret.trailing,
        )
        with pytest.raises(RecoveryInconsistent):
            recover(answer(query, x), bad, params, demand)


def test_fixture_roundtrips_in_process():
    """Each pinned fixture recovers its demand from a random store."""
    for which in (1, 2, 3):
        fx = example_fixture(which)
        x = FqMatrix.random(fx.params.q, fx.params.K, 2, random.Random(which))
        got = recover(answer(fx.query, x), fx.secret, fx.params, fx.demand)
        assert got == fx.demand.value(x)


@pytest.mark.parametrize(
    "K,D,L,q",
    [
        (24, 8, 2, 17),  # R = 0: t = 0, m = 1, S = 8
        (2000, 50, 5, 65521),  # the bulk shape: t = 0, m = 1, S = 50
        (24, 9, 2, 17),  # S = 3, t = 2, m = 3
        (30, 8, 2, 17),  # S = 2, t = 3, m = 4
        (24, 7, 1, 17),  # S = 1, t = 6, m = 4
    ],
)
def test_align_trailing_matches_per_block_oracle(K, D, L, q):
    """The one-table AlignS assembly equals the slot-by-slot oracle."""
    params = derive_params(K, D, L, q)
    assert params.case == ALIGN_S
    t, m, S = params.t, params.m, params.S
    rng = random.Random(K * 1000 + D)
    for _ in range(4):
        c = FqMatrix.random(q, L, D + params.R, rng)
        pts = rng.sample(range(q), t + m)
        omega = cauchy(q, pts[:m], pts[m:])
        alpha = tuple(rng.randrange(1, q) for _ in range(t + m))
        got = _assemble_align_trailing(params, c, omega, alpha)
        want = naive_align_trailing(c.to_rows(), omega.to_rows(), alpha, L, S, t, m, q)
        assert (got.rows, got.cols) == (m * L, D + params.R)
        assert got.to_rows() == want
