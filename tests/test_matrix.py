"""Exact linear algebra against Leibniz/minor oracles and structural laws."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from iplt.errors import (
    BadGrsParameters,
    CompletionFailed,
    DegenerateCauchy,
    InconsistentSystem,
    NotGrs,
    ShapeError,
)
from iplt.matrix import (
    FqMatrix,
    _rref,
    cauchy,
    first_singular_minor,
    grs_extend,
    grs_generator,
    grs_parameters,
    hstack,
    is_mds,
    random_grs,
    rank,
    right_null_space,
    solve,
)

from oracles import (
    NON_GRS_V_17,
    leibniz_det,
    naive_is_mds,
    naive_matmul,
    naive_rank,
    six_points_on_a_conic,
)

Q = 17


def mat(rows, q=Q):
    return FqMatrix(q, rows)


def rand_mat(rng, rows, cols, q=Q):
    return FqMatrix.random(q, rows, cols, rng)


# -- construction ------------------------------------------------------------


def test_constructor_validates_entries_and_shape():
    """Unreduced or non-int entries raise ValueError naming the entry (a float
    or a bool is never truncated); ragged rows raise ShapeError."""
    with pytest.raises(ValueError):
        mat([[0, 17]])
    with pytest.raises(ValueError):
        mat([[-1]])
    with pytest.raises(ShapeError):
        mat([[1, 2], [3]])
    with pytest.raises(ShapeError):
        FqMatrix(Q, [[1, 2]], cols=3)
    with pytest.raises(ValueError, match="2.7"):
        mat([[1, 2.7]])
    with pytest.raises(ValueError, match="True"):
        mat([[1, 2], [True, 3]])


def test_empty_matrix_needs_cols():
    """A 0-row matrix takes its width from the cols argument."""
    m = FqMatrix(Q, [], cols=4)
    assert (m.rows, m.cols) == (0, 4)
    assert right_null_space(m).rows == 4


def test_zeros_random():
    """Basic constructors have the right shape and entries."""
    assert FqMatrix.zeros(Q, 2, 3).data == ((0, 0, 0), (0, 0, 0))
    rng = random.Random(3)
    m = rand_mat(rng, 4, 5)
    assert all(0 <= v < Q for row in m.data for v in row)
    assert rand_mat(random.Random(3), 4, 5) == m


def test_access_equality_hash():
    """Column extraction, equality, and hashing are consistent."""
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert m.column(2) == (3, 6)
    assert m == mat([[1, 2, 3], [4, 5, 6]])
    assert m != mat([[1, 2, 3], [4, 5, 7]])
    assert hash(m) == hash(mat([[1, 2, 3], [4, 5, 6]]))
    assert m != FqMatrix(19, [[1, 2, 3], [4, 5, 6]])
    assert "2x3" in repr(m)
    assert m.to_rows() == [[1, 2, 3], [4, 5, 6]]


# -- arithmetic against oracles ----------------------------------------------


def test_mul_matches_schoolbook_oracle():
    """Products agree with the naive oracle over random shapes; a shape or
    field mismatch raises ShapeError."""
    rng = random.Random(11)
    for _ in range(20):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a, b = rand_mat(rng, r, k), rand_mat(rng, k, c)
        assert a.mul(b).to_rows() == naive_matmul(a.to_rows(), b.to_rows(), Q)
    a = mat([[16, 2], [3, 4]])
    with pytest.raises(ShapeError):
        a.mul(mat([[1, 2, 3]]))
    with pytest.raises(ShapeError):
        a.mul(FqMatrix(19, [[1, 2], [3, 4]]))


def test_transpose_and_take():
    """Transpose and row/column selection rearrange entries exactly."""
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert m.transpose() == mat([[1, 4], [2, 5], [3, 6]])
    assert m.transpose().transpose() == m
    assert m.take_rows([1]) == mat([[4, 5, 6]])
    assert m.take_cols([2, 0]) == mat([[3, 1], [6, 4]])


def test_hstack():
    """hstack concatenates side by side; mismatched row counts raise."""
    a, b = mat([[1, 2]]), mat([[3, 4]])
    assert hstack([a, b]) == mat([[1, 2, 3, 4]])
    with pytest.raises(ShapeError):
        hstack([])
    with pytest.raises(ShapeError):
        hstack([a, mat([[1], [2]])])


# -- elimination -------------------------------------------------------------


def test_rank_matches_minor_oracle():
    """Gaussian rank equals the largest invertible-minor size."""
    rng = random.Random(23)
    for _ in range(25):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = rand_mat(rng, r, c)
        assert rank(m) == naive_rank(m.to_rows(), Q)
    assert rank(FqMatrix.zeros(Q, 3, 3)) == 0
    assert rank(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 4


def test_rref_properties():
    """RREF has unit leading entries, clean pivot columns, same row space."""
    rng = random.Random(5)
    for _ in range(15):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 5))
        rows, pivots = _rref(m.to_rows(), Q)
        r = FqMatrix(Q, rows, cols=m.cols)
        assert len(pivots) == rank(r) == rank(m)
        assert same_row_space(m, r)
        seen_pivots = []
        for row in r.data:
            nz = [j for j, v in enumerate(row) if v]
            if not nz:
                continue
            lead = nz[0]
            assert row[lead] == 1
            assert all(r.data[i][lead] == 0 for i in range(r.rows) if r.data[i] != row)
            assert seen_pivots == [] or lead > seen_pivots[-1]
            seen_pivots.append(lead)
        assert seen_pivots == pivots


def test_null_space_annihilates():
    """Null-space rows satisfy m @ x = 0 and have full count cols - rank."""
    rng = random.Random(9)
    for _ in range(20):
        m = rand_mat(rng, rng.randint(1, 4), rng.randint(1, 6))
        ns = right_null_space(m)
        assert ns.rows == m.cols - rank(m)
        if ns.rows:
            prod = m.mul(ns.transpose())
            assert all(v == 0 for row in prod.data for v in row)
            assert rank(ns) == ns.rows


def test_solve_consistent_and_inconsistent():
    """solve returns an exact solution or raises InconsistentSystem."""
    a = mat([[1, 2], [3, 4]])
    x = mat([[5], [6]])
    b = a.mul(x)
    assert a.mul(solve(a, b)) == b
    singular = mat([[1, 2], [2, 4]])
    with pytest.raises(InconsistentSystem):
        solve(singular, mat([[1], [1]]))
    with pytest.raises(ShapeError):
        solve(a, mat([[1]]))
    with pytest.raises(ShapeError):
        solve(a, FqMatrix(19, [[1], [2]]))
    empty = solve(FqMatrix(Q, [], cols=2), FqMatrix(Q, [], cols=1))
    assert (empty.rows, empty.cols) == (2, 1)


def test_solve_underdetermined_sets_free_to_zero():
    """Free variables are pinned to zero so results are deterministic."""
    a = mat([[1, 2, 3]])
    b = mat([[4]])
    sol = solve(a, b)
    assert a.mul(sol) == b
    assert sol == solve(a, b)


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_solve_roundtrip_property(seed):
    """a @ solve(a, a @ x) == a @ x for random square systems."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a = rand_mat(rng, n, n)
    x = rand_mat(rng, n, 2)
    b = a.mul(x)
    assert a.mul(solve(a, b)) == b


# -- MDS machinery -----------------------------------------------------------


def test_is_mds_matches_leibniz_oracle():
    """is_mds agrees with determinant-by-permutations on random matrices."""
    rng = random.Random(31)
    for _ in range(30):
        r = rng.randint(1, 3)
        c = rng.randint(r, 5)
        m = rand_mat(rng, r, c)
        assert is_mds(m) == naive_is_mds(m.to_rows(), Q)
        assert first_singular_minor(m) == next(
            (
                sub
                for sub in itertools.combinations(range(c), r)
                if leibniz_det([[row[j] for j in sub] for row in m.to_rows()], Q) == 0
            ),
            None,
        )


def test_is_mds_edges():
    """Zero-row matrices are vacuously MDS; tall matrices are an error."""
    assert is_mds(FqMatrix(Q, [], cols=3)) is True
    assert is_mds(mat([[1, 0], [0, 1]])) is True
    assert is_mds(mat([[1, 0, 0], [0, 1, 0]])) is False
    with pytest.raises(ShapeError):
        is_mds(mat([[1], [2]]))


def test_is_mds_decides_grs_codes_by_certificate(monkeypatch):
    """A GRS matrix is proved MDS without enumerating a single minor; a
    non-GRS MDS matrix and a singular one still reach the minors."""
    import iplt.matrix

    def refuse(m):
        raise AssertionError("minors enumerated for a GRS code")

    monkeypatch.setattr(iplt.matrix, "first_singular_minor", refuse)
    assert is_mds(random_grs(65521, 5, 30, random.Random(3))) is True
    assert is_mds(random_grs(Q, 3, 6, random.Random(0))) is True
    calls = []

    def spy(m):
        calls.append(m)
        return first_singular_minor(m)

    monkeypatch.setattr(iplt.matrix, "first_singular_minor", spy)
    assert is_mds(mat(NON_GRS_V_17)) is True
    assert is_mds(mat([[1, 0, 0], [0, 1, 0]])) is False
    assert len(calls) == 2


def test_cauchy_values_and_degeneracy():
    """Cauchy entries invert coordinate differences; collisions raise."""
    w = cauchy(Q, (1, 5, 7), (11, 16))
    assert w == mat([[5, 9], [14, 3], [4, 15]])
    for i, xi in enumerate((1, 5, 7)):
        for j, yj in enumerate((11, 16)):
            assert (w.data[i][j] * (xi - yj)) % Q == 1
    with pytest.raises(DegenerateCauchy):
        cauchy(Q, (1, 5), (5,))
    with pytest.raises(DegenerateCauchy):
        cauchy(Q, (1, 18), ())


def test_cauchy_is_mds():
    """Every square submatrix of a Cauchy matrix is invertible."""
    w = cauchy(Q, (0, 1, 2), (3, 4, 5, 6))
    assert is_mds(w)
    assert is_mds(w.transpose().take_rows([0, 1, 2]))


def test_grs_generator_structure():
    """GRS entries are multiplier times point power; result is MDS."""
    g = grs_generator(Q, 3, 5, (1, 2, 3, 4, 5), (1, 1, 2, 1, 3))
    for i in range(3):
        for j, (p, m_) in enumerate(zip((1, 2, 3, 4, 5), (1, 1, 2, 1, 3))):
            assert g.data[i][j] == (m_ * pow(p, i, Q)) % Q
    assert is_mds(g)


def test_grs_generator_edge_cases():
    """A point 0 gives the column (m, 0, ..., 0), since 0^0 = 1 in row 0;
    k = 0 gives the empty generator of the full length."""
    points, mults = (0, 1, 2, 3), (5, 1, 2, 1)
    g = grs_generator(Q, 3, 4, points, mults)
    assert g.column(0) == (5, 0, 0)
    assert g == mat([[(m_ * pow(p, i, Q)) % Q for p, m_ in zip(points, mults)] for i in range(3)])
    empty = grs_generator(Q, 0, 4, (0, 1, 2, 3), (1, 1, 1, 1))
    assert (empty.rows, empty.cols, empty.data) == (0, 4, ())


def test_grs_generator_rejections():
    """Bad sizes, repeated points, zero multipliers, or entries that are
    not ints raise."""
    with pytest.raises(BadGrsParameters):
        grs_generator(Q, 4, 3, (1, 2, 3), (1, 1, 1))
    for k in (0, 1, 2):
        with pytest.raises(BadGrsParameters, match="must be ints"):
            grs_generator(Q, k, 3, (1, 2.0, 3), (1, 1, 1))
    with pytest.raises(BadGrsParameters, match="must be ints"):
        grs_generator(Q, 2, 3, (1, 2, 3), (1, 1.5, 1))
    with pytest.raises(BadGrsParameters):
        grs_generator(Q, 2, 18, range(18), [1] * 18)
    with pytest.raises(BadGrsParameters):
        grs_generator(Q, 2, 3, (1, 2, 2), (1, 1, 1))
    with pytest.raises(BadGrsParameters):
        grs_generator(Q, 2, 3, (1, 2, 3), (1, 0, 1))
    with pytest.raises(BadGrsParameters):
        random_grs(Q, 2, 18, random.Random(0))
    with pytest.raises(BadGrsParameters):
        random_grs(Q, 4, 3, random.Random(0))


def test_random_grs_deterministic_and_mds():
    """Same seed gives the same matrix; every draw is MDS."""
    assert random_grs(Q, 2, 7, random.Random(42)) == random_grs(
        Q, 2, 7, random.Random(42)
    )
    for seed in range(10):
        assert is_mds(random_grs(Q, 3, 6, random.Random(seed)))


# -- GRS parameters and extension ----------------------------------------------


def same_row_space(a, b):
    stacked = FqMatrix(a.q, a.data + b.data, cols=a.cols)
    return rank(a) == rank(b) == rank(stacked)


def hidden_grs(q, k, n, rng, infinity=False):
    """A GRS generator behind a random basis change and column shuffle.

    With infinity set, one column is replaced by (0, ..., 0, c), the column
    of the point at infinity.
    """
    rows = random_grs(q, k, n, rng).to_rows()
    if infinity:
        col, c = rng.randrange(n), rng.randrange(1, q)
        for i in range(k):
            rows[i][col] = c if i == k - 1 else 0
    while True:
        basis = FqMatrix.random(q, k, k, rng)
        if rank(basis) == k:
            break
    idx = list(range(n))
    rng.shuffle(idx)
    return basis.mul(FqMatrix(q, rows, cols=n)).take_cols(idx)


def check_parameters(g):
    points, mults = grs_parameters(g)
    assert len(set(points)) == g.cols and all(mults)
    assert same_row_space(grs_generator(g.q, g.rows, g.cols, points, mults), g)
    return points, mults


@pytest.mark.parametrize("infinity", [False, True])
def test_grs_parameters_recover_hidden_generators(infinity):
    """Hidden GRS codes, with or without a point at infinity, are recovered
    for L in {1, 2, 3, D-2, D-1, D}, and extend to the tight field q = D + R."""
    rng = random.Random(12)
    q, D = 11, 7
    for L in (1, 2, 3, D - 2, D - 1, D):
        for _ in range(3):
            g = hidden_grs(q, L, D, rng, infinity)
            points, mults = check_parameters(g)
            pos = sorted(rng.sample(range(q), D))
            done = grs_extend(g, points, mults, pos, q, rng)
            assert done.take_cols(pos) == g
            assert is_mds(done)


def test_grs_parameters_every_length_up_to_q():
    """Codes of every dimension and length n <= q are recovered, n = q included."""
    rng = random.Random(3)
    for q in (5, 7, 13):
        for n in range(1, q + 1):
            for k in range(n + 1):
                check_parameters(hidden_grs(q, k, n, rng, infinity=k > 0 and (n + k) % 2 == 0))


def test_grs_parameters_every_mds_code_with_small_k_or_redundancy():
    """Every MDS code with k <= 2 or n - k <= 2 is GRS."""
    rng = random.Random(8)
    for n in range(3, 9):
        for k in {1, 2, n - 2, n - 1}:
            for _ in range(5):
                g = FqMatrix.random(Q, k, n, rng)
                while not is_mds(g):
                    g = FqMatrix.random(Q, k, n, rng)
                check_parameters(g)


def test_grs_parameters_rejects_non_grs():
    """An MDS code off a conic, codes with dependent columns or rows, and
    codes longer than q raise NotGrs."""
    v = mat(NON_GRS_V_17)
    assert is_mds(v) and naive_is_mds(v.to_rows(), Q)
    assert not six_points_on_a_conic([v.column(j) for j in range(6)], Q)
    with pytest.raises(NotGrs):
        grs_parameters(v)
    grs = random_grs(Q, 3, 6, random.Random(2))
    assert six_points_on_a_conic([grs.column(j) for j in range(6)], Q)
    with pytest.raises(NotGrs):
        grs_parameters(mat([[1, 0, 1], [0, 1, 0]]))
    with pytest.raises(NotGrs):
        grs_parameters(mat([[1, 2, 3], [2, 4, 5]]))
    with pytest.raises(NotGrs):
        grs_parameters(mat([[1, 2, 3], [2, 4, 6]]))
    with pytest.raises(NotGrs):
        grs_parameters(FqMatrix(5, [[1] * 6]))
    assert issubclass(NotGrs, CompletionFailed)


def test_grs_extend_small_shapes_against_leibniz_oracle():
    """On the smallest shapes both MDS tests agree that extensions are MDS."""
    rng = random.Random(6)
    q = 7
    for k, n, width in ((1, 1, 3), (1, 3, 4), (2, 2, 5), (2, 3, 5), (2, 4, 7), (3, 4, 6), (3, 5, 7)):
        for _ in range(3):
            g = hidden_grs(q, k, n, rng)
            assert is_mds(g) and naive_is_mds(g.to_rows(), q)
            points, mults = check_parameters(g)
            pos = sorted(rng.sample(range(width), n))
            done = grs_extend(g, points, mults, pos, width, rng)
            assert done.take_cols(pos) == g
            assert is_mds(done) and naive_is_mds(done.to_rows(), q)


# -- pinned-column MDS completion by GRS extension ------------------------------


def test_mds_complete_preserves_fixed_and_is_mds():
    """Pinned columns survive bit-identical and the result is MDS."""
    rng = random.Random(1)
    base = random_grs(Q, 2, 4, rng)
    done = grs_extend(base, *grs_parameters(base), range(4), 7, rng)
    assert done.take_cols(range(4)) == base
    assert is_mds(done)


def test_mds_complete_no_free_columns_is_identity_op():
    """With every column pinned the extension returns g unchanged."""
    rng = random.Random(1)
    base = random_grs(Q, 2, 4, rng)
    assert grs_extend(base, *grs_parameters(base), range(4), 4, rng) == base


def test_mds_complete_single_row():
    """A 1-row extension keeps its pinned entry and avoids zeros."""
    g = FqMatrix(Q, [[5]])
    done = grs_extend(g, *grs_parameters(g), [0], 3, random.Random(0))
    assert done.data[0][0] == 5
    assert all(v != 0 for v in done.data[0])


def test_mds_complete_rejects_bad_columns():
    """Short, repeated or out-of-range positions raise ShapeError."""
    base = random_grs(Q, 2, 4, random.Random(4))
    points, mults = grs_parameters(base)
    for positions in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 7]):
        with pytest.raises(ShapeError):
            grs_extend(base, points, mults, positions, 7, random.Random(0))


def test_mds_complete_dependent_fixed_columns():
    """A dependent pinned column pair is reported as CompletionFailed."""
    with pytest.raises(CompletionFailed):
        grs_parameters(mat([[1, 2], [2, 4], [3, 6]]))
    with pytest.raises(CompletionFailed):
        grs_parameters(mat([[1, 2, 5], [2, 4, 1]]))


def test_mds_complete_success_rate_on_wide_template():
    """All 1000 seeded extensions of a 2 x 9 code to width 15 succeed and are MDS."""
    base = grs_generator(Q, 2, 9, range(1, 10), [1] * 9)
    points, mults = grs_parameters(base)
    for seed in range(1000):
        done = grs_extend(base, points, mults, range(9), 15, random.Random(seed))
        assert done.take_cols(range(9)) == base
        assert is_mds(done)


def test_mds_complete_value_pinned_null_space_shape():
    """The embedding-case shape (5 rows, 7 pinned of 10) extends and stays MDS."""
    rng = random.Random(20)
    lam = random_grs(Q, 5, 7, rng)
    cols = [0, 2, 3, 5, 6, 7, 9]
    done = grs_extend(lam, *grs_parameters(lam), cols, 10, rng)
    assert done.take_cols(cols) == lam
    assert is_mds(done)


def test_grs_extend_rejections():
    """A width beyond q raises BadGrsParameters, and parameters of another
    code NotGrs."""
    base = random_grs(Q, 2, 4, random.Random(4))
    points, mults = grs_parameters(base)
    with pytest.raises(BadGrsParameters):
        grs_extend(base, points, mults, range(4), Q + 1, random.Random(0))
    other = random_grs(Q, 2, 4, random.Random(5))
    with pytest.raises(NotGrs):
        grs_extend(other, points, mults, range(4), 7, random.Random(0))


def test_leibniz_det_oracle_sanity():
    """The oracle itself gets a known determinant right."""
    assert leibniz_det([[1, 2], [3, 4]], Q) == (1 * 4 - 2 * 3) % Q
    assert leibniz_det([[2, 0, 0], [0, 3, 0], [0, 0, 5]], Q) == 30 % Q
