"""Acceptance suite: one test per release criterion, one printed verdict each.

Every test drives a full criterion at its stated tolerance (exact arithmetic
everywhere; timing budgets where stated) and prints a single verdict line of
the form ``acceptance N (title): PASS`` to the real stdout, bypassing
pytest's capture so the line is visible in the -v run log.  A criterion that
cannot be met must show up here as FAIL, never be weakened.

The seeded samplers draw shapes from the stated grids but redraw shapes
whose exhaustive checks would explode combinatorially (binomial minor
counts).  Both protocol cases and both demand placements (decoy block and
trailing block) are asserted present in every sampled population.
"""

import itertools
import math
import os
import random
import tempfile
import time
from fractions import Fraction
from math import gcd

from iplt.audit import audit_individual_privacy, candidate_supports, feasibility_sweep
from iplt.bounds import capacity_lower, capacity_upper, ilp_bruteforce, jplt_rate
from iplt.cli import _example_checks
from iplt.errors import CompletionFailed
from iplt.fixtures import example_fixture
from iplt.matrix import FqMatrix
from iplt.protocol import (
    ALIGN_S,
    Demand,
    achieved_rate,
    alignment_coefficients,
    answer,
    build_query,
    derive_params,
    recover,
)
from iplt.store import MessageStore, store_load, store_save
from iplt.wire import decode_answer, decode_query, encode_answer, encode_query, fetch, serve

PRIMES = (17, 19, 23, 29)
EXAMPLE_TRIPLES = ((24, 8, 2), (24, 9, 2), (24, 7, 2))


def _verdict(capfd, num: int, title: str, problems: list, elapsed: float) -> None:
    """Print the single pass/fail line for a criterion, then assert.

    capfd.disabled() writes through pytest's file-descriptor capture so the
    verdict is visible in the live run log even when the test passes.
    """
    status = "PASS" if not problems else "FAIL"
    line = f"acceptance {num} ({title}): {status} ({elapsed:.2f} s)"
    with capfd.disabled():
        print(line, flush=True)
    assert not problems, "; ".join(str(p) for p in problems[:10])


def _sample_shape(rng: random.Random, max_candidates=None):
    """One (K, D, L, q) from the grid 1 <= L <= D <= K <= 30, q in PRIMES.

    Redraws shapes with no eligible prime (q >= D + R required) and, when
    max_candidates is set, shapes whose exhaustive candidate enumeration
    would exceed it.
    """
    while True:
        K = rng.randrange(1, 31)
        D = rng.randrange(1, K + 1)
        L = rng.randrange(1, D + 1)
        R = K % D
        eligible = [p for p in PRIMES if p >= D + R]
        if not eligible:
            continue
        S = gcd(D, R) if R else D
        if L > S:
            count = K // D - 1 + math.comb(D + R, D)
        else:
            count = K // D - 1 + math.comb((D + R) // S, D // S)
        if max_candidates is not None and count > max_candidates:
            continue
        return K, D, L, rng.choice(eligible)


# -- criterion 1 ------------------------------------------------------------


def test_criterion_1_pinned_instances(capfd):
    """All three pinned worked instances reproduce bit-exactly, under 1 s."""
    problems: list = []
    t0 = time.perf_counter()
    for which in (1, 2, 3):
        fx = example_fixture(which)
        for name, ok, detail in _example_checks(fx):
            if not ok:
                problems.append(f"instance {which} check '{name}': {detail}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"instances took {elapsed:.3f} s, budget is 1 s")

    fx2 = example_fixture(2)
    if fx2.expected["omega"].data != ((5, 9), (14, 3), (4, 15)):
        problems.append("instance 2 pinned coefficient table drifted")
    if tuple(fx2.expected["c"]) != (1, 13):
        problems.append("instance 2 pinned alignment coefficients drifted")
    if dict(fx2.expected["planted_alpha"]) != {0: 3, 2: 1, 4: 4}:
        problems.append("instance 2 pinned scalings drifted")
    fx3 = example_fixture(3)
    if fx3.expected["t_matrix"].data != ((6, 4, 13, 1, 0), (0, 6, 4, 13, 1)):
        problems.append("instance 3 pinned recovery transform drifted")
    _verdict(capfd, 1, "pinned worked instances", problems, elapsed)


# -- criterion 2 ------------------------------------------------------------


def test_criterion_2_rate_formulas(capfd):
    """Achieved and baseline rates equal the pinned fractions exactly."""
    problems: list = []
    t0 = time.perf_counter()
    want = [
        (EXAMPLE_TRIPLES[0], Fraction(1, 3), Fraction(2, 18)),
        (EXAMPLE_TRIPLES[1], Fraction(1, 4), Fraction(2, 17)),
        (EXAMPLE_TRIPLES[2], Fraction(2, 9), Fraction(2, 19)),
    ]
    for (K, D, L), rate, jplt in want:
        params = derive_params(K, D, L, 17)
        got = achieved_rate(params)
        if got != rate:
            problems.append(f"achieved_rate({K},{D},{L}) = {got}, want {rate}")
        gotj = jplt_rate(K, D, L)
        if gotj != jplt:
            problems.append(f"jplt_rate({K},{D},{L}) = {gotj}, want {jplt}")
    _verdict(capfd, 2, "rate formulas", problems, time.perf_counter() - t0)


# -- criterion 3 ------------------------------------------------------------


def test_criterion_3_row_minimization_oracle(capfd):
    """Exhaustive minimum-row DP equals the closed form on the whole grid."""
    problems: list = []
    t0 = time.perf_counter()
    checked = 0
    for K in range(1, 31):
        for D in range(1, K + 1):
            R = K % D
            for L in range(1, D + 1):
                checked += 1
                closed = L * (K // D) + min(L, R)
                got = ilp_bruteforce(K, D, L)
                if got != closed:
                    problems.append(f"({K},{D},{L}): oracle {got}, closed {closed}")
    elapsed = time.perf_counter() - t0
    if checked != 4960:
        problems.append(f"grid has {checked} triples, expected 4960")
    if elapsed >= 30.0:
        problems.append(f"grid took {elapsed:.2f} s, budget is 30 s")
    _verdict(capfd, 3, "row minimization oracle", problems, elapsed)


# -- criterion 4 ------------------------------------------------------------


def test_criterion_4_bound_ordering_and_tightness(capfd):
    """Lower <= upper everywhere; equality exactly when R <= L or R | D."""
    problems: list = []
    t0 = time.perf_counter()
    for K in range(1, 31):
        for D in range(1, K + 1):
            R = K % D
            for L in range(1, D + 1):
                lo = capacity_lower(K, D, L)
                up = capacity_upper(K, D, L)
                if lo > up:
                    problems.append(f"({K},{D},{L}): lower {lo} > upper {up}")
                tight = R <= L or D % R == 0
                if (lo == up) != tight:
                    problems.append(
                        f"({K},{D},{L}): equality is {lo == up}, "
                        f"tightness predicate says {tight}"
                    )
    _verdict(capfd, 4, "bound ordering and tightness", problems, time.perf_counter() - t0)


# -- criterion 5 ------------------------------------------------------------


def test_criterion_5_end_to_end_recoverability(capfd):
    """500 seeded instances recover V @ X_W exactly across the whole grid."""
    problems: list = []
    master = random.Random(2026_08_19)
    coverage: dict = {}
    redraws = 0
    t0 = time.perf_counter()
    for trial in range(500):
        while True:
            K, D, L, q = _sample_shape(master)
            N = master.choice((1, 3))
            params = derive_params(K, D, L, q, N)
            rng = random.Random((trial << 8) ^ 0x5EED)
            demand = Demand.random(params, rng)
            try:
                query, secret = build_query(demand, params, rng)
            except CompletionFailed:
                redraws += 1
                continue
            break
        x = FqMatrix(q, [[rng.randrange(q) for _ in range(N)] for _ in range(K)])
        rec = recover(answer(query, x), secret, params, demand)
        if rec != demand.value(x):
            problems.append(f"trial {trial} ({K},{D},{L}) q={q} N={N}: wrong recovery")
        key = (params.case, "trailing" if secret.b == params.n else "decoy")
        coverage[key] = coverage.get(key, 0) + 1
    elapsed = time.perf_counter() - t0
    for case in ("AlignS", "ParityEmbed"):
        for placement in ("decoy", "trailing"):
            if not coverage.get((case, placement)):
                problems.append(f"no instance hit {case} with {placement} placement")
    if redraws > 10:
        problems.append(f"{redraws} completion redraws, expected at most 10")
    if elapsed >= 60.0:
        problems.append(f"500 instances took {elapsed:.2f} s, budget is 60 s")
    _verdict(capfd, 5, "end-to-end recoverability", problems, elapsed)


# -- criterion 6 ------------------------------------------------------------


def test_criterion_6_privacy_posterior(capfd):
    """200 seeded queries: posterior is exactly D/K for every message index."""
    problems: list = []
    master = random.Random(424242)
    t0 = time.perf_counter()
    redraws = 0
    for trial in range(200):
        while True:
            K, D, L, q = _sample_shape(master, max_candidates=3000)
            params = derive_params(K, D, L, q)
            rng = random.Random((trial << 8) ^ 0xA0D1)
            demand = Demand.random(params, rng)
            try:
                query, secret = build_query(demand, params, rng)
            except CompletionFailed:
                redraws += 1
                continue
            break
        sums = {i: Fraction(0) for i in range(K)}
        for cand in candidate_supports(query, params):
            for i in cand.support:
                sums[i] += cand.weight
        expected = Fraction(D, K)
        bad = [i for i in range(K) if sums[i] != expected]
        if bad:
            problems.append(
                f"trial {trial} ({K},{D},{L}) q={q}: posterior wrong at {bad[:4]}"
            )
        report = audit_individual_privacy(query, params, demand)
        if not (report.ok and report.true_support_found is True):
            problems.append(f"trial {trial} ({K},{D},{L}) q={q}: audit flags a violation")
    if redraws > 10:
        problems.append(f"{redraws} completion redraws, expected at most 10")
    _verdict(capfd, 6, "individual privacy posterior", problems, time.perf_counter() - t0)


# -- criterion 7 ------------------------------------------------------------


def _sample_alignment_shape(rng: random.Random):
    """Alignment-case shapes with t+m <= 8 and a tractable full sweep."""
    while True:
        K, D, L, q = _sample_shape(rng)
        R = K % D
        S = gcd(D, R) if R else D
        if L > S or (D + R) // S > 8:
            continue
        if math.comb((D + R) // S, D // S) * math.comb(D, L) > 100_000:
            continue
        return K, D, L, q


def _sample_embedding_shape(rng: random.Random):
    """Embedding-case shapes with D+R <= 12 (full shortening sweep)."""
    while True:
        K, D, L, q = _sample_shape(rng)
        R = K % D
        S = gcd(D, R) if R else D
        if L <= S or D + R > 12:
            continue
        return K, D, L, q


def _omega_from_view(trailing, params):
    """The Cauchy table read off the trailing block, one scale per column.

    Slot block (i, j < t) is alpha_j * omega[i][j] * C_j, so at an entry of
    slot j that is nonzero in row block 0, row block i over row block 0 is
    omega[i][j] / omega[0][j].  Scaling a column of omega scales one
    alignment equation, so alignment_coefficients returns the same c as it
    does from the client's own table.
    """
    q, L, S, t, m = params.q, params.L, params.S, params.t, params.m
    rows = trailing.data
    cols = []
    for j in range(t):
        u, p = next((u, p) for u in range(L) for p in range(j * S, j * S + S) if rows[u][p])
        inv = pow(rows[u][p], q - 2, q)
        cols.append([rows[i * L + u][p] * inv % q for i in range(m)])
    return FqMatrix(q, [[col[i] for col in cols] for i in range(m)], cols=t)


def test_criterion_7_feasibility_totality(capfd):
    """Every slot subset and every shortened support of sampled trailing
    blocks is feasible, with all-nonzero alignment coefficients."""
    problems: list = []
    master = random.Random(777)
    t0 = time.perf_counter()

    for trial in range(60):
        K, D, L, q = _sample_alignment_shape(master)
        params = derive_params(K, D, L, q)
        rng = random.Random((trial << 8) ^ 0xFEA5)
        demand = Demand.random(params, rng)
        query, _ = build_query(demand, params, rng)
        sweep = feasibility_sweep(query.trailing, params)
        total = math.comb(params.t + params.m, params.t + 1)
        if not (sweep.ok and sweep.total == total and sweep.feasible == total):
            problems.append(
                f"alignment trial {trial} ({K},{D},{L}) q={q}: "
                f"{sweep.feasible}/{sweep.total} feasible, want {total}"
            )
        omega = _omega_from_view(query.trailing, params)
        for sel in itertools.combinations(range(params.t + params.m), params.t + 1):
            c = alignment_coefficients(
                q,
                params.t,
                tuple(j for j in sel if j < params.t),
                tuple(j for j in sel if j >= params.t),
                omega,
            )
            if any(v == 0 for v in c):
                problems.append(
                    f"alignment trial {trial} ({K},{D},{L}) q={q}: zero "
                    f"coefficient on subset {sel}"
                )

    redraws = 0
    for trial in range(60):
        while True:
            K, D, L, q = _sample_embedding_shape(master)
            params = derive_params(K, D, L, q)
            rng = random.Random((trial << 8) ^ 0xE3BD)
            demand = Demand.random(params, rng)
            try:
                query, secret = build_query(demand, params, rng)
            except CompletionFailed:
                redraws += 1
                continue
            break
        sweep = feasibility_sweep(query.trailing, params)
        total = math.comb(D + K % D, D)
        if not (sweep.ok and sweep.total == total and sweep.feasible == total):
            problems.append(
                f"embedding trial {trial} ({K},{D},{L}) q={q}: "
                f"{sweep.feasible}/{sweep.total} feasible, want {total}"
            )
    if redraws > 10:
        problems.append(f"{redraws} completion redraws, expected at most 10")
    _verdict(capfd, 7, "feasibility totality", problems, time.perf_counter() - t0)


# -- criterion 8 ------------------------------------------------------------


def test_criterion_8_asymptotic_identities(capfd):
    """The asymptotic claims reduce to two identities checked elsewhere at
    scale; re-verify both on a small grid as documentation.

    Converse side: the exhaustive row-minimization oracle equals the closed
    form that the upper bound divides through.  Achievability side: the
    protocol's achieved rate equals the capacity lower bound on every shape.
    """
    problems: list = []
    t0 = time.perf_counter()
    for K in range(1, 13):
        for D in range(1, K + 1):
            R = K % D
            q = next(p for p in PRIMES if p >= D + R)
            for L in range(1, D + 1):
                closed = L * (K // D) + min(L, R)
                if ilp_bruteforce(K, D, L) != closed:
                    problems.append(f"converse identity fails at ({K},{D},{L})")
                params = derive_params(K, D, L, q)
                if achieved_rate(params) != capacity_lower(K, D, L):
                    problems.append(f"achievability identity fails at ({K},{D},{L})")
    _verdict(capfd, 8, "asymptotic optimality identities", problems, time.perf_counter() - t0)


# -- criterion 9 ------------------------------------------------------------


def test_criterion_9_file_and_wire_round_trips(capfd):
    """Store and frame round trips are bit-identical; loopback answers match
    in-process answers byte for byte on all three pinned instances."""
    problems: list = []
    t0 = time.perf_counter()
    for which in (1, 2, 3):
        fx = example_fixture(which)
        rng = random.Random(90 + which)
        store = MessageStore.random(fx.params.q, fx.params.K, 2, rng)

        blob = encode_query(fx.query)
        again = encode_query(decode_query(blob))
        if blob != again or decode_query(blob) != fx.query:
            problems.append(f"instance {which}: query frame round trip drifted")

        local = answer(fx.query, store.X)
        ablob = encode_answer(local)
        decoded = decode_answer(ablob, fx.params.q)
        if encode_answer(decoded) != ablob or decoded != local:
            problems.append(f"instance {which}: answer frame round trip drifted")

        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "m.plts")
            store_save(store, path)
            with open(path, "rb") as fh:
                raw = fh.read()
            loaded = store_load(path)
            store_save(loaded, path)
            with open(path, "rb") as fh:
                raw2 = fh.read()
            if raw != raw2 or loaded != store:
                problems.append(f"instance {which}: store file round trip drifted")

        srv = serve(store, "127.0.0.1:0")
        try:
            remote = fetch(srv.endpoint, fx.query)
        finally:
            srv.close()
        if encode_answer(remote) != encode_answer(local):
            problems.append(f"instance {which}: loopback answer differs from in-process")
    _verdict(capfd, 9, "file and wire round trips", problems, time.perf_counter() - t0)
