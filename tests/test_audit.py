"""Privacy and feasibility audits on the pinned fixtures and corruptions."""

import dataclasses
import random
from fractions import Fraction

import pytest

from iplt import (
    BadShape,
    Demand,
    FqMatrix,
    ShapeError,
    SupportCandidate,
    audit_individual_privacy,
    candidate_supports,
    derive_params,
    example_fixture,
    feasibility_sweep,
    hstack,
)

from oracles import exact_posterior

Q = 17


# -- candidate enumeration ------------------------------------------------------


def test_candidate_counts_and_weights():
    """Candidate counts and exact weights match the combinatorics per case."""
    fx1 = example_fixture(1)
    c1 = candidate_supports(fx1.query, fx1.params)
    assert len(c1) == 3
    assert all(c.weight == Fraction(1, 3) for c in c1)

    fx2 = example_fixture(2)
    c2 = candidate_supports(fx2.query, fx2.params)
    assert len(c2) == 11
    assert c2[0].weight == Fraction(9, 24)
    assert all(c.weight == Fraction(1, 16) for c in c2[1:])

    fx3 = example_fixture(3)
    c3 = candidate_supports(fx3.query, fx3.params)
    assert len(c3) == 122
    assert c3[0].weight == c3[1].weight == Fraction(7, 24)
    assert all(c.weight == Fraction(1, 288) for c in c3[2:])

    for cands in (c1, c2, c3):
        assert sum((c.weight for c in cands), Fraction(0)) == 1
        assert all(len(c.support) == len(cands[0].support) for c in cands)


def test_candidate_supports_rejects_non_bijection():
    """A permutation that is not a bijection raises BadShape."""
    fx = example_fixture(1)
    pi = list(fx.query.pi)
    pi[0] = pi[1]
    with pytest.raises(BadShape):
        candidate_supports(dataclasses.replace(fx.query, pi=tuple(pi)), fx.params)


def test_posterior_matches_oracle():
    """The naive weighted-sum oracle gives D/K at every index on each pinned
    query, and the audit agrees: no violations, expected posterior D/K."""
    for which in (1, 2, 3):
        fx = example_fixture(which)
        K, D = fx.params.K, fx.params.D
        pairs = [(c.support, c.weight) for c in candidate_supports(fx.query, fx.params)]
        assert all(exact_posterior(pairs, i) == Fraction(D, K) for i in range(K))
        report = audit_individual_privacy(fx.query, fx.params)
        assert report.ok and report.posterior_violations == []
        assert report.expected == Fraction(D, K)


# -- privacy audit ----------------------------------------------------------------


def test_fixture_audits_pass():
    """All three pinned queries audit clean with the true support present."""
    expected = {1: Fraction(8, 24), 2: Fraction(9, 24), 3: Fraction(7, 24)}
    for which in (1, 2, 3):
        fx = example_fixture(which)
        report = audit_individual_privacy(fx.query, fx.params, fx.demand)
        assert report.ok
        assert report.expected == expected[which]
        assert report.true_support_found is True
        assert report.posterior_violations == []
        assert report.structure_errors == []
        assert "ok" in report.summary()


def test_audit_without_demand_leaves_true_support_unset():
    """Auditing the query alone reports no true-support verdict."""
    fx = example_fixture(1)
    report = audit_individual_privacy(fx.query, fx.params)
    assert report.ok and report.true_support_found is None


def test_audit_flags_non_bijection():
    """A duplicated permutation entry is a structural violation."""
    fx = example_fixture(1)
    pi = list(fx.query.pi)
    pi[3] = pi[4]
    report = audit_individual_privacy(dataclasses.replace(fx.query, pi=tuple(pi)), fx.params)
    assert not report.ok
    assert any("bijection" in e for e in report.structure_errors)
    assert report.candidate_count == 0
    assert "VIOLATION" in report.summary()


def test_audit_flags_cross_block_swap():
    """A swap that moves a demand index out of its block loses the support."""
    fx = example_fixture(1)
    secret, query = fx.secret, fx.query
    w0 = secret.shuffled.W[0]
    outside = next(
        i for i in range(fx.params.K)
        if i not in set(fx.demand.W) and query.pi[i] < 8
    )
    pi = list(query.pi)
    pi[w0], pi[outside] = pi[outside], pi[w0]
    report = audit_individual_privacy(
        dataclasses.replace(query, pi=tuple(pi)), fx.params, fx.demand
    )
    assert not report.ok
    assert report.true_support_found is False
    assert any("true demand support" in e for e in report.structure_errors)


def test_audit_flags_generator_support_leak():
    """A decoy block reaching past its columns is a structural violation."""
    fx = example_fixture(1)
    blocks = fx.query.blocks
    wide = hstack([blocks[0], FqMatrix(Q, [[5], [0]])])
    bad = dataclasses.replace(fx.query, blocks=(wide, *blocks[1:]))
    report = audit_individual_privacy(bad, fx.params, fx.demand)
    assert not report.ok
    assert any("outside its columns" in e for e in report.structure_errors)


def test_audit_flags_trailing_leak():
    """A trailing row reaching into decoy columns is a violation."""
    fx = example_fixture(2)
    trailing = fx.query.trailing
    leak = FqMatrix(Q, [[0]] * (trailing.rows - 1) + [[3]])
    bad = dataclasses.replace(fx.query, trailing=hstack([leak, trailing]))
    report = audit_individual_privacy(bad, fx.params, fx.demand)
    assert not report.ok
    assert any("trailing block" in e for e in report.structure_errors)


def test_audit_flags_wrong_generator_shape():
    """A generator with the wrong row count is reported."""
    fx = example_fixture(1)
    bad = dataclasses.replace(fx.query, trailing=fx.query.trailing.take_rows(range(1)))
    report = audit_individual_privacy(bad, fx.params, fx.demand)
    assert not report.ok
    assert any("expected" in e for e in report.structure_errors)


def test_audit_reports_exact_posterior_violations(monkeypatch):
    """Weight moved between two candidates shows up as exact violations."""
    import iplt.audit

    fx = example_fixture(1)
    honest = candidate_supports(fx.query, fx.params)
    shift = Fraction(1, 12)
    skewed = [
        SupportCandidate(honest[0].support, honest[0].weight + shift),
        SupportCandidate(honest[1].support, honest[1].weight - shift),
        *honest[2:],
    ]
    monkeypatch.setattr(iplt.audit, "candidate_supports", lambda query, params: skewed)
    report = audit_individual_privacy(fx.query, fx.params, fx.demand)

    K, D = fx.params.K, fx.params.D
    pairs = [(c.support, c.weight) for c in skewed]
    want = [(i, exact_posterior(pairs, i)) for i in range(K)]
    want = [(i, p) for i, p in want if p != Fraction(D, K)]
    assert len(want) == 2 * D
    assert report.posterior_violations == want
    assert report.weight_total == sum((w for _, w in pairs), Fraction(0)) == 1
    assert not report.ok and report.structure_errors == []
    assert "posterior violation: index" in report.summary()


def test_audit_random_queries_exact_posterior():
    """Freshly built queries audit clean across shapes and seeds."""
    from iplt import build_query

    for K, D, L, q in ((10, 4, 2, 17), (12, 5, 2, 17), (8, 4, 2, 17)):
        params = derive_params(K, D, L, q)
        for seed in range(4):
            rng = random.Random(seed)
            demand = Demand.random(params, rng)
            query, _ = build_query(demand, params, rng)
            report = audit_individual_privacy(query, params, demand)
            assert report.ok, report.summary()
            assert report.expected == Fraction(D, K)


# -- feasibility sweeps --------------------------------------------------------------


def test_alignment_sweep_fixture_fully_feasible():
    """Every planted subset of the pinned AlignS trailing block works."""
    fx = example_fixture(2)
    report = feasibility_sweep(fx.secret.trailing, fx.params)
    assert report.total == 10
    assert report.ok, report.failures


def test_alignment_sweep_detects_corruption():
    """Zeroing part of the trailing block breaks some subset."""
    fx = example_fixture(2)
    rows = fx.secret.trailing.to_rows()
    for i in range(len(rows)):
        rows[i][0] = 0
    report = feasibility_sweep(FqMatrix(Q, rows), fx.params)
    assert not report.ok
    assert report.failures


def test_alignment_sweep_validation():
    """A wrong trailing shape raises ShapeError."""
    fx2 = example_fixture(2)
    with pytest.raises(ShapeError):
        feasibility_sweep(fx2.secret.trailing.take_rows(range(4)), fx2.params)


def test_shortening_sweep_fixture_fully_feasible():
    """All 120 shortened supports of the pinned embedding block work."""
    fx = example_fixture(3)
    report = feasibility_sweep(fx.secret.trailing, fx.params)
    assert report.total == 120
    assert report.ok, report.failures[:3]


def test_shortening_sweep_detects_corruption():
    """A non-MDS trailing block fails some shortened support."""
    fx = example_fixture(3)
    rows = fx.secret.trailing.to_rows()
    for i in range(len(rows)):
        rows[i][0] = 0
    report = feasibility_sweep(FqMatrix(Q, rows), fx.params)
    assert not report.ok
    assert report.failures


def test_shortening_sweep_validation():
    """A wrong trailing width raises ShapeError."""
    fx3 = example_fixture(3)
    with pytest.raises(ShapeError):
        feasibility_sweep(fx3.secret.trailing.take_cols(range(5)), fx3.params)
