"""Privacy and feasibility audits by exhaustive combinatorics.

Given only what the server sees (the query), enumerate every demand support
the construction could have hidden, with its exact prior weight, and check
that the posterior probability of each message index being demanded is
exactly D/K.  The feasibility sweep reads only the trailing block and checks
that every trailing support the privacy audit enumerates is recoverable: the
combinations of trailing rows that vanish off the support form an
L-dimensional space that is MDS on it (shortening an MDS code).  The same
check covers both cases.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .errors import BadShape, ShapeError
from .matrix import FqMatrix, is_mds, right_null_space
from .protocol import (
    ALIGN_S,
    ProtocolParams,
    Query,
    inverse_permutation,
    is_permutation,
    slot_columns,
)


def trailing_support_count(params: ProtocolParams) -> int:
    """How many supports the trailing block can hide: C(t+m, t+1) slot subsets
    (AlignS) or C(D+R, D) column subsets (ParityEmbed)."""
    if params.case == ALIGN_S:
        assert params.t is not None and params.m is not None
        return math.comb(params.t + params.m, params.t + 1)
    return math.comb(params.D + params.R, params.D)


def _trailing_supports(params: ProtocolParams) -> Iterable[tuple[int, ...]]:
    """The trailing columns each trailing support covers, in the order of
    trailing_support_count: each union of t+1 of the t+m width-S slots
    (AlignS) or each D-subset of the D+R columns (ParityEmbed)."""
    if params.case == ALIGN_S:
        t, m = params.t, params.m
        assert t is not None and m is not None
        slots = itertools.combinations(range(t + m), t + 1)
        return (tuple(slot_columns(params.S, sel)) for sel in slots)
    return itertools.combinations(range(params.D + params.R), params.D)


@dataclass(frozen=True)
class SupportCandidate:
    """One support the query could be hiding, with its exact prior weight."""

    support: frozenset[int]
    weight: Fraction


def candidate_supports(query: Query, params: ProtocolParams) -> list[SupportCandidate]:
    """Every demand support consistent with the query structure, with weights.

    Blocks j < n each hide one support of weight D/K (their D positions).
    The trailing D+R positions hide one support per planted combination:
    each union of t+1 of the t+m width-S position groups (AlignS) or each
    D-subset of the trailing positions (ParityEmbed), sharing the trailing
    block's total weight (D+R)/K uniformly.  Weights always sum to 1.
    """
    K, D, R, n = params.K, params.D, params.R, params.n
    pi = query.pi
    if len(pi) != K or not is_permutation(pi):
        raise BadShape("query permutation is not a bijection on [0, K)")
    inv = inverse_permutation(pi)
    out: list[SupportCandidate] = []
    block_w = Fraction(D, K)
    for j in range(n):
        out.append(SupportCandidate(frozenset(inv[j * D : (j + 1) * D]), block_w))
    w = Fraction(D + R, K * trailing_support_count(params))
    out += [
        SupportCandidate(frozenset(inv[n * D + p] for p in sel), w)
        for sel in _trailing_supports(params)
    ]
    return out


@dataclass
class PrivacyReport:
    """Outcome of one privacy audit."""

    ok: bool
    candidate_count: int
    weight_total: Fraction
    expected: Fraction
    structure_errors: list[str] = field(default_factory=list)
    posterior_violations: list[tuple[int, Fraction]] = field(default_factory=list)
    true_support_found: Optional[bool] = None

    def summary(self) -> str:
        lines = [
            f"candidates: {self.candidate_count}, weight total: {self.weight_total}",
            f"expected posterior: {self.expected}",
        ]
        if self.structure_errors:
            lines += [f"structure: {e}" for e in self.structure_errors]
        if self.posterior_violations:
            lines += [
                f"posterior violation: index {i} has {p}"
                for i, p in self.posterior_violations
            ]
        if self.true_support_found is not None:
            lines.append(f"true support among candidates: {self.true_support_found}")
        lines.append("ok" if self.ok else "VIOLATION")
        return "\n".join(lines)


def audit_individual_privacy(query, params: ProtocolParams, demand=None) -> PrivacyReport:
    """Audit one query: structure, candidate weights, and per-index posterior.

    Checks that pi is a bijection, that G has the block-diagonal shape (n
    L x D decoy blocks, then a trailing block covering the remaining rows and
    columns), that the candidate weights sum to 1 with every support of size
    D, and that every message index has posterior exactly D/K.  When the true
    demand is supplied, also checks its support appears among the
    candidates (a query that cannot explain the true demand leaks).
    """
    K, D, L, n = params.K, params.D, params.L, params.n
    errors: list[str] = []
    # candidate_supports checks the bijection, and that is the only BadShape it raises.
    cands: Optional[list[SupportCandidate]]
    try:
        cands = candidate_supports(query, params)
    except BadShape:
        cands = None
        errors.append("permutation is not a bijection")
    if len(query.blocks) != n:
        errors.append(f"generator has {len(query.blocks)} decoy blocks, expected {n}")
    for i, blk in enumerate(query.blocks):
        if blk.cols != D:
            errors.append(f"block {i} has support outside its columns")
        elif blk.rows != L:
            errors.append(f"block {i} has {blk.rows} rows, expected {L}")
    trailing = query.trailing
    if trailing.cols != K - n * D:
        errors.append("trailing block has support outside its columns")
    elif trailing.rows != params.answer_rows - n * L:
        errors.append(
            f"trailing block has {trailing.rows} rows, expected {params.answer_rows - n * L}"
        )
    expected = Fraction(D, K)
    if cands is None:
        return PrivacyReport(
            ok=False, candidate_count=0,
            weight_total=Fraction(0), expected=expected, structure_errors=errors,
        )
    # Posteriors are summed as integer numerators over the weights' common
    # denominator: Fraction additions per support entry used to dominate the
    # audit's time.  Fractions are built only for the reported values.
    den = math.lcm(*(c.weight.denominator for c in cands))
    nums = [c.weight.numerator * (den // c.weight.denominator) for c in cands]
    weight_total = Fraction(sum(nums), den)
    if weight_total != 1:
        errors.append(f"candidate weights sum to {weight_total}, not 1")
    if any(len(c.support) != D for c in cands):
        errors.append("a candidate support does not have size D")
    sums = [0] * K
    for c, num in zip(cands, nums):
        for i in c.support:
            sums[i] += num
    violations = [(i, Fraction(s, den)) for i, s in enumerate(sums) if s * K != D * den]
    true_found: Optional[bool] = None
    if demand is not None:
        target = frozenset(demand.W)
        true_found = any(c.support == target for c in cands)
        if not true_found:
            errors.append("true demand support is not among the candidates")
    ok = not errors and not violations
    return PrivacyReport(
        ok=ok, candidate_count=len(cands),
        weight_total=weight_total, expected=expected, structure_errors=errors,
        posterior_violations=violations, true_support_found=true_found,
    )


@dataclass
class FeasibilityReport:
    """Outcome of one exhaustive feasibility sweep."""

    total: int
    feasible: int
    failures: list[tuple[tuple[int, ...], str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.total > 0 and self.feasible == self.total


def feasibility_sweep(trailing: FqMatrix, params: ProtocolParams) -> FeasibilityReport:
    """Check every trailing support the privacy audit enumerates is recoverable.

    For each support P: the combinations of trailing rows that vanish on
    the columns outside P must form an L-dimensional space whose restriction
    to P is MDS.  That is exactly the condition for some client to recover a
    demand with an MDS coefficient matrix at P from this block (the T of
    protocol.embedding_transform), in either case.  Each support costs one
    null space and one MDS check, and matrix.is_mds settles a GRS code by
    certificate without enumerating minors, so the sweep's cost follows
    trailing_support_count(params).
    """
    D, L = params.D, params.L
    rows, width = params.answer_rows - params.n * L, D + params.R
    if trailing.rows != rows or trailing.cols != width:
        raise ShapeError(
            f"trailing block is {trailing.rows}x{trailing.cols}, expected {rows}x{width}"
        )
    report = FeasibilityReport(total=trailing_support_count(params), feasible=0)
    for sel in _trailing_supports(params):
        selset = set(sel)
        comp = [j for j in range(width) if j not in selset]
        vanishing = right_null_space(trailing.take_cols(comp).transpose())
        if vanishing.rows != L:
            report.failures.append(
                (sel, f"vanishing space has dimension {vanishing.rows}, expected {L}")
            )
            continue
        if not is_mds(vanishing.mul(trailing).take_cols(sel)):
            report.failures.append((sel, "vanishing space is not MDS on the support"))
            continue
        report.feasible += 1
    return report
