"""Privacy and feasibility audits by exhaustive combinatorics.

Given only what the server sees (the query), enumerate every demand support
the construction could have hidden, with its exact prior weight, and check
that the posterior probability of each message index being demanded is
exactly D/K.  Feasibility sweeps verify that every enumerable support is
actually recoverable: alignment subsets combine to an MDS block in the
AlignS case, and every shortened support of the trailing code passes the
(k, l)-feasibility predicate in the ParityEmbed case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import AlignmentSingular, BadShape, ShapeError
from .matrix import FqMatrix, cauchy, is_mds, right_null_space
from .protocol import (
    ALIGN_S,
    PARITY_EMBED,
    ProtocolParams,
    Query,
    alignment_coefficients,
)


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
    if len(pi) != K or sorted(pi) != list(range(K)):
        raise BadShape("query permutation is not a bijection on [0, K)")
    inv = [0] * K
    for msg, pos in enumerate(pi):
        inv[pos] = msg
    out: list[SupportCandidate] = []
    block_w = Fraction(D, K)
    for j in range(n):
        out.append(SupportCandidate(frozenset(inv[j * D : (j + 1) * D]), block_w))
    if params.case == ALIGN_S:
        t, m, S = params.t, params.m, params.S
        assert t is not None and m is not None
        total = math.comb(t + m, t + 1)
        w = Fraction(D + R, K * total)
        for sel in itertools.combinations(range(t + m), t + 1):
            members = frozenset(
                inv[n * D + k * S + u] for k in sel for u in range(S)
            )
            out.append(SupportCandidate(members, w))
    else:
        total = math.comb(D + R, D)
        w = Fraction(D + R, K * total)
        for sel in itertools.combinations(range(D + R), D):
            members = frozenset(inv[n * D + p] for p in sel)
            out.append(SupportCandidate(members, w))
    return out


@dataclass
class PrivacyReport:
    """Outcome of one privacy audit."""

    ok: bool
    K: int
    D: int
    case: str
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

    Checks that pi is a bijection, that G has the block-diagonal support
    shape, that the candidate weights sum to 1 with every support of size D,
    and that every message index has posterior exactly D/K.  When the true
    demand is supplied, also checks its support appears among the
    candidates (a query that cannot explain the true demand leaks).
    """
    K, D, L, n = params.K, params.D, params.L, params.n
    errors: list[str] = []
    pi = query.pi
    if len(pi) != K or sorted(pi) != list(range(K)):
        errors.append("permutation is not a bijection")
    g = query.G
    if g.rows != params.answer_rows or g.cols != K:
        errors.append(
            f"generator is {g.rows}x{g.cols}, expected {params.answer_rows}x{K}"
        )
    else:
        for i in range(n):
            for u in range(i * L, (i + 1) * L):
                row = g.data[u]
                if any(row[:i * D]) or any(row[(i + 1) * D :]):
                    errors.append(f"block {i} has support outside its columns")
                    break
        for u in range(n * L, g.rows):
            if any(g.data[u][: n * D]):
                errors.append("trailing block has support outside its columns")
                break
    expected = Fraction(D, K)
    if errors and "permutation is not a bijection" in errors:
        return PrivacyReport(
            ok=False, K=K, D=D, case=params.case, candidate_count=0,
            weight_total=Fraction(0), expected=expected, structure_errors=errors,
        )
    cands = candidate_supports(query, params)
    weight_total = sum((c.weight for c in cands), start=Fraction(0))
    if weight_total != 1:
        errors.append(f"candidate weights sum to {weight_total}, not 1")
    if any(len(c.support) != D for c in cands):
        errors.append("a candidate support does not have size D")
    sums: dict[int, Fraction] = {}
    for c in cands:
        for i in c.support:
            sums[i] = sums.get(i, Fraction(0)) + c.weight
    violations = [
        (i, sums.get(i, Fraction(0)))
        for i in range(K)
        if sums.get(i, Fraction(0)) != expected
    ]
    true_found: Optional[bool] = None
    if demand is not None:
        target = frozenset(demand.W)
        true_found = any(c.support == target for c in cands)
        if not true_found:
            errors.append("true demand support is not among the candidates")
    ok = not errors and not violations
    return PrivacyReport(
        ok=ok, K=K, D=D, case=params.case, candidate_count=len(cands),
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


def alignment_feasibility_sweep(
    trailing: FqMatrix,
    params: ProtocolParams,
    cauchy_x: Sequence[int],
    cauchy_y: Sequence[int],
) -> FeasibilityReport:
    """Check every planted subset of an AlignS trailing block is recoverable.

    For each of the C(t+m, t+1) slot subsets: solve the alignment system,
    combine the row blocks with the c coefficients, and require the result
    to be supported exactly on the chosen column blocks with the surviving
    L x D matrix MDS.  A fully feasible sweep means every candidate the
    privacy audit enumerates is a demand the client could actually recover.
    The MDS check per subset examines all C(D, L) maximal minors, so the
    sweep cost is C(t+m, t+1) * C(D, L) determinants; budget accordingly.
    """
    if params.case != ALIGN_S:
        raise BadShape(f"alignment sweep needs an AlignS shape, got {params.case}")
    t, m, S, L, q = params.t, params.m, params.S, params.L, params.q
    assert t is not None and m is not None
    if trailing.rows != m * L or trailing.cols != (t + m) * S:
        raise ShapeError(
            f"trailing block is {trailing.rows}x{trailing.cols}, "
            f"expected {m * L}x{(t + m) * S}"
        )
    omega = cauchy(q, cauchy_x, cauchy_y)
    report = FeasibilityReport(total=math.comb(t + m, t + 1), feasible=0)
    for sel in itertools.combinations(range(t + m), t + 1):
        k_idx = tuple(j for j in sel if j < t)
        l_idx = tuple(j for j in sel if j >= t)
        try:
            c = alignment_coefficients(q, t, k_idx, l_idx, omega)
        except AlignmentSingular as exc:
            report.failures.append((sel, f"alignment: {exc}"))
            continue
        combined = [[0] * trailing.cols for _ in range(L)]
        for coef, l in zip(c, l_idx):
            base = (l - t) * L
            for u in range(L):
                src = trailing.data[base + u]
                dst = combined[u]
                for col in range(trailing.cols):
                    dst[col] = (dst[col] + coef * src[col]) % q
        selset = set(sel)
        support_bad = None
        for blk in range(t + m):
            nonzero = any(
                combined[u][blk * S + v] for u in range(L) for v in range(S)
            )
            if nonzero != (blk in selset):
                support_bad = blk
                break
        if support_bad is not None:
            report.failures.append((sel, f"support mismatch at block {support_bad}"))
            continue
        keep = [blk * S + v for blk in sel for v in range(S)]
        surviving = FqMatrix(q, [[row[j] for j in keep] for row in combined], cols=len(keep))
        if not is_mds(surviving):
            report.failures.append((sel, "surviving block is not MDS"))
            continue
        report.feasible += 1
    return report


def shortening_feasibility_sweep(
    trailing: FqMatrix,
    params: ProtocolParams,
) -> FeasibilityReport:
    """Check every D-subset of a ParityEmbed trailing block is recoverable.

    For each of the C(D+R, D) column subsets: the rows of the trailing code
    vanishing on the complement must form an L-dimensional space whose
    puncturing to the subset is MDS.  That is exactly the condition for the
    subset to hide a recoverable demand with some MDS coefficient matrix.
    """
    if params.case != PARITY_EMBED:
        raise BadShape(f"shortening sweep needs a ParityEmbed shape, got {params.case}")
    D, R, L, q = params.D, params.R, params.L, params.q
    width = D + R
    if trailing.cols != width:
        raise ShapeError(f"trailing block has {trailing.cols} columns, expected {width}")
    report = FeasibilityReport(total=math.comb(width, D), feasible=0)
    for sel in itertools.combinations(range(width), D):
        selset = set(sel)
        comp = [j for j in range(width) if j not in selset]
        vanishing = right_null_space(trailing.take_cols(comp).transpose())
        if vanishing.rows != L:
            report.failures.append(
                (sel, f"vanishing space has dimension {vanishing.rows}, expected {L}")
            )
            continue
        punctured = vanishing.mul(trailing).take_cols(list(sel))
        if not is_mds(punctured):
            report.failures.append((sel, "punctured vanishing space is not MDS"))
            continue
        report.feasible += 1
    return report
