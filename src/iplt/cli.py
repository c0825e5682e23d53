"""Command-line interface for the private linear transformation toolkit.

Subcommands: bounds (rate bounds for a shape), example (pinned worked
instances with exhaustive self-checks), demo (one full query/answer/recovery
round trip), audit (privacy and feasibility checks on random queries), ilp
(brute-force row counts against the closed form), sweep (rate table as CSV),
serve (TCP answer server over a stored message matrix), and fetch (query a
running server and recover the demanded combinations).
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .audit import audit_individual_privacy, feasibility_sweep, trailing_support_count
from .bounds import capacity_upper, decimal6, ilp_bruteforce, rate_bounds, render_csv, sweep
from .errors import BadShape, IpltError, NotMds
from .field import check_field
from .fixtures import ExampleFixture, example_fixture
from .matrix import FqMatrix, cauchy, first_singular_minor, is_mds, rank, right_null_space
from .protocol import (
    ALIGN_S,
    Demand,
    ProtocolParams,
    achieved_rate,
    answer,
    build_query,
    demand_positions,
    derive_params,
    embedding_transform,
    is_permutation,
    recover,
    solve_alignment,
)
from .store import MessageStore, store_load
from .wire import fetch, serve, to_debug_json


# audit skips the feasibility sweep above this many trailing supports; each
# costs one null space plus one GRS certificate (audit.feasibility_sweep).
MAX_SWEEP_SUPPORTS = 512


def _print_params(params: ProtocolParams) -> None:
    print(
        f"params: K={params.K} D={params.D} L={params.L} q={params.q} "
        f"case={params.case} answer_rows={params.answer_rows}"
    )


# -- bounds -------------------------------------------------------------------


def cmd_bounds(args: argparse.Namespace) -> int:
    rb = rate_bounds(args.K, args.D, args.L)
    print(f"K={args.K} D={args.D} L={args.L}")
    print(f"upper: {rb.upper} ({decimal6(rb.upper)})")
    print(f"lower: {rb.lower} ({decimal6(rb.lower)})")
    if rb.exact is not None:
        print(f"exact: {rb.exact} ({decimal6(rb.exact)})")
    else:
        print("exact: open")
    print(f"jplt: {rb.jplt} ({decimal6(rb.jplt)})")
    return 0


# -- example ------------------------------------------------------------------


def _scaled_grid_matches(
    trailing: FqMatrix,
    c_matrix: FqMatrix,
    coefs: Sequence[Sequence[int]],
    L: int,
    S: int,
    q: int,
) -> tuple[bool, str]:
    """Trailing block (i, j) must be coefs[i][j] times coefficient slot j."""
    for i, row in enumerate(coefs):
        for j, coef in enumerate(row):
            for u in range(L):
                for v in range(S):
                    want = (coef * c_matrix.data[u][j * S + v]) % q
                    if trailing.data[i * L + u][j * S + v] != want:
                        return False, f"block ({i}, {j}) is not {coef} times slot {j}"
    return True, ""


def _example_checks(fx: ExampleFixture) -> list[tuple[str, bool, str]]:
    """Every verifiable claim of a pinned instance, as (name, ok, detail)."""
    params, demand, secret, query = fx.params, fx.demand, fx.secret, fx.query
    q, K, D, L, n = params.q, params.K, params.D, params.L, params.n
    shuffled = secret.shuffled
    exp = fx.expected
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    trailing = query.trailing
    shapes = [(blk.rows, blk.cols) for blk in (*query.blocks, trailing)]
    want = [(L, D)] * n + [(params.answer_rows - n * L, K - n * D)]
    add("generator shape", shapes == want, f"got blocks {shapes}, want {want}")
    add("permutation", len(query.pi) == K and is_permutation(query.pi), "pi is not a bijection")
    add(
        "coefficients mds",
        is_mds(demand.V) and is_mds(shuffled.V),
        "a coefficient matrix has a singular maximal minor",
    )

    pairs_ok = set(shuffled.W) == set(demand.W)
    if pairs_ok:
        where = {w: j for j, w in enumerate(shuffled.W)}
        pairs_ok = all(
            shuffled.V.column(where[w]) == demand.V.column(j)
            for j, w in enumerate(demand.W)
        )
    add("shuffle", pairs_ok, "shuffled demand is not a column permutation of the demand")

    if secret.b < n:
        add(
            "demand block",
            query.blocks[secret.b] == shuffled.V,
            "diagonal block b does not hold the shuffled coefficients",
        )
    elif params.case == ALIGN_S:
        add(
            "demand block",
            exp["c_matrix"].take_cols(secret.h) == shuffled.V,
            "planted slots do not hold the shuffled coefficients",
        )

    want_pos = demand_positions(params, secret.b, secret.h)
    got_pos = [query.pi[w] for w in shuffled.W]
    add(
        "placement",
        got_pos == want_pos,
        f"pi places the demand at {got_pos}, the formula gives {want_pos}",
    )

    x = FqMatrix.random(q, K, 3, random.Random(1009))
    rec = recover(answer(query, x), secret, params, demand)
    add(
        "round trip",
        rec == demand.value(x),
        "recovered matrix does not match the demanded combinations",
    )

    report = audit_individual_privacy(query, params, demand)
    add(
        "privacy audit",
        report.ok and report.true_support_found is True,
        report.summary().replace("\n", "; "),
    )

    if params.case == ALIGN_S:
        if "omega" in exp:
            omega = cauchy(q, exp["cauchy_x"], exp["cauchy_y"])
            add("cauchy table", omega == exp["omega"], "recomputed cauchy table differs")
            t, S = params.t, params.S
            slots = sorted({p // S for p in secret.h})
            k_idx = [j for j in slots if j < t]
            l_idx = [j for j in slots if j >= t]
            # Only the planted slots are pinned; the rng fills the others.
            c2, alpha2 = solve_alignment(q, t, params.m, k_idx, l_idx, omega, random.Random(0))
            add("alignment coefficients", c2 == exp["c"], f"recomputed {c2}, pinned {exp['c']}")
            bad = [
                (j, alpha2[j], want)
                for j, want in exp["planted_alpha"].items()
                if alpha2[j] != want or exp["alpha"][j] != want
            ]
            add("planted scalings", not bad, f"(slot, got, want): {bad}")
        if "trailing_coefs" in exp:
            ok, detail = _scaled_grid_matches(
                trailing, exp["c_matrix"], exp["trailing_coefs"], L, params.S, q
            )
            add("trailing display", ok, detail)
        else:
            add(
                "trailing scale",
                trailing == exp["c_matrix"],
                "trailing block is not the unit-scaled coefficient matrix",
            )
    else:
        lam = right_null_space(shuffled.V)
        lam_exp = exp["lam"]
        stacked = FqMatrix(q, list(lam.data) + list(lam_exp.data), cols=lam.cols)
        same_space = (
            lam.rows == lam_exp.rows
            and rank(lam) == rank(lam_exp)
            and rank(stacked) == rank(lam)
        )
        add(
            "shortening null space",
            same_space,
            "pinned null-space rows span a different space",
        )
        h_exp = exp["parity"]
        emb_ok = all(
            h_exp.column(col) == lam_exp.column(j) for j, col in enumerate(secret.h)
        )
        add(
            "parity embedding",
            emb_ok,
            "parity columns at the embedding set differ from the null-space columns",
        )
        add("parity mds", is_mds(h_exp), "parity matrix has a singular maximal minor")
        prod = trailing.mul(h_exp.transpose())
        add(
            "generator orthogonality",
            prod == FqMatrix.zeros(q, prod.rows, prod.cols)
            and rank(trailing) == trailing.rows,
            "trailing generator is not a full-rank complement of the parity rows",
        )
        u_mat, t_mat = embedding_transform(shuffled.V, secret.h, trailing)
        add("embedded demand", u_mat == exp["u_matrix"], "embedded coefficients differ")
        add(
            "recovery transform",
            t_mat == exp["t_matrix"] and t_mat.mul(trailing) == u_mat,
            "recomputed recovery transform differs",
        )
    fs = feasibility_sweep(trailing, params)
    add(
        "alignment sweep" if params.case == ALIGN_S else "shortening sweep",
        fs.ok,
        f"{fs.feasible}/{fs.total} trailing supports feasible",
    )
    return checks


def cmd_example(args: argparse.Namespace) -> int:
    fx = example_fixture(args.which)
    failed = 0
    for name, ok, detail in _example_checks(fx):
        if ok:
            print(f"check {name}: ok")
        else:
            failed += 1
            print(f"check {name}: FAIL ({detail})")
    print(f"{fx.name}: {'PASS' if failed == 0 else f'FAIL ({failed} checks)'}")
    return 0 if failed == 0 else 1


# -- demo ---------------------------------------------------------------------


def cmd_demo(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    params = derive_params(args.K, args.D, args.L, args.q, args.N)
    _print_params(params)
    demand = Demand.random(params, rng)
    print("demand W (1-based):", " ".join(str(i + 1) for i in demand.W))
    store = MessageStore.random(params.q, params.K, params.N, rng)
    print(f"store: {store.K} messages of {store.N} symbols over GF({store.q})")
    query, secret = build_query(demand, params, rng)
    print(f"query: generator {params.answer_rows}x{params.K}, demand block {secret.b}")
    y = answer(query, store.X)
    print(f"answer: {y.rows} rows")
    report = audit_individual_privacy(query, params, demand)
    print(
        f"audit: candidates={report.candidate_count}, "
        f"posterior={report.expected} each, {'ok' if report.ok else 'VIOLATION'}"
    )
    rec = recover(y, secret, params, demand)
    if rec != demand.value(store.X):
        print("recovered: MISMATCH")
        return 1
    print(f"recovered: OK, rate {achieved_rate(params)}")
    return 0


# -- audit --------------------------------------------------------------------


def cmd_audit(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise BadShape(f"need --trials >= 1, got {args.trials}")
    params = derive_params(args.K, args.D, args.L, args.q)
    rng = random.Random(args.seed)
    _print_params(params)
    enum = trailing_support_count(params)
    do_sweep = enum <= MAX_SWEEP_SUPPORTS
    priv_ok = sweep_ok = 0
    failures: list[str] = []
    for trial in range(args.trials):
        demand = Demand.random(params, rng)
        query, _ = build_query(demand, params, rng)
        report = audit_individual_privacy(query, params, demand)
        if report.ok and report.true_support_found is True:
            priv_ok += 1
        else:
            failures.append(f"trial {trial}: " + report.summary().replace("\n", "; "))
        if do_sweep:
            fs = feasibility_sweep(query.trailing, params)
            if fs.ok:
                sweep_ok += 1
            else:
                failures.append(
                    f"trial {trial}: {fs.total - fs.feasible} infeasible supports"
                )
    print(f"privacy: {priv_ok}/{args.trials} queries ok")
    if do_sweep:
        print(
            f"feasibility: {sweep_ok}/{args.trials} trailing blocks fully feasible "
            f"({enum} supports each)"
        )
    else:
        print(f"feasibility: skipped ({enum} supports exceed {MAX_SWEEP_SUPPORTS})")
    for line in failures:
        print(line)
    verdict = priv_ok == args.trials and (not do_sweep or sweep_ok == args.trials)
    print(f"audit: {'PASS' if verdict else 'FAIL'}")
    return 0 if verdict else 1


# -- ilp ----------------------------------------------------------------------


def cmd_ilp(args: argparse.Namespace) -> int:
    if args.max_K < 1:
        raise BadShape(f"need --max-K >= 1, got {args.max_K}")
    mismatches = 0
    count = 0
    for K in range(1, args.max_K + 1):
        for D in range(1, K + 1):
            for L in range(1, D + 1):
                count += 1
                if ilp_bruteforce(K, D, L) != L / capacity_upper(K, D, L):
                    mismatches += 1
    print(f"checked {count} triples up to K={args.max_K}: {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


# -- sweep --------------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        ratio = Fraction(args.ratio)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadShape(f"cannot parse ratio {args.ratio!r}: {exc}") from None
    if not 0 < ratio <= 1:
        raise BadShape(f"need 0 < --ratio <= 1, got {ratio}")
    if args.K < 1:
        raise BadShape(f"need --K >= 1, got {args.K}")
    if args.dstep < 1:
        raise BadShape(f"need --dstep >= 1, got {args.dstep}")
    d_values = range(args.dstep, args.K + 1, args.dstep)
    text = render_csv(sweep(args.K, ratio, d_values))
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    return 0


# -- serve / fetch --------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    store = store_load(args.store)
    srv = serve(store, args.addr)
    try:
        print(f"listening on {srv.endpoint}", flush=True)
        print(
            f"store: {store.K} messages of {store.N} symbols over GF({store.q})",
            flush=True,
        )
        srv.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        srv.server_close()
        stats = srv.stats()
        errors = ", ".join(f"{name} {n}" for name, n in sorted(stats["errors"].items()))
        print(
            f"served {stats['connections']} connections, {stats['requests']} requests;"
            f" errors: {errors or 'none'}",
            file=sys.stderr,
        )
    return 0


def _parse_demand(path: str, q: int) -> Demand:
    """Read a demand file: a 'W:' line of 1-based indices, then the V rows.

    Blank lines and lines starting with '#' are ignored.  A coefficient
    matrix that is not MDS is rejected with the first dependent column
    subset named in 1-based message indices.
    """
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].lower().startswith("w:"):
        raise BadShape("demand file must start with a 'W:' line of 1-based indices")
    try:
        w1 = [int(tok) for tok in lines[0][2:].split()]
    except ValueError:
        raise BadShape("demand indices must be integers") from None
    if not w1 or w1 != sorted(set(w1)) or w1[0] < 1:
        raise BadShape("demand indices must be distinct, ascending, and 1-based")
    rows: list[list[int]] = []
    for ln in lines[1:]:
        try:
            rows.append([int(tok) for tok in ln.split()])
        except ValueError:
            raise BadShape(f"coefficient row {ln!r} is not all integers") from None
    if not rows:
        raise BadShape("demand file has no coefficient rows")
    try:
        v = FqMatrix(q, rows)
    except ValueError as exc:
        raise BadShape(str(exc)) from None
    try:
        return Demand([i - 1 for i in w1], v)
    except NotMds:
        named = ", ".join(str(w1[j]) for j in first_singular_minor(v))
        raise NotMds(f"coefficient columns for messages {named} are dependent") from None


def cmd_fetch(args: argparse.Namespace) -> int:
    check_field(args.q)
    demand = _parse_demand(args.demand, args.q)
    params = derive_params(args.K, len(demand.W), demand.V.rows, args.q)
    if args.seed is None:
        rng: random.Random = random.SystemRandom()
    else:
        rng = random.Random(args.seed)
        print("warning: a seeded query is reproducible, so it is not private", file=sys.stderr)
    query, secret = build_query(demand, params, rng)
    if args.debug_json:
        print(to_debug_json(query))
    rec = recover(fetch(args.addr, query), secret, params, demand)
    text = "\n".join(" ".join(str(v) for v in row) for row in rec.data) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# -- parser -------------------------------------------------------------------


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--K", type=int, required=True, help="number of stored messages")
    p.add_argument("--D", type=int, required=True, help="messages per demand")
    p.add_argument("--L", type=int, required=True, help="combinations per demand")
    p.add_argument("--q", type=int, required=True, help="prime field size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iplt",
        description="Private retrieval of linear combinations with per-message privacy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="print rate bounds for a shape (K, D, L)")
    p.add_argument("K", type=int)
    p.add_argument("D", type=int)
    p.add_argument("L", type=int)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("example", help="run all checks on a pinned worked instance")
    p.add_argument("which", type=int, choices=(1, 2, 3))
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("demo", help="one full query, answer, and recovery round trip")
    _add_shape_args(p)
    p.add_argument("--N", type=int, default=1, help="symbols per message")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("audit", help="audit privacy and feasibility of random queries")
    _add_shape_args(p)
    p.add_argument("--trials", type=int, default=20, help="number of random queries")
    p.add_argument("--seed", type=int, default=0, help="rng seed")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ilp", help="compare brute-force optimal rows with the closed form")
    p.add_argument("--max-K", type=int, default=30, dest="max_K")
    p.set_defaults(func=cmd_ilp)

    p = sub.add_parser("sweep", help="write a CSV of rate bounds across demand sizes")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--ratio", required=True, help="L/D ratio, e.g. 0.6 or 3/5")
    p.add_argument("--dstep", type=int, default=1, help="step between demand sizes")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("serve", help="serve answers for a stored message matrix over TCP")
    p.add_argument("--store", required=True, help="message store file")
    p.add_argument("--addr", default="127.0.0.1:7710", help="host:port to bind")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("fetch", help="query a running server and recover the demand")
    p.add_argument("--addr", required=True, help="server host:port")
    p.add_argument("--demand", required=True, help="demand file (W line plus V rows)")
    p.add_argument("--K", type=int, required=True, help="number of stored messages")
    p.add_argument("--q", type=int, required=True, help="prime field size")
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="build a reproducible, non-private query (default: OS randomness)",
    )
    p.add_argument("--out", default="-", help="output path for the recovered rows")
    p.add_argument(
        "--debug-json",
        action="store_true",
        help="print the outgoing query as JSON before sending",
    )
    p.set_defaults(func=cmd_fetch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IpltError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
