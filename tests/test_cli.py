"""End-to-end tests for the command line interface."""

import argparse
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iplt
from iplt.cli import _build_parser, main
from iplt.matrix import FqMatrix
from iplt.protocol import Demand
from iplt.store import MessageStore, store_save
from iplt.wire import fetch, serve

from oracles import NON_GRS_V_17


def run_cli(capsys, argv):
    """Invoke the CLI in-process and return (exit_code, stdout, stderr)."""
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- bounds ---------------------------------------------------------------


def test_bounds_open_alignment_shape(capsys):
    """bounds prints fractions plus decimals for a shape with an open rate."""
    rc, out, _ = run_cli(capsys, ["bounds", "24", "9", "2"])
    assert rc == 0
    assert out.splitlines() == [
        "K=24 D=9 L=2",
        "upper: 1/3 (0.333333)",
        "lower: 1/4 (0.250000)",
        "exact: open",
        "jplt: 2/17 (0.117647)",
    ]


def test_bounds_divisible_shape(capsys):
    """When the demand size divides K the bounds collapse to an exact rate."""
    rc, out, _ = run_cli(capsys, ["bounds", "24", "8", "2"])
    assert rc == 0
    assert out.splitlines() == [
        "K=24 D=8 L=2",
        "upper: 1/3 (0.333333)",
        "lower: 1/3 (0.333333)",
        "exact: 1/3 (0.333333)",
        "jplt: 1/9 (0.111111)",
    ]


def test_bounds_open_embedding_shape(capsys):
    """Third pinned shape: upper 1/4, lower 2/9, exact open."""
    rc, out, _ = run_cli(capsys, ["bounds", "24", "7", "2"])
    assert rc == 0
    assert out.splitlines() == [
        "K=24 D=7 L=2",
        "upper: 1/4 (0.250000)",
        "lower: 2/9 (0.222222)",
        "exact: open",
        "jplt: 2/19 (0.105263)",
    ]


def test_bounds_rejects_bad_shape(capsys):
    """L greater than D exits 2 with a named error on stderr."""
    rc, out, err = run_cli(capsys, ["bounds", "24", "9", "99"])
    assert rc == 2
    assert out == ""
    assert err.startswith("error: BadShape:")


# -- example --------------------------------------------------------------


@pytest.mark.parametrize("which,n_checks", [(1, 10), (2, 13), (3, 14)])
def test_example_all_checks_pass(capsys, which, n_checks):
    """Each pinned instance runs its full check list and passes."""
    rc, out, _ = run_cli(capsys, ["example", str(which)])
    assert rc == 0
    lines = out.splitlines()
    checks = [ln for ln in lines if ln.startswith("check ")]
    assert len(checks) == n_checks
    assert all(ln.endswith(": ok") for ln in checks)
    assert lines[-1] == f"example {which}: PASS"


_COMMON_CHECKS = [
    "generator shape", "permutation", "coefficients mds", "shuffle", "demand block",
    "placement", "round trip", "privacy audit",
]
# The (12, 5, 2, 17) audit transcript is pinned by test_audit_pass_with_sweep.
TRANSCRIPTS = {
    ("example", "1"): [
        *(f"check {c}: ok" for c in _COMMON_CHECKS),
        "check trailing scale: ok",
        "check alignment sweep: ok",
        "example 1: PASS",
    ],
    ("example", "2"): [
        *(f"check {c}: ok" for c in _COMMON_CHECKS),
        "check cauchy table: ok",
        "check alignment coefficients: ok",
        "check planted scalings: ok",
        "check trailing display: ok",
        "check alignment sweep: ok",
        "example 2: PASS",
    ],
    ("example", "3"): [
        *(f"check {c}: ok" for c in _COMMON_CHECKS if c != "demand block"),
        "check shortening null space: ok",
        "check parity embedding: ok",
        "check parity mds: ok",
        "check generator orthogonality: ok",
        "check embedded demand: ok",
        "check recovery transform: ok",
        "check shortening sweep: ok",
        "example 3: PASS",
    ],
    ("audit", "--K", "24", "--D", "9", "--L", "2", "--q", "17", "--trials", "5", "--seed", "1"): [
        "params: K=24 D=9 L=2 q=17 case=AlignS answer_rows=8",
        "privacy: 5/5 queries ok",
        "feasibility: 5/5 trailing blocks fully feasible (10 supports each)",
        "audit: PASS",
    ],
    ("audit", "--K", "30", "--D", "8", "--L", "2", "--q", "17", "--trials", "5", "--seed", "1"): [
        "params: K=30 D=8 L=2 q=17 case=AlignS answer_rows=12",
        "privacy: 5/5 queries ok",
        "feasibility: 5/5 trailing blocks fully feasible (35 supports each)",
        "audit: PASS",
    ],
}


@pytest.mark.parametrize("argv", sorted(TRANSCRIPTS), ids=" ".join)
def test_cli_transcripts_pinned(capsys, argv):
    """example and audit print exactly these lines: check names, order and counts."""
    rc, out, _ = run_cli(capsys, list(argv))
    assert rc == 0
    assert out.splitlines() == TRANSCRIPTS[argv]


# -- demo -----------------------------------------------------------------


def test_demo_alignment_golden(capsys):
    """Full demo transcript for an alignment-case shape is reproducible."""
    rc, out, _ = run_cli(
        capsys, ["demo", "--K", "24", "--D", "9", "--L", "2", "--q", "17", "--seed", "0"]
    )
    assert rc == 0
    assert out.splitlines() == [
        "params: K=24 D=9 L=2 q=17 case=AlignS answer_rows=8",
        "demand W (1-based): 3 4 5 6 7 9 14 19 22",
        "store: 24 messages of 1 symbols over GF(17)",
        "query: generator 8x24, demand block 1",
        "answer: 8 rows",
        "audit: candidates=11, posterior=3/8 each, ok",
        "recovered: OK, rate 1/4",
    ]


def test_demo_embedding_golden(capsys):
    """Full demo transcript for a parity-embedding shape is reproducible."""
    rc, out, _ = run_cli(
        capsys, ["demo", "--K", "24", "--D", "7", "--L", "2", "--q", "17", "--seed", "2"]
    )
    assert rc == 0
    assert out.splitlines() == [
        "params: K=24 D=7 L=2 q=17 case=ParityEmbed answer_rows=9",
        "demand W (1-based): 5 9 10 16 20 21 22",
        "store: 24 messages of 1 symbols over GF(17)",
        "query: generator 9x24, demand block 0",
        "answer: 9 rows",
        "audit: candidates=122, posterior=7/24 each, ok",
        "recovered: OK, rate 2/9",
    ]


def test_demo_same_seed_same_transcript(capsys):
    """Two runs with the same seed print byte-identical output."""
    argv = ["demo", "--K", "12", "--D", "5", "--L", "2", "--q", "17", "--seed", "9"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2


@pytest.mark.parametrize("env_seed", ["abc", "2"])
def test_demo_seed_defaults_to_zero(capsys, monkeypatch, env_seed):
    """Without --seed demo runs seed 0; no environment variable sets it, so
    neither a non-integer nor an integer PLT_SEED changes the run."""
    argv = ["demo", "--K", "24", "--D", "7", "--L", "2", "--q", "17"]
    rc, seed0, _ = run_cli(capsys, argv + ["--seed", "0"])
    assert rc == 0
    monkeypatch.setenv("PLT_SEED", env_seed)
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert out == seed0


def test_demo_flag_overrides_environment(capsys, monkeypatch):
    """--seed wins over PLT_SEED."""
    monkeypatch.setenv("PLT_SEED", "0")
    rc, out, _ = run_cli(
        capsys, ["demo", "--K", "24", "--D", "7", "--L", "2", "--q", "17", "--seed", "2"]
    )
    assert rc == 0
    assert out.splitlines()[1] == "demand W (1-based): 5 9 10 16 20 21 22"


# -- audit ----------------------------------------------------------------


def test_audit_pass_with_sweep(capsys):
    """Small shapes run both the privacy check and the feasibility sweep."""
    rc, out, _ = run_cli(
        capsys,
        ["audit", "--K", "12", "--D", "5", "--L", "2", "--q", "17",
         "--trials", "5", "--seed", "1"],
    )
    assert rc == 0
    assert out.splitlines() == [
        "params: K=12 D=5 L=2 q=17 case=ParityEmbed answer_rows=6",
        "privacy: 5/5 queries ok",
        "feasibility: 5/5 trailing blocks fully feasible (21 supports each)",
        "audit: PASS",
    ]


def test_audit_skips_oversized_enumeration(capsys):
    """More trailing supports than MAX_SWEEP_SUPPORTS skip the sweep but keep
    the privacy check: C(12, 7) = 792 ParityEmbed supports here."""
    rc, out, _ = run_cli(
        capsys,
        ["audit", "--K", "19", "--D", "7", "--L", "2", "--q", "13",
         "--trials", "2", "--seed", "0"],
    )
    assert rc == 0
    assert out.splitlines() == [
        "params: K=19 D=7 L=2 q=13 case=ParityEmbed answer_rows=9",
        "privacy: 2/2 queries ok",
        "feasibility: skipped (792 supports exceed 512)",
        "audit: PASS",
    ]


def test_audit_counts_inner_minor_checks(capsys):
    """One support whose MDS check would take C(24, 14) minors by enumeration
    is swept: the cap counts supports, and a GRS certificate settles each."""
    rc, out, _ = run_cli(
        capsys,
        ["audit", "--K", "24", "--D", "24", "--L", "14", "--q", "29",
         "--trials", "1", "--seed", "0"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "privacy: 1/1 queries ok"
    assert lines[2] == "feasibility: 1/1 trailing blocks fully feasible (1 supports each)"
    assert lines[3] == "audit: PASS"


def test_audit_sweeps_bulk_shape(capsys):
    """The bench's bulk shape has one AlignS support and is swept in full."""
    rc, out, _ = run_cli(
        capsys,
        ["audit", "--K", "2000", "--D", "50", "--L", "5", "--q", "65521", "--trials", "1"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[2] == "feasibility: 1/1 trailing blocks fully feasible (1 supports each)"
    assert lines[3] == "audit: PASS"


@pytest.mark.parametrize(
    "shape,extra,supports",
    [(("24", "7", "2", "17"), [], 120), (("41", "20", "10", "41"), ["--trials", "1"], 21)],
    ids=["K24-D7-L2", "K41-D20-L10"],
)
def test_audit_bounds_parity_embed_minor_checks(capsys, shape, extra, supports):
    """ParityEmbed shapes with C(D, L) maximal minors per support are swept
    in full and pass."""
    K, D, L, q = shape
    rc, out, _ = run_cli(capsys, ["audit", "--K", K, "--D", D, "--L", L, "--q", q] + extra)
    assert rc == 0
    lines = out.splitlines()
    assert "case=ParityEmbed" in lines[0]
    trials = int(extra[1]) if extra else 20
    assert lines[2] == (
        f"feasibility: {trials}/{trials} trailing blocks fully feasible "
        f"({supports} supports each)"
    )
    assert lines[-1] == "audit: PASS"


def test_audit_alignment_case(capsys):
    """An alignment-case shape also audits clean end to end."""
    rc, out, _ = run_cli(
        capsys,
        ["audit", "--K", "24", "--D", "9", "--L", "2", "--q", "17",
         "--trials", "4", "--seed", "5"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("params: K=24 D=9 L=2 q=17 case=AlignS")
    assert lines[1] == "privacy: 4/4 queries ok"
    assert lines[-1] == "audit: PASS"


@pytest.mark.parametrize(
    "flags,detail",
    [
        (["--trials", "0"], "need --trials >= 1, got 0"),
        (["--trials", "-3"], "need --trials >= 1, got -3"),
    ],
)
def test_audit_rejects_counts_out_of_range(capsys, flags, detail):
    """An audit that would check nothing exits 2 instead of reporting PASS."""
    rc, out, err = run_cli(
        capsys, ["audit", "--K", "12", "--D", "5", "--L", "2", "--q", "17"] + flags
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: BadShape: {detail}\n"


@pytest.mark.parametrize("flags", [["--N", "2"], ["--max-enum", "5"]])
def test_audit_has_no_n_or_max_enum(capsys, flags):
    """audit takes neither --N nor --max-enum (its support cap is a
    constant); either one is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--K", "12", "--D", "5", "--L", "2", "--q", "17"] + flags)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- ilp ------------------------------------------------------------------


def test_ilp_matches_closed_form(capsys):
    """Brute-force optimal row counts agree with the closed form on a grid."""
    rc, out, _ = run_cli(capsys, ["ilp", "--max-K", "15"])
    assert rc == 0
    assert out == "checked 680 triples up to K=15: 0 mismatches\n"


@pytest.mark.parametrize("max_k", ["0", "-1"])
def test_ilp_rejects_nonpositive_max_k(capsys, max_k):
    """A bound below 1 checks no triple; it exits 2 instead of reporting 0 mismatches."""
    rc, out, err = run_cli(capsys, ["ilp", "--max-K", max_k])
    assert rc == 2
    assert out == ""
    assert err == f"error: BadShape: need --max-K >= 1, got {max_k}\n"


# -- sweep ----------------------------------------------------------------

SWEEP_GOLDEN = (
    "D,L,iplt_lower,iplt_upper,jplt,exact\n"
    "4,1,0.166667,0.166667,0.047619,0.166667\n"
    "8,2,0.333333,0.333333,0.111111,0.333333\n"
    "12,3,0.500000,0.500000,0.200000,0.500000\n"
    "16,4,0.500000,0.500000,0.333333,0.500000\n"
    "20,5,0.555556,0.555556,0.555556,0.555556\n"
    "24,6,1.000000,1.000000,1.000000,1.000000\n"
)


def test_sweep_to_stdout(capsys):
    """Rate sweep CSV on stdout matches the pinned table."""
    rc, out, _ = run_cli(capsys, ["sweep", "--K", "24", "--ratio", "1/4", "--dstep", "4"])
    assert rc == 0
    assert out == SWEEP_GOLDEN


def test_sweep_to_file(capsys, tmp_path):
    """--out writes the same CSV to a file and confirms the path."""
    dest = tmp_path / "rates.csv"
    rc, out, _ = run_cli(
        capsys,
        ["sweep", "--K", "24", "--ratio", "1/4", "--dstep", "4", "--out", str(dest)],
    )
    assert rc == 0
    assert out == f"wrote {dest}\n"
    assert dest.read_text(encoding="utf-8") == SWEEP_GOLDEN


def test_sweep_skips_non_integral_demands(capsys):
    """Ratios that never give an integral L produce only comment rows."""
    rc, out, _ = run_cli(capsys, ["sweep", "--K", "24", "--ratio", "0.31", "--dstep", "4"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "D,L,iplt_lower,iplt_upper,jplt,exact"
    assert all(ln.startswith("# D=") and "not integral" in ln for ln in lines[1:])
    assert len(lines) == 7


def test_sweep_rejects_unparseable_ratio(capsys):
    """A ratio that is not a fraction exits 2 with a parse error."""
    rc, _, err = run_cli(capsys, ["sweep", "--K", "24", "--ratio", "abc"])
    assert rc == 2
    assert err.startswith("error: BadShape: cannot parse ratio 'abc'")


@pytest.mark.parametrize("dstep", ["0", "-4"])
def test_sweep_rejects_nonpositive_dstep(capsys, dstep):
    """A step below 1 exits 2 with one BadShape line instead of a traceback."""
    rc, out, err = run_cli(
        capsys, ["sweep", "--K", "10", "--ratio", "1/2", "--dstep", dstep]
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: BadShape: need --dstep >= 1, got {dstep}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--K", "0", "--ratio", "1/2"], "need --K >= 1, got 0"),
        (["--K", "-3", "--ratio", "1/2"], "need --K >= 1, got -3"),
        (["--K", "10", "--ratio", "0"], "need 0 < --ratio <= 1, got 0"),
        (["--K", "10", "--ratio=-1/2"], "need 0 < --ratio <= 1, got -1/2"),
        (["--K", "10", "--ratio", "3"], "need 0 < --ratio <= 1, got 3"),
    ],
)
def test_sweep_rejects_out_of_range_shape(capsys, argv, message):
    """A K below 1 or a ratio outside (0, 1] exits 2 instead of printing a
    table that checked nothing."""
    rc, out, err = run_cli(capsys, ["sweep", *argv])
    assert rc == 2
    assert out == ""
    assert err == f"error: BadShape: {message}\n"


# -- serve / fetch --------------------------------------------------------


@pytest.fixture()
def small_store(tmp_path):
    """A 10-message single-symbol store over GF(17), saved to disk."""
    rng = random.Random(7)
    x = FqMatrix(17, [[rng.randrange(17)] for _ in range(10)])
    store = MessageStore(17, 10, 1, x)
    path = tmp_path / "messages.plts"
    store_save(store, path)
    return store, path


@pytest.fixture()
def live_server(small_store):
    """A background answer server bound to an ephemeral port."""
    store, _ = small_store
    srv = serve(store, "127.0.0.1:0")
    srv.start_background()
    yield store, srv.endpoint
    srv.shutdown()
    srv.server_close()


def write_demand(tmp_path, text):
    path = tmp_path / "demand.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


GOOD_DEMAND = "# two combinations of four messages\nW: 1 3 5 8\n1 1 1 1\n1 2 3 4\n"


def test_fetch_round_trip(capsys, tmp_path, live_server):
    """fetch recovers exactly the demanded combinations from a live server."""
    store, endpoint = live_server
    dpath = write_demand(tmp_path, GOOD_DEMAND)
    rc, out, _ = run_cli(
        capsys,
        ["fetch", "--addr", endpoint, "--demand", dpath,
         "--K", "10", "--q", "17", "--seed", "3"],
    )
    assert rc == 0
    demand = Demand([0, 2, 4, 7], FqMatrix(17, [[1, 1, 1, 1], [1, 2, 3, 4]]))
    expected = [
        sum(c * store.X.data[i][0] for c, i in zip(row, demand.W)) % 17
        for row in demand.V.data
    ]
    assert out == "".join(f"{v}\n" for v in expected)


def test_unseeded_fetch_draws_from_the_os(capsys, tmp_path, live_server, monkeypatch):
    """Without --seed, fetch builds its query from SystemRandom even when
    PLT_SEED is set; --seed replays a seeded Random and warns on stderr."""
    seen = []

    def recording(demand, params, rng):
        seen.append(rng)
        return iplt.build_query(demand, params, rng)

    monkeypatch.setattr(iplt.cli, "build_query", recording)
    monkeypatch.setenv("PLT_SEED", "0")
    _, endpoint = live_server
    dpath = write_demand(tmp_path, GOOD_DEMAND)
    argv = ["fetch", "--addr", endpoint, "--demand", dpath, "--K", "10", "--q", "17"]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    rc, seeded_out, seeded_err = run_cli(capsys, argv + ["--seed", "3"])
    assert rc == 0
    assert seeded_err == "warning: a seeded query is reproducible, so it is not private\n"
    assert isinstance(seen[0], random.SystemRandom)
    assert type(seen[1]) is random.Random
    assert out == seeded_out


def test_fetch_writes_output_file(capsys, tmp_path, live_server):
    """--out sends the recovered rows to a file instead of stdout."""
    _, endpoint = live_server
    dpath = write_demand(tmp_path, GOOD_DEMAND)
    dest = tmp_path / "recovered.txt"
    rc, out, _ = run_cli(
        capsys,
        ["fetch", "--addr", endpoint, "--demand", dpath,
         "--K", "10", "--q", "17", "--seed", "3", "--out", str(dest)],
    )
    assert rc == 0
    assert out == ""
    text = dest.read_text(encoding="utf-8")
    assert len(text.splitlines()) == 2


def test_fetch_debug_json(capsys, tmp_path, live_server):
    """--debug-json prints the outgoing query as one parseable JSON line."""
    _, endpoint = live_server
    dpath = write_demand(tmp_path, GOOD_DEMAND)
    dest = tmp_path / "recovered.txt"
    rc, out, _ = run_cli(
        capsys,
        ["fetch", "--addr", endpoint, "--demand", dpath, "--K", "10",
         "--q", "17", "--seed", "3", "--out", str(dest), "--debug-json"],
    )
    assert rc == 0
    obj = json.loads(out)
    assert sorted(obj.keys()) == ["G", "K", "kind", "pi", "q", "rows"]
    assert obj["q"] == 17 and obj["K"] == 10
    assert sorted(obj["pi"]) == list(range(10))


def test_fetch_rejects_dependent_coefficients(capsys, tmp_path):
    """A non-MDS coefficient matrix names the dependent message columns."""
    dpath = write_demand(tmp_path, "W: 1 3 5 8\n1 1 1 1\n2 2 3 4\n")
    rc, _, err = run_cli(
        capsys,
        ["fetch", "--addr", "127.0.0.1:1", "--demand", dpath,
         "--K", "10", "--q", "17"],
    )
    assert rc == 2
    assert err == "error: NotMds: coefficient columns for messages 1, 3 are dependent\n"


@pytest.mark.parametrize("q", ["9", "1"])
def test_fetch_checks_field_before_demand(capsys, tmp_path, q):
    """A bad --q is reported as NotPrime, not as an error parsing the demand over it."""
    dpath = write_demand(tmp_path, "W: 1 3 5\n2 1 1\n1 2 3\n")
    rc, out, err = run_cli(
        capsys,
        ["fetch", "--addr", "127.0.0.1:1", "--demand", dpath, "--K", "10", "--q", q],
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: NotPrime: field order must be prime, got {q}\n"


def test_fetch_rejects_non_grs_coefficients(capsys, tmp_path):
    """An MDS but non-GRS V that the trailing block would extend exits 2
    with NotGrs named, before any network traffic."""
    rows = "".join(" ".join(map(str, row)) + "\n" for row in NON_GRS_V_17)
    dpath = write_demand(tmp_path, "W: 1 2 3 4 5 6\n" + rows)
    rc, _, err = run_cli(
        capsys,
        ["fetch", "--addr", "127.0.0.1:1", "--demand", dpath,
         "--K", "10", "--q", "17"],
    )
    assert rc == 2
    assert err.startswith("error: NotGrs: ")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1 1 1 1\n1 2 3 4\n", "must start with a 'W:' line"),
        ("W: 1 3 x 8\n1 1 1 1\n", "indices must be integers"),
        ("W: 3 1 5 8\n1 1 1 1\n", "distinct, ascending, and 1-based"),
        ("W: 0 3 5 8\n1 1 1 1\n", "distinct, ascending, and 1-based"),
        ("W: 1 3 5 8\n", "no coefficient rows"),
        ("W: 1 3 5 8\n1 1 a 1\n", "is not all integers"),
        ("W: 1 3 5 8\n1 1 99 1\n", ""),
    ],
)
def test_fetch_rejects_malformed_demand_files(capsys, tmp_path, text, fragment):
    """Each malformed demand file exits 2 before any network traffic."""
    dpath = write_demand(tmp_path, text)
    rc, _, err = run_cli(
        capsys,
        ["fetch", "--addr", "127.0.0.1:1", "--demand", dpath,
         "--K", "10", "--q", "17"],
    )
    assert rc == 2
    assert err.startswith("error: ")
    assert fragment in err


def test_fetch_demand_outside_store_range(capsys, tmp_path):
    """Demand indices beyond K are rejected during parameter derivation."""
    dpath = write_demand(tmp_path, "W: 1 3 5 11\n1 1 1 1\n1 2 3 4\n")
    rc, _, err = run_cli(
        capsys,
        ["fetch", "--addr", "127.0.0.1:1", "--demand", dpath,
         "--K", "10", "--q", "17"],
    )
    assert rc == 2
    assert err.startswith("error: ")


def test_serve_missing_store_exits_two(capsys, tmp_path):
    """A nonexistent store path is reported as an error, not a traceback."""
    rc, _, err = run_cli(
        capsys, ["serve", "--store", str(tmp_path / "nope.plts")]
    )
    assert rc == 2
    assert err.startswith("error: ")


BAD_ENDPOINT = "error: BadEndpoint: endpoint must be host:port with a port in 0..65535, got {!r}\n"


@pytest.mark.parametrize("addr", ["nonsense", "127.0.0.1:99999", "127.0.0.1:x"])
def test_serve_rejects_bad_endpoint(capsys, small_store, addr):
    """A malformed address or a port above 65535 exits 2 with one error line."""
    _, spath = small_store
    rc, out, err = run_cli(capsys, ["serve", "--store", str(spath), "--addr", addr])
    assert rc == 2
    assert out == ""
    assert err == BAD_ENDPOINT.format(addr)


@pytest.mark.parametrize("addr", ["nonsense", "127.0.0.1:70000"])
def test_fetch_rejects_bad_endpoint(capsys, tmp_path, addr):
    """fetch names the bad address with exit 2 and sends nothing."""
    dpath = write_demand(tmp_path, GOOD_DEMAND)
    rc, out, err = run_cli(
        capsys,
        ["fetch", "--addr", addr, "--demand", dpath, "--K", "10", "--q", "17"],
    )
    assert rc == 2
    assert out == ""
    assert err == BAD_ENDPOINT.format(addr)


def test_serve_subprocess_answers_fetch(small_store, tmp_path):
    """The serve subcommand binds, reports its endpoint, and answers queries."""
    store, spath = small_store
    # The child imports the same iplt as this process, installed or not.
    path = [str(Path(iplt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.Popen(
        [sys.executable, "-m", "iplt.cli", "serve",
         "--store", str(spath), "--addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p)),
    )
    try:
        banner = proc.stdout.readline().strip()
        assert banner.startswith("listening on ")
        endpoint = banner.removeprefix("listening on ")
        info = proc.stdout.readline().strip()
        assert info == "store: 10 messages of 1 symbols over GF(17)"

        demand = Demand([0, 2, 4, 7], FqMatrix(17, [[1, 1, 1, 1], [1, 2, 3, 4]]))
        from iplt.protocol import answer as local_answer
        from iplt.protocol import build_query, derive_params, recover

        params = derive_params(10, 4, 2, 17)
        query, secret = build_query(demand, params, random.Random(4))
        remote = fetch(endpoint, query)
        assert remote == local_answer(query, store.X)
        rec = recover(remote, secret, params, demand)
        want = [
            [sum(c * store.X.data[i][0] for c, i in zip(row, demand.W)) % 17]
            for row in demand.V.data
        ]
        assert [list(r) for r in rec.data] == want
    finally:
        proc.terminate()
        proc.wait(timeout=10)


# -- top level ------------------------------------------------------------


def test_unreachable_server_exits_two(capsys, tmp_path):
    """Connection failures surface as exit 2 with an error line."""
    dpath = write_demand(tmp_path, GOOD_DEMAND)
    rc, _, err = run_cli(
        capsys,
        ["fetch", "--addr", "127.0.0.1:9", "--demand", dpath,
         "--K", "10", "--q", "17"],
    )
    assert rc == 2
    assert err.startswith("error: ")


def test_usage_error_without_subcommand():
    """argparse rejects an empty command line with its usage exit code."""
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_readme_command_table_matches_parser():
    """README's command table names exactly the --options each subcommand defines."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = {}
    for line in readme.splitlines():
        m = re.match(r"\| `iplt (\w+)([^`]*)` \|", line)
        if m:
            documented[m.group(1)] = set(re.findall(r"--[\w-]+", m.group(2)))
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {opt for a in p._actions for opt in a.option_strings if opt.startswith("--")}
        - {"--help"}
        for name, p in sub.choices.items()
    }
    assert documented == defined
