"""End-to-end tests for the command line interface."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import iplt
from iplt.cli import main
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


# -- demo -----------------------------------------------------------------


def test_demo_alignment_golden(capsys):
    """Full demo transcript for an alignment-case shape is reproducible."""
    rc, out, _ = run_cli(
        capsys, ["demo", "--K", "24", "--D", "9", "--L", "2", "--q", "17", "--seed", "0"]
    )
    assert rc == 0
    assert out.splitlines() == [
        "params: K=24 D=9 L=2 q=17 case=AlignS answer_rows=8",
        "demand W (1-based): 2 9 10 13 14 16 17 19 24",
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
        "demand W (1-based): 2 3 6 9 10 12 23",
        "store: 24 messages of 1 symbols over GF(17)",
        "query: generator 9x24, demand block 2",
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


def test_demo_seed_from_environment(capsys, monkeypatch):
    """Without --seed the PLT_SEED environment variable drives the rng."""
    monkeypatch.setenv("PLT_SEED", "2")
    argv = ["demo", "--K", "24", "--D", "7", "--L", "2", "--q", "17"]
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    rc2, explicit, _ = run_cli(capsys, argv + ["--seed", "2"])
    assert rc2 == 0
    assert out == explicit


def test_demo_flag_overrides_environment(capsys, monkeypatch):
    """--seed wins over PLT_SEED."""
    monkeypatch.setenv("PLT_SEED", "0")
    rc, out, _ = run_cli(
        capsys, ["demo", "--K", "24", "--D", "7", "--L", "2", "--q", "17", "--seed", "2"]
    )
    assert rc == 0
    assert out.splitlines()[1] == "demand W (1-based): 2 3 6 9 10 12 23"


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
    """Support counts above --max-enum skip the sweep but keep privacy checks."""
    rc, out, _ = run_cli(
        capsys,
        ["audit", "--K", "24", "--D", "7", "--L", "2", "--q", "17",
         "--trials", "2", "--seed", "0", "--max-enum", "100"],
    )
    assert rc == 0
    assert out.splitlines() == [
        "params: K=24 D=7 L=2 q=17 case=ParityEmbed answer_rows=9",
        "privacy: 2/2 queries ok",
        "feasibility: skipped (120 exhaustive checks exceed --max-enum 100)",
        "audit: PASS",
    ]


def test_audit_counts_inner_minor_checks(capsys):
    """A tiny subset count can still hide an enormous per-subset MDS check.

    K=D=24 with L=14 has a single alignment subset, but verifying the
    surviving block is MDS costs C(24, 14) minors; the guard must count
    that work and skip instead of grinding for hours.
    """
    rc, out, _ = run_cli(
        capsys,
        ["audit", "--K", "24", "--D", "24", "--L", "14", "--q", "29",
         "--trials", "1", "--seed", "0"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "privacy: 1/1 queries ok"
    assert lines[2] == "feasibility: skipped (1961256 exhaustive checks exceed --max-enum 512)"
    assert lines[3] == "audit: PASS"


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


# -- ilp ------------------------------------------------------------------


def test_ilp_matches_closed_form(capsys):
    """Brute-force optimal row counts agree with the closed form on a grid."""
    rc, out, _ = run_cli(capsys, ["ilp", "--max-K", "15"])
    assert rc == 0
    assert out == "checked 680 triples up to K=15: 0 mismatches\n"


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
