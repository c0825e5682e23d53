"""Golden digests of seeded round trips: query bytes, answer bytes, recovered rows.

The first four shapes reach every branch of build_query: ParityEmbed with
a GRS extension (planted) and with L == D (planted, no extension), AlignS
with R > 0 (planted by GRS extension) and with R = 0, each also with decoy
placements.  The two shapes at q = 65521 and N = 4 pin the kernels at the
bulk benchmark's field size: AlignS with R = 0, and AlignS with R = 30
(t = m = 4).  A digest change means a query, answer or recovery changed.
The first four digests pin the content across wire formats through the
retired packings in oracles.py: the dense v1 query, the 8-byte answer,
the recovered rows and the 4-byte block query.  The last two hash today's
encode_answer and encode_query payloads, whose entries are sized to q and K.
"""

import hashlib
import random
import sys
from fractions import Fraction

import pytest

from iplt.audit import audit_individual_privacy
from iplt.cli import main
from iplt.fixtures import example_fixture
from iplt.matrix import FqMatrix
from iplt.protocol import (
    Demand,
    Query,
    achieved_rate,
    answer,
    build_query,
    derive_params,
    recover,
)
from iplt.store import MessageStore, entry_width
from iplt.wire import decode_query, encode_answer, encode_query, fetch, serve

from oracles import v1_query_payload, v2_answer_payload, v3_query_payload
from test_reduced_sites import ALLOWED

SEEDS = range(20)

GOLDEN = {
    (24, 7, 2, 17, 2): (
        "eaf6bb0c7dcd1380fa20bf44725637d7fb2efb30e8952b45f87a881c5a9624e2",
        "cc9c25cdd7c4c40ec3419af3837c5d7fa3923ce0567124bb705c27aed20de44f",
        "5bbedd65dae4f420324379f798bb851dda14ab2780ef1738eb2f68b633864ae6",
        "bf8f5ea214618e7c081953d1609e4b9d79177e98e1578ac4edd861b63d7e98c7",
        "1a3ed874c663cc64fcfb088ef8d1822b7e9ab528aa989ccf0f9f13f8046dc5ef",
        "bfb3d5f5941d9c5e31f48651b48575ac46657bfd9b1064db581c1dabc22b5e7d",
    ),
    (24, 9, 2, 17, 2): (
        "d166092aa96d2aac9e8a8d04ed2e5e85368618798ffbf711d18d05da85f91968",
        "a47f9b4a1bb06fb8d1b7f43b538b2801ca45ac0e2de4d928f9b974dd4d607024",
        "022b924d516264d6da736b4ee4cbee31fd9e019fffe55b4ac698ac3d030cd372",
        "b61d3b7d1c2f92cd2abd6dd63f92476cba8cacf45565b8d4e2e598dd25eab47d",
        "ab8c9b05563850e6020163727be41788970e87261cf0eb728cdc90f8976aec64",
        "38ba6f73330d543c8bf84852ac0dc5867cfc02cbf2898dbd71cef5805f404521",
    ),
    (24, 8, 2, 31, 2): (
        "1298351b9c95bcf47b85a3d73776893d9aeddc00c58959693c9ceea8c057184e",
        "d11486e9b370ada39da8c6de0f4daa5f3caba4730642c4eb575ce2b62525e656",
        "38d105f027f37a7f783c6a0c1b62cd0adcbd0eaf62ce3173d45febc89665f86c",
        "bf123710d991e11d7969659b16f5fae6bc2b0b56f33480ef1cf731bb663a4bba",
        "fc5559b1f067fad7369445736908e2b87ed92816fd2e8fe71ca7b50e6e9f9b03",
        "e9900c50a5c2ac75b469880cb8ebcd45228dc7b2ca8e69b3129445fc08f70a2b",
    ),
    (400, 50, 5, 65521, 4): (
        "0760c9bce9b4755aa205cd926685e78e5230adf9f084d0a6e0543160769b4908",
        "4da6d038c6973fcc1d25b9f51eea899e7eaccb080f415ee8b1e8c4c15c03337a",
        "b5e011f6d2034ed901c606aaad581ce561130876ad3c5431c9471aef4df6a7de",
        "4b22b65246b15a972e27a7b0f69c248f697c682a6c1ef69df587f8394f3061c3",
        "89e59abe0567daf9d6cdb6ffed2c3c3f33a6437e65453ed7a1145c3f2666de90",
        "b1fb9fd4a63a5633703660efbac48e2da9391c92b7f6387e00d91592f6d2eabd",
    ),
    (430, 50, 5, 65521, 4): (
        "654cf6eac51a71f36bb2a65d15a21be9523b04869838e6498236b08d81e4c85d",
        "828ef9c47f44fd0895e953b127f7c1c585500642db205072ad1dc9a8fd9635ed",
        "a914175ff7be22a09be8f1a03d8f7291e1cc7b785ae83db42938522c8617791f",
        "e7caa779d14f90cd235c6929194e0e443716dcfdd346679be38408639a772087",
        "8d9da01a136dd7506fce64e1162f9d7130e65790a6be643e42fda7bb4f0869c1",
        "a82073a8c71ae0339b46b91fc0585cb586451f94269d039500868faec3ee2b7f",
    ),
    (10, 3, 3, 17, 2): (
        "d615eef71eea61a005907495dfa7c5ca3c3ee290a098da4179fc5e64ffff5356",
        "b499313f3b7ec9773a5926492815715c513627d42e734b09da97c143f32efdc0",
        "2c595e3e90080d04c3ab9341a5af799399ad8c1e270221a1d03c2a3910be4775",
        "4fdd9875693c42e06e1e1429b9f6e5a890e45926013affbf0467018a836d2963",
        "8fc3f09cbb1c2052c4aa159934613584659598e022c4cd09b2b640f5eaf50ac6",
        "e036b86c2b0bc7ca6fa5c142cb277d5391e3c1df3add788e41f2d01dae365fe7",
    ),
}


def _digests(shape):
    params = derive_params(*shape)
    hashes = [hashlib.sha256() for _ in range(6)]
    planted = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        demand = Demand.random(params, rng)
        store = MessageStore.random(params.q, params.K, params.N, rng)
        query, secret = build_query(demand, params, rng)
        ans = answer(query, store.X)
        rec = recover(ans, secret, params, demand)
        assert rec == demand.value(store.X)
        planted.add(secret.b == params.n)
        hashes[0].update(v1_query_payload(query))
        hashes[1].update(v2_answer_payload(ans))
        hashes[2].update(repr(rec.data).encode())
        hashes[3].update(v3_query_payload(query))
        hashes[4].update(encode_answer(ans))
        hashes[5].update(encode_query(query))
    return tuple(h.hexdigest() for h in hashes), planted


@pytest.mark.parametrize("shape", sorted(GOLDEN), ids=lambda s: "K{}-D{}-L{}-q{}-N{}".format(*s))
def test_seeded_round_trip_digests(shape):
    """Queries, answers and recovered rows, in the retired and the current
    packings, hash to pinned digests."""
    digests, planted = _digests(shape)
    assert planted == {True, False}, "seeds must reach both trailing and decoy placements"
    assert digests == GOLDEN[shape]


BULK_K2000 = (2000, 50, 5, 65521, 4)


@pytest.mark.parametrize(
    "shape", [*sorted(GOLDEN), BULK_K2000], ids=lambda s: "K{}-D{}-L{}-q{}-N{}".format(*s)
)
def test_answer_bytes_meet_the_paper_rate(shape):
    """The answer payload is 8 + answer_rows * N * entry_width(q) bytes, so
    the download rate in bytes, L*N*w / (payload - header), is achieved_rate."""
    params = derive_params(*shape)
    rng = random.Random(0)
    demand = Demand.random(params, rng)
    store = MessageStore.random(params.q, params.K, params.N, rng)
    query, _ = build_query(demand, params, rng)
    payload = encode_answer(answer(query, store.X))
    width = entry_width(params.q)
    assert len(payload) == 8 + params.answer_rows * params.N * width
    assert Fraction(params.L * params.N * width, len(payload) - 8) == achieved_rate(params)


def test_protocol_path_never_builds_dense_g(monkeypatch, tmp_path, capsys):
    """Build, the wire codecs, answer (in process and over loopback), recover,
    audit, iplt demo and iplt fetch --debug-json all work on the blocks:
    dense G is never assembled."""

    def dense(query):
        raise AssertionError("dense G was assembled")

    monkeypatch.setattr(Query, "G", property(dense))
    for which in ("9", "7"):
        assert main(["demo", "--K", "24", "--D", which, "--L", "2", "--q", "17"]) == 0
    demand_file = tmp_path / "demand.txt"
    demand_file.write_text("W: 1 3 5 8 13\n1 1 1 1 1\n1 2 3 4 5\n", encoding="utf-8")
    capsys.readouterr()
    with serve(MessageStore.random(17, 24, 1, random.Random(0)), "127.0.0.1:0") as srv:
        argv = ["fetch", "--addr", srv.endpoint, "--demand", str(demand_file),
                "--K", "24", "--q", "17", "--seed", "3", "--debug-json"]
        assert main(argv) == 0
    assert '"blocks": [[' in capsys.readouterr().out.splitlines()[0]
    cases = []
    for which in (1, 2, 3):
        fx = example_fixture(which)
        cases.append((fx.params, fx.demand, fx.query, fx.secret))
    for shape in sorted(GOLDEN):
        params = derive_params(*shape)
        for seed in SEEDS:
            rng = random.Random(seed)
            demand = Demand.random(params, rng)
            cases.append((params, demand, *build_query(demand, params, rng)))
    stores = {}
    for params, *_ in cases:
        key = (params.q, params.K)
        stores.setdefault(key, MessageStore.random(*key, 2, random.Random(params.K)))
    for (q, k), store in stores.items():
        with serve(store, "127.0.0.1:0") as srv:
            for params, demand, query, secret in cases:
                if (params.q, params.K) != (q, k):
                    continue
                decoded = decode_query(encode_query(query))
                assert decoded == query
                ans = answer(decoded, store.X)
                assert fetch(srv.endpoint, query) == ans
                assert recover(ans, secret, params, demand) == demand.value(store.X)
                report = audit_individual_privacy(query, params, demand)
                assert report.ok and report.true_support_found


def test_unchecked_matrices_pass_the_public_checks(monkeypatch):
    """Every matrix built through FqMatrix._reduced, which checks nothing,
    also passes the public constructor's checks as a tuple of tuples: on
    the golden shapes and seeds, examples 1-3, iplt demo and a loopback
    fetch.  Those paths reach every allowlisted site."""
    reduced = FqMatrix._reduced.__func__
    sites = set()

    def checked(cls, q, rows, cols):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        site = frame.f_code.co_name
        sites.add(site)
        m = reduced(cls, q, rows, cols)
        assert m == FqMatrix(q, rows, cols=cols), f"{site} passed rows that are not tuples"
        return m

    monkeypatch.setattr(FqMatrix, "_reduced", classmethod(checked))
    for shape in sorted(GOLDEN):
        assert _digests(shape)[0] == GOLDEN[shape]
    for which in ("1", "2", "3"):
        assert main(["example", which]) == 0
    for which in ("9", "7"):
        assert main(["demo", "--K", "24", "--D", which, "--L", "2", "--q", "17"]) == 0
    for shape in ((24, 7, 2, 17, 2), (430, 50, 5, 65521, 4)):
        params = derive_params(*shape)
        store = MessageStore.random(params.q, params.K, params.N, random.Random(0))
        with serve(store, "127.0.0.1:0") as srv:
            for seed in range(6):
                rng = random.Random(seed)
                demand = Demand.random(params, rng)
                query, secret = build_query(demand, params, rng)
                ans = fetch(srv.endpoint, query)
                assert recover(ans, secret, params, demand) == demand.value(store.X)
    assert sites == {name.rsplit(".", 1)[-1] for names in ALLOWED.values() for name in names}
