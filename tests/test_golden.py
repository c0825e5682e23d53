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
from fractions import Fraction

import pytest

from iplt.audit import audit_individual_privacy
from iplt.cli import main
from iplt.fixtures import example_fixture
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

SEEDS = range(20)

GOLDEN = {
    (24, 7, 2, 17, 2): (
        "24a818ef30761604e5b09325c6372098eec440b16e56de1645e29c512e15766d",
        "7e7b149c99e8e2365b30027f5934d38bc1a18365a91d9c62c77c548a4e8fca96",
        "77b22f9e85e856d27b17e1d74b9ebabf9e7856895768fd64713c324d6572087f",
        "fa6f3e706b011f122413ecfde7aa9e74a5d78ea84d5e15f1d2563ff43b72ba29",
        "43c344b6c7d08db5487afaecdeccc78f56adae6f5bcdb202a47ccf7121e4bfaa",
        "8a7e4be6de038917076521229ee8d8f31627f72a18c6421380f9f1fd291c0054",
    ),
    (24, 9, 2, 17, 2): (
        "895b7af20e18f5179dd9cfdd858e14ed5e33440848517e2587bedd15429599cb",
        "b14c8934babc782bbb9971438dda9e52bd040de07a51e017572398b755c8a778",
        "fa8b056354c4c9e4c0cfa2c077957f831bdfe52744faaca63f4bf5fec3f77dce",
        "c67fae6c19a33c341d467fdbfa57ecfd89be9cff4cce284bf10f2ca7b831f996",
        "2330dbb440f7acdb3d413a4e3d6b5ff869aa798f3a7d18958fa049d28b1f462d",
        "7abfcb1264e8857d729959f7d098b58b4c9a831599b5bab0d14ade42dd555e6e",
    ),
    (24, 8, 2, 31, 2): (
        "5cd8fa383f85fd963fa15d58fe83edb8d7c70a403f29d0b7a4ac20703e8b3c58",
        "50fab4dc424551685e1f59d583c5d4502885af74dd188d7b89283fa11638c14a",
        "926703d1044d770238efab73b90238a9b90e90c172ce4c4c9f5ed203ccc6881a",
        "f585b9bd94ffea22520b7e69afc827d112208ae90f02713632d165a0cad5d713",
        "e3d698d80242c6eac86143ff2dbb4bc15acbbbd29bfaf20bbe3e05db350e30ad",
        "4624fd70a3af467ca4b83a8e21c943d5610ec2b980a0c11e1f83b60585d7ba2d",
    ),
    (400, 50, 5, 65521, 4): (
        "bafc31f57f10404fb3f18e154d7e3e097d0812efb58476bc9995879df8e19149",
        "cee7177e60588d1e9d47bb3bd5ea3b17f4a3d54fb8f44fa7db9371e8095e79e5",
        "3e974e2cb6b114908c50c7efe910751534ab2d63f0fd67e66b0a9b52679587b8",
        "bfea570c1a3132de30cf9ad9e4b11601170a725f6f72a38b06c32a6048103ae8",
        "153573be801198efe86bd6016d370988e11ffadc3747c1780af2cc99c5dab949",
        "699d1a7389c79de8d579a28c8cf89ebdcb87da2eedd3b63a109250957e23c6a9",
    ),
    (430, 50, 5, 65521, 4): (
        "0aa5865f0a34acb83f65b46dc857b68054f311e52ab650e8052965a8a26572dd",
        "5eac25310bea729e7bda08e70876acdf3b1e49aad65663d41317ea38c6efe066",
        "b00d30c8aa4bc0e1e74925875ce34b00170e1a1cebee8d713bb123a67837adc0",
        "1535fe7d27748bd39a90fe83884abc85c3f924c9f90d575e963c3e19232259d9",
        "7940a847c5717a609f8a8c95e1dc31df239357092308c9d387d7f111538e1336",
        "ab30d01a7164ed2443eed9ac3705ddc2e6ac1ed290021c1fbfc28c5db703b397",
    ),
    (10, 3, 3, 17, 2): (
        "c266669498ea1971959fef53bff3fc21c598f901da2d97a7265ceebe6681d9d7",
        "d810895925f218c9e5d82270ba46e29730625aa640826e63e0c6248776c30b49",
        "199bb3cf65b452ea21662e7082aee1163e315cf0b03b70ada9ca3315a766c4fe",
        "009d7947a64b954124a35f28e60e2e3b027c60109c71c95c1e0d8fc4efd23b0d",
        "2040e741fe83a39170b6ff5b1589f0d18d381ad72fe3d745dabafd958ae3894f",
        "fc9061e4b19c3f90529b762437f2586d82026f5c6af37065ef73e28e03b27343",
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


def test_protocol_path_never_builds_dense_g(monkeypatch):
    """Build, the wire codecs, answer (in process and over loopback), recover,
    audit and iplt demo all work on the blocks: dense G is never assembled."""

    def dense(query):
        raise AssertionError("dense G was assembled")

    monkeypatch.setattr(Query, "G", property(dense))
    for which in ("9", "7"):
        assert main(["demo", "--K", "24", "--D", which, "--L", "2", "--q", "17"]) == 0
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
            srv.start_background()
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
