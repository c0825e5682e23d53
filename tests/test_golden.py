"""Golden digests of seeded round trips: query bytes, answer bytes, recovered rows.

The first four shapes reach every branch of build_query: ParityEmbed with
a GRS extension (planted) and with L == D (planted, no extension), AlignS
with R > 0 (planted by GRS extension) and with R = 0, each also with decoy
placements.  The two shapes at q = 65521 and N = 4 pin the kernels at the
bulk benchmark's field size: AlignS with R = 0, and AlignS with R = 30
(t = m = 4).  A digest change means a query, answer or recovery changed.
The first digest hashes the retired dense v1 packing of each query, so it
pins the query itself across wire formats; the last hashes the block payload.
"""

import hashlib
import random

import pytest

from iplt.audit import audit_individual_privacy
from iplt.cli import main
from iplt.fixtures import example_fixture
from iplt.protocol import Demand, Query, answer, build_query, derive_params, recover
from iplt.store import MessageStore
from iplt.wire import decode_query, encode_answer, encode_query, fetch, serve

from oracles import v1_query_payload

SEEDS = range(20)

GOLDEN = {
    (24, 7, 2, 17, 2): (
        "24a818ef30761604e5b09325c6372098eec440b16e56de1645e29c512e15766d",
        "7e7b149c99e8e2365b30027f5934d38bc1a18365a91d9c62c77c548a4e8fca96",
        "77b22f9e85e856d27b17e1d74b9ebabf9e7856895768fd64713c324d6572087f",
        "fa6f3e706b011f122413ecfde7aa9e74a5d78ea84d5e15f1d2563ff43b72ba29",
    ),
    (24, 9, 2, 17, 2): (
        "895b7af20e18f5179dd9cfdd858e14ed5e33440848517e2587bedd15429599cb",
        "b14c8934babc782bbb9971438dda9e52bd040de07a51e017572398b755c8a778",
        "fa8b056354c4c9e4c0cfa2c077957f831bdfe52744faaca63f4bf5fec3f77dce",
        "c67fae6c19a33c341d467fdbfa57ecfd89be9cff4cce284bf10f2ca7b831f996",
    ),
    (24, 8, 2, 31, 2): (
        "5cd8fa383f85fd963fa15d58fe83edb8d7c70a403f29d0b7a4ac20703e8b3c58",
        "50fab4dc424551685e1f59d583c5d4502885af74dd188d7b89283fa11638c14a",
        "926703d1044d770238efab73b90238a9b90e90c172ce4c4c9f5ed203ccc6881a",
        "f585b9bd94ffea22520b7e69afc827d112208ae90f02713632d165a0cad5d713",
    ),
    (400, 50, 5, 65521, 4): (
        "bafc31f57f10404fb3f18e154d7e3e097d0812efb58476bc9995879df8e19149",
        "cee7177e60588d1e9d47bb3bd5ea3b17f4a3d54fb8f44fa7db9371e8095e79e5",
        "3e974e2cb6b114908c50c7efe910751534ab2d63f0fd67e66b0a9b52679587b8",
        "bfea570c1a3132de30cf9ad9e4b11601170a725f6f72a38b06c32a6048103ae8",
    ),
    (430, 50, 5, 65521, 4): (
        "0aa5865f0a34acb83f65b46dc857b68054f311e52ab650e8052965a8a26572dd",
        "5eac25310bea729e7bda08e70876acdf3b1e49aad65663d41317ea38c6efe066",
        "b00d30c8aa4bc0e1e74925875ce34b00170e1a1cebee8d713bb123a67837adc0",
        "1535fe7d27748bd39a90fe83884abc85c3f924c9f90d575e963c3e19232259d9",
    ),
    (10, 3, 3, 17, 2): (
        "c266669498ea1971959fef53bff3fc21c598f901da2d97a7265ceebe6681d9d7",
        "d810895925f218c9e5d82270ba46e29730625aa640826e63e0c6248776c30b49",
        "199bb3cf65b452ea21662e7082aee1163e315cf0b03b70ada9ca3315a766c4fe",
        "009d7947a64b954124a35f28e60e2e3b027c60109c71c95c1e0d8fc4efd23b0d",
    ),
}


def _digests(shape):
    params = derive_params(*shape)
    hashes = [hashlib.sha256() for _ in range(4)]
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
        hashes[1].update(encode_answer(ans))
        hashes[2].update(repr(rec.data).encode())
        hashes[3].update(encode_query(query))
    return tuple(h.hexdigest() for h in hashes), planted


@pytest.mark.parametrize("shape", sorted(GOLDEN), ids=lambda s: "K{}-D{}-L{}-q{}-N{}".format(*s))
def test_seeded_round_trip_digests(shape):
    """Queries, encode_answer, recovered rows and encode_query hash to pinned digests."""
    digests, planted = _digests(shape)
    assert planted == {True, False}, "seeds must reach both trailing and decoy placements"
    assert digests == GOLDEN[shape]


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
