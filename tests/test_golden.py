"""Golden digests of seeded round trips: query bytes, answer bytes, recovered rows.

The four shapes reach every branch of build_query: ParityEmbed with a GRS
extension (planted) and with L == D (planted, no extension), AlignS with
R > 0 (planted by GRS extension) and with R = 0, each also with decoy
placements.  A digest change means a query, answer or recovery changed.
"""

import hashlib
import random

import pytest

from iplt.protocol import Demand, answer, build_query, derive_params, recover
from iplt.store import MessageStore
from iplt.wire import encode_answer, encode_query

SEEDS = range(20)

GOLDEN = {
    (24, 7, 2, 17, 2): (
        "24a818ef30761604e5b09325c6372098eec440b16e56de1645e29c512e15766d",
        "7e7b149c99e8e2365b30027f5934d38bc1a18365a91d9c62c77c548a4e8fca96",
        "77b22f9e85e856d27b17e1d74b9ebabf9e7856895768fd64713c324d6572087f",
    ),
    (24, 9, 2, 17, 2): (
        "895b7af20e18f5179dd9cfdd858e14ed5e33440848517e2587bedd15429599cb",
        "b14c8934babc782bbb9971438dda9e52bd040de07a51e017572398b755c8a778",
        "fa8b056354c4c9e4c0cfa2c077957f831bdfe52744faaca63f4bf5fec3f77dce",
    ),
    (24, 8, 2, 31, 2): (
        "5cd8fa383f85fd963fa15d58fe83edb8d7c70a403f29d0b7a4ac20703e8b3c58",
        "50fab4dc424551685e1f59d583c5d4502885af74dd188d7b89283fa11638c14a",
        "926703d1044d770238efab73b90238a9b90e90c172ce4c4c9f5ed203ccc6881a",
    ),
    (10, 3, 3, 17, 2): (
        "c266669498ea1971959fef53bff3fc21c598f901da2d97a7265ceebe6681d9d7",
        "d810895925f218c9e5d82270ba46e29730625aa640826e63e0c6248776c30b49",
        "199bb3cf65b452ea21662e7082aee1163e315cf0b03b70ada9ca3315a766c4fe",
    ),
}


def _digests(shape):
    params = derive_params(*shape)
    hashes = [hashlib.sha256() for _ in range(3)]
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
        hashes[0].update(encode_query(query))
        hashes[1].update(encode_answer(ans))
        hashes[2].update(repr(rec.data).encode())
    return tuple(h.hexdigest() for h in hashes), planted


@pytest.mark.parametrize("shape", sorted(GOLDEN), ids=lambda s: "K{}-D{}-L{}-q{}-N{}".format(*s))
def test_seeded_round_trip_digests(shape):
    """encode_query, encode_answer and recovered rows hash to pinned digests."""
    digests, planted = _digests(shape)
    assert planted == {True, False}, "seeds must reach both trailing and decoy placements"
    assert digests == GOLDEN[shape]
