"""Decoder fuzz: mutated query, answer and store payloads.

Valid payloads at the golden shapes are mutated by bit flips, truncations,
extensions and header-field substitutions (zero widths and zero rows
among them).  After a header substitution the payload is resized to the
size its header declares, if that is at most FIT_LIMIT, so the mutation
reaches the decoder past its size check.  Declared sizes are drawn up to
10,000, so a decoder that trusts one costs milliseconds, not memory.

The property: a decoder either raises an IpltError subclass, or returns
entries below q in blocks that tile K, with no row of zero width, and
re-encodes them to the same bytes.  A few mutated query frames also go
through the server's handler over a socketpair, which must answer what
the decoder accepts and send an error frame for what it refuses.
"""

import itertools
import random
import socket
import struct
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from iplt.errors import IpltError
from iplt.protocol import Demand, answer, build_query, derive_params
from iplt.store import MessageStore, entry_width, store_load, store_save
from iplt.wire import (
    KIND_ANSWER,
    KIND_ERROR,
    KIND_QUERY,
    decode_answer,
    decode_query,
    encode_answer,
    encode_query,
    recv_frame,
    send_frame,
    serve,
)

from test_golden import GOLDEN

FIT_LIMIT = 1 << 20  # resize a payload to its declared size only up to 1 MiB
SIZES = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 10_000))
# Out-of-range orders come first: hypothesis draws early elements more often.
FIELD_ORDERS = st.sampled_from(
    [0, 1, 2**31 + 1, 2**32 - 1, 2, 4, 16, 17, 19, 256, 257, 65521, 65536, 65537, 2**31]
)
# Header substitutions are drawn three times as often as each other mutation.
OPS = ["flip", "truncate", "extend", "header", "header", "header"]
FUZZ = settings(
    max_examples=250,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _valid_payloads():
    """(query payload, answer payload, q, store) per golden shape, seed 0."""
    out = []
    for K, D, L, q, N in sorted(GOLDEN):
        params = derive_params(K, D, L, q)
        rng = random.Random(0)
        query, _ = build_query(Demand.random(params, rng), params, rng)
        store = MessageStore.random(q, K, N, rng)
        out.append((encode_query(query), encode_answer(answer(query, store.X)), q, store))
    return out


def _store_file(store: MessageStore) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.plts"
        store_save(store, path)
        return path.read_bytes()


VALID = _valid_payloads()
STORE_FILES = [_store_file(store) for *_, store in VALID]


def _resized(data: bytes, size: int) -> bytes:
    """data cut or zero-padded to size bytes, if size is at most FIT_LIMIT."""
    return data[:size].ljust(size, b"\0") if size <= FIT_LIMIT else data


def _fit_query(data: bytes) -> bytes:
    """The query resized to the size its header declares, with its last
    bytes, the permutation, kept at the end."""
    q, k, n, L, D, t_rows, t_cols = struct.unpack_from("<7I", data)
    pi_off = 28 + (n * L * D + t_rows * t_cols) * entry_width(q)
    pi_len = k * entry_width(k)
    if pi_off + pi_len > FIT_LIMIT:
        return data
    return _resized(data, pi_off) + _resized(data[max(28, len(data) - pi_len) :], pi_len)


def _fit_answer(data: bytes, q: int) -> bytes:
    rows, n = struct.unpack_from("<II", data)
    return _resized(data, 8 + rows * n * entry_width(q))


def _fit_store(data: bytes) -> bytes:
    k, n = struct.unpack_from("<II", data, 13)
    return _resized(data, 21 + k * n * 8)


# Header fields as (offset, struct format, values to substitute).
QUERY_FIELDS = [(0, "<I", FIELD_ORDERS)] + [(off, "<I", SIZES) for off in range(4, 28, 4)]
ANSWER_FIELDS = [(0, "<I", SIZES), (4, "<I", SIZES)]
STORE_FIELDS = [
    (4, "<B", st.integers(0, 255)),
    (5, "<Q", st.one_of(FIELD_ORDERS, st.just(2**64 - 1))),
    (13, "<I", SIZES),
    (17, "<I", SIZES),
]


@st.composite
def mutated(draw, payload: bytes, fields, head_size, fit):
    """payload after one to three mutations.  A header substitution is
    followed by fit, which resizes the payload to what its header of
    head_size bytes declares."""
    data = bytearray(payload)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(OPS))
        if op == "flip" and data:
            bit = draw(st.integers(0, 8 * len(data) - 1))
            data[bit // 8] ^= 1 << (bit % 8)
        elif op == "truncate":
            del data[draw(st.integers(0, len(data))) :]
        elif op == "extend":
            data += draw(st.binary(min_size=1, max_size=16))
        elif op == "header":
            off, fmt, values = draw(st.sampled_from(fields))
            if len(data) >= off + struct.calcsize(fmt):
                struct.pack_into(fmt, data, off, draw(values))
                if len(data) >= head_size:
                    data = bytearray(fit(bytes(data)))
    return bytes(data)


@st.composite
def query_payloads(draw):
    payload = draw(st.sampled_from([v[0] for v in VALID]))
    return draw(mutated(payload, QUERY_FIELDS, 28, _fit_query))


@st.composite
def answer_payloads(draw):
    _, payload, q, _ = draw(st.sampled_from(VALID))
    return draw(mutated(payload, ANSWER_FIELDS, 8, lambda data: _fit_answer(data, q))), q


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    """Where each mutated store file is written."""
    return tmp_path_factory.mktemp("fuzz") / "mutated.plts"


def _check_in_range(m, q):
    assert all(len(row) == m.cols for row in m.data)
    assert all(0 <= v < q for v in itertools.chain.from_iterable(m.data))
    assert m.cols or not m.rows, "rows of zero width"


@FUZZ
@given(query_payloads())
def test_decode_query_refuses_or_returns_a_tiling(payload):
    """A mutated query payload raises an IpltError, or decodes to blocks of
    1 <= rows <= cols with entries below q that tile K, and a permutation
    of K."""
    try:
        query = decode_query(payload)
    except IpltError:
        return
    q, k = query.q, len(query.pi)
    assert 2 <= q <= 2**31
    blocks = (*query.blocks, query.trailing)
    for blk in blocks:
        assert blk.q == q and 1 <= blk.rows <= blk.cols
        _check_in_range(blk, q)
    assert sum(blk.cols for blk in blocks) == k
    assert sorted(query.pi) == list(range(k))
    assert encode_query(query) == payload


@FUZZ
@given(answer_payloads())
def test_decode_answer_refuses_or_returns_entries_below_q(case):
    """A mutated answer payload raises an IpltError, or decodes to a matrix
    with entries below q and no row of zero width."""
    payload, q = case
    try:
        y = decode_answer(payload, q)
    except IpltError:
        return
    assert y.q == q
    _check_in_range(y, q)
    assert encode_answer(y) == payload


@FUZZ
@given(st.data())
def test_store_load_refuses_or_returns_entries_below_q(path, data):
    """A mutated store file raises an IpltError, or loads to a K x N store
    with entries below q and no message of zero width."""
    blob = data.draw(st.sampled_from(STORE_FILES))
    mutant = data.draw(mutated(blob, STORE_FIELDS, 21, _fit_store))
    path.write_bytes(mutant)
    try:
        store = store_load(path)
    except IpltError:
        return
    assert (store.X.rows, store.X.cols) == (store.K, store.N)
    _check_in_range(store.X, store.q)
    store_save(store, path)
    assert path.read_bytes() == mutant


@pytest.fixture(scope="module")
def servers():
    """An answer server per (q, K) of the golden stores (the last store of
    each); the test runs its per-connection method on one end of a
    socketpair."""
    stores = {(store.q, store.K): store for *_, store in VALID}
    made = {key: serve(store, "127.0.0.1:0") for key, store in stores.items()}
    yield made
    for srv in made.values():
        srv.close()


def _server_reply(srv, payload: bytes) -> tuple[int, bytes]:
    """Send payload as one query frame to srv's handler over a socketpair,
    then close the sending side, and read the one reply frame."""
    client, conn = socket.socketpair()
    handler = threading.Thread(target=srv._serve_connection, args=(conn,))  # closes conn
    handler.start()
    with client:
        client.settimeout(5)
        try:
            send_frame(client, KIND_QUERY, payload)
            client.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # refused from the header before the rest was sent
        reply = recv_frame(client)
    handler.join(timeout=5)
    assert not handler.is_alive()
    return reply


@settings(FUZZ, max_examples=100)
@given(st.data())
def test_server_answers_what_the_decoder_accepts(servers, data):
    """The server's handler replies to a mutated query frame with the
    answer to the decoded query when the decoder accepts it and its q and
    K are the store's, and with an error frame naming an IpltError
    subclass otherwise."""
    original, _, q, store = data.draw(st.sampled_from(VALID))
    payload = data.draw(mutated(original, QUERY_FIELDS, 28, _fit_query))
    srv = servers[(q, store.K)]
    store = srv.store
    kind, reply = _server_reply(srv, payload)
    try:
        query = decode_query(payload)
    except IpltError:
        query = None
    if query is not None and (query.q, len(query.pi)) == (q, store.K):
        assert (kind, reply) == (KIND_ANSWER, encode_answer(answer(query, store.X)))
    else:
        assert kind == KIND_ERROR
        name = reply.decode().partition(":")[0]
        assert name in {"MalformedPayload", "ShapeError"}, reply
