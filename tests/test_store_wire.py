"""Binary store format, wire framing, and the TCP answer service."""

import dataclasses
import os
import random
import select
import socket
import struct
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import iplt.wire
from iplt.audit import audit_individual_privacy
from iplt.errors import (
    BadMagic,
    EntryOutOfRange,
    FrameTooLarge,
    MalformedPayload,
    ShapeError,
    TruncatedFile,
    VersionUnsupported,
)
from iplt.fixtures import example_fixture
from iplt.matrix import FqMatrix
from iplt.protocol import Demand, Query, answer, build_query, derive_params, recover
from iplt.store import MessageStore, entry_width, store_load, store_save
from iplt.wire import (
    KIND_ANSWER,
    KIND_ERROR,
    KIND_QUERY,
    MAX_FRAME,
    decode_answer,
    decode_query,
    encode_answer,
    encode_query,
    parse_endpoint,
    recv_frame,
    send_frame,
    serve,
    to_debug_json,
)

from oracles import v1_query_payload, v2_answer_payload, v3_query_payload

Q = 17


# -- store format ---------------------------------------------------------------


def test_store_roundtrip_bit_identical(tmp_path):
    """Save/load reproduces the store and the exact documented byte size."""
    store = MessageStore.random(Q, 24, 4, random.Random(0))
    path = tmp_path / "a.plts"
    store_save(store, path)
    raw = path.read_bytes()
    assert len(raw) == 21 + 24 * 4 * 8 == 789
    loaded = store_load(path)
    assert loaded == store
    store_save(loaded, tmp_path / "b.plts")
    assert (tmp_path / "b.plts").read_bytes() == raw


def test_store_header_golden_bytes(tmp_path):
    """The header is magic, version, then little-endian q, K, N."""
    store = MessageStore(Q, 2, 1, FqMatrix(Q, [[3], [5]]))
    path = tmp_path / "g.plts"
    store_save(store, path)
    raw = path.read_bytes()
    assert raw[:4] == b"PLTS"
    assert raw[4] == 1
    assert raw[5:13] == struct.pack("<Q", Q)
    assert raw[13:17] == struct.pack("<I", 2)
    assert raw[17:21] == struct.pack("<I", 1)
    assert raw[21:] == struct.pack("<QQ", 3, 5)


def test_store_load_rejections(tmp_path):
    """Bad magic, version, truncation, and range errors all name the cause."""
    store = MessageStore.random(Q, 3, 2, random.Random(1))
    path = tmp_path / "x.plts"
    store_save(store, path)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.plts"
    bad.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(BadMagic):
        store_load(bad)

    ver = bytearray(raw)
    ver[4] = 9
    bad.write_bytes(bytes(ver))
    with pytest.raises(VersionUnsupported):
        store_load(bad)

    bad.write_bytes(bytes(raw[:-1]))
    with pytest.raises(TruncatedFile):
        store_load(bad)
    bad.write_bytes(bytes(raw) + b"\0" * 8)
    with pytest.raises(TruncatedFile):
        store_load(bad)
    bad.write_bytes(raw[:10])
    with pytest.raises(TruncatedFile):
        store_load(bad)

    oor = bytearray(raw)
    oor[21 + 2 * 8 : 21 + 3 * 8] = struct.pack("<Q", Q)
    bad.write_bytes(bytes(oor))
    with pytest.raises(EntryOutOfRange) as exc:
        store_load(bad)
    assert "37" in str(exc.value)

    bad.write_bytes(raw[:13] + struct.pack("<II", 3, 0))  # 3 messages of 0 symbols
    with pytest.raises(EntryOutOfRange, match="zero width"):
        store_load(bad)

    with pytest.raises(FileNotFoundError):
        store_load(tmp_path / "missing.plts")


def test_store_validates_construction():
    """The store dataclass rejects mismatched shapes and fields."""
    with pytest.raises(ShapeError):
        MessageStore(Q, 3, 1, FqMatrix(Q, [[1], [2]]))
    with pytest.raises(ShapeError):
        MessageStore(Q, 2, 1, FqMatrix(19, [[1], [2]]))


# -- payload codecs ----------------------------------------------------------------


def test_entry_width_follows_the_bound():
    """1 byte up to 256, 2 bytes up to 65,536, 4 bytes beyond."""
    widths = {b: entry_width(b) for b in (2, 256, 257, 65536, 65537, 2**31)}
    assert widths == {2: 1, 256: 1, 257: 2, 65536: 2, 65537: 4, 2**31: 4}


def test_query_payload_golden_size_and_roundtrip():
    """The pinned embedding fixture serializes to exactly 130 bytes."""
    fx = example_fixture(3)
    payload = encode_query(fx.query)
    # header, two 2x7 decoy blocks and the 5x10 trailing block at 1 byte per
    # entry (q = 17), pi at 1 byte per value (K = 24)
    assert len(payload) == 28 + 1 * (2 * 2 * 7 + 5 * 10) + 1 * 24 == 130
    back = decode_query(payload)
    assert back == fx.query
    for which in (1, 2):
        q = example_fixture(which).query
        assert decode_query(encode_query(q)) == q
    uneven = dataclasses.replace(
        fx.query, blocks=(fx.query.blocks[0], fx.query.blocks[1].take_cols(range(6)))
    )
    with pytest.raises(ShapeError):
        encode_query(uneven)


def test_decode_query_rejections():
    """Every structural defect is caught with its byte offset."""
    fx = example_fixture(1)
    payload = encode_query(fx.query)

    with pytest.raises(MalformedPayload):
        decode_query(payload[:10])
    with pytest.raises(MalformedPayload):
        decode_query(payload + b"\0")

    bad_q = bytearray(payload)
    bad_q[0:4] = struct.pack("<I", 1)
    with pytest.raises(MalformedPayload):
        decode_query(bytes(bad_q))

    zero_k = bytearray(payload)
    zero_k[4:8] = struct.pack("<I", 0)
    with pytest.raises(MalformedPayload):
        decode_query(bytes(zero_k))

    for field_off in (12, 20):  # decoy rows L, trailing rows
        empty = bytearray(payload)
        empty[field_off : field_off + 4] = struct.pack("<I", 0)
        with pytest.raises(MalformedPayload) as exc:
            decode_query(bytes(empty))
        assert "1 <= rows <= cols" in str(exc.value)

    untiled = bytearray(payload)
    untiled[24:28] = struct.pack("<I", 7)
    with pytest.raises(MalformedPayload) as exc:
        decode_query(bytes(untiled))
    assert "do not tile K=24" in str(exc.value)

    pi_off = 28 + 3 * 2 * 8  # 1-byte entries at q = 17
    for off in (28, pi_off - 1):  # the first decoy entry, the last trailing entry
        oor = bytearray(payload)
        oor[off] = Q
        with pytest.raises(MalformedPayload) as exc:
            decode_query(bytes(oor))
        assert str(exc.value) == f"generator entry {Q} at byte offset {off} is not below q={Q}"

    big_pi = bytearray(payload)
    big_pi[pi_off] = 24
    with pytest.raises(MalformedPayload):
        decode_query(bytes(big_pi))

    dup_pi = bytearray(payload)
    dup_pi[pi_off] = payload[pi_off + 1]
    with pytest.raises(MalformedPayload) as exc:
        decode_query(bytes(dup_pi))
    assert "duplicate" in str(exc.value)


def test_answer_payload_roundtrip():
    """Answers round trip, including the empty edge case."""
    y = FqMatrix.random(Q, 5, 3, random.Random(2))
    assert decode_answer(encode_answer(y), Q) == y
    empty = FqMatrix(Q, [], cols=0)
    assert decode_answer(encode_answer(empty), Q).rows == 0


def test_decode_answer_rejections():
    """Short, mis-sized, zero-width and out-of-range answers are rejected."""
    payload = encode_answer(FqMatrix(Q, [[1, 2], [3, 4]]))
    with pytest.raises(MalformedPayload):
        decode_answer(payload[:4], Q)
    with pytest.raises(MalformedPayload):
        decode_answer(payload + b"\0", Q)
    for off in (8, 11):  # the first and the last answer entry
        oor = bytearray(payload)
        oor[off] = Q
        with pytest.raises(MalformedPayload) as exc:
            decode_answer(bytes(oor), Q)
        assert str(exc.value) == f"answer entry {Q} at byte offset {off} is not below q={Q}"
    # Rows of zero width take no bytes, so a bigger row count would cost
    # memory and time out of an 8-byte payload.
    with pytest.raises(MalformedPayload, match="zero width"):
        decode_answer(struct.pack("<II", 3, 0), Q)


def test_debug_json_renderings():
    """The JSON mirror of a query parses back to the same numbers, laid out
    as the wire payload carries them: decoy blocks, trailing block, pi."""
    import json

    for which in (1, 2, 3):
        query = example_fixture(which).query
        doc = json.loads(to_debug_json(query))
        assert sorted(doc) == ["K", "blocks", "kind", "pi", "q", "trailing"]
        assert doc["kind"] == "query" and doc["q"] == Q and doc["K"] == len(query.pi)
        blocks = tuple(FqMatrix(Q, rows) for rows in doc["blocks"])
        back = Query(blocks, FqMatrix(Q, doc["trailing"]), tuple(doc["pi"]))
        assert back == query
        assert decode_query(encode_query(back)) == query


# -- framing ------------------------------------------------------------------------


def test_parse_endpoint():
    """host:port splits; empty host binds everywhere; junk raises."""
    assert parse_endpoint("127.0.0.1:7710") == ("127.0.0.1", 7710)
    assert parse_endpoint(":80") == ("0.0.0.0", 80)
    with pytest.raises(ValueError):
        parse_endpoint("no-port")
    with pytest.raises(ValueError):
        parse_endpoint("host:abc")


def test_send_frame_cap():
    """A frame beyond the 64 MiB cap is refused before any write."""
    a, b = socket.socketpair()
    try:
        with pytest.raises(FrameTooLarge):
            send_frame(a, KIND_QUERY, bytes(MAX_FRAME))
    finally:
        a.close()
        b.close()


def test_frame_roundtrip_over_socketpair():
    """send_frame/recv_frame are inverses over a real socket."""
    a, b = socket.socketpair()
    try:
        send_frame(a, KIND_QUERY, b"hello")
        kind, payload = recv_frame(b)
        assert (kind, payload) == (KIND_QUERY, b"hello")
        a.close()
        with pytest.raises(MalformedPayload):
            recv_frame(b)
    finally:
        b.close()


# -- TCP service ---------------------------------------------------------------------


def _loopback(store):
    srv = serve(store, "127.0.0.1:0")
    srv.start_background()
    return srv


def test_loopback_fetch_matches_in_process():
    """Fetched answers are byte-identical to in-process answers per fixture."""
    for which in (1, 2, 3):
        fx = example_fixture(which)
        store = MessageStore.random(Q, fx.params.K, 3, random.Random(which))
        with _loopback(store) as srv:
            got = iplt.wire.fetch(srv.endpoint, fx.query)
        local = answer(fx.query, store.X)
        assert got == local
        assert encode_answer(got) == encode_answer(local)


def test_fetch_remote_errors_map_to_package_exceptions(monkeypatch):
    """Server-side failures surface as the matching exception type.  The
    server refuses a wrong K or q before it decodes any block."""

    def refuse(payload):
        raise AssertionError("the query was decoded before its shape was checked")

    monkeypatch.setattr(iplt.wire, "decode_query", refuse)
    fx = example_fixture(1)
    small = MessageStore.random(Q, 10, 1, random.Random(0))
    with _loopback(small) as srv:
        with pytest.raises(ShapeError, match="^store has 10 messages, query expects 24$"):
            iplt.wire.fetch(srv.endpoint, fx.query)
    other_field = MessageStore.random(19, 24, 1, random.Random(0))
    with _loopback(other_field) as srv:
        with pytest.raises(ShapeError, match=r"^query over GF\(17\), store over GF\(19\)$"):
            iplt.wire.fetch(srv.endpoint, fx.query)


def test_server_rejects_oversized_frame_header():
    """A declared length beyond the cap draws a FrameTooLarge error frame."""
    store = MessageStore.random(Q, 4, 1, random.Random(0))
    with _loopback(store) as srv:
        host, port = parse_endpoint(srv.endpoint)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(struct.pack("<I", MAX_FRAME + 5))
            kind, payload = recv_frame(sock)
    assert kind == KIND_ERROR
    assert payload.startswith(b"FrameTooLarge")


def test_server_rejects_wrong_kind():
    """A non-query frame, the retired payloads among them (the dense v1
    query, kind 0x01; the 8-byte answer, 0x02; the 4-byte block query,
    0x03), draws a MalformedPayload error frame."""
    store = MessageStore.random(Q, 4, 1, random.Random(0))
    query = example_fixture(1).query
    retired = (
        (0x01, v1_query_payload(query)),
        (0x02, v2_answer_payload(FqMatrix(Q, [[1, 2], [3, 4]]))),
        (0x03, v3_query_payload(query)),
    )
    with _loopback(store) as srv:
        host, port = parse_endpoint(srv.endpoint)
        for kind, body in ((0x7E, b"junk"), *retired):
            with socket.create_connection((host, port), timeout=10) as sock:
                send_frame(sock, kind, body)
                reply_kind, payload = recv_frame(sock)
            assert reply_kind == KIND_ERROR
            assert payload.startswith(b"MalformedPayload")


def test_server_closes_an_idle_connection(monkeypatch):
    """A client that connects and sends nothing is dropped after the idle
    timeout: it reads EOF."""
    monkeypatch.setattr(iplt.wire, "_IDLE_TIMEOUT_S", 0.2)
    store = MessageStore.random(Q, 4, 1, random.Random(0))
    with _loopback(store) as srv:
        with socket.create_connection(parse_endpoint(srv.endpoint), timeout=5) as sock:
            assert sock.recv(1) == b""


def test_server_closes_a_trickling_connection(monkeypatch):
    """A client that sends a valid header and then one byte every 0.05 s
    is closed once its frame is overdue: the timeout bounds the whole
    frame, not each read."""
    timeout = 0.2
    monkeypatch.setattr(iplt.wire, "_IDLE_TIMEOUT_S", timeout)
    payload = encode_query(example_fixture(1).query)
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    with _loopback(store) as srv:
        with socket.create_connection(parse_endpoint(srv.endpoint), timeout=5) as sock:
            start = time.monotonic()
            sock.sendall(struct.pack("<I", len(payload) + 1) + bytes([KIND_QUERY]) + payload[:28])
            closed = False
            for byte in payload[28:]:  # 72 bytes: 3.6 s if nothing closes the connection
                try:
                    if select.select([sock], [], [], 0.05)[0]:
                        closed = sock.recv(1) == b""
                        break
                    sock.sendall(bytes([byte]))
                except (BrokenPipeError, ConnectionResetError):
                    closed = True
                    break
            elapsed = time.monotonic() - start
    assert closed
    assert elapsed < 2 * timeout


# A GF(19) header for K = 1024 with one 1021 x 1024 trailing block: its
# layout fits a payload of 28 + 1021 * 1024 + 2 * 1024 bytes, about 1 MiB.
_GF19_HEAD = struct.pack("<7I", 19, 1024, 0, 0, 0, 1021, 1024)
_GF19_SIZE = 28 + 1021 * 1024 + 2 * 1024


@pytest.mark.parametrize(
    "kind, head, size, reply",
    [
        (KIND_QUERY, _GF19_HEAD, _GF19_SIZE, b"ShapeError: query over GF(19)"),
        (0x03, _GF19_HEAD, _GF19_SIZE, b"MalformedPayload: unexpected frame kind 0x3"),
        (KIND_QUERY, encode_query(example_fixture(1).query)[:28], 2**20, b"MalformedPayload"),
    ],
    ids=["wrong-field", "retired-kind", "size-mismatch"],
)
def test_server_refuses_from_the_header(kind, head, size, reply):
    """A frame declaring about 1 MiB is refused from its length, kind and
    query header alone, with no body sent, against a GF(17), K = 24 store."""
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    with _loopback(store) as srv:
        with socket.create_connection(parse_endpoint(srv.endpoint), timeout=5) as sock:
            sock.sendall(struct.pack("<I", size + 1) + bytes([kind]) + head)
            reply_kind, payload = recv_frame(sock)
    assert reply_kind == KIND_ERROR
    assert payload.startswith(reply)


def test_fetch_reads_a_refusal_sent_before_the_body(monkeypatch):
    """A query far larger than the socket buffers, refused from its header
    while the client is still sending, surfaces as the server's ShapeError
    rather than as a broken pipe."""
    k = 4096
    big = struct.pack("<7I", 19, k, 0, 0, 0, k, k) + bytes(k * k + 2 * k)
    monkeypatch.setattr(iplt.wire, "encode_query", lambda query: big)
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    with _loopback(store) as srv:
        with pytest.raises(ShapeError, match=r"^query over GF\(19\)"):
            iplt.wire.fetch(srv.endpoint, example_fixture(1).query, timeout=5)


def test_fetch_refuses_a_retired_answer_kind():
    """An answer frame of the retired 8-byte kind 0x02 raises MalformedPayload."""
    query = example_fixture(1).query
    y = FqMatrix(Q, [[1, 2], [3, 4]])
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def stub():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)
                send_frame(conn, 0x02, v2_answer_payload(y))

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        with pytest.raises(MalformedPayload, match="unexpected frame kind 0x2"):
            iplt.wire.fetch(f"{host}:{port}", query, timeout=5)
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize(
    "shape, widths",
    [((40, 6, 2, 2**31 - 1, 2), (4, 1)), ((300, 7, 2, 17, 1), (1, 2))],
    ids=["q2^31-1", "q17-K300"],
)
def test_loopback_round_trip_at_each_width(shape, widths):
    """Round trips over loopback with 4-byte entries (q = 2^31 - 1), and with
    1-byte entries and 2-byte pi values (q = 17, K = 300)."""
    params = derive_params(*shape)
    assert (entry_width(params.q), entry_width(params.K)) == widths
    rng = random.Random(7)
    demand = Demand.random(params, rng)
    store = MessageStore.random(params.q, params.K, params.N, rng)
    query, secret = build_query(demand, params, rng)
    entries = sum(blk.rows * blk.cols for blk in (*query.blocks, query.trailing))
    w_q, w_k = widths
    assert len(encode_query(query)) == 28 + w_q * entries + w_k * params.K
    with _loopback(store) as srv:
        ans = iplt.wire.fetch(srv.endpoint, query)
    assert len(encode_answer(ans)) == 8 + params.answer_rows * params.N * w_q
    assert recover(ans, secret, params, demand) == demand.value(store.X)


def test_block_payload_round_trips_at_k20000():
    """K = 20,000 round-trips over loopback in one frame.

    The block payload grows linearly in K: here 28 + 2 * (n*L*D + trailing
    entries) + 2*K = 240,028 bytes, with 2-byte entries at q = 65521 and
    2-byte pi values at K = 20,000.  The dense v1 payload of the same query
    would need 16 + 8 * 2000 * 20000 + 4 * 20000 = 320,080,016 bytes, over
    the 64 MiB frame cap.
    """
    params = derive_params(20000, 50, 5, 65521)
    rng = random.Random(20000)
    demand = Demand.random(params, rng)
    store = MessageStore.random(params.q, params.K, 1, rng)
    query, secret = build_query(demand, params, rng)
    payload = encode_query(query)
    trailing = query.trailing
    entries = params.n * params.L * params.D + trailing.rows * trailing.cols
    assert len(payload) == 28 + 2 * entries + 2 * params.K == 240_028
    assert len(payload) + 1 <= MAX_FRAME
    with _loopback(store) as srv:
        ans = iplt.wire.fetch(srv.endpoint, query)
    assert recover(ans, secret, params, demand) == demand.value(store.X)
    report = audit_individual_privacy(query, params, demand)
    assert report.ok and report.true_support_found


def test_concurrent_fetches():
    """Eight client threads making eight fetches each, with a short switch
    interval, all get exact answers, and the server counts every request."""
    fx = example_fixture(2)
    store = MessageStore.random(Q, 24, 2, random.Random(9))
    expected = answer(fx.query, store.X)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _loopback(store) as srv:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [
                    pool.submit(lambda: [iplt.wire.fetch(srv.endpoint, fx.query) for _ in range(8)])
                    for _ in range(8)
                ]
                results = [y for f in futures for y in f.result(timeout=30)]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 64
    stats = srv.stats()
    assert (stats["requests"], stats["errors"]) == (64, {})
    assert 1 <= stats["connections"] <= 64


# -- kept connections -----------------------------------------------------------


@pytest.fixture()
def connects(monkeypatch):
    """Count the connections fetch opens: a list of the addresses dialled."""
    dialled = []
    create = socket.create_connection

    def counting(address, *args, **kwargs):
        dialled.append(address)
        return create(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return dialled


def test_sequential_fetches_reuse_one_connection(connects):
    """Twenty fetches in a row travel over one connection, and each answer
    equals the in-process one."""
    fx = example_fixture(1)
    store = MessageStore.random(Q, 24, 2, random.Random(3))
    expected = answer(fx.query, store.X)
    with _loopback(store) as srv:
        for _ in range(20):
            assert iplt.wire.fetch(srv.endpoint, fx.query) == expected
    assert len(connects) == 1
    assert srv.stats() == {"connections": 1, "requests": 20, "errors": {}}


def test_fetch_resends_the_same_bytes_after_an_idle_close(monkeypatch, connects):
    """A kept connection the server closed after its idle timeout is
    replaced by exactly one new connection, which carries the same encoded
    query; the query is encoded once."""
    monkeypatch.setattr(iplt.wire, "_IDLE_TIMEOUT_S", 0.2)
    encoded, sent = [], []
    encode, send = iplt.wire.encode_query, iplt.wire.send_frame
    monkeypatch.setattr(iplt.wire, "encode_query", lambda q: encoded.append(encode(q)) or encoded[-1])

    def send_spy(sock, kind, body):
        if kind == KIND_QUERY:
            sent.append(body)
        send(sock, kind, body)

    monkeypatch.setattr(iplt.wire, "send_frame", send_spy)
    fx = example_fixture(2)
    store = MessageStore.random(Q, 24, 2, random.Random(5))
    with _loopback(store) as srv:
        iplt.wire.fetch(srv.endpoint, fx.query)
        time.sleep(0.4)
        del encoded[:], sent[:]
        assert iplt.wire.fetch(srv.endpoint, fx.query) == answer(fx.query, store.X)
    assert len(connects) == 2
    assert len(encoded) == 1 and sent == encoded * 2
    assert srv.stats() == {"connections": 2, "requests": 2, "errors": {}}


def test_a_new_connection_is_not_retried(connects):
    """A server that reads the query on a new connection and closes it
    without replying makes fetch raise, with no second connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def stub():
            conn, _ = listener.accept()
            with conn:
                recv_frame(conn)

        thread = threading.Thread(target=stub, daemon=True)
        thread.start()
        host, port = listener.getsockname()[:2]
        with pytest.raises(MalformedPayload, match="connection closed after 0 of 4 bytes"):
            iplt.wire.fetch(f"{host}:{port}", example_fixture(1).query, timeout=5)
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert len(connects) == 1


def test_an_error_frame_closes_the_connection(connects):
    """The connection that carried an error frame is not kept: the next
    fetch opens a new one."""
    fx = example_fixture(1)
    params = derive_params(10, 4, 2, Q)
    rng = random.Random(1)
    other = build_query(Demand.random(params, rng), params, rng)[0]
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    with _loopback(store) as srv:
        iplt.wire.fetch(srv.endpoint, fx.query)
        with pytest.raises(ShapeError, match="^store has 24 messages, query expects 10$"):
            iplt.wire.fetch(srv.endpoint, other)
        assert len(connects) == 1
        assert parse_endpoint(srv.endpoint) not in iplt.wire._kept
        assert iplt.wire.fetch(srv.endpoint, fx.query) == answer(fx.query, store.X)
    assert len(connects) == 2
    assert srv.stats() == {"connections": 2, "requests": 2, "errors": {"ShapeError": 1}}


def test_clients_that_keep_fetching_do_not_block_another(monkeypatch):
    """Eight clients that each send a frame every 0.1 s over their own
    connection, with a 0.2 s idle timeout, do not hold up a ninth client's
    fetch."""
    monkeypatch.setattr(iplt.wire, "_IDLE_TIMEOUT_S", 0.2)
    fx = example_fixture(1)
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    expected = answer(fx.query, store.X)
    body = encode_query(fx.query)
    stop = threading.Event()
    replies = [[] for _ in range(8)]

    def keep_fetching(addr, got):
        with socket.create_connection(addr, timeout=5) as sock:
            while not stop.is_set():
                send_frame(sock, KIND_QUERY, body)
                got.append(recv_frame(sock))
                time.sleep(0.1)

    with _loopback(store) as srv:
        addr = parse_endpoint(srv.endpoint)
        with ThreadPoolExecutor(max_workers=len(replies)) as pool:
            busy = [pool.submit(keep_fetching, addr, got) for got in replies]
            try:
                time.sleep(0.3)  # past one idle timeout
                got = iplt.wire.fetch(srv.endpoint, fx.query, timeout=2)
                assert not any(f.done() for f in busy)
            finally:
                stop.set()
            for f in busy:
                f.result(timeout=5)
    assert got == expected
    for frames in replies:
        assert len(frames) >= 3
        assert set(frames) == {(KIND_ANSWER, encode_answer(expected))}
    assert srv.stats()["connections"] == 9


def test_no_handler_outlives_server_close():
    """server_close stops every thread the server started, those waiting on
    a kept connection and on a silent one among them, without waiting out
    the idle timeout."""
    fx = example_fixture(1)
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    before = set(threading.enumerate())
    srv = serve(store, "127.0.0.1:0")
    srv.start_background()
    iplt.wire.fetch(srv.endpoint, fx.query)
    with socket.create_connection(parse_endpoint(srv.endpoint), timeout=5) as silent:
        until = time.monotonic() + 5
        while srv.stats()["connections"] < 2 and time.monotonic() < until:
            time.sleep(0.01)
        started = set(threading.enumerate()) - before
        assert len(started) == 3  # serve_forever and one thread per connection
        start = time.monotonic()
        srv.shutdown()
        srv.server_close()
        assert time.monotonic() - start < 1  # not the 30 s idle timeout
        for thread in started:
            thread.join(timeout=1)
        assert not any(thread.is_alive() for thread in started)
        assert silent.recv(1) == b""


@pytest.mark.parametrize("raised", [None, ValueError("raised inside the block")])
def test_leaving_a_server_that_never_served(raised):
    """A with block around a server whose serve_forever never ran exits at
    once, and an exception raised inside the block reaches the caller."""
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    outcome = []

    def leave():
        try:
            with serve(store, "127.0.0.1:0"):
                if raised is not None:
                    raise raised
        except ValueError as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=leave, daemon=True)
    thread.start()
    thread.join(timeout=2)
    assert not thread.is_alive()
    assert outcome == [raised]


def test_kept_connections_are_capped(monkeypatch):
    """After one fetch from each of ten short-lived servers, fetch keeps
    connections to at most _MAX_KEPT endpoints, the last one used among
    them, and every connection it dropped is closed."""
    monkeypatch.setattr(iplt.wire, "_kept", {})
    opened = []
    create = socket.create_connection
    monkeypatch.setattr(
        socket, "create_connection", lambda *a, **kw: opened.append(create(*a, **kw)) or opened[-1]
    )
    fx = example_fixture(1)
    store = MessageStore.random(Q, 24, 1, random.Random(0))
    for _ in range(10):
        with _loopback(store) as srv:
            iplt.wire.fetch(srv.endpoint, fx.query)
    kept = iplt.wire._kept
    try:
        assert len(opened) >= 10  # more only if an ephemeral port came round again
        assert 0 < len(kept) <= iplt.wire._MAX_KEPT
        assert list(kept)[-1] == parse_endpoint(srv.endpoint)
        dropped = [sock for sock in opened if sock not in kept.values()]
        assert all(sock.fileno() == -1 for sock in dropped)
    finally:
        for sock in kept.values():
            sock.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_opens_its_own_connection(connects):
    """After a fork the child starts with no kept connection and opens its
    own, while the parent goes on over the one it kept, so the two
    processes never send on one connection."""
    fx = example_fixture(1)
    store = MessageStore.random(Q, 24, 2, random.Random(3))
    expected = answer(fx.query, store.X)
    with _loopback(store) as srv:
        iplt.wire.fetch(srv.endpoint, fx.query)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if not iplt.wire._kept and iplt.wire.fetch(srv.endpoint, fx.query) == expected:
                    code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert iplt.wire.fetch(srv.endpoint, fx.query) == expected
    assert len(connects) == 1  # the parent's; the child's is counted in the child
    assert srv.stats() == {"connections": 2, "requests": 3, "errors": {}}


def test_wire_and_store_never_touch_client_secrets():
    """The server-facing modules never mention client-secret types."""
    src_dir = Path(iplt.__file__).parent
    for name in ("wire.py", "store.py"):
        text = (src_dir / name).read_text()
        assert "ClientSecret" not in text
        assert "Demand" not in text
        assert "recover" not in text
