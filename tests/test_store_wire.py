"""Binary store format, wire framing, and the TCP answer service."""

import random
import socket
import struct
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import iplt
from iplt import (
    Answer,
    BadMagic,
    EntryOutOfRange,
    FqMatrix,
    FrameTooLarge,
    MalformedPayload,
    MessageStore,
    Query,
    ShapeError,
    TruncatedFile,
    VersionUnsupported,
    answer,
    decode_answer,
    decode_query,
    encode_answer,
    encode_query,
    example_fixture,
    parse_endpoint,
    send_frame,
    serve,
    store_load,
    store_save,
    to_debug_json,
)
from iplt.wire import KIND_ERROR, KIND_QUERY, MAX_FRAME, recv_frame

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

    with pytest.raises(FileNotFoundError):
        store_load(tmp_path / "missing.plts")


def test_store_validates_construction():
    """The store dataclass rejects mismatched shapes and fields."""
    with pytest.raises(ShapeError):
        MessageStore(Q, 3, 1, FqMatrix(Q, [[1], [2]]))
    with pytest.raises(ShapeError):
        MessageStore(Q, 2, 1, FqMatrix(19, [[1], [2]]))


# -- payload codecs ----------------------------------------------------------------


def test_query_payload_golden_size_and_roundtrip():
    """The pinned embedding fixture serializes to exactly 1840 bytes."""
    fx = example_fixture(3)
    payload = encode_query(fx.query)
    assert len(payload) == 16 + 9 * 24 * 8 + 24 * 4 == 1840
    back = decode_query(payload)
    assert back == fx.query
    for which in (1, 2):
        q = example_fixture(which).query
        assert decode_query(encode_query(q)) == q


def test_decode_query_rejections():
    """Every structural defect is caught with its byte offset."""
    fx = example_fixture(1)
    payload = encode_query(fx.query)

    with pytest.raises(MalformedPayload):
        decode_query(payload[:10])
    with pytest.raises(MalformedPayload):
        decode_query(payload + b"\0")

    bad_q = bytearray(payload)
    bad_q[0:8] = struct.pack("<Q", 1)
    with pytest.raises(MalformedPayload):
        decode_query(bytes(bad_q))

    zero_k = bytearray(payload)
    zero_k[8:12] = struct.pack("<I", 0)
    with pytest.raises(MalformedPayload):
        decode_query(bytes(zero_k))

    oor = bytearray(payload)
    oor[16:24] = struct.pack("<Q", Q)
    with pytest.raises(MalformedPayload) as exc:
        decode_query(bytes(oor))
    assert "offset 16" in str(exc.value)

    pi_off = 16 + 6 * 24 * 8
    big_pi = bytearray(payload)
    big_pi[pi_off : pi_off + 4] = struct.pack("<I", 24)
    with pytest.raises(MalformedPayload):
        decode_query(bytes(big_pi))

    dup_pi = bytearray(payload)
    dup_pi[pi_off : pi_off + 4] = payload[pi_off + 4 : pi_off + 8]
    with pytest.raises(MalformedPayload) as exc:
        decode_query(bytes(dup_pi))
    assert "duplicate" in str(exc.value)


def test_answer_payload_roundtrip():
    """Answers round trip, including the empty edge case."""
    y = FqMatrix.random(Q, 5, 3, random.Random(2))
    ans = Answer(Y=y)
    assert decode_answer(encode_answer(ans), Q) == ans
    empty = Answer(Y=FqMatrix(Q, [], cols=0))
    assert decode_answer(encode_answer(empty), Q).Y.rows == 0


def test_decode_answer_rejections():
    """Short, mis-sized, and out-of-range answers are rejected."""
    payload = encode_answer(Answer(Y=FqMatrix(Q, [[1, 2], [3, 4]])))
    with pytest.raises(MalformedPayload):
        decode_answer(payload[:4], Q)
    with pytest.raises(MalformedPayload):
        decode_answer(payload + b"\0", Q)
    oor = bytearray(payload)
    oor[8:16] = struct.pack("<Q", Q)
    with pytest.raises(MalformedPayload) as exc:
        decode_answer(bytes(oor), Q)
    assert "offset 8" in str(exc.value)


def test_debug_json_renderings():
    """The JSON mirror of a query parses back to the same numbers."""
    import json

    fx = example_fixture(1)
    doc = json.loads(to_debug_json(fx.query))
    assert doc["kind"] == "query" and doc["q"] == Q and doc["K"] == 24
    assert doc["G"] == [list(r) for r in fx.query.G.data]
    assert doc["pi"] == list(fx.query.pi) and doc["rows"] == fx.query.G.rows


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
            got = iplt.fetch(srv.endpoint, fx.query)
        local = answer(fx.query, store.X)
        assert got == local
        assert encode_answer(got) == encode_answer(local)


def test_fetch_remote_errors_map_to_package_exceptions():
    """Server-side failures surface as the matching exception type."""
    fx = example_fixture(1)
    small = MessageStore.random(Q, 10, 1, random.Random(0))
    with _loopback(small) as srv:
        with pytest.raises(ShapeError):
            iplt.fetch(srv.endpoint, fx.query)
    other_field = MessageStore.random(19, 24, 1, random.Random(0))
    with _loopback(other_field) as srv:
        with pytest.raises(ShapeError):
            iplt.fetch(srv.endpoint, fx.query)


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
    """A non-query frame draws a MalformedPayload error frame."""
    store = MessageStore.random(Q, 4, 1, random.Random(0))
    with _loopback(store) as srv:
        host, port = parse_endpoint(srv.endpoint)
        with socket.create_connection((host, port), timeout=10) as sock:
            send_frame(sock, 0x7E, b"junk")
            kind, payload = recv_frame(sock)
    assert kind == KIND_ERROR
    assert payload.startswith(b"MalformedPayload")


def test_concurrent_fetches():
    """Eight parallel fetches all come back exact."""
    fx = example_fixture(2)
    store = MessageStore.random(Q, 24, 2, random.Random(9))
    expected = answer(fx.query, store.X)
    with _loopback(store) as srv:
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(
                pool.map(lambda _: iplt.fetch(srv.endpoint, fx.query), range(8))
            )
    assert all(r == expected for r in results)


def test_wire_and_store_never_touch_client_secrets():
    """The server-facing modules never mention client-secret types."""
    src_dir = Path(iplt.__file__).parent
    for name in ("wire.py", "store.py"):
        text = (src_dir / name).read_text()
        assert "ClientSecret" not in text
        assert "Demand" not in text
        assert "recover" not in text
