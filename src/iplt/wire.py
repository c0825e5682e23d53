"""Length-prefixed binary framing and the TCP answer service.

Frame: 4-byte little-endian length (payload size + 1), 1 kind byte
(0x03 query, 0x02 answer, 0xFF error), then the payload.  Query payload:
q, K, n, L, D, trailing rows and trailing cols (4 LE each), the n decoy
L x D blocks and then the trailing block, row-major (4 LE per entry), and
the permutation as K 4-byte LE values.  Answer payload: rows (4 LE) +
N (4 LE) + entries (8 LE each).  Frames above 64 MiB are rejected.  The
dense v1 query (kind 0x01) is no longer accepted.

The server side only ever touches the query and the stored matrix; one
request per connection, handled concurrently over a read-only store.  It
refuses a query whose q or K differs from the store's before unpacking
any block.
"""

from __future__ import annotations

import itertools
import json
import socket
import socketserver
import struct
import threading

from . import errors as _errors
from .errors import (
    BadEndpoint,
    FrameTooLarge,
    IpltError,
    MalformedPayload,
    RemoteError,
    ShapeError,
)
from .matrix import FqMatrix
from .protocol import Query, answer, is_permutation
from .store import MessageStore, pack_entries, unpack_entries

KIND_QUERY = 0x03
KIND_ANSWER = 0x02
KIND_ERROR = 0xFF
MAX_FRAME = 64 * 1024 * 1024
_BACKGROUND_POLL_S = 0.05

_QUERY_HEAD = struct.Struct("<7I")
_ANSWER_HEAD = struct.Struct("<II")


# -- payload codecs ---------------------------------------------------------


def encode_query(query: Query) -> bytes:
    """Serialize the blocks and pi; the field order is carried in the payload."""
    blocks, trailing, k = query.blocks, query.trailing, len(query.pi)
    L, D = (blocks[0].rows, blocks[0].cols) if blocks else (0, 0)
    if any((blk.rows, blk.cols) != (L, D) for blk in blocks):
        raise ShapeError("decoy blocks differ in shape")
    head = _QUERY_HEAD.pack(query.q, k, len(blocks), L, D, trailing.rows, trailing.cols)
    rows = itertools.chain.from_iterable(blk.data for blk in (*blocks, trailing))
    entries = list(itertools.chain.from_iterable(rows))
    entries += query.pi
    return head + struct.pack(f"<{len(entries)}I", *entries)


def _query_layout(payload: bytes) -> tuple[int, int, list[tuple[int, int]], int]:
    """Validate a query header against the payload size without unpacking any
    entry; returns (q, K, block shapes, offset of pi)."""
    if len(payload) < _QUERY_HEAD.size:
        raise MalformedPayload(
            f"query payload has {len(payload)} bytes, header needs {_QUERY_HEAD.size}"
        )
    q, k, n, L, D, t_rows, t_cols = _QUERY_HEAD.unpack_from(payload, 0)
    if q < 2 or q > 2**31:
        raise MalformedPayload(f"field order {q} out of range at offset 0")
    if k == 0:
        raise MalformedPayload("zero message count at offset 4")
    if not 1 <= t_rows <= t_cols or (n and not 1 <= L <= D):
        raise MalformedPayload(
            f"block shapes {L}x{D} and {t_rows}x{t_cols} at offset 12 need 1 <= rows <= cols"
        )
    if n * D + t_cols != k:
        raise MalformedPayload(
            f"{n} blocks of width {D} and a trailing width of {t_cols} do not tile K={k}"
        )
    pi_off = _QUERY_HEAD.size + (n * L * D + t_rows * t_cols) * 4
    if len(payload) != pi_off + k * 4:
        raise MalformedPayload(
            f"query payload has {len(payload)} bytes, structure requires {pi_off + k * 4}"
        )
    return q, k, [(L, D)] * n + [(t_rows, t_cols)], pi_off


def decode_query(payload: bytes) -> Query:
    """Parse and validate a query payload; offsets name the failing byte."""
    q, k, shapes, pi_off = _query_layout(payload)
    blocks = []
    off = _QUERY_HEAD.size
    for rows, cols in shapes:
        blocks.append(
            unpack_entries(payload, off, rows, cols, q, MalformedPayload, "generator entry", 4)
        )
        off += rows * cols * 4
    pi = struct.unpack_from(f"<{k}I", payload, pi_off)
    if not is_permutation(pi):
        seen = set()
        for idx, p in enumerate(pi):
            off = pi_off + idx * 4
            if p >= k:
                raise MalformedPayload(f"permutation value {p} at offset {off} exceeds K-1")
            if p in seen:
                raise MalformedPayload(f"duplicate permutation value {p} at offset {off}")
            seen.add(p)
    return Query(tuple(blocks[:-1]), blocks[-1], tuple(pi))


def encode_answer(y: FqMatrix) -> bytes:
    """Serialize the answer matrix Y."""
    return _ANSWER_HEAD.pack(y.rows, y.cols) + pack_entries(y)


def decode_answer(payload: bytes, q: int) -> FqMatrix:
    """Parse an answer payload into the answer matrix Y over GF(q); offsets
    name the failing byte."""
    if len(payload) < _ANSWER_HEAD.size:
        raise MalformedPayload(
            f"answer payload has {len(payload)} bytes, header needs {_ANSWER_HEAD.size}"
        )
    rows, n = _ANSWER_HEAD.unpack_from(payload, 0)
    expected = _ANSWER_HEAD.size + rows * n * 8
    if len(payload) != expected:
        raise MalformedPayload(
            f"answer payload has {len(payload)} bytes, structure requires {expected}"
        )
    return unpack_entries(payload, _ANSWER_HEAD.size, rows, n, q, MalformedPayload, "answer entry")


def to_debug_json(query: Query) -> str:
    """Human-inspectable JSON rendering of a query; the binary format is the contract."""
    g = query.G
    doc = {
        "kind": "query",
        "q": g.q,
        "K": len(query.pi),
        "rows": g.rows,
        "G": [list(r) for r in g.data],
        "pi": list(query.pi),
    }
    return json.dumps(doc, sort_keys=True)


# -- framing ----------------------------------------------------------------


def send_frame(sock: socket.socket, kind: int, payload: bytes) -> None:
    """Write one frame; refuses frames beyond the 64 MiB cap."""
    length = len(payload) + 1
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame of {length} bytes exceeds cap {MAX_FRAME}")
    sock.sendall(struct.pack("<I", length) + bytes([kind]) + payload)


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(min(65536, count - got))
        if not chunk:
            raise MalformedPayload(f"connection closed after {got} of {count} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one frame; returns (kind, payload)."""
    (length,) = struct.unpack("<I", _recv_exact(sock, 4))
    if length == 0:
        raise MalformedPayload("zero-length frame")
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame of {length} bytes exceeds cap {MAX_FRAME}")
    body = _recv_exact(sock, length)
    return body[0], body[1:]


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split host:port; the host may be empty for all-interfaces binding."""
    host, sep, port = endpoint.rpartition(":")
    if not sep or not port.isdecimal() or int(port) > 65535:
        raise BadEndpoint(
            f"endpoint must be host:port with a port in 0..65535, got {endpoint!r}"
        )
    return host or "0.0.0.0", int(port)


# -- server -----------------------------------------------------------------


class _AnswerHandler(socketserver.BaseRequestHandler):
    def handle(self):
        try:
            kind, payload = recv_frame(self.request)
        except IpltError as exc:
            self._reply_error(exc)
            return
        if kind != KIND_QUERY:
            self._reply_error(MalformedPayload(f"unexpected frame kind {kind:#x}"))
            return
        try:
            # Refuse a query for another store before unpacking any block:
            # decoding costs far more memory than the payload it reads.
            q, k, _, _ = _query_layout(payload)
            store = self.server.store
            if q != store.q:
                raise ShapeError(f"query over GF({q}), store over GF({store.q})")
            if k != store.K:
                raise ShapeError(f"store has {store.K} messages, query expects {k}")
            y = answer(decode_query(payload), store.X)
        except IpltError as exc:
            self._reply_error(exc)
            return
        send_frame(self.request, KIND_ANSWER, encode_answer(y))

    def _reply_error(self, exc: Exception) -> None:
        text = f"{type(exc).__name__}: {exc}"
        try:
            send_frame(self.request, KIND_ERROR, text.encode("utf-8"))
        except OSError:
            pass


class AnswerServer(socketserver.ThreadingTCPServer):
    """One-request-per-connection TCP server over a read-only store."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, store: MessageStore, endpoint: str):
        self.store = store
        super().__init__(parse_endpoint(endpoint), _AnswerHandler)

    @property
    def endpoint(self) -> str:
        host, port = self.server_address[:2]
        return f"{host}:{port}"

    def start_background(self) -> threading.Thread:
        """Serve on a daemon thread, polling every _BACKGROUND_POLL_S s so
        shutdown() returns quickly; returns the thread."""
        thread = threading.Thread(
            target=self.serve_forever, args=(_BACKGROUND_POLL_S,), daemon=True
        )
        thread.start()
        return thread

    def __enter__(self) -> "AnswerServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
        self.server_close()


def serve(store: MessageStore, endpoint: str) -> AnswerServer:
    """Bind an answer server to the endpoint; the caller starts it."""
    return AnswerServer(store, endpoint)


def _error_by_name(name: str):
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, IpltError):
        return cls
    return None


def fetch(endpoint: str, query: Query, timeout: float = 30.0) -> FqMatrix:
    """Send one query to a server and return its decoded answer matrix Y.

    An error frame is re-raised as the matching package exception when the
    server named one (e.g. ShapeError), otherwise as RemoteError.
    """
    host, port = parse_endpoint(endpoint)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        send_frame(sock, KIND_QUERY, encode_query(query))
        kind, payload = recv_frame(sock)
    if kind == KIND_ANSWER:
        return decode_answer(payload, query.q)
    if kind == KIND_ERROR:
        text = payload.decode("utf-8", errors="replace")
        name, sep, message = text.partition(": ")
        cls = _error_by_name(name) if sep else None
        if cls is not None:
            raise cls(message)
        raise RemoteError(text)
    raise MalformedPayload(f"unexpected frame kind {kind:#x}")
