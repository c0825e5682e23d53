"""Length-prefixed binary framing and the TCP answer service.

Frame: 4-byte little-endian length (payload size + 1), 1 kind byte
(0x01 query, 0x02 answer, 0xFF error), then the payload.  Query payload:
q (8 LE) + K (4 LE) + rows (4 LE) + generator entries row-major (8 LE each)
+ the permutation as K 4-byte LE values.  Answer payload: rows (4 LE) +
N (4 LE) + entries (8 LE each).  Frames above 64 MiB are rejected.

The server side only ever touches the query and the stored matrix; one
request per connection, handled concurrently over a read-only store.
"""

from __future__ import annotations

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
from .protocol import Answer, Query, answer
from .store import MessageStore

KIND_QUERY = 0x01
KIND_ANSWER = 0x02
KIND_ERROR = 0xFF
MAX_FRAME = 64 * 1024 * 1024

_QUERY_HEAD = struct.Struct("<QII")
_ANSWER_HEAD = struct.Struct("<II")


# -- payload codecs ---------------------------------------------------------


def encode_query(query: Query) -> bytes:
    """Serialize (G, pi); the field order is carried in the payload."""
    g = query.G
    k = len(query.pi)
    flat = [v for row in g.data for v in row]
    parts = [_QUERY_HEAD.pack(g.q, k, g.rows)]
    if flat:
        parts.append(struct.pack(f"<{len(flat)}Q", *flat))
    parts.append(struct.pack(f"<{k}I", *query.pi))
    return b"".join(parts)


def decode_query(payload: bytes) -> Query:
    """Parse and validate a query payload; offsets name the failing byte."""
    if len(payload) < _QUERY_HEAD.size:
        raise MalformedPayload(
            f"query payload has {len(payload)} bytes, header needs {_QUERY_HEAD.size}"
        )
    q, k, rows = _QUERY_HEAD.unpack_from(payload, 0)
    if q < 2 or q > 2**31:
        raise MalformedPayload(f"field order {q} out of range at offset 0")
    if k == 0:
        raise MalformedPayload("zero message count at offset 8")
    expected = _QUERY_HEAD.size + rows * k * 8 + k * 4
    if len(payload) != expected:
        raise MalformedPayload(
            f"query payload has {len(payload)} bytes, structure requires {expected}"
        )
    flat = struct.unpack_from(f"<{rows * k}Q", payload, _QUERY_HEAD.size)
    for idx, v in enumerate(flat):
        if v >= q:
            raise MalformedPayload(
                f"generator entry {v} at offset {_QUERY_HEAD.size + idx * 8} "
                f"is not below q={q}"
            )
    pi_off = _QUERY_HEAD.size + rows * k * 8
    pi = struct.unpack_from(f"<{k}I", payload, pi_off)
    seen = set()
    for idx, p in enumerate(pi):
        off = pi_off + idx * 4
        if p >= k:
            raise MalformedPayload(f"permutation value {p} at offset {off} exceeds K-1")
        if p in seen:
            raise MalformedPayload(f"duplicate permutation value {p} at offset {off}")
        seen.add(p)
    g_rows = [list(flat[i * k : (i + 1) * k]) for i in range(rows)]
    return Query(G=FqMatrix(q, g_rows, cols=k), pi=tuple(pi))


def encode_answer(ans: Answer) -> bytes:
    """Serialize the answer matrix."""
    y = ans.Y
    flat = [v for row in y.data for v in row]
    head = _ANSWER_HEAD.pack(y.rows, y.cols)
    if flat:
        return head + struct.pack(f"<{len(flat)}Q", *flat)
    return head


def decode_answer(payload: bytes, q: int) -> Answer:
    """Parse an answer payload over GF(q); offsets name the failing byte."""
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
    flat = struct.unpack_from(f"<{rows * n}Q", payload, _ANSWER_HEAD.size)
    for idx, v in enumerate(flat):
        if v >= q:
            raise MalformedPayload(
                f"answer entry {v} at offset {_ANSWER_HEAD.size + idx * 8} "
                f"is not below q={q}"
            )
    y_rows = [list(flat[i * n : (i + 1) * n]) for i in range(rows)]
    return Answer(Y=FqMatrix(q, y_rows, cols=n))


def to_debug_json(query: Query) -> str:
    """Human-inspectable JSON rendering of a query; the binary format is the contract."""
    doc = {
        "kind": "query",
        "q": query.G.q,
        "K": len(query.pi),
        "rows": query.G.rows,
        "G": [list(r) for r in query.G.data],
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
            query = decode_query(payload)
            store = self.server.store
            if query.G.q != store.q:
                raise ShapeError(
                    f"query over GF({query.G.q}), store over GF({store.q})"
                )
            ans = answer(query, store.X)
        except IpltError as exc:
            self._reply_error(exc)
            return
        send_frame(self.request, KIND_ANSWER, encode_answer(ans))

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
        """Serve on a daemon thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
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


def fetch(endpoint: str, query: Query, timeout: float = 30.0) -> Answer:
    """Send one query to a server and return its decoded answer.

    An error frame is re-raised as the matching package exception when the
    server named one (e.g. ShapeError), otherwise as RemoteError.
    """
    host, port = parse_endpoint(endpoint)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        send_frame(sock, KIND_QUERY, encode_query(query))
        kind, payload = recv_frame(sock)
    if kind == KIND_ANSWER:
        return decode_answer(payload, query.G.q)
    if kind == KIND_ERROR:
        text = payload.decode("utf-8", errors="replace")
        name, sep, message = text.partition(": ")
        cls = _error_by_name(name) if sep else None
        if cls is not None:
            raise cls(message)
        raise RemoteError(text)
    raise MalformedPayload(f"unexpected frame kind {kind:#x}")
