"""Length-prefixed binary framing and the TCP answer service.

Frame: 4-byte little-endian length (payload size + 1), 1 kind byte
(0x04 query, 0x05 answer, 0xFF error), then the payload.  Frames above
64 MiB are rejected.

Each entry takes entry_width(bound) bytes, little-endian: 1 byte for
values below bound <= 256, 2 for bound <= 65,536, and 4 beyond.  Query
payload: q, K, n, L, D, trailing rows and trailing cols (4 LE each), the
n decoy L x D blocks and then the trailing block, row-major at
entry_width(q) bytes per entry, and the permutation as K values of
entry_width(K) bytes.  Answer payload: rows (4 LE) + N (4 LE) + entries
at entry_width(q) bytes each; the client knows q, so no width is sent,
and rows > 0 with N = 0 is refused.
Earlier payloads (the dense v1 query, kind 0x01; the 4-byte block query,
kind 0x03; the 8-byte answer, kind 0x02) are refused as malformed.

The server side only ever touches the query and the stored matrix; one
request per connection, handled concurrently over a read-only store.  A
connection that has not delivered its whole query frame _IDLE_TIMEOUT_S
seconds after it was accepted is closed, however it paces its bytes.  The
server reads the length, the kind and the 28-byte query header first, and
refuses a wrong kind, a query whose q or K differs from the store's, or a
size that does not fit the header before it reads the rest of the frame.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
import time

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
from .store import MessageStore, entry_format, entry_width, pack_entries, unpack_entries

KIND_QUERY = 0x04
KIND_ANSWER = 0x05
KIND_ERROR = 0xFF
MAX_FRAME = 64 * 1024 * 1024
_BACKGROUND_POLL_S = 0.05
_IDLE_TIMEOUT_S = 30.0

_QUERY_HEAD = struct.Struct("<7I")
_ANSWER_HEAD = struct.Struct("<II")


# -- payload codecs ---------------------------------------------------------


def encode_query(query: Query) -> bytes:
    """Serialize the blocks and pi; the field order is carried in the payload."""
    blocks, trailing, q, k = query.blocks, query.trailing, query.q, len(query.pi)
    L, D = (blocks[0].rows, blocks[0].cols) if blocks else (0, 0)
    if any((blk.rows, blk.cols) != (L, D) for blk in blocks):
        raise ShapeError("decoy blocks differ in shape")
    width = entry_width(q)
    return b"".join(
        [
            _QUERY_HEAD.pack(q, k, len(blocks), L, D, trailing.rows, trailing.cols),
            *(pack_entries(blk, width) for blk in (*blocks, trailing)),
            struct.pack(entry_format(k, entry_width(k)), *query.pi),
        ]
    )


def _query_layout(head: bytes, size: int) -> tuple[int, int, list[tuple[int, int]], int]:
    """Validate a query header against the payload size without reading any
    entry; head holds at least the header.  Returns (q, K, block shapes,
    offset of pi)."""
    if size < _QUERY_HEAD.size:
        raise MalformedPayload(
            f"query payload has {size} bytes, header needs {_QUERY_HEAD.size}"
        )
    q, k, n, L, D, t_rows, t_cols = _QUERY_HEAD.unpack_from(head, 0)
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
    pi_off = _QUERY_HEAD.size + (n * L * D + t_rows * t_cols) * entry_width(q)
    expected = pi_off + k * entry_width(k)
    if size != expected:
        raise MalformedPayload(f"query payload has {size} bytes, structure requires {expected}")
    return q, k, [(L, D)] * n + [(t_rows, t_cols)], pi_off


def decode_query(payload: bytes) -> Query:
    """Parse and validate a query payload; offsets name the failing byte."""
    q, k, shapes, pi_off = _query_layout(payload, len(payload))
    width = entry_width(q)
    blocks = []
    off = _QUERY_HEAD.size
    for rows, cols in shapes:
        blocks.append(
            unpack_entries(payload, off, rows, cols, q, MalformedPayload, "generator entry", width)
        )
        off += rows * cols * width
    pi_width = entry_width(k)
    pi = struct.unpack_from(entry_format(k, pi_width), payload, pi_off)
    if not is_permutation(pi):
        seen = set()
        for idx, p in enumerate(pi):
            off = pi_off + idx * pi_width
            if p >= k:
                raise MalformedPayload(f"permutation value {p} at offset {off} exceeds K-1")
            if p in seen:
                raise MalformedPayload(f"duplicate permutation value {p} at offset {off}")
            seen.add(p)
    return Query(tuple(blocks[:-1]), blocks[-1], tuple(pi))


def encode_answer(y: FqMatrix) -> bytes:
    """Serialize the answer matrix Y, entry_width(q) bytes per entry."""
    return _ANSWER_HEAD.pack(y.rows, y.cols) + pack_entries(y, entry_width(y.q))


def decode_answer(payload: bytes, q: int) -> FqMatrix:
    """Parse an answer payload into the answer matrix Y over GF(q); offsets
    name the failing byte."""
    if len(payload) < _ANSWER_HEAD.size:
        raise MalformedPayload(
            f"answer payload has {len(payload)} bytes, header needs {_ANSWER_HEAD.size}"
        )
    rows, n = _ANSWER_HEAD.unpack_from(payload, 0)
    width = entry_width(q)
    expected = _ANSWER_HEAD.size + rows * n * width
    if len(payload) != expected:
        raise MalformedPayload(
            f"answer payload has {len(payload)} bytes, structure requires {expected}"
        )
    return unpack_entries(
        payload, _ANSWER_HEAD.size, rows, n, q, MalformedPayload, "answer entry", width
    )


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


def _recv_exact(sock: socket.socket, count: int, deadline: float | None = None) -> bytes:
    """Read exactly count bytes.  With a deadline (a time.monotonic() value)
    each read waits only for what is left of it, so the bytes must all
    arrive by then, or TimeoutError is raised."""
    chunks = []
    got = 0
    while got < count:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError(f"deadline passed after {got} of {count} bytes")
            sock.settimeout(left)
        chunk = sock.recv(min(65536, count - got))
        if not chunk:
            raise MalformedPayload(f"connection closed after {got} of {count} bytes")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def _recv_length(sock: socket.socket, deadline: float | None = None) -> int:
    """Read a frame's 4-byte length: the payload size plus the kind byte."""
    (length,) = struct.unpack("<I", _recv_exact(sock, 4, deadline))
    if length == 0:
        raise MalformedPayload("zero-length frame")
    if length > MAX_FRAME:
        raise FrameTooLarge(f"frame of {length} bytes exceeds cap {MAX_FRAME}")
    return length


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """Read one frame; returns (kind, payload)."""
    body = _recv_exact(sock, _recv_length(sock))
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
            y = self._read_and_answer(time.monotonic() + _IDLE_TIMEOUT_S)
        except TimeoutError:
            return  # the frame did not arrive in time; the server closes the connection
        except IpltError as exc:
            self._reply_error(exc)
            return
        # The reads left the socket timeout at what remained of the deadline.
        self.request.settimeout(_IDLE_TIMEOUT_S)
        send_frame(self.request, KIND_ANSWER, encode_answer(y))

    def _read_and_answer(self, deadline: float) -> FqMatrix:
        """Read one query frame, all of it by the deadline, and answer it.

        A wrong kind, a query for another store, or a size that does not
        fit the header is refused before the rest of the frame is read:
        a client may declare up to 64 MiB, and decoding costs far more
        memory than the payload it reads.
        """
        length = _recv_length(self.request, deadline)
        # The kind byte and the query header, or the whole frame if shorter.
        first = _recv_exact(self.request, min(length, 1 + _QUERY_HEAD.size), deadline)
        if first[0] != KIND_QUERY:
            raise MalformedPayload(f"unexpected frame kind {first[0]:#x}")
        head, size = first[1:], length - 1
        q, k, _, _ = _query_layout(head, size)
        store = self.server.store
        if q != store.q:
            raise ShapeError(f"query over GF({q}), store over GF({store.q})")
        if k != store.K:
            raise ShapeError(f"store has {store.K} messages, query expects {k}")
        payload = head + _recv_exact(self.request, size - len(head), deadline)
        return answer(decode_query(payload), store.X)

    def _reply_error(self, exc: Exception) -> None:
        text = f"{type(exc).__name__}: {exc}"
        self.request.settimeout(_IDLE_TIMEOUT_S)
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
        try:
            send_frame(sock, KIND_QUERY, encode_query(query))
        except (BrokenPipeError, ConnectionResetError):
            # The server may refuse a query from its header and close
            # before the body is sent; its error frame is still readable.
            pass
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
