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

The server side only ever touches the query and the stored matrix, and
serves a read-only store.  serve() binds it and starts serving; close(),
or leaving it as a context manager, stops it at once, and wait() blocks
until then.  One thread accepts, waiting in a selector that close() wakes,
and each connection gets a thread of its own.  That thread answers the
connection's frames one after another until the client closes it, an
error frame is sent, or a frame misses its deadline: all of the frame must
arrive within _IDLE_TIMEOUT_S seconds of when the thread starts waiting
for it, however the client paces its bytes.  The server reads the
length, the kind and the 28-byte query header first, and refuses a wrong
kind, a query whose q or K differs from the store's, or a size that does
not fit the header before it reads the rest of the frame.

fetch keeps one idle connection per endpoint, for the _MAX_KEPT endpoints
it used last, and sends the next query over it.  If the server closed that
connection before any reply byte, the same encoded bytes are sent once
more on a new connection; a new query is never built for the retry.  A
forked child starts with no kept connection, and the kept connections
are closed at exit.
"""

from __future__ import annotations

import atexit
import json
import os
import selectors
import socket
import struct
import threading
import time
import traceback

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
    """Human-inspectable JSON rendering of a query, laid out as the wire
    payload carries it: the decoy blocks, the trailing block and pi.  The
    binary format is the contract."""
    doc = {
        "kind": "query",
        "q": query.q,
        "K": len(query.pi),
        "blocks": [blk.to_rows() for blk in query.blocks],
        "trailing": query.trailing.to_rows(),
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


class AnswerServer:
    """TCP server over a read-only store, serving from the moment it is
    made until close(): one accept thread, and one thread per connection."""

    def __init__(self, store: MessageStore, endpoint: str):
        self.store = store
        self._listener = socket.create_server(parse_endpoint(endpoint))
        self._listener.setblocking(False)  # accept raises, not waits, if the client left
        host, port = self._listener.getsockname()[:2]
        self.endpoint = f"{host}:{port}"
        self._lock = threading.Lock()  # guards the live connections and the counters
        self._live: dict[socket.socket, threading.Thread] = {}
        self._closing = False
        self._closed = threading.Event()
        self._connections = 0
        self._requests = 0
        self._errors: dict[str, int] = {}
        self._wake, self._waker = socket.socketpair()  # close() writes one byte to _waker
        self._accepter = threading.Thread(target=self._accept_connections, daemon=True)
        self._accepter.start()

    def stats(self) -> dict:
        """Connections accepted, requests answered, and errors by exception
        name; nothing from a query's contents is recorded."""
        with self._lock:
            return {
                "connections": self._connections,
                "requests": self._requests,
                "errors": dict(self._errors),
            }

    def wait(self) -> None:
        """Block until the server is closed."""
        self._closed.wait()

    def close(self) -> None:
        """Stop accepting, shut down every live connection, and return once
        the threads answering them have stopped; later calls return at once."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
        self._waker.send(b"\0")
        self._accepter.join()  # after this, no connection is added to _live
        for sock in (self._listener, self._wake, self._waker):
            sock.close()
        with self._lock:
            live = list(self._live.items())
        for conn, _ in live:
            try:
                # Wakes the thread waiting on it for the next frame.
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for _, thread in live:
            if thread is not threading.current_thread():
                thread.join()
        self._closed.set()

    def __enter__(self) -> AnswerServer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _accept_connections(self) -> None:
        """Start a thread for each connection until close() wakes the selector."""
        with selectors.DefaultSelector() as selector:
            selector.register(self._listener, selectors.EVENT_READ)
            selector.register(self._wake, selectors.EVENT_READ)
            while True:
                for key, _ in selector.select():
                    if key.fileobj is self._wake:
                        return
                    try:
                        conn, _ = self._listener.accept()
                    except OSError:
                        continue  # the client went away before it was accepted
                    thread = threading.Thread(
                        target=self._serve_connection, args=(conn,), daemon=True
                    )
                    with self._lock:
                        self._live[conn] = thread
                        self._connections += 1
                    thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer one connection's frames, then close it."""
        try:
            self._answer_frames(conn)
        except Exception as exc:  # a fault in this program
            self._count_error(exc)
            # Printed here, not by threading.excepthook, so close(), which
            # joins only the live connections' threads, waits for it.
            traceback.print_exc()
        finally:
            with self._lock:
                self._live.pop(conn, None)
            conn.close()

    def _answer_frames(self, conn: socket.socket) -> None:
        """Answer frames until EOF, an error frame, or a missed deadline."""
        while True:
            deadline = time.monotonic() + _IDLE_TIMEOUT_S
            conn.settimeout(_IDLE_TIMEOUT_S)
            try:
                if not conn.recv(1, socket.MSG_PEEK):
                    return  # the client closed the connection between frames
            except OSError:
                return  # idle past the deadline, or reset between frames
            try:
                y = self._read_and_answer(conn, deadline)
                # The reads left the socket timeout at what remained of the deadline.
                conn.settimeout(_IDLE_TIMEOUT_S)
                send_frame(conn, KIND_ANSWER, encode_answer(y))
            except IpltError as exc:
                self._count_error(exc)
                self._reply_error(conn, exc)
                return
            except OSError as exc:  # the frame missed its deadline, or the client reset
                self._count_error(exc)
                return
            with self._lock:
                self._requests += 1

    def _read_and_answer(self, conn: socket.socket, deadline: float) -> FqMatrix:
        """Read one query frame, all of it by the deadline, and answer it.

        A wrong kind, a query for another store, or a size that does not
        fit the header is refused before the rest of the frame is read:
        a client may declare up to 64 MiB, and decoding costs far more
        memory than the payload it reads.
        """
        length = _recv_length(conn, deadline)
        # The kind byte and the query header, or the whole frame if shorter.
        first = _recv_exact(conn, min(length, 1 + _QUERY_HEAD.size), deadline)
        if first[0] != KIND_QUERY:
            raise MalformedPayload(f"unexpected frame kind {first[0]:#x}")
        head, size = first[1:], length - 1
        q, k, _, _ = _query_layout(head, size)
        store = self.store
        if q != store.q:
            raise ShapeError(f"query over GF({q}), store over GF({store.q})")
        if k != store.K:
            raise ShapeError(f"store has {store.K} messages, query expects {k}")
        payload = head + _recv_exact(conn, size - len(head), deadline)
        return answer(decode_query(payload), store.X)

    def _reply_error(self, conn: socket.socket, exc: Exception) -> None:
        text = f"{type(exc).__name__}: {exc}"
        conn.settimeout(_IDLE_TIMEOUT_S)
        try:
            send_frame(conn, KIND_ERROR, text.encode("utf-8"))
        except OSError:
            pass

    def _count_error(self, exc: BaseException) -> None:
        name = type(exc).__name__
        with self._lock:
            self._errors[name] = self._errors.get(name, 0) + 1


def serve(store: MessageStore, endpoint: str) -> AnswerServer:
    """Bind an answer server to the endpoint and start serving; close() it,
    or leave it as a context manager, to stop it."""
    return AnswerServer(store, endpoint)


# -- client -----------------------------------------------------------------

# At most one idle connection per (host, port), kept for the next fetch,
# for the _MAX_KEPT endpoints used last: the dict is in order of last use.
_MAX_KEPT = 8
_kept: dict[tuple[str, int], socket.socket] = {}
_kept_lock = threading.Lock()


def _forget_kept() -> None:
    """Close and drop the kept connections: in a forked child, so that only
    the parent sends on the ones it shares with it (closing the child's
    copy leaves the parent's connection open), and at exit, so that none
    is left to the garbage collector."""
    global _kept_lock
    _kept_lock = threading.Lock()  # another thread may have held it at the fork
    for sock in _kept.values():
        sock.close()
    _kept.clear()


os.register_at_fork(after_in_child=_forget_kept)
atexit.register(_forget_kept)


def _error_by_name(name: str):
    cls = getattr(_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, IpltError):
        return cls
    return None


def _send_query(sock: socket.socket, payload: bytes) -> None:
    try:
        send_frame(sock, KIND_QUERY, payload)
    except (BrokenPipeError, ConnectionResetError):
        # The server may refuse a query from its header and close
        # before the body is sent; its error frame is still readable.
        pass


def _dropped(sock: socket.socket) -> bool:
    """Wait for the reply's first byte; True if the server closed or reset
    the connection before sending it."""
    try:
        return not sock.recv(1, socket.MSG_PEEK)
    except ConnectionError:
        return True


def _round_trip(
    addr: tuple[str, int], payload: bytes, timeout: float
) -> tuple[socket.socket, int, bytes]:
    """Send the query frame and read one reply frame, over the endpoint's
    kept connection if there is one.  Returns the connection, which the
    caller then owns, with the reply's kind and payload."""
    with _kept_lock:
        sock = _kept.pop(addr, None)
    kept = sock is not None
    if not kept:
        sock = socket.create_connection(addr, timeout=timeout)
    try:
        sock.settimeout(timeout)
        _send_query(sock, payload)
        if kept and _dropped(sock):
            # The server closed the kept connection before it replied (its
            # idle timeout, a restart).  Resend the same bytes, once, on a
            # new connection: a new query would give the server a second
            # view of the same demand.
            sock.close()
            sock = socket.create_connection(addr, timeout=timeout)
            _send_query(sock, payload)
        return (sock, *recv_frame(sock))
    except BaseException:
        sock.close()
        raise


def fetch(endpoint: str, query: Query, timeout: float = 30.0) -> FqMatrix:
    """Send one query to a server and return its decoded answer matrix Y.

    The connection is kept for the endpoint's next fetch after an answer,
    and closed after anything else; a kept connection that the server
    closed before replying is replaced once, by a new connection carrying
    the same bytes.  An error frame is re-raised as the matching package
    exception when the server named one (e.g. ShapeError), otherwise as
    RemoteError.
    """
    addr = parse_endpoint(endpoint)
    sock, kind, payload = _round_trip(addr, encode_query(query), timeout)
    if kind == KIND_ANSWER:
        try:
            y = decode_answer(payload, query.q)
        except BaseException:
            sock.close()
            raise
        with _kept_lock:
            kept = _kept.setdefault(addr, sock)
            if len(_kept) > _MAX_KEPT:
                _kept.pop(next(iter(_kept))).close()  # the endpoint used least recently
        if kept is not sock:
            sock.close()  # another fetch kept its connection first
        return y
    sock.close()
    if kind == KIND_ERROR:
        text = payload.decode("utf-8", errors="replace")
        name, sep, message = text.partition(": ")
        cls = _error_by_name(name) if sep else None
        if cls is not None:
            raise cls(message)
        raise RemoteError(text)
    raise MalformedPayload(f"unexpected frame kind {kind:#x}")
