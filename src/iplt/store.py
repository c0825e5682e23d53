"""Message-store persistence: the PLTS binary file format.

Layout: magic "PLTS" (4 bytes), version 0x01 (1 byte), q as 8-byte
little-endian, K and N as 4-byte little-endian each, then K*N entries as
8-byte little-endian values in row-major order.  Total size is exactly
21 + K*N*8 bytes; the loader rejects any size mismatch.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    BadMagic,
    EntryOutOfRange,
    ShapeError,
    TruncatedFile,
    VersionUnsupported,
)
from .field import check_field
from .matrix import FqMatrix

MAGIC = b"PLTS"
VERSION = 1
_HEADER = struct.Struct("<4sBQII")


@dataclass(frozen=True)
class MessageStore:
    """K messages of N field elements each, stored as a K x N matrix over GF(q)."""

    q: int
    K: int
    N: int
    X: FqMatrix

    def __post_init__(self):
        check_field(self.q)
        if self.X.q != self.q:
            raise ShapeError(f"matrix over GF({self.X.q}), store declares GF({self.q})")
        if self.X.rows != self.K or self.X.cols != self.N:
            raise ShapeError(
                f"matrix is {self.X.rows}x{self.X.cols}, store declares {self.K}x{self.N}"
            )

    @classmethod
    def random(cls, q: int, K: int, N: int, rng: random.Random) -> "MessageStore":
        """Uniform random store, deterministic under the given rng."""
        return cls(q=q, K=K, N=N, X=FqMatrix.random(q, K, N, rng))


def store_save(store: MessageStore, path) -> None:
    """Write the store to path in the PLTS format."""
    flat = [v for row in store.X.data for v in row]
    blob = _HEADER.pack(MAGIC, VERSION, store.q, store.K, store.N)
    blob += struct.pack(f"<{len(flat)}Q", *flat)
    Path(path).write_bytes(blob)


def store_load(path) -> MessageStore:
    """Read a store; raises on bad magic, version, size, or out-of-range entries."""
    data = Path(path).read_bytes()
    if len(data) >= 4 and data[:4] != MAGIC:
        raise BadMagic(f"expected magic {MAGIC!r}, got {data[:4]!r}")
    if len(data) < _HEADER.size:
        raise TruncatedFile(f"file has {len(data)} bytes, header needs {_HEADER.size}")
    _, version, q, k, n = _HEADER.unpack_from(data, 0)
    if version != VERSION:
        raise VersionUnsupported(f"version {version}, this reader supports {VERSION}")
    expected = _HEADER.size + k * n * 8
    if len(data) != expected:
        raise TruncatedFile(f"file has {len(data)} bytes, format requires {expected}")
    flat = struct.unpack_from(f"<{k * n}Q", data, _HEADER.size)
    for idx, v in enumerate(flat):
        if v >= q:
            raise EntryOutOfRange(
                f"entry {v} at byte offset {_HEADER.size + idx * 8} is not below q={q}"
            )
    rows = [list(flat[i * n : (i + 1) * n]) for i in range(k)]
    return MessageStore(q=q, K=k, N=n, X=FqMatrix(q, rows, cols=n))
