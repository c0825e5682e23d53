"""Message-store persistence: the PLTS binary file format.

Layout: magic "PLTS" (4 bytes), version 0x01 (1 byte), q as 8-byte
little-endian, K and N as 4-byte little-endian each, then K*N entries as
8-byte little-endian values in row-major order.  Total size is exactly
21 + K*N*8 bytes; the loader rejects any size mismatch, and K > 0
messages of N = 0 entries.
"""

from __future__ import annotations

import itertools
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


_ENTRY_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


def entry_width(bound: int) -> int:
    """Bytes per wire entry for values below bound: 1 up to 256, 2 up to
    65,536, and 4 beyond (the store file keeps 8)."""
    return 1 if bound <= 256 else 2 if bound <= 65536 else 4


def entry_format(count: int, width: int) -> str:
    """The struct format of count little-endian entries of width 1, 2, 4 or 8 bytes."""
    return f"<{count}{_ENTRY_CODES[width]}"


def pack_entries(m: FqMatrix, width: int = 8) -> bytes:
    """m's entries in row-major order, width bytes little-endian each."""
    return struct.pack(
        entry_format(m.rows * m.cols, width), *itertools.chain.from_iterable(m.data)
    )


def unpack_entries(
    data: bytes,
    offset: int,
    rows: int,
    cols: int,
    q: int,
    error: type,
    what: str,
    width: int = 8,
) -> FqMatrix:
    """Read a rows x cols matrix of little-endian entries, width (1, 2, 4
    or 8) bytes each, starting at offset.

    This is where decoded entries are checked: rows > 0 with cols == 0
    (rows read from no bytes at all) raises error, and so does the first
    entry that is not below q, naming the entry as what and giving its
    byte offset in data.
    """
    if rows and not cols:
        raise error(f"matrix of {rows} rows at byte offset {offset} has zero width")
    flat = struct.unpack_from(entry_format(rows * cols, width), data, offset)
    # Unpacked entries are nonnegative ints, so only the upper bound can fail.
    if flat and max(flat) >= q:
        idx = next(i for i, v in enumerate(flat) if v >= q)
        raise error(
            f"{what} {flat[idx]} at byte offset {offset + idx * width} is not below q={q}"
        )
    return FqMatrix._reduced(q, tuple(flat[i * cols : (i + 1) * cols] for i in range(rows)), cols)


def store_save(store: MessageStore, path) -> None:
    """Write the store to path in the PLTS format."""
    blob = _HEADER.pack(MAGIC, VERSION, store.q, store.K, store.N)
    Path(path).write_bytes(blob + pack_entries(store.X))


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
    x = unpack_entries(data, _HEADER.size, k, n, q, EntryOutOfRange, "entry")
    return MessageStore(q=q, K=k, N=n, X=x)
