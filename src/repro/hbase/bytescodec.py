"""Byte-level codecs for row keys and values.

HBase orders rows lexicographically by their raw bytes, and OpenTSDB's
whole key design (metric UID + base timestamp + tag UIDs, optionally
salt-prefixed) depends on that ordering.  These helpers provide the
fixed-width big-endian encodings the row-key codec builds on.

All functions are pure and operate on :class:`bytes`.
"""

from __future__ import annotations

import struct
import sys
from array import array
from itertools import chain
from typing import Iterable, Iterator, Sequence

__all__ = [
    "encode_u8",
    "encode_u16",
    "encode_u24",
    "encode_u32",
    "decode_u16",
    "decode_u24",
    "decode_u32",
    "encode_f64",
    "encode_f64_column",
    "decode_f64",
    "concat",
]

_LITTLE_ENDIAN = sys.byteorder == "little"


def _check_range(value: int, bits: int) -> None:
    if not 0 <= value < (1 << bits):
        raise ValueError(f"value {value} out of range for u{bits}")


def encode_u8(value: int) -> bytes:
    """Encode an unsigned 8-bit integer, big-endian."""
    _check_range(value, 8)
    return bytes([value])


def encode_u16(value: int) -> bytes:
    """Encode an unsigned 16-bit integer, big-endian."""
    _check_range(value, 16)
    return struct.pack(">H", value)


def encode_u24(value: int) -> bytes:
    """Encode an unsigned 24-bit integer, big-endian.

    OpenTSDB uses 3-byte UIDs for metrics and tags; 24 bits covers
    ~16.7M distinct names.
    """
    _check_range(value, 24)
    return struct.pack(">I", value)[1:]


def encode_u32(value: int) -> bytes:
    """Encode an unsigned 32-bit integer, big-endian (Unix timestamps)."""
    _check_range(value, 32)
    return struct.pack(">I", value)


def decode_u16(data: bytes, offset: int = 0) -> int:
    """Decode a big-endian unsigned 16-bit integer at ``offset``."""
    return struct.unpack_from(">H", data, offset)[0]


def decode_u24(data: bytes, offset: int = 0) -> int:
    """Decode a big-endian unsigned 24-bit integer at ``offset``."""
    return int.from_bytes(data[offset : offset + 3], "big")


def decode_u32(data: bytes, offset: int = 0) -> int:
    """Decode a big-endian unsigned 32-bit integer at ``offset``."""
    return struct.unpack_from(">I", data, offset)[0]


def encode_f64(value: float) -> bytes:
    """Encode an IEEE-754 double, big-endian (TSDB cell values)."""
    return struct.pack(">d", value)


def encode_f64_column(values: Sequence[float]) -> Iterator[bytes]:
    """:func:`encode_f64` of every value of a column, in order.

    The column is copied into one ``array('d')``, byte-swapped to big
    endian in place, and cut into 8-byte cell values by
    ``struct.iter_unpack`` — no interpreted step and no float boxed per
    value.
    """
    column = array("d", values)
    if _LITTLE_ENDIAN:
        column.byteswap()
    return chain.from_iterable(struct.iter_unpack("8s", column.tobytes()))


def decode_f64(data: bytes, offset: int = 0) -> float:
    """Decode a big-endian IEEE-754 double at ``offset``."""
    return struct.unpack_from(">d", data, offset)[0]


def concat(parts: Iterable[bytes]) -> bytes:
    """Concatenate byte fragments into one key."""
    return b"".join(parts)


