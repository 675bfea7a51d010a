"""Salted OpenTSDB row-key codec.

The row-key layout is the heart of the paper's §III-B finding.  An
unsalted OpenTSDB key is::

    [metric_uid 3B][base_time 4B][tagk 3B tagv 3B]...

where ``base_time`` is the timestamp rounded down to the hour and the
per-second offset lives in the 2-byte column qualifier.  Because HBase
shards by lexicographic key ranges, *concurrent* writes (same metric,
similar timestamps) share a key prefix and land on one RegionServer —
the hot-spotting the paper hit.  The fix is a salt byte prepended to
the key::

    [salt 1B][metric_uid 3B][base_time 4B][tagk 3B tagv 3B]...

The paper salts with "a uniformly randomly generated byte".  We salt
with a hash of the unsalted key instead: the distribution across
buckets is equally uniform, but the mapping is deterministic, so a
series is findable at read time by scanning each bucket — the approach
OpenTSDB 2.2 itself adopted when it productised salting.  This
substitution is recorded in DESIGN.md.

A codec with ``salt_buckets=0`` reproduces the pathological unsalted
layout for the E6 ablation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..hbase.bytescodec import (
    decode_u16,
    decode_u32,
    encode_u16,
    encode_u32,
    encode_u8,
)

__all__ = [
    "RowKeyCodec",
    "DecodedKey",
    "ROW_SPAN_SECONDS",
    "TIMESTAMP_LIMIT",
    "QUALIFIER_TABLE",
]

ROW_SPAN_SECONDS = 3600  # one row per series per hour, as in OpenTSDB
#: Timestamps are ``0 <= t < TIMESTAMP_LIMIT``: the row key holds the
#: base time as an unsigned 32-bit second count.
TIMESTAMP_LIMIT = 1 << 32
_UID_WIDTH = 3
#: The one-byte salt prefix of every bucket, built once: a salted query
#: plans a range per bucket, and a prefix costs an index, not an encode.
_SALT_PREFIXES = tuple(bytes((bucket,)) for bucket in range(256))


@dataclass(frozen=True)
class DecodedKey:
    """Decoded form of one (row key, qualifier) pair."""

    salt: int  # -1 when the codec is unsalted
    metric_uid: bytes
    base_time: int
    tag_pairs: Tuple[Tuple[bytes, bytes], ...]
    offset: int  # seconds within the row span

    @property
    def timestamp(self) -> int:
        return self.base_time + self.offset


def _key_hash(data: bytes) -> int:
    """Deterministic 32-bit hash for salt-bucket assignment.

    CRC-32 runs in C and is stable across processes (unlike Python's
    salted ``hash``), so runs are reproducible and hashing millions of
    keys stays off the simulation's critical path.
    """
    return zlib.crc32(data)


#: All 3600 possible qualifiers by offset within the row span: a
#: point's qualifier is one list index instead of a struct pack.
QUALIFIER_TABLE: List[bytes] = [encode_u16(offset) for offset in range(ROW_SPAN_SECONDS)]


class RowKeyCodec:
    """Encode/decode TSDB points to HBase row keys + qualifiers.

    Parameters
    ----------
    salt_buckets:
        Number of salt buckets (0 disables salting).  One byte of salt
        supports up to 256 buckets; the paper used one byte, we default
        to 20 (≥ one per RegionServer at the paper's scale works well).
    """

    def __init__(self, salt_buckets: int = 20) -> None:
        if not 0 <= salt_buckets <= 256:
            raise ValueError("salt_buckets must be in [0, 256]")
        self.salt_buckets = salt_buckets

    @property
    def salted(self) -> bool:
        return self.salt_buckets > 0

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def encode_rowkeys(
        self,
        metric_uid: bytes,
        timestamps: Iterable[int],
        tag_pairs: Tuple[Tuple[bytes, bytes], ...],
    ) -> Tuple[List[bytes], List[bytes]]:
        """Encode a whole block's timestamp column for one series.

        The batch form is the single implementation (:meth:`encode`
        delegates here): series-level validation and the tag tail are
        paid once per call, the salt hash and row materialisation once
        per *distinct row hour* rather than once per point, and
        qualifiers come from a precomputed table.  Returns parallel
        ``(rows, qualifiers)`` lists.

        ``tag_pairs`` must already be sorted by tag-key UID (the
        :class:`~repro.tsdb.uid.UniqueIdRegistry` guarantees this).
        """
        if len(metric_uid) != _UID_WIDTH:
            raise ValueError("metric UID must be 3 bytes")
        tail = bytearray()
        for tagk, tagv in tag_pairs:
            if len(tagk) != _UID_WIDTH or len(tagv) != _UID_WIDTH:
                raise ValueError("tag UIDs must be 3 bytes")
            tail += tagk
            tail += tagv
        tail_bytes = bytes(tail)
        qual_table = QUALIFIER_TABLE
        salted, buckets = self.salted, self.salt_buckets
        rows: List[bytes] = []
        qualifiers: List[bytes] = []
        row_for_base: Dict[int, bytes] = {}
        for timestamp in timestamps:
            if timestamp < 0 or timestamp >= TIMESTAMP_LIMIT:
                raise ValueError("timestamp must fit in an unsigned 32-bit second count")
            base = timestamp - timestamp % ROW_SPAN_SECONDS
            row = row_for_base.get(base)
            if row is None:
                body = metric_uid + encode_u32(base) + tail_bytes
                if salted:
                    row = encode_u8(_key_hash(body) % buckets) + body
                else:
                    row = body
                row_for_base[base] = row
            rows.append(row)
            qualifiers.append(qual_table[timestamp - base])
        return rows, qualifiers

    def encode(
        self,
        metric_uid: bytes,
        timestamp: int,
        tag_pairs: Tuple[Tuple[bytes, bytes], ...],
    ) -> Tuple[bytes, bytes]:
        """Return ``(row_key, qualifier)`` for one data point.

        Point-wise shim over :meth:`encode_rowkeys` (one implementation,
        no forked logic).
        """
        rows, qualifiers = self.encode_rowkeys(metric_uid, (timestamp,), tag_pairs)
        return rows[0], qualifiers[0]

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------
    def _decode_row(
        self, row: bytes
    ) -> Tuple[int, bytes, int, Tuple[Tuple[bytes, bytes], ...]]:
        """Split a row key into ``(salt, metric_uid, base_time, tags)``."""
        pos = 0
        salt = -1
        if self.salted:
            salt = row[0]
            pos = 1
        metric_uid = row[pos : pos + _UID_WIDTH]
        pos += _UID_WIDTH
        base_time = decode_u32(row, pos)
        pos += 4
        rest = row[pos:]
        if len(rest) % (2 * _UID_WIDTH) != 0:
            raise ValueError("malformed row key: truncated tag pairs")
        tag_pairs = tuple(
            (rest[i : i + _UID_WIDTH], rest[i + _UID_WIDTH : i + 2 * _UID_WIDTH])
            for i in range(0, len(rest), 2 * _UID_WIDTH)
        )
        return salt, metric_uid, base_time, tag_pairs

    def decode(self, row: bytes, qualifier: bytes) -> DecodedKey:
        """Inverse of :meth:`encode` (also accepts compacted qualifiers' parts)."""
        salt, metric_uid, base_time, tag_pairs = self._decode_row(row)
        offset = decode_u16(qualifier)
        if offset >= ROW_SPAN_SECONDS:
            raise ValueError(f"qualifier offset {offset} outside row span")
        return DecodedKey(salt, metric_uid, base_time, tag_pairs, offset)

    def decode_rowkeys(
        self, rows: Sequence[bytes], qualifiers: Sequence[bytes]
    ) -> List[DecodedKey]:
        """Batch inverse of :meth:`encode_rowkeys`.

        Scans hand back long runs of cells sharing one row key; the row
        split is memoised per distinct key so each is parsed once.
        """
        decoded_rows: Dict[bytes, Tuple[int, bytes, int, Tuple[Tuple[bytes, bytes], ...]]] = {}
        out: List[DecodedKey] = []
        for row, qualifier in zip(rows, qualifiers):
            parts = decoded_rows.get(row)
            if parts is None:
                parts = decoded_rows[row] = self._decode_row(row)
            offset = decode_u16(qualifier)
            if offset >= ROW_SPAN_SECONDS:
                raise ValueError(f"qualifier offset {offset} outside row span")
            out.append(DecodedKey(parts[0], parts[1], parts[2], parts[3], offset))
        return out

    def series_id(self, row: bytes) -> bytes:
        """Salt-and-time-independent series identity (metric + tags).

        Two rows belong to the same logical time series iff their
        ``series_id`` matches.
        """
        pos = 1 if self.salted else 0
        metric = row[pos : pos + _UID_WIDTH]
        tags = row[pos + _UID_WIDTH + 4 :]
        return metric + tags

    # ------------------------------------------------------------------
    # scan planning
    # ------------------------------------------------------------------
    def scan_ranges(
        self,
        metric_uid: bytes,
        start_time: int,
        end_time: int,
    ) -> List[Tuple[bytes, bytes]]:
        """Row-key ranges covering ``[start_time, end_time)`` for a metric.

        With salting, one range per bucket (the read-side cost of the
        salt); unsalted, a single contiguous range.  Tag filtering
        happens post-scan because tags sit after the timestamp in the
        key.
        """
        if end_time <= start_time:
            raise ValueError("end_time must be after start_time")
        start_base = (start_time // ROW_SPAN_SECONDS) * ROW_SPAN_SECONDS
        end_base = ((end_time - 1) // ROW_SPAN_SECONDS) * ROW_SPAN_SECONDS + ROW_SPAN_SECONDS
        lo_body = metric_uid + encode_u32(start_base)
        hi_body = metric_uid + encode_u32(min(end_base, TIMESTAMP_LIMIT - 1))
        if not self.salted:
            return [(lo_body, hi_body)]
        return [
            (prefix + lo_body, prefix + hi_body)
            for prefix in _SALT_PREFIXES[: self.salt_buckets]
        ]

    def split_keys(self) -> List[bytes]:
        """Pre-split boundaries: one region per salt bucket.

        Mirrors the paper's manual region splitting "to ensure each
        region handled an equal proportion of the writes".  Returns an
        empty list when unsalted (nothing sensible to split on).
        """
        if not self.salted:
            return []
        return list(_SALT_PREFIXES[1 : self.salt_buckets])
