"""OpenTSDB telnet-style line protocol.

Real OpenTSDB ingests via a plain-text protocol::

    put <metric> <timestamp> <value> <tagk=tagv> [<tagk=tagv> ...]

This module parses and formats that wire format, so workloads can be
replayed from capture files and external producers can be emulated
byte-for-byte.  Validation follows OpenTSDB's rules: metric/tag names
are ``[A-Za-z0-9._/-]+``, at least one tag is required, timestamps are
integers (seconds) in ``[0, 2**32)`` — what a row key can hold — and
values are finite floats.

A line is a *series header* (the metric and the tag tail) and a
*sample* (timestamp and value), and there is one validator for each:
``_series_header`` and ``_sample``.  :func:`parse_put_line`,
:func:`parse_lines` (boxed :class:`DataPoint` objects, the
compatibility form) and :func:`parse_block` (columnar
:class:`~repro.tsdb.blocks.SeriesBlock` buffers, no per-point object)
are all built from those two, so validation cannot fork.  What differs
is how often the header validator runs: ``parse_block`` memoises it on
the header's wire text for the duration of one call, so a capture of N
lines over S series validates S headers and N samples.  The batch
parsers report the 1-based line number of a malformed line, and neither
discards the prefix parsed before the failure (``parse_lines`` has
already yielded it; ``parse_block`` attaches it to the error as
``partial``).
"""

from __future__ import annotations

import math
import re
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .blocks import TS_TYPECODE, VAL_TYPECODE, BlockBatch, SeriesBlock
from .rowkey import TIMESTAMP_LIMIT
from .tsd import DataPoint

__all__ = [
    "LineProtocolError",
    "parse_put_line",
    "format_put_line",
    "parse_lines",
    "parse_block",
]

_NAME_RE = re.compile(r"^[A-Za-z0-9._/\-]+$")

Tags = Tuple[Tuple[str, str], ...]


class LineProtocolError(ValueError):
    """A malformed protocol line (the offending line is in the message).

    When raised by the batch parsers the error also carries
    ``line_number`` — the 1-based position of the offending line in the
    input stream — and, for :func:`parse_block`, ``partial``: the
    :class:`BlockBatch` assembled from every line *before* the failure,
    so callers can ingest the good prefix and resume after the poison
    line.
    """

    def __init__(
        self,
        message: str,
        *,
        line_number: Optional[int] = None,
        partial: Optional["BlockBatch"] = None,
    ) -> None:
        super().__init__(message)
        self.line_number = line_number
        self.partial = partial


_NOT_A_PUT = "expected 'put <metric> <ts> <value> <tag=value>...'"


def _malformed(problem: str, line: str) -> LineProtocolError:
    return LineProtocolError(f"{problem} in line: {line.strip()!r}")


def _check_name(name: str, what: str, line: str) -> None:
    if not _NAME_RE.match(name):
        raise _malformed(f"invalid {what} {name!r}", line)


def _series_header(metric: str, tag_tail: str, line: str) -> Tuple[str, Tags]:
    """Validate a line's series header into ``(metric, sorted_tags)``.

    The one header validator: everything about a line that depends only
    on its series (name syntax, tag syntax, duplicate keys, tag order).
    """
    _check_name(metric, "metric", line)
    tags: Dict[str, str] = {}
    for pair in tag_tail.split():
        key, sep, val = pair.partition("=")
        if not sep or not key or not val:
            raise _malformed(f"invalid tag {pair!r}", line)
        _check_name(key, "tag key", line)
        _check_name(val, "tag value", line)
        if key in tags:
            raise _malformed(f"duplicate tag {key!r}", line)
        tags[key] = val
    return metric, tuple(sorted(tags.items()))


def _sample(ts_raw: str, value_raw: str, line: str) -> Tuple[int, float]:
    """Validate a line's sample into ``(timestamp, value)``.

    The one sample validator, run on every line: a timestamp the row
    key cannot hold is rejected here, with the line that carried it,
    rather than deep inside the write path.
    """
    try:
        timestamp = int(ts_raw)
    except ValueError:
        raise _malformed(f"invalid timestamp {ts_raw!r}", line) from None
    if timestamp < 0:
        raise _malformed("negative timestamp", line)
    if timestamp >= TIMESTAMP_LIMIT:
        raise _malformed(f"timestamp {ts_raw!r} does not fit in 32 bits", line)
    try:
        value = float(value_raw)
    except ValueError:
        raise _malformed(f"invalid value {value_raw!r}", line) from None
    if not math.isfinite(value):
        raise _malformed("non-finite value", line)
    return timestamp, value


def _point(parts: List[str], line: str) -> DataPoint:
    """One boxed point from ``line.split(None, 4)`` of a non-blank line."""
    if len(parts) != 5 or parts[0] != "put":
        raise _malformed(_NOT_A_PUT, line)
    metric, tags = _series_header(parts[1], parts[4], line)
    timestamp, value = _sample(parts[2], parts[3], line)
    return DataPoint(metric, timestamp, value, tags)


def parse_put_line(line: str) -> DataPoint:
    """Parse one ``put`` line into a :class:`DataPoint`."""
    return _point(line.split(None, 4), line)


def format_put_line(point: DataPoint) -> str:
    """Format a :class:`DataPoint` as a ``put`` line.

    The exact inverse of :func:`parse_put_line`: the value is printed
    with ``repr``, the shortest text that parses back to the same
    float.  A non-finite value has no wire form the parser accepts and
    raises ``ValueError``.
    """
    if not math.isfinite(point.value):
        raise ValueError(f"cannot format non-finite value {point.value!r}")
    tags = " ".join(f"{k}={v}" for k, v in point.tags)
    return f"put {point.metric} {point.timestamp} {float(point.value)!r} {tags}"


def parse_lines(
    lines: Iterable[str], skip_errors: bool = False
) -> Iterator[DataPoint]:
    """Parse a stream of protocol lines, skipping blanks and comments.

    With ``skip_errors`` malformed lines are dropped (the real TSD logs
    and continues); otherwise :class:`LineProtocolError` propagates
    carrying the 1-based ``line_number``.  Points already yielded for
    the prefix before a malformed line are never retracted.
    """
    for lineno, line in enumerate(lines, 1):
        parts = line.split(None, 4)
        if not parts or parts[0][0] == "#":
            continue
        try:
            point = _point(parts, line)
        except LineProtocolError as exc:
            if skip_errors:
                continue
            raise LineProtocolError(f"line {lineno}: {exc}", line_number=lineno) from None
        yield point


def parse_block(lines: Iterable[str], skip_errors: bool = False) -> BlockBatch:
    """Parse protocol lines straight into columnar blocks.

    One :class:`SeriesBlock` per distinct ``(metric, tags)`` series,
    filled append-only with zero per-point boxing.  The series header
    is validated the first time its wire text is seen in this call and
    looked up after that, so a repeat line costs one split, the sample
    validator and two appends.  On a malformed line (and
    ``skip_errors=False``) the raised :class:`LineProtocolError` carries
    ``line_number`` and ``partial`` — the batch parsed so far — so the
    good prefix survives the poison line.
    """
    # series -> its columns, in order of first good line; and the memo
    # over it: (metric text, tag-tail text) -> the same columns.  Both
    # die with the call, and the memo holds at most one entry per
    # distinct header spelling in ``lines``.
    columns: Dict[Tuple[str, Tags], Tuple[array, array]] = {}
    by_header: Dict[Tuple[str, str], Tuple[array, array]] = {}
    for lineno, line in enumerate(lines, 1):
        parts = line.split(None, 4)
        try:
            if len(parts) != 5 or parts[0] != "put":
                if not parts or parts[0][0] == "#":
                    continue
                raise _malformed(_NOT_A_PUT, line)
            _, metric, ts_raw, value_raw, tag_tail = parts
            cols = by_header.get((metric, tag_tail))
            if cols is None:
                series = _series_header(metric, tag_tail, line)
            timestamp, value = _sample(ts_raw, value_raw, line)
            if cols is None:
                # A series exists from its first *good* line on, as it
                # does for parse_lines' consumers.
                cols = columns.get(series)
                if cols is None:
                    cols = columns[series] = (array(TS_TYPECODE), array(VAL_TYPECODE))
                by_header[(metric, tag_tail)] = cols
        except LineProtocolError as exc:
            if skip_errors:
                continue
            raise LineProtocolError(
                f"line {lineno}: {exc}",
                line_number=lineno,
                partial=_finish_block_batch(columns),
            ) from None
        cols[0].append(timestamp)
        cols[1].append(value)
    return _finish_block_batch(columns)


def _finish_block_batch(
    columns: Dict[Tuple[str, Tags], Tuple[array, array]]
) -> BlockBatch:
    return BlockBatch(
        [
            SeriesBlock(metric, tags, ts, vals)
            for (metric, tags), (ts, vals) in columns.items()
        ]
    )
