"""Unique-ID registry for metric and tag names.

OpenTSDB never stores strings in row keys: every metric name, tag key
and tag value is interned to a fixed-width (3-byte) UID through the
``tsdb-uid`` table.  This registry reproduces that contract — stable
bidirectional mapping, width-checked, first-come-first-served
assignment — in process.

UIDs are assigned densely from 1 (0 is reserved) per *kind*, so a name
used in two kinds (e.g. a tag value equal to a metric name) gets
independent IDs, as in OpenTSDB.

The registry also hosts the write front end's *series memo*
(:meth:`UniqueIdRegistry.series_memo`): a real TSD keeps resolved UIDs
in memory for the same reason, and the registry is the one object every
TSD of a deployment already shares.  The read side's counterpart is the
*tag memo* (:meth:`UniqueIdRegistry.series_tags`): a series' decoded
tags, looked up by the series id a row key carries, so every query of a
deployment decodes a series' UIDs once between them.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, Tuple

from ..hbase.bytescodec import decode_u24, encode_u24

__all__ = ["UniqueIdRegistry", "SeriesKey", "UIDKind", "UnknownUidError"]

UIDKind = str  # one of "metric", "tagk", "tagv"

_KINDS = ("metric", "tagk", "tagv")

#: UID width in bytes (OpenTSDB's: ~16.7M names per kind); the u24
#: codec the registry encodes with is specialised for it.
UID_WIDTH = 3


class UnknownUidError(KeyError):
    """Resolution of a UID or name that was never assigned."""


class SeriesKey:
    """What the write path knows about one series after first sight.

    ``metric_uid`` and ``tag_pairs`` are the series' interned identity
    and never change (UIDs are never reassigned).  ``base`` and ``row``
    are the row hour the series last wrote to and that hour's row key:
    consecutive samples of a series fall in the same hour 3,599 times
    out of 3,600, so the next one needs only a qualifier.
    """

    __slots__ = ("metric_uid", "tag_pairs", "base", "row")

    def __init__(
        self, metric_uid: bytes, tag_pairs: Tuple[Tuple[bytes, bytes], ...]
    ) -> None:
        self.metric_uid = metric_uid
        self.tag_pairs = tag_pairs
        self.base = -1  # no timestamp has this base: nothing written yet
        self.row = b""


class _SeriesMemo(dict):
    """``(metric, tags) -> SeriesKey``, interning a series on first lookup.

    A hit is one C-level dict subscript.  A miss interns the names in
    first-sight order — the metric, then each tag key and value in the
    order ``tags`` lists them — which is the order the registry saw them
    in before there was a memo, so which name gets which UID does not
    depend on it.
    """

    def __init__(self, uids: "UniqueIdRegistry") -> None:
        super().__init__()
        self._uids = uids

    def __missing__(self, series: Tuple[str, Tuple[Tuple[str, str], ...]]) -> SeriesKey:
        metric, tags = series
        metric_uid = self._uids.get_or_create("metric", metric)
        key = self[series] = SeriesKey(metric_uid, self._uids.encode_tags(dict(tags)))
        return key


class UniqueIdRegistry:
    """Interning table for metric/tagk/tagv names, :data:`UID_WIDTH` bytes each."""

    def __init__(self) -> None:
        self._forward: Dict[UIDKind, Dict[str, int]] = {k: {} for k in _KINDS}
        self._reverse: Dict[UIDKind, Dict[int, str]] = {k: {} for k in _KINDS}
        self._next: Dict[UIDKind, int] = {k: 1 for k in _KINDS}
        # codec -> its series memo; see series_memo
        self._series_memos: Dict[Hashable, _SeriesMemo] = {}  # repro-lint: ignore[unbounded-cache] -- one entry per distinct series written, like the UID tables beside it; nothing invalidates it because UIDs are never reassigned
        # series id -> sorted tag tuple; see series_tags
        self._tag_memo: Dict[bytes, Tuple[Tuple[str, str], ...]] = {}  # repro-lint: ignore[unbounded-cache] -- one entry per distinct series read, at most one per series written; nothing invalidates it because UIDs are never reassigned

    def series_memo(self, codec: Hashable) -> Dict[Tuple[str, tuple], SeriesKey]:
        """The ``(metric, tags) -> SeriesKey`` memo of the TSDs encoding with ``codec``.

        Subscript it: a series never seen before is interned on the
        spot.  A :class:`SeriesKey` remembers a row key, and a row key
        depends on the codec that salted it as well as on this
        registry's UIDs, so there is one memo per codec writing through
        the registry — in a deployment, one: every TSD shares one
        registry and one codec.  It grows by one entry per distinct
        series written and is never invalidated, exactly like the UID
        tables.
        """
        memo = self._series_memos.get(codec)
        if memo is None:
            memo = self._series_memos[codec] = _SeriesMemo(self)
        return memo

    def series_tags(self, sid: bytes) -> Tuple[Tuple[str, str], ...]:
        """A series' tags, sorted by name, from its series id.

        ``sid`` is what :meth:`~repro.tsdb.rowkey.RowKeyCodec.series_id`
        cuts from a row key: the metric UID, then the tag-key/tag-value
        UID pairs.  The first lookup of a series decodes its UIDs; every
        later one, from any query of the deployment, is a dict hit.  The
        memo holds one entry per distinct series read and is never
        invalidated, exactly like the UID tables.
        """
        tags = self._tag_memo.get(sid)
        if tags is None:
            pair = 2 * UID_WIDTH
            pairs = tuple(
                (sid[i : i + UID_WIDTH], sid[i + UID_WIDTH : i + pair])
                for i in range(UID_WIDTH, len(sid), pair)
            )
            tags = self._tag_memo[sid] = tuple(sorted(self.decode_tags(pairs).items()))
        return tags

    def _check_kind(self, kind: UIDKind) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown UID kind {kind!r}; expected one of {_KINDS}")

    def get_or_create(self, kind: UIDKind, name: str) -> bytes:
        """Return the UID for ``name``, assigning a fresh one if needed."""
        self._check_kind(kind)
        if not name:
            raise ValueError("names must be non-empty")
        table = self._forward[kind]
        uid = table.get(name)
        if uid is None:
            uid = self._next[kind]
            if uid >= (1 << (8 * UID_WIDTH)):
                raise OverflowError(f"UID space exhausted for kind {kind!r}")
            self._next[kind] = uid + 1
            table[name] = uid
            self._reverse[kind][uid] = name
        return encode_u24(uid)

    def get(self, kind: UIDKind, name: str) -> bytes:
        """Return the UID for an existing name; raise if unassigned."""
        self._check_kind(kind)
        uid = self._forward[kind].get(name)
        if uid is None:
            raise UnknownUidError(f"{kind}:{name}")
        return encode_u24(uid)

    def resolve(self, kind: UIDKind, uid: bytes) -> str:
        """Inverse mapping: UID bytes back to the original name."""
        self._check_kind(kind)
        if len(uid) != UID_WIDTH:
            raise ValueError(f"UID must be {UID_WIDTH} bytes, got {len(uid)}")
        name = self._reverse[kind].get(decode_u24(uid))
        if name is None:
            raise UnknownUidError(f"{kind}:{uid.hex()}")
        return name

    def known(self, kind: UIDKind, name: str) -> bool:
        self._check_kind(kind)
        return name in self._forward[kind]

    def names(self, kind: UIDKind) -> Iterator[str]:
        self._check_kind(kind)
        return iter(self._forward[kind])

    def count(self, kind: UIDKind) -> int:
        self._check_kind(kind)
        return len(self._forward[kind])

    def encode_tags(self, tags: Dict[str, str]) -> Tuple[Tuple[bytes, bytes], ...]:
        """Intern a tag map into UID pairs, sorted by tag-key UID.

        OpenTSDB sorts tag pairs in the row key by tag-key UID so that a
        given series always produces the same key.
        """
        pairs = [
            (self.get_or_create("tagk", k), self.get_or_create("tagv", v))
            for k, v in tags.items()
        ]
        pairs.sort(key=lambda p: p[0])
        return tuple(pairs)

    def decode_tags(self, pairs: Tuple[Tuple[bytes, bytes], ...]) -> Dict[str, str]:
        """Inverse of :meth:`encode_tags`."""
        return {
            self.resolve("tagk", k): self.resolve("tagv", v) for k, v in pairs
        }
