"""Result cache for the query-serving gateway.

The cache sits between the dashboard's read traffic and the
:class:`~repro.tsdb.query.QueryEngine`.  Entries are keyed by a
**canonicalized** query (:func:`canonical_key`) so that queries which
are guaranteed to produce bit-identical results share one entry:

* tag filters are sorted (dict insertion order is not semantic);
* wildcard filter values are normalized to the engine's ``"*"``;
* ``group_by`` is deduplicated, and keys pinned by an exact
  (non-wildcard) tag filter are dropped — every matching series
  carries the same value for such a key, so grouping by it neither
  changes the partition nor the output order;
* the ``downsample_aggregator`` is normalized away when no downsample
  window is set (the engine never reads it then);
* the time window is carried on the downsample grid — ``(bucket,
  offset)`` pairs — so aligned dashboard polls produce stable keys
  while misaligned windows (whose partial edge buckets aggregate
  different raw points) can never collide with aligned ones.

Every normalization above is *exactness-preserving*: two queries map
to the same key **iff** the engine's ``group_and_aggregate`` (and the
scan-side window/tag filtering) is bit-identical for them.  This is
property-tested in ``tests/test_serve_properties.py``.

Eviction is LRU with a hard :data:`CAPACITY` bound plus per-entry TTL.
Expired entries are *not* dropped eagerly: they remain available for
**stale-while-revalidate** serving — the gateway may hand an expired
value to a client (stamped with its age) while a refresh executes, or
while the storage tier is down.

**Write-through invalidation** keeps warm entries coherent: the
ingest/publish paths notify the gateway of ``(metric, tags,
time-range)`` touches and :meth:`ResultCache.invalidate` evicts only
the entries whose canonical query could observe the touched points —
metric equal, windows overlapping, and the entry's tag filters
matching the touched tag set.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple

from ..tsdb.aggregation import Series
from ..tsdb.query import TsdbQuery

__all__ = [
    "CacheLookup",
    "CanonicalQuery",
    "ResultCache",
    "canonical_key",
    "result_etag",
]

#: The engine's wildcard filter value ("present with any value").
WILDCARD = "*"

#: Entries the cache holds before it evicts the least recently used.
CAPACITY = 512


class CanonicalQuery(NamedTuple):
    """Hashable canonical form of a :class:`~repro.tsdb.query.TsdbQuery`.

    ``window`` is ``(start_bucket, start_offset, end_bucket,
    end_offset)`` on the downsample grid (grid size 1 — i.e. the raw
    window — when the query does not downsample), so grid-aligned
    windows read as pure bucket indices with zero offsets.  A tuple, so
    that hashing and comparing a key on every cache probe run in C.
    """

    metric: str
    window: Tuple[int, int, int, int]
    filters: Tuple[Tuple[str, str], ...]
    group_by: Tuple[str, ...]
    aggregator: str
    downsample: Optional[Tuple[int, str]]
    rate: bool
    #: Serving source ("raw", a rollup tier label, or "pooled:<label>").
    #: Keyed so an answer computed from one source can never be served
    #: for a query the planner would now route elsewhere — tier
    #: coverage moves with watermarks and retention floors.
    tier: str


def canonical_key(query: TsdbQuery, tier: str = "raw") -> CanonicalQuery:
    """Canonicalize a query into its cache key.

    Total on every valid :class:`TsdbQuery`, and collision-free on
    semantics: two queries share a key iff the engine must return
    bit-identical results for them (see the module docstring for the
    individual normalizations and why each preserves exactness).
    ``tier`` stamps the serving source the planner chose, so tier-served
    and raw-served results live under distinct keys.
    """
    filters = tuple(sorted(query.tag_filters.items()))
    group_by: Tuple[str, ...] = ()
    if query.group_by:
        exact = {k for k, v in filters if v != WILDCARD}
        # dict.fromkeys deduplicates and keeps first-seen order.
        group_by = tuple(dict.fromkeys(k for k in query.group_by if k not in exact))
    step = query.downsample_window
    downsample = None if step is None else (step, query.downsample_aggregator)
    grid = step or 1
    start, end = query.start, query.end
    window = (start // grid, start % grid, end // grid, end % grid)
    return CanonicalQuery(
        query.metric, window, filters, group_by, query.aggregator, downsample, query.rate, tier
    )


def result_etag(series: Sequence[Series]) -> str:
    """Content hash of a result set (the gateway's ETag).

    Digest over the exact bytes a client would observe: per-series
    tags, the int64 timestamps and float64 values.  Two results carry
    the same etag iff they are bit-identical.
    """
    digest = hashlib.blake2b(digest_size=12)
    digest.update(str(len(series)).encode())
    for s in series:
        digest.update(repr(s.tags).encode())
        digest.update(s.timestamps.tobytes())
        digest.update(s.values.tobytes())
    return digest.hexdigest()


class _Entry:
    """One cached result with its freshness and coherence metadata."""

    __slots__ = ("value", "etag", "stored_at", "expires_at")

    def __init__(self, value: List[Series], etag: str, stored_at: float, expires_at: float) -> None:
        self.value = value
        self.etag = etag
        self.stored_at = stored_at
        self.expires_at = expires_at


class CacheLookup(NamedTuple):
    """Outcome of one cache probe.

    ``state`` is ``"fresh"``, ``"stale"`` (expired but retained for
    stale-while-revalidate) or ``"miss"``.  ``age`` is seconds since
    the entry was stored (0.0 on a miss).
    """

    state: str
    value: Optional[List[Series]]
    etag: Optional[str]
    age: float


_MISS = CacheLookup("miss", None, None, 0.0)


class ResultCache:
    """LRU + TTL result cache with write-through invalidation.

    The cache never consults a wall clock: callers pass ``now`` (the
    simulator clock in a deployment) so behaviour is deterministic.
    """

    def __init__(self, ttl: float) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.ttl = ttl
        # Bounded LRU: probes move entries to the MRU end, inserts
        # evict from the LRU end once past ``CAPACITY``.
        self._cache: "OrderedDict[CanonicalQuery, _Entry]" = OrderedDict()
        #: Keys with a revalidation currently executing (so a stampede
        #: of stale hits triggers exactly one refresh).
        self._refreshing: Set[CanonicalQuery] = set()
        self.hits = 0
        self.misses = 0
        self.stale_probes = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    # probing and filling
    # ------------------------------------------------------------------
    def get(self, key: CanonicalQuery, now: float) -> CacheLookup:
        """Probe the cache; expired entries surface as ``"stale"``."""
        entry = self._cache.get(key)
        if entry is None:
            self.misses += 1
            return _MISS
        self._cache.move_to_end(key)
        age = now - entry.stored_at
        if now < entry.expires_at:
            self.hits += 1
            return CacheLookup("fresh", list(entry.value), entry.etag, age)
        self.stale_probes += 1
        return CacheLookup("stale", list(entry.value), entry.etag, age)

    def put(self, key: CanonicalQuery, value: Sequence[Series], now: float) -> str:
        """Fill (or refresh) an entry; returns its etag."""
        etag = result_etag(value)
        self._cache[key] = _Entry(list(value), etag, now, now + self.ttl)
        self._cache.move_to_end(key)
        self._refreshing.discard(key)
        while len(self._cache) > CAPACITY:
            self._cache.popitem(last=False)
            self.evictions += 1
        return etag

    # ------------------------------------------------------------------
    # revalidation bookkeeping
    # ------------------------------------------------------------------
    def begin_refresh(self, key: CanonicalQuery) -> bool:
        """Claim the (single) refresh slot for a stale key.

        Returns True when this caller should revalidate; False when a
        refresh is already in flight.
        """
        if key in self._refreshing:
            return False
        self._refreshing.add(key)
        return True

    def abort_refresh(self, key: CanonicalQuery) -> None:
        """Release a refresh claim without filling (refresh failed)."""
        self._refreshing.discard(key)

    # ------------------------------------------------------------------
    # write-through invalidation
    # ------------------------------------------------------------------
    def invalidate(
        self,
        metric: str,
        tags: Mapping[str, str],
        t_min: int,
        t_max: int,
    ) -> int:
        """Evict every entry that could observe the touched points.

        A touch ``(metric, tags, [t_min, t_max])`` overlaps an entry
        when the metrics match, the touched range intersects the
        entry's half-open window, and the entry's tag filters accept
        the touched tag set (wildcards match any present value; a
        filter on a key absent from ``tags`` cannot match, so such
        entries are provably unaffected and survive).  Returns the
        number of entries evicted.
        """
        return self._evict([
            key
            for key in self._cache
            if key.metric == metric and self._overlaps(key, tags, t_min, t_max)
        ])

    def invalidate_range(self, metric: str, t_min: int, t_max: int) -> int:
        """Evict every entry of ``metric`` overlapping ``[t_min, t_max]``,
        regardless of tag filters.

        The retention path's eviction: expiry removes *every* series of
        a metric in the range, so tag-filter matching (which lets
        provably unaffected entries survive a write touch) does not
        apply.  Returns the number of entries evicted.
        """
        return self._evict([
            key
            for key in self._cache
            if key.metric == metric and self._window_overlaps(key, t_min, t_max)
        ])

    def _evict(self, doomed: List[CanonicalQuery]) -> int:
        for key in doomed:
            del self._cache[key]
        self.invalidations += len(doomed)
        return len(doomed)

    @staticmethod
    def _window_overlaps(key: CanonicalQuery, t_min: int, t_max: int) -> bool:
        grid = key.downsample[0] if key.downsample is not None else 1
        start = key.window[0] * grid + key.window[1]
        end = key.window[2] * grid + key.window[3]
        return not (t_max < start or t_min >= end)

    @staticmethod
    def _overlaps(
        key: CanonicalQuery, tags: Mapping[str, str], t_min: int, t_max: int
    ) -> bool:
        if not ResultCache._window_overlaps(key, t_min, t_max):
            return False
        for fk, fv in key.filters:
            actual = tags.get(fk)
            if actual is None:
                return False
            if fv != WILDCARD and actual != fv:
                return False
        return True

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Snapshot of the cache's own counters (telemetry feeds these)."""
        return {
            "size": len(self._cache),
            "hits": self.hits,
            "misses": self.misses,
            "stale_probes": self.stale_probes,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
