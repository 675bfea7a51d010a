"""TTL retention: compaction-integrated expiry over tombstoned row-hours.

The raw *floor* of a metric is the timestamp below which raw cells
have been expired.  It only ever advances, in whole row-hours
(:data:`~repro.tsdb.rowkey.ROW_SPAN_SECONDS` alignment, so expiry
drops whole storage rows), and it is clamped to the most conservative
rollup watermark: a raw row-hour is never expired before *every* tier
has materialized it, which is what guarantees each raw point enters
each tier's materialization exactly once.

Expired points are counted *before* the tombstone lands, by reading
the still-visible cells through the raw query path — so the count is
deduplicated (newest-wins) and blob-aware, and the conservation
identity

    ingested == live raw + expired + too-late drops

is checkable by scanning at any moment.  Writes that arrive *below*
the floor ("too late": their raw row-hour is already gone and their
rollup windows are frozen) are re-deleted through the same tombstone
path and counted as ``too_late_drops`` — never re-materialized, since
recomputing a partially-expired window would lose the expired points.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from ..tsdb.query import QueryEngine, TsdbQuery
from ..tsdb.rowkey import ROW_SPAN_SECONDS
from ..tsdb.tsd import DATA_TABLE
from ..tsdb.uid import UnknownUidError
from .tiers import ROLLUP_COLUMNS, LifecyclePolicy, rollup_metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.metrics import MetricsRegistry
    from ..tsdb.ingest import TsdbCluster

__all__ = ["RetentionManager"]

#: An expired span handed to expiry listeners: (metric, start, end).
ExpiredSpan = Tuple[str, int, int]


def _span_floor(ts: int) -> int:
    return (ts // ROW_SPAN_SECONDS) * ROW_SPAN_SECONDS


class RetentionManager:
    """Advances per-metric retention floors and applies tombstone deletes."""

    def __init__(
        self,
        cluster: "TsdbCluster",
        policy: LifecyclePolicy,
        metrics: "MetricsRegistry",
        min_watermark: Callable[[str], int],
        high_water: Callable[[str], int],
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.metrics = metrics
        self._min_watermark = min_watermark
        self._high_water = high_water
        self._engine = QueryEngine(cluster.master, cluster.uids, cluster.codec)
        self._raw_floor: Dict[str, int] = {}
        self._tier_floor: Dict[Tuple[str, str], int] = {}
        self.expired_raw_points: Dict[str, int] = {}
        self.expired_tier_points: Dict[str, int] = {}
        self.too_late_drops: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # floors (the router and rollup engine read these)
    # ------------------------------------------------------------------
    def raw_floor(self, metric: str) -> int:
        """Raw cells below this timestamp are expired (0 = nothing yet)."""
        return self._raw_floor.get(metric, 0)

    def tier_floor(self, metric: str, label: str) -> int:
        """Tier points below this timestamp are expired (0 = nothing yet)."""
        return self._tier_floor.get((metric, label), 0)

    # ------------------------------------------------------------------
    # expiry
    # ------------------------------------------------------------------
    def expire(self, managed: Tuple[str, ...]) -> List[ExpiredSpan]:
        """Advance every floor its TTL allows; tombstone what fell below.

        "Now" is the per-metric data high-water mark, not the wall
        clock, so expiry is deterministic and replays bit-identically.
        Returns the expired spans so the manager can notify serving
        caches.
        """
        spans: List[ExpiredSpan] = []
        for metric in managed:
            hwm = self._high_water(metric)
            if hwm < 0:
                continue
            spans.extend(self._expire_raw(metric, hwm))
            spans.extend(self._expire_tiers(metric, hwm))
        return spans

    def _expire_raw(self, metric: str, hwm: int) -> List[ExpiredSpan]:
        if self.policy.raw_ttl is None:
            return []
        old = self.raw_floor(metric)
        target = _span_floor(hwm - self.policy.raw_ttl)
        # Never overtake a tier watermark: raw feeds every tier exactly
        # once, so it must survive until all tiers have passed it.
        target = min(target, _span_floor(self._min_watermark(metric)))
        if target <= old:
            return []
        expired = self._visible_points(metric, old, target)
        self._delete_rows(metric, old, target)
        self._raw_floor[metric] = target
        if expired:
            self.expired_raw_points[metric] = (
                self.expired_raw_points.get(metric, 0) + expired
            )
            self.metrics.counter("lifecycle.expired.raw_points").inc(expired)
        return [(metric, old, target)]

    def _expire_tiers(self, metric: str, hwm: int) -> List[ExpiredSpan]:
        spans: List[ExpiredSpan] = []
        for tier in self.policy.tiers:
            if tier.ttl is None:
                continue
            key = (metric, tier.label)
            old = self._tier_floor.get(key, 0)
            target = _span_floor(hwm - tier.ttl)
            if target <= old:
                continue
            expired = 0
            for column in ROLLUP_COLUMNS:
                name = rollup_metric(column, tier.label, metric)
                expired += self._visible_points(name, old, target)
                self._delete_rows(name, old, target)
                spans.append((name, old, target))
            self._tier_floor[key] = target
            if expired:
                self.expired_tier_points[metric] = (
                    self.expired_tier_points.get(metric, 0) + expired
                )
                self.metrics.counter("lifecycle.expired.tier_points").inc(expired)
            # Tier-served results are cached under the raw metric name.
            spans.append((metric, old, target))
        return spans

    # ------------------------------------------------------------------
    # too-late drops
    # ------------------------------------------------------------------
    def drop_too_late(self, metric: str) -> int:
        """Re-delete anything that landed below the raw floor.

        Called when the write listener sees a span dipping below the
        floor.  The tombstone carries a fresh logical timestamp, so it
        masks exactly the newly-landed cells; the return value counts
        them (cells already expired are invisible and count zero, which
        keeps the accounting idempotent across the double write
        notification).
        """
        floor = self.raw_floor(metric)
        if floor <= 0:
            return 0
        dropped = self._delete_rows(metric, 0, floor)
        if dropped:
            self.too_late_drops[metric] = (
                self.too_late_drops.get(metric, 0) + dropped
            )
            self.metrics.counter("lifecycle.too_late_drops").inc(dropped)
        return dropped

    # ------------------------------------------------------------------
    # probes and internals
    # ------------------------------------------------------------------
    def live_points(self, metric: str, start: int, end: int) -> int:
        """Deduplicated visible raw points in ``[start, end)`` (scan probe)."""
        return self._visible_points(metric, start, end)

    def _visible_points(self, metric: str, start: int, end: int) -> int:
        if end <= start:
            return 0
        return sum(
            len(s) for s in self._engine.series_for(TsdbQuery(metric, start, end))
        )

    def _delete_rows(self, metric: str, start: int, end: int) -> int:
        """Tombstone every storage row of ``metric`` in ``[start, end)``."""
        if end <= start:
            return 0
        try:
            uid = self.cluster.uids.get("metric", metric)
        except UnknownUidError:
            return 0
        ts = self.cluster.next_write_ts()
        masked = 0
        for lo, hi in self.cluster.codec.scan_ranges(uid, start, end):
            masked += self.cluster.master.direct_delete_range(DATA_TABLE, lo, hi, ts)
        return masked
