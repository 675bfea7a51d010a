"""Continuous rollup materialization with per-tier watermarks.

Each managed metric/tier pair carries a *watermark*: the exclusive end
of the time range whose tier windows have been materialized.  Windows
are materialized by recomputation — the engine re-reads the raw cells
of a span of whole windows and reduces them with the window kernel the
query path's ``downsample`` is built on, one call for all four columns
of every series in the span — so materialization is idempotent:
re-running a window simply overwrites the four column points with
newer write timestamps (the storage layer's newest-wins rule does the
rest).

Out-of-order writes that land *behind* a watermark mark their windows
dirty; the next :meth:`RollupEngine.advance` re-materializes exactly
those windows (bounded backfill).  Dirty windows below the retention
floor are never recomputed — their raw cells are partially expired, so
recomputation would lose points; the standing materialization is
already the complete answer (raw never expires before every tier's
watermark has passed it).

The conservation invariant this arrangement maintains: every raw point
is reflected in exactly one materialization of each tier — the
count-column sum over materialized windows equals the raw point count
over the same range (checked by the property suite and the E18 gate).
"""

from __future__ import annotations

from array import array
from itertools import pairwise
from typing import TYPE_CHECKING, Callable, Dict, List, Set, Tuple

import numpy as np

from ..tsdb.aggregation import join_series, reduce_windows
from ..tsdb.blocks import TS_TYPECODE, VAL_TYPECODE, BlockBatch, SeriesBlock
from ..tsdb.query import QueryEngine, TsdbQuery
from .tiers import ROLLUP_COLUMNS, LifecyclePolicy, TierSpec, rollup_metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.metrics import MetricsRegistry
    from ..tsdb.ingest import TsdbCluster

__all__ = ["RollupEngine"]


class RollupEngine:
    """Materializes 1m/1h (per policy) rollup tiers from raw cells."""

    def __init__(
        self,
        cluster: "TsdbCluster",
        policy: LifecyclePolicy,
        metrics: "MetricsRegistry",
        raw_floor: Callable[[str], int],
    ) -> None:
        self.cluster = cluster
        self.policy = policy
        self.metrics = metrics
        # Raw-only engine: materialization must read raw cells directly,
        # never through tier routing (which would recurse into us).
        self._engine = QueryEngine(cluster.master, cluster.uids, cluster.codec)
        self._raw_floor = raw_floor
        self._hwm: Dict[str, int] = {}
        self._origin: Dict[str, int] = {}
        # (metric, tier label) -> exclusive end of materialized range.
        self._watermarks: Dict[Tuple[str, str], int] = {}
        # (metric, tier label) -> window starts needing re-materialization.
        self._dirty: Dict[Tuple[str, str], Set[int]] = {}

    # ------------------------------------------------------------------
    # observation (fed by the cluster write listener; idempotent)
    # ------------------------------------------------------------------
    def observe(self, metric: str, t_min: int, t_max: int) -> None:
        """Note a written span of ``metric``; mark late windows dirty."""
        origin = self._origin.get(metric)
        if origin is None:
            self._origin[metric] = t_min
            self._hwm[metric] = t_max
            for tier in self.policy.tiers:
                start = (t_min // tier.resolution) * tier.resolution
                self._watermarks[(metric, tier.label)] = start
            origin = t_min
        if t_min < origin:
            self._origin[metric] = t_min
        if t_max > self._hwm[metric]:
            self._hwm[metric] = t_max
        for tier in self.policy.tiers:
            key = (metric, tier.label)
            wm = self._watermarks[key]
            if t_min >= wm:
                continue
            first = (t_min // tier.resolution) * tier.resolution
            last = min(t_max, wm - 1)
            dirty = self._dirty.setdefault(key, set())
            for w in range(first, last + 1, tier.resolution):
                dirty.add(w)

    # ------------------------------------------------------------------
    # accessors (the router and retention manager read these)
    # ------------------------------------------------------------------
    def high_water(self, metric: str) -> int:
        """Newest raw timestamp seen for ``metric`` (-1 before any write)."""
        return self._hwm.get(metric, -1)

    def watermark(self, metric: str, label: str) -> int:
        """Exclusive end of the materialized range (0 before any write)."""
        return self._watermarks.get((metric, label), 0)

    def min_watermark(self, metric: str) -> int:
        """The most conservative tier watermark (bounds the raw floor)."""
        return min(
            (self.watermark(metric, t.label) for t in self.policy.tiers),
            default=0,
        )

    def pending_windows(self, metric: str, label: str, start: int, end: int) -> bool:
        """Any not-yet-rematerialized dirty window inside ``[start, end)``?"""
        dirty = self._dirty.get((metric, label))
        if not dirty:
            return False
        return any(start <= w < end for w in dirty)

    def managed_metrics(self) -> Tuple[str, ...]:
        return tuple(sorted(self._hwm))

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def advance(self) -> Dict[str, int]:
        """Materialize newly complete windows and drain dirty backlogs.

        A window ``[w, w + res)`` is complete once a raw write at or
        past ``w + res - 1`` has been seen; the watermark advances to
        the end of the last complete window and never moves backwards.
        Returns counters for telemetry/benchmarks.
        """
        stats = {"windows": 0, "backfill_windows": 0, "points": 0, "skipped_expired": 0}
        for metric in self.managed_metrics():
            hwm = self._hwm[metric]
            floor = self._raw_floor(metric)
            for tier in self.policy.tiers:
                key = (metric, tier.label)
                wm = self._watermarks[key]
                target = ((hwm + 1) // tier.resolution) * tier.resolution
                spans: List[Tuple[int, int]] = []
                backfill = 0
                dirty = self._dirty.pop(key, None)
                if dirty:
                    live = sorted(w for w in dirty if w >= floor)
                    stats["skipped_expired"] += len(dirty) - len(live)
                    for w in live:
                        if spans and spans[-1][1] == w:
                            spans[-1] = (spans[-1][0], w + tier.resolution)
                        else:
                            spans.append((w, w + tier.resolution))
                    backfill = len(live)
                fresh_from = max(wm, floor)
                if target > fresh_from:
                    spans.append((fresh_from, target))
                for a, b in spans:
                    stats["points"] += self._materialize(metric, tier, a, b)
                stats["windows"] += sum((b - a) // tier.resolution for a, b in spans)
                stats["backfill_windows"] += backfill
                if target > wm:
                    self._watermarks[key] = target
        if stats["windows"]:
            self.metrics.counter("lifecycle.rollup.windows").inc(stats["windows"])
            self.metrics.counter("lifecycle.rollup.points").inc(stats["points"])
        if stats["backfill_windows"]:
            self.metrics.counter("lifecycle.backfill.windows").inc(
                stats["backfill_windows"]
            )
        if stats["skipped_expired"]:
            self.metrics.counter("lifecycle.backfill.skipped_expired").inc(
                stats["skipped_expired"]
            )
        return stats

    def _materialize(self, metric: str, tier: TierSpec, start: int, end: int) -> int:
        """Recompute every window of ``[start, end)`` from raw cells.

        Returns the number of raw points covered.  Writes go through
        the cluster bulk-load path, so newest-wins overwrite makes the
        operation idempotent and the gateway's write-invalidation hook
        sees the new rollup points like any other write.
        """
        series_list = self._engine.series_for(TsdbQuery(metric, start, end))
        if not series_list:
            return 0
        owner, ts, values = join_series(series_list)
        first, starts, columns = reduce_windows(
            owner, ts, values, tier.resolution, ROLLUP_COLUMNS
        )
        # Every series read has a point, hence a window: cut per series.
        bounds = np.searchsorted(owner[first], np.arange(len(series_list) + 1)).tolist()
        ts_col = array(TS_TYPECODE, starts.tobytes())
        val_cols = [array(VAL_TYPECODE, column.tobytes()) for column in columns]
        names = [rollup_metric(column, tier.label, metric) for column in ROLLUP_COLUMNS]
        blocks: List[SeriesBlock] = []
        for series, (a, b) in zip(series_list, pairwise(bounds)):
            times = ts_col[a:b]
            for name, col in zip(names, val_cols):
                blocks.append(SeriesBlock(name, series.tags, times, col[a:b], _trusted=True))
        self.cluster.direct_put(BlockBatch(blocks))
        return len(ts)

    def materialized_points(self, metric: str, label: str, start: int, end: int) -> int:
        """Raw-point coverage of a tier range: the count-column sum.

        The conservation probe: over fully-materialized ranges this
        must equal the raw point count (or what it was before expiry).
        """
        if end <= start:
            return 0
        total = 0.0
        query = TsdbQuery(rollup_metric("count", label, metric), start, end)
        for series in self._engine.series_for(query):
            total += float(series.values.sum())
        return int(total)
