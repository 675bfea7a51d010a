"""The lifecycle facade: rollups + retention + tier routing, wired to a cluster.

:class:`LifecycleManager` is the single object the rest of the system
talks to.  It subscribes to the cluster's write paths twice, with two
deliberately different hooks:

* the **write listener** fires twice per submitted batch (optimistic
  and at ack — the serving cache's eviction feed), so it performs only
  idempotent work: advancing high-water marks, marking late windows
  dirty, and re-deleting too-late writes (whose drop *count* is
  naturally idempotent — the optimistic pass masks nothing because the
  cells have not landed yet);
* the **ingest observer** fires exactly once per batch with the
  written/failed totals, so it carries the exact-once accounting — the
  per-metric ingested counters behind the conservation invariant — and
  the hot-window materialization cadence.

The conservation invariant the accounting maintains (checkable at any
quiescent point via :meth:`LifecycleManager.verify_conservation`)::

    ingested == live visible raw + expired raw + too-late drops

and, per tier, the count-column sum over the materialized range equals
the raw points that range ever held.  Batches with partial write
failures cannot be attributed point-by-point, so their metrics are
marked *tainted* and excluded from the strict check rather than
reported as falsely conserved.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Set,
)

from ..tsdb.blocks import WriteSpans
from ..tsdb.query import TsdbQuery
from .planner import Reader, TierPlan, TierRouter
from .retention import ExpiredSpan, RetentionManager
from .rollup import RollupEngine
from .tiers import LifecyclePolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..tsdb.aggregation import Series
    from ..tsdb.ingest import TsdbCluster

__all__ = ["LifecycleManager"]

#: Ingest cadence of incremental materialization: rollups advance after
#: this many managed raw points land, so the hot window trails ingest by
#: a bounded amount rather than waiting for the next compaction.
HOT_WINDOW_POINTS = 5000


class LifecycleManager:
    """Owns the rollup engine, retention manager and tier router."""

    def __init__(
        self, cluster: "TsdbCluster", policy: Optional[LifecyclePolicy] = None
    ) -> None:
        self.cluster = cluster
        self.policy = policy if policy is not None else LifecyclePolicy()
        self.metrics = cluster.metrics
        # rollup <-> retention reference each other's floors/watermarks;
        # the lambdas resolve late, after both halves exist.
        self.rollup = RollupEngine(
            cluster,
            self.policy,
            self.metrics,
            raw_floor=lambda m: self.retention.raw_floor(m),
        )
        self.retention = RetentionManager(
            cluster,
            self.policy,
            self.metrics,
            min_watermark=self.rollup.min_watermark,
            high_water=self.rollup.high_water,
        )
        self.router = TierRouter(self.policy, self.rollup, self.retention, self.metrics)
        #: Exact-once per-metric ingest totals (conservation numerator).
        self.ingested: Dict[str, int] = {}
        #: Metrics whose batches saw partial write failures (untrackable).
        self.tainted: Set[str] = set()
        self._since_advance = 0
        self._in_maintenance = False
        self._expiry_listeners: List[Callable[[List[ExpiredSpan]], None]] = []
        cluster.add_write_listener(self._on_writes)
        cluster.add_ingest_observer(self._on_ingest)

    # ------------------------------------------------------------------
    # write-path hooks
    # ------------------------------------------------------------------
    def _on_writes(self, writes: WriteSpans) -> None:
        """Write listener: idempotent observation only (fires twice)."""
        for metric, (t_min, t_max, _n) in writes.by_metric().items():
            if not self.policy.manages(metric):
                continue
            self.rollup.observe(metric, t_min, t_max)
            if t_min < self.retention.raw_floor(metric):
                self.retention.drop_too_late(metric)

    def _on_ingest(self, writes: WriteSpans, written: int, failed: int) -> None:
        """Ingest observer: exact-once accounting + hot-window cadence."""
        fresh = 0
        for metric, (_t_min, _t_max, n) in writes.by_metric().items():
            if not self.policy.manages(metric):
                continue
            self.ingested[metric] = self.ingested.get(metric, 0) + n
            if failed:
                self.tainted.add(metric)
            fresh += n
        if fresh:
            self._since_advance += fresh
            if self._since_advance >= HOT_WINDOW_POINTS:
                self.hot_advance()

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def hot_advance(self) -> None:
        """Incremental rollup advance on the ingest cadence (no expiry)."""
        if self._in_maintenance:
            return
        self._since_advance = 0
        self._in_maintenance = True
        try:
            self.rollup.advance()
        finally:
            self._in_maintenance = False

    def run_maintenance(self, purge: bool = False) -> Dict[str, int]:
        """One full lifecycle pass: advance rollups, expire, notify.

        ``purge`` additionally major-compacts every hosted region so
        tombstoned (expired) cells are physically dropped, not just
        masked.  Reentrancy-safe: a pass triggered while another runs
        (e.g. chaos firing during compaction) is a no-op.
        """
        if self._in_maintenance:
            return {}
        self._in_maintenance = True
        try:
            stats = self.rollup.advance()
            spans = self.retention.expire(self.rollup.managed_metrics())
            stats["expired_spans"] = len(spans)
            for listener in self._expiry_listeners:
                listener(spans)
            if purge:
                self._purge_regions()
            self._since_advance = 0
            return stats
        finally:
            self._in_maintenance = False

    def on_compaction(self) -> None:
        """Compaction-integrated expiry hook (the row compactor calls this
        first, so expired rows are gone before it scans)."""
        self.run_maintenance(purge=True)

    def _purge_regions(self) -> None:
        master = self.cluster.master
        for name in master.live_servers():
            for region in master.server(name).hosted_regions():
                region.compact()

    def add_expiry_listener(
        self, listener: Callable[[List[ExpiredSpan]], None]
    ) -> None:
        """Subscribe to expiry notifications (serving-cache invalidation)."""
        self._expiry_listeners.append(listener)

    # ------------------------------------------------------------------
    # query routing
    # ------------------------------------------------------------------
    def plan(self, query: TsdbQuery, record: bool = True) -> TierPlan:
        """The routing decision for ``query`` (counters unless ``record=False``)."""
        return self.router.plan(query, record=record)

    def route_tier(self, query: TsdbQuery) -> str:
        """Pure serving-source name for cache keys (no counters)."""
        return self.router.plan(query, record=False).tier

    def route(self, query: TsdbQuery, reader: Reader) -> Optional["List[Series]"]:
        """Serve ``query`` from a tier if an exact (or pooled) plan exists.

        Returns ``None`` when no tier qualifies and the query should go
        down the raw path.
        """
        plan = self.router.plan(query)
        if not plan.tier_served:
            return None
        return self.router.execute(query, plan, reader)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def verify_conservation(self, metric: str) -> Dict[str, object]:
        """Check the conservation invariant for one metric.

        Runs a maintenance pass first so pending rollup work cannot be
        misread as loss.  Tier-level checks are exact while the tier's
        own TTL has not expired anything (expired raw totals cannot be
        re-attributed to sub-ranges after the fact); once a tier floor
        moves, that tier reports ``ok=None`` (unknown) rather than a
        false verdict.
        """
        self.run_maintenance()
        hwm = self.rollup.high_water(metric)
        ingested = self.ingested.get(metric, 0)
        live = (
            self.retention.live_points(metric, 0, hwm + 1) if hwm >= 0 else 0
        )
        expired = self.retention.expired_raw_points.get(metric, 0)
        too_late = self.retention.too_late_drops.get(metric, 0)
        tainted = metric in self.tainted
        raw_ok = None if tainted else ingested == live + expired + too_late
        tiers: Dict[str, Dict[str, object]] = {}
        all_ok = raw_ok is not False
        for tier in self.policy.tiers:
            wm = self.rollup.watermark(metric, tier.label)
            floor = self.retention.tier_floor(metric, tier.label)
            materialized = self.rollup.materialized_points(metric, tier.label, floor, wm)
            if tainted or floor > 0:
                tiers[tier.label] = {"materialized": materialized, "ok": None}
                continue
            expected = self.retention.live_points(metric, 0, wm) + expired
            ok = materialized == expected
            tiers[tier.label] = {
                "materialized": materialized,
                "expected": expected,
                "ok": ok,
            }
            all_ok = all_ok and ok
        return {
            "metric": metric,
            "ingested": ingested,
            "live_raw": live,
            "expired_raw": expired,
            "too_late": too_late,
            "tainted": tainted,
            "raw_ok": raw_ok,
            "tiers": tiers,
            "ok": all_ok,
        }
