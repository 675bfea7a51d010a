"""Tier-aware query planning: route to the coarsest tier that is exact.

The router never trades correctness for speed.  A query is served from
a rollup tier only when the rewritten column pipeline is provably
**bit-identical** to the raw pipeline — same timestamps, same float64
bits — which restricts identical-mode routing to the combinations where
the tier columns commute exactly with the shared ``aggregate``/
``downsample`` kernels for any group size:

=========================  ===========================================
(aggregator, downsample)   served as
=========================  ===========================================
(min, min) / (max, max)    the same column; selection is order-free
                           and exact
(count, sum)               sum of the count column; integer float64
                           sums are exact
=========================  ===========================================

Every other combination is served raw while raw is live: float
``sum``/``avg`` re-aggregation changes summation order, and what would
be exact for a group of one series cannot be known until the group is
read.

When raw data under the query range has been expired, identical mode is
impossible and the router switches to **pooled** mode: the coarsest
covering tier answers with pooled column math (``avg`` becomes
``sum(sum)/sum(count)``, and the grouping aggregator is ignored — the
pooled reduction *is* the group combination).  Pooled results are the
documented best-effort answer, not bit-identical — raw no longer exists
to compare against.  A request no surviving source can satisfy (raw
expired with no qualifying tier, or an undownsampled read over expired
raw) increments ``lifecycle.tier_miss`` and falls through to whatever
raw remains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..tsdb.aggregation import Series, rate
from ..tsdb.query import TsdbQuery, group_and_aggregate
from .tiers import LifecyclePolicy, TierSpec, rollup_metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.metrics import MetricsRegistry
    from .retention import RetentionManager
    from .rollup import RollupEngine

__all__ = ["TierPlan", "TierRouter"]

#: A reader takes a (possibly rewritten) query and returns raw series.
Reader = Callable[[TsdbQuery], List[Series]]

#: (aggregator, downsample agg) pairs exact for any group size, mapped
#: to (column, rewritten aggregator, rewritten downsample agg).
_PAIR_COMBOS: Dict[Tuple[str, str], Tuple[str, str, str]] = {
    ("min", "min"): ("min", "min", "min"),
    ("max", "max"): ("max", "max", "max"),
    ("count", "sum"): ("count", "sum", "sum"),
}

#: Pooled-mode (column, group and window reduction) per downsample
#: aggregator.  A pooled ``avg`` also reads ``count`` and divides.
_POOLED: Dict[str, Tuple[str, str]] = {
    "sum": ("sum", "sum"),
    "avg": ("sum", "sum"),
    "min": ("min", "min"),
    "max": ("max", "max"),
    "count": ("count", "sum"),
}


@dataclass(frozen=True)
class TierPlan:
    """The routing decision for one query.

    ``mode`` is ``"raw"`` (no tier involved), ``"identical"``
    (tier-served under the bit-identity contract) or ``"pooled"``
    (tier-served best effort over expired raw).  ``tier`` names the
    serving source for cache keys: ``"raw"``, a tier label, or
    ``"pooled:<label>"`` — degraded answers never collide with exact
    ones.  ``miss`` flags a request no surviving source could satisfy
    exactly (surfaced as ``lifecycle.tier_miss``).
    """

    mode: str
    tier: str = "raw"
    label: Optional[str] = None
    miss: bool = False

    @property
    def tier_served(self) -> bool:
        return self.mode != "raw"


_RAW_PLAN = TierPlan(mode="raw")


class TierRouter:
    """Plans and executes tier-routed reads for one lifecycle policy."""

    def __init__(
        self,
        policy: LifecyclePolicy,
        rollup: "RollupEngine",
        retention: "RetentionManager",
        metrics: "MetricsRegistry",
    ) -> None:
        self.policy = policy
        self.rollup = rollup
        self.retention = retention
        self.metrics = metrics

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, query: TsdbQuery, record: bool = True) -> TierPlan:
        """Choose a serving source.  Pure unless ``record`` (counters)."""
        plan = self._plan(query)
        if record:
            if plan.miss:
                self.metrics.counter("lifecycle.tier_miss").inc()
            self.metrics.counter(f"lifecycle.route.{plan.tier}").inc()
        return plan

    def _plan(self, query: TsdbQuery) -> TierPlan:
        if not self.policy.manages(query.metric):
            return _RAW_PLAN
        raw_live = self.retention.raw_floor(query.metric) <= query.start
        window = query.downsample_window
        if window is None:
            # Undownsampled reads need raw; expired raw is unrecoverable.
            return _RAW_PLAN if raw_live else replace(_RAW_PLAN, miss=True)
        if raw_live:
            identical = self._plan_identical(query, window)
            return identical if identical is not None else _RAW_PLAN
        pooled = self._plan_pooled(query, window)
        return pooled if pooled is not None else replace(_RAW_PLAN, miss=True)

    def _covering_tiers(self, query: TsdbQuery, window: int) -> List[TierSpec]:
        """Coarsest-first tiers whose materialization covers the range."""
        if query.start % window or query.end % window:
            return []
        out = []
        for tier in self.policy.coarsest_first():
            if window % tier.resolution:
                continue
            if self.rollup.watermark(query.metric, tier.label) < query.end:
                continue
            if self.retention.tier_floor(query.metric, tier.label) > query.start:
                continue
            if self.rollup.pending_windows(
                query.metric, tier.label, query.start, query.end
            ):
                continue
            out.append(tier)
        return out

    def _plan_identical(self, query: TsdbQuery, window: int) -> Optional[TierPlan]:
        if (query.aggregator, query.downsample_aggregator) not in _PAIR_COMBOS:
            return None
        for tier in self._covering_tiers(query, window):
            return TierPlan(mode="identical", tier=tier.label, label=tier.label)
        return None

    def _plan_pooled(self, query: TsdbQuery, window: int) -> Optional[TierPlan]:
        if query.downsample_aggregator not in _POOLED:
            return None
        for tier in self._covering_tiers(query, window):
            return TierPlan(mode="pooled", tier=f"pooled:{tier.label}", label=tier.label)
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, query: TsdbQuery, plan: TierPlan, reader: Reader
    ) -> List[Series]:
        """Serve ``query`` per ``plan``: read and group each of its
        :meth:`rewrites` via ``reader``, then :meth:`combine` the answers."""
        rewrites = self.rewrites(query, plan)
        if rewrites is None:
            raise ValueError(f"plan {plan.mode!r} is not tier-served")
        return self.combine(
            query, [group_and_aggregate(q, reader(q)) for q in rewrites]
        )

    def _rewrite(
        self,
        query: TsdbQuery,
        plan: TierPlan,
        column: str,
        aggregator: str,
        ds_aggregator: str,
        apply_rate: bool,
    ) -> TsdbQuery:
        assert plan.label is not None
        return TsdbQuery(
            rollup_metric(column, plan.label, query.metric),
            query.start,
            query.end,
            tag_filters=query.tag_filters,
            group_by=query.group_by,
            aggregator=aggregator,
            downsample_window=query.downsample_window,
            downsample_aggregator=ds_aggregator,
            rate=apply_rate,
        )

    def rewrites(
        self, query: TsdbQuery, plan: TierPlan
    ) -> Optional[Tuple[TsdbQuery, ...]]:
        """The column queries a tier-served plan reads instead of raw.

        One rewritten pipeline over one column metric, or for a pooled
        ``avg`` the ``sum`` and ``count`` rewrites whose grouped answers
        :meth:`combine` divides.  Every read path runs these through its
        ordinary scan fan-out and :func:`group_and_aggregate`.  A raw
        plan returns ``None``.
        """
        if plan.mode == "identical":
            column, agg, ds = _PAIR_COMBOS[
                (query.aggregator, query.downsample_aggregator)
            ]
            return (self._rewrite(query, plan, column, agg, ds, query.rate),)
        if plan.mode != "pooled":
            return None
        if query.downsample_aggregator == "avg":
            return (
                self._rewrite(query, plan, "sum", "sum", "sum", False),
                self._rewrite(query, plan, "count", "sum", "sum", False),
            )
        column, reduction = _POOLED[query.downsample_aggregator]
        return (self._rewrite(query, plan, column, reduction, reduction, query.rate),)

    @staticmethod
    def combine(query: TsdbQuery, answers: Sequence[List[Series]]) -> List[Series]:
        """``query``'s answer from the grouped answers of its :meth:`rewrites`.

        A single rewrite's answer is the answer; a pooled ``avg``'s is
        its sum groups divided by its count groups.
        """
        if len(answers) == 1:
            return answers[0]
        sum_groups, count_answer = answers
        count_groups = {s.tags: s for s in count_answer}
        out: List[Series] = []
        for sums in sum_groups:
            counts = count_groups.get(sums.tags)
            if counts is None or not np.array_equal(
                sums.timestamps, counts.timestamps
            ):
                # Column sets diverged (shouldn't happen: both columns
                # are written atomically per window) — drop the group
                # rather than serve misaligned math.
                continue
            with np.errstate(invalid="ignore", divide="ignore"):
                vals = np.where(
                    counts.values > 0, sums.values / counts.values, np.nan
                )
            result = Series(sums.tags, sums.timestamps, vals)
            if query.rate:
                result = rate(result)
            out.append(result)
        return out
