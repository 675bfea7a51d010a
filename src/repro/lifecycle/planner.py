"""Tier-aware query planning: route to the coarsest tier that is exact.

The router never trades correctness for speed.  A query is served from
a rollup tier only when the rewritten column pipeline is provably
**bit-identical** to the raw pipeline — same timestamps, same float64
bits — which restricts identical-mode routing to combinations where the
tier columns commute exactly with the shared ``aggregate``/``downsample``
kernels (``k = downsample_window // tier.resolution``):

====================  ==========================  ============================
group size            (aggregator, downsample)    served as
====================  ==========================  ============================
any                   (min, min) / (max, max)     same column; selection is
                                                  order-free and exact
any                   (count, sum)                sum of count column; integer
                                                  float64 sums are exact
exactly one series    agg in {avg, min, max}:     column passthrough at k == 1
                      ds in {sum, avg, min, max,  (avg is sum/count, bitwise
                      count} at k == 1, ds in     equal to nanmean); min/max/
                      {min, max, count} at k > 1  count re-aggregate exactly
exactly one series    (sum, sum) at k == 1        nansum passthrough
====================  ==========================  ============================

Float ``sum``/``avg`` re-aggregation at k > 1 changes summation order
and is therefore *not* routed in identical mode.  Singleton rows are
planned optimistically and verified at execution: if the group turns
out to hold several series, :class:`SingletonFallback` sends the query
back down the raw path (identical plans are only issued while raw is
still live, so the fallback always has data).

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

from ..tsdb.aggregation import Series, downsample, rate
from ..tsdb.query import TsdbQuery, group_and_aggregate
from .tiers import LifecyclePolicy, TierSpec, rollup_metric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.telemetry import ScopedRegistry
    from .retention import RetentionManager
    from .rollup import RollupEngine

__all__ = ["SingletonFallback", "TierPlan", "TierRouter"]

#: A reader takes a (possibly rewritten) query and returns raw series.
Reader = Callable[[TsdbQuery], List[Series]]

#: (aggregator, downsample agg) pairs exact for any group size, mapped
#: to (column, rewritten aggregator, rewritten downsample agg).
_PAIR_COMBOS: Dict[Tuple[str, str], Tuple[str, str, str]] = {
    ("min", "min"): ("min", "min", "min"),
    ("max", "max"): ("max", "max", "max"),
    ("count", "sum"): ("count", "sum", "sum"),
}

#: Downsample aggregators a singleton plan can serve at k == 1.
_SINGLETON_K1 = frozenset({"sum", "avg", "min", "max", "count"})

#: Downsample aggregators a singleton plan can re-aggregate at k > 1.
_SINGLETON_KN = frozenset({"min", "max", "count"})

#: Columns to read, per downsample aggregator (singleton and pooled).
_COLUMNS_FOR: Dict[str, Tuple[str, ...]] = {
    "sum": ("sum",),
    "avg": ("sum", "count"),
    "min": ("min",),
    "max": ("max",),
    "count": ("count",),
}

#: Per-tier-window reduction used when re-aggregating column points.
_KN_KERNEL: Dict[str, str] = {"min": "min", "max": "max", "count": "sum"}

#: Pooled-mode group reduction per downsample aggregator.
_POOLED_AGG: Dict[str, str] = {
    "sum": "sum",
    "avg": "sum",
    "min": "min",
    "max": "max",
    "count": "sum",
}


class SingletonFallback(Exception):
    """A singleton plan met a multi-series group; re-run against raw."""


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
    case: str = ""  # "pair" | "singleton" | "pooled"
    k: int = 0
    columns: Tuple[str, ...] = ()
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
        metrics: "ScopedRegistry",
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
        for tier in self._covering_tiers(query, window):
            k = window // tier.resolution
            agg, ds = query.aggregator, query.downsample_aggregator
            if (agg, ds) in _PAIR_COMBOS:
                return TierPlan(
                    mode="identical",
                    tier=tier.label,
                    label=tier.label,
                    case="pair",
                    k=k,
                    columns=(_PAIR_COMBOS[(agg, ds)][0],),
                )
            singleton_ok = (
                agg in ("avg", "min", "max")
                and ds in (_SINGLETON_K1 if k == 1 else _SINGLETON_KN)
            ) or (agg == "sum" and ds == "sum" and k == 1)
            if singleton_ok:
                return TierPlan(
                    mode="identical",
                    tier=tier.label,
                    label=tier.label,
                    case="singleton",
                    k=k,
                    columns=_COLUMNS_FOR[ds],
                )
        return None

    def _plan_pooled(self, query: TsdbQuery, window: int) -> Optional[TierPlan]:
        if query.downsample_aggregator not in _POOLED_AGG:
            return None
        for tier in self._covering_tiers(query, window):
            return TierPlan(
                mode="pooled",
                tier=f"pooled:{tier.label}",
                label=tier.label,
                case="pooled",
                k=window // tier.resolution,
                columns=_COLUMNS_FOR[query.downsample_aggregator],
            )
        return None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(
        self, query: TsdbQuery, plan: TierPlan, reader: Reader
    ) -> List[Series]:
        """Serve ``query`` per ``plan``, reading column series via ``reader``.

        Raises :class:`SingletonFallback` when a singleton plan meets a
        multi-series group.
        """
        if plan.case == "singleton":
            return self._execute_singleton(query, plan, reader)
        rewrites = self.rewrites(query, plan)
        if rewrites is None:
            raise ValueError(f"plan {plan.mode!r}/{plan.case!r} is not tier-served")
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
        """The column queries a pair or pooled plan reads instead of raw.

        One rewritten pipeline over one column metric, or for a pooled
        ``avg`` the ``sum`` and ``count`` rewrites whose grouped answers
        :meth:`combine` divides.  Every read path runs these through its
        ordinary scan fan-out and :func:`group_and_aggregate`.  Raw and
        singleton plans (execution-time group check) return ``None``.
        """
        if plan.case == "pair":
            column, agg, ds = _PAIR_COMBOS[
                (query.aggregator, query.downsample_aggregator)
            ]
            return (self._rewrite(query, plan, column, agg, ds, query.rate),)
        if plan.case != "pooled":
            return None
        ds = query.downsample_aggregator
        if ds == "avg":
            return (
                self._rewrite(query, plan, "sum", "sum", "sum", False),
                self._rewrite(query, plan, "count", "sum", "sum", False),
            )
        ds_kernel = ds if ds in ("min", "max") else "sum"
        return (
            self._rewrite(
                query, plan, _COLUMNS_FOR[ds][0], _POOLED_AGG[ds], ds_kernel, query.rate
            ),
        )

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

    def _execute_singleton(
        self, query: TsdbQuery, plan: TierPlan, reader: Reader
    ) -> List[Series]:
        assert plan.label is not None
        ds = query.downsample_aggregator
        window = query.downsample_window
        assert window is not None
        groups: Dict[Tuple[Tuple[str, str], ...], Dict[str, Series]] = {}
        for column in plan.columns:
            cq = TsdbQuery(
                rollup_metric(column, plan.label, query.metric),
                query.start,
                query.end,
                tag_filters=query.tag_filters,
            )
            for series in reader(cq):
                key = tuple(
                    (k, series.tag_dict.get(k, "")) for k in query.group_by
                )
                slot = groups.setdefault(key, {})
                if column in slot:
                    raise SingletonFallback(query.metric)
                slot[column] = series
        out: List[Series] = []
        for key in sorted(groups):
            cols = groups[key]
            if len(cols) != len(plan.columns):
                # A column series is missing for this group — the sibling
                # column must then hold a different series of the same
                # group, i.e. the group is not a singleton.
                raise SingletonFallback(query.metric)
            out.append(self._singleton_series(cols, ds, plan.k, window, query.rate))
        return out

    def _singleton_series(
        self,
        cols: Dict[str, Series],
        ds: str,
        k: int,
        window: int,
        apply_rate: bool,
    ) -> Series:
        anchor = next(iter(cols.values()))
        tags = tuple(sorted(anchor.tags))
        if k == 1:
            if ds == "avg":
                sums, counts = cols["sum"], cols["count"]
                if not np.array_equal(sums.timestamps, counts.timestamps):
                    raise SingletonFallback("rollup column misalignment")
                with np.errstate(invalid="ignore", divide="ignore"):
                    vals = np.where(
                        counts.values > 0, sums.values / counts.values, np.nan
                    )
                result = Series(tags, sums.timestamps, vals)
            else:
                col = cols[ds]
                result = Series(tags, col.timestamps, col.values)
        else:
            col = cols[ds]
            base = Series(tags, col.timestamps, col.values)
            result = downsample(base, window, _KN_KERNEL[ds])
        if apply_rate:
            result = rate(result)
        return result

