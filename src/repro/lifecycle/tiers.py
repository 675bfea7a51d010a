"""Tier and retention policy definitions for the data lifecycle.

A *tier* is a materialized downsample resolution (1m/1h by default).
Each tier stores four first-class column series per raw series —
``rollup.count.<label>.<metric>``, ``rollup.sum...``, ``rollup.min...``
and ``rollup.max...`` — one point per tier window, at the window start.
Keeping count/sum/min/max (rather than a single pre-aggregated value)
is what lets re-aggregation stay *exact*: an average over any span is
``sum(sum)/sum(count)``, and min/max compose by selection, so coarser
answers never accumulate rounding that the raw path would not.

The policy also carries TTLs: ``raw_ttl`` bounds how long raw cells
live (``None`` = forever), each tier can carry its own ``ttl``.  The
retention manager never lets the raw floor overtake a tier watermark,
so a raw row-hour is only expired once every tier has materialized it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "ROLLUP_COLUMNS",
    "ROLLUP_PREFIX",
    "LifecyclePolicy",
    "TierSpec",
    "rollup_metric",
]

#: Metric-name prefix marking materialized rollup series.
ROLLUP_PREFIX = "rollup."

#: The column series each tier stores per raw series.
ROLLUP_COLUMNS: Tuple[str, ...] = ("count", "sum", "min", "max")


def rollup_metric(column: str, label: str, metric: str) -> str:
    """The first-class metric name of one rollup column series."""
    if column not in ROLLUP_COLUMNS:
        raise ValueError(f"unknown rollup column {column!r}")
    return f"{ROLLUP_PREFIX}{column}.{label}.{metric}"


@dataclass(frozen=True)
class TierSpec:
    """One materialized downsample tier.

    ``resolution`` is the tier window in seconds; ``ttl`` bounds how
    long this tier's own points are retained (``None`` = forever),
    measured against the data high-water mark like ``raw_ttl``.
    """

    label: str
    resolution: int
    ttl: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.label or "." in self.label:
            raise ValueError("tier label must be non-empty and dot-free")
        if self.resolution < 1:
            raise ValueError("tier resolution must be >= 1 second")
        if self.ttl is not None and self.ttl < self.resolution:
            raise ValueError("tier ttl must cover at least one window")


def _default_tiers() -> Tuple[TierSpec, ...]:
    return (TierSpec("1m", 60), TierSpec("1h", 3600))


@dataclass(frozen=True)
class LifecyclePolicy:
    """Knobs for the lifecycle tier.

    Every written metric outside the rollup namespace is managed as it
    is first seen.
    """

    tiers: Tuple[TierSpec, ...] = field(default_factory=_default_tiers)
    raw_ttl: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("policy needs at least one tier")
        resolutions = [t.resolution for t in self.tiers]
        if sorted(set(resolutions)) != resolutions:
            raise ValueError("tiers must have unique, ascending resolutions")
        if len({t.label for t in self.tiers}) != len(self.tiers):
            raise ValueError("tier labels must be unique")
        if self.raw_ttl is not None and self.raw_ttl < 1:
            raise ValueError("raw_ttl must be positive")

    def manages(self, metric: str) -> bool:
        """Whether ``metric`` is lifecycle-managed raw data."""
        return not metric.startswith(ROLLUP_PREFIX)

    def coarsest_first(self) -> Tuple[TierSpec, ...]:
        """Tiers ordered coarse to fine (the routing preference order)."""
        return tuple(reversed(self.tiers))
