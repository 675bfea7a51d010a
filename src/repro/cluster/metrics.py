"""Measurement primitives for simulated components.

Counters, gauges and time-series recorders used by the ingestion
benchmarks.  The Figure 2 (right) reproduction needs cumulative
"samples ingested vs time" curves, which :class:`TimeSeriesRecorder`
captures; per-server skew measurements for the salting ablation use
:class:`Counter` families keyed by label.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "TimeSeriesRecorder",
    "LatencyHistogram",
    "MetricsRegistry",
    "skew_ratio",
]


class Counter:
    """Monotonic counter with optional per-label children."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._children: Dict[str, float] = defaultdict(float)

    def inc(self, amount: float = 1.0, label: str | None = None) -> None:
        if amount < 0:
            raise ValueError("Counter can only increase")
        self.value += amount
        if label is not None:
            self._children[label] += amount

    def get(self, label: str | None = None) -> float:
        if label is None:
            return self.value
        return self._children.get(label, 0.0)

    def labels(self) -> Dict[str, float]:
        """Snapshot of per-label counts."""
        return dict(self._children)


class Gauge:
    """Point-in-time value with max/min watermarks.

    Watermarks read 0.0 until the first ``set()`` — a never-touched
    gauge must not leak ``±inf`` sentinels into reports or the
    self-metric write-back.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._max: float | None = None
        self._min: float | None = None

    @property
    def max_value(self) -> float:
        return 0.0 if self._max is None else self._max

    @property
    def min_value(self) -> float:
        return 0.0 if self._min is None else self._min

    def set(self, value: float) -> None:
        self.value = value
        self._max = value if self._max is None else max(self._max, value)
        self._min = value if self._min is None else min(self._min, value)


class TimeSeriesRecorder:
    """Record ``(time, value)`` observations of a quantity over a run.

    Used to capture cumulative-ingested curves (Figure 2 right).  The
    ``resample`` helper turns the irregular event-time observations into
    a regular grid for table/plot output.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise ValueError("observations must be recorded in time order")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def last(self) -> Tuple[float, float]:
        if not self.times:
            raise IndexError("no observations recorded")
        return self.times[-1], self.values[-1]

    def resample(self, step: float, until: float | None = None) -> List[Tuple[float, float]]:
        """Step-function resampling onto a regular grid of period ``step``.

        Returns ``[(t, v)]`` where ``v`` is the last observation at or
        before ``t`` (0.0 before the first observation).
        """
        if step <= 0:
            raise ValueError("step must be positive")
        if not self.times:
            return []
        end = until if until is not None else self.times[-1]
        out: List[Tuple[float, float]] = []
        idx = 0
        t = 0.0
        current = 0.0
        n = len(self.times)
        while t <= end + 1e-12:
            while idx < n and self.times[idx] <= t + 1e-12:
                current = self.values[idx]
                idx += 1
            out.append((t, current))
            t += step
        return out

    def rate(self) -> float:
        """Average rate of change between the first and last observation."""
        if len(self.times) < 2:
            return 0.0
        dt = self.times[-1] - self.times[0]
        if dt <= 0:
            return 0.0
        return (self.values[-1] - self.values[0]) / dt


class LatencyHistogram:
    """Fixed-boundary latency histogram with summary statistics."""

    DEFAULT_BOUNDS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)

    def __init__(self, name: str, bounds: Sequence[float] | None = None) -> None:
        self.name = name
        self.bounds = tuple(bounds) if bounds is not None else self.DEFAULT_BOUNDS
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted")
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max_seen = 0.0

    def observe(self, latency: float) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        self.count += 1
        self.total += latency
        self.max_seen = max(self.max_seen, latency)
        for i, b in enumerate(self.bounds):
            if latency <= b:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds.

        Strict accumulation over *occupied* buckets only: empty leading
        buckets never satisfy ``acc >= target`` (with ``q=0`` the old
        code returned ``bounds[0]`` regardless of where observations
        landed), so ``quantile(0.0)`` is the smallest occupied bucket's
        bound and ``quantile(1.0)`` the largest occupied bucket's bound
        (``max_seen`` for the overflow bucket).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        acc = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            acc += n
            if acc >= target:
                return self.bounds[i] if i < len(self.bounds) else self.max_seen
        return self.max_seen


@dataclass
class MetricsRegistry:
    """The metrics of one deployment (or of one standalone component)."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)
    histograms: Dict[str, LatencyHistogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str, bounds: Sequence[float] | None = None) -> LatencyHistogram:
        if name not in self.histograms:
            self.histograms[name] = LatencyHistogram(name, bounds)
        return self.histograms[name]


def skew_ratio(per_label_counts: Iterable[float]) -> float:
    """Load-imbalance measure: max / mean of per-label counts.

    1.0 means perfectly balanced; for a single hot shard among ``n``
    shards the ratio approaches ``n``.  Used by the salting ablation
    (E6) to quantify RegionServer write skew.

    Empty input is a caller bug and raises ``ValueError``; all-zero
    counts are a legitimate "no load yet" state and return ``nan``
    (the ratio is genuinely undefined, not an error).
    """
    counts = list(per_label_counts)
    if not counts:
        raise ValueError("skew_ratio of zero labels is undefined")
    mean = sum(counts) / len(counts)
    if mean == 0:
        return float("nan")
    return max(counts) / mean
