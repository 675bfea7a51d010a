"""Unified observability layer: tracing and self-reporting.

Two pieces, mirroring how the paper's platform is operated through
its own store and dashboard:

* :mod:`repro.obs.trace` — span-based tracing with parent/child links
  and batch-id correlation across the proxy → TSD → HBase →
  RegionServer ingest path; zero-cost when disabled.
* :mod:`repro.obs.selfreport` — the :class:`SelfReporter` that flushes
  metrics registries back into the simulated OpenTSDB as queryable
  ``{component}.{metric}`` self-metric series, reading each metric's
  component from its name.

A deployment keeps its metrics in one
:class:`~repro.cluster.metrics.MetricsRegistry`, ``cluster.metrics``,
shared by every component it builds.
"""

from .trace import NULL_SPAN, NullSpan, Span, SpanRecord, Tracer
from .selfreport import ROUTES, MetricSample, SelfReporter, samples

__all__ = [
    "MetricSample",
    "NULL_SPAN",
    "NullSpan",
    "ROUTES",
    "SelfReporter",
    "Span",
    "SpanRecord",
    "Tracer",
    "samples",
]
