"""Unified observability layer: telemetry trees, tracing, self-reporting.

Three pieces, mirroring how the paper's platform is operated through
its own store and dashboard:

* :mod:`repro.obs.telemetry` — the process-wide :class:`Telemetry`
  facade owning one metrics registry per component tree, replacing the
  scattered per-module ``MetricsRegistry()`` defaults.
* :mod:`repro.obs.trace` — span-based tracing with parent/child links
  and batch-id correlation across the proxy → TSD → HBase →
  RegionServer ingest path; zero-cost when disabled.
* :mod:`repro.obs.selfreport` — the :class:`SelfReporter` that flushes
  telemetry snapshots back into the simulated OpenTSDB as queryable
  ``{component}.{metric}`` self-metric series.
"""

from .telemetry import (
    DEFAULT_COMPONENT,
    ROUTES,
    MetricSample,
    ScopedRegistry,
    Telemetry,
    component_registry,
)
from .trace import NULL_SPAN, NullSpan, Span, SpanRecord, Tracer
from .selfreport import SelfReporter

__all__ = [
    "DEFAULT_COMPONENT",
    "MetricSample",
    "NULL_SPAN",
    "NullSpan",
    "ROUTES",
    "ScopedRegistry",
    "SelfReporter",
    "Span",
    "SpanRecord",
    "Telemetry",
    "Tracer",
    "component_registry",
]
