"""Process-wide telemetry facade: one registry per component tree.

Before this module, every layer constructed its own
:class:`~repro.cluster.metrics.MetricsRegistry` default and the
deployment's metric namespace was whatever registry a caller happened
to share.  :class:`Telemetry` centralises ownership: it holds one
registry per **component tree** (``proxy``, ``tsd``, ``regionserver``,
``engine``, ``publisher``, plus a ``cluster`` catch-all) and routes
dotted metric names to trees by their first segment, so
``proxy.retries`` is the *same* :class:`Counter` object no matter which
component's view touches it.

Components receive a :class:`ScopedRegistry` — a drop-in
``MetricsRegistry`` subclass whose get-or-create methods delegate
through the owning :class:`Telemetry`'s routing.  Existing code that
takes ``metrics: MetricsRegistry`` keeps working unchanged, and
``repro-lint``'s ``rogue-registry`` rule now forbids constructing bare
registries anywhere else in ``repro``
(:func:`component_registry` is the sanctioned standalone default).

:meth:`Telemetry.samples` snapshots every tree into flat
:class:`MetricSample` rows — the feed the
:class:`~repro.obs.selfreport.SelfReporter` writes back into the
simulated OpenTSDB as ``{component}.{metric}`` series with ``host``
tags (per-label counter children become per-host series, exactly like
OpenTSDB's own ``tsd.*`` self-metrics).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)

__all__ = [
    "DEFAULT_COMPONENT",
    "ROUTES",
    "MetricSample",
    "ScopedRegistry",
    "Telemetry",
    "component_registry",
]

#: The catch-all component tree for names no route claims.
DEFAULT_COMPONENT = "cluster"

#: First dotted-name segment -> owning component tree.  Unlisted
#: prefixes fall through to the :data:`DEFAULT_COMPONENT` tree so
#: routing is total (and identical from every component's view).
ROUTES: Dict[str, str] = {
    "proxy": "proxy",
    "tsd": "tsd",
    "client": "tsd",  # the AsyncHBase-style client lives inside the TSDs
    "regionserver": "regionserver",
    "rpc": "regionserver",
    "cells": "regionserver",
    "engine": "engine",
    "pipeline": "engine",
    "publish": "publisher",
    "chaos": "chaos",
    "serve": "serve",  # the query-serving gateway (cache/admission)
    "alerting": "alerting",  # incident dedup/suppression/roll-up tier
    "master": "master",  # region assignment, crash recovery, failovers
    "replication": "replication",  # follower replicas and WAL shipping
}

#: Histogram quantiles exported as ``<name>.<suffix>`` self-metrics.
_HISTOGRAM_EXPORTS: Tuple[Tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
)


@dataclass(frozen=True)
class MetricSample:
    """One flattened metric value ready for TSDB write-back."""

    name: str
    value: float
    host: str


class Telemetry:
    """Owns the component registries and routes metric names to them."""

    def __init__(self) -> None:
        self._trees: Dict[str, MetricsRegistry] = {}
        self._views: Dict[str, "ScopedRegistry"] = {}
        #: The default component's view — a drop-in registry for code
        #: that wants "the" cluster-wide metrics object.
        self.root: "ScopedRegistry" = self.registry(DEFAULT_COMPONENT)

    # ------------------------------------------------------------------
    # trees and views
    # ------------------------------------------------------------------
    def component_for(self, name: str) -> str:
        """The component tree owning a dotted metric name."""
        return ROUTES.get(name.split(".", 1)[0], DEFAULT_COMPONENT)

    def tree(self, component: str) -> MetricsRegistry:
        """The raw per-component registry (created on first use)."""
        registry = self._trees.get(component)
        if registry is None:
            registry = self._trees[component] = MetricsRegistry()
        return registry

    def registry(self, component: str) -> "ScopedRegistry":
        """A component's routed view (shared per component name)."""
        view = self._views.get(component)
        if view is None:
            view = self._views[component] = ScopedRegistry(self, component)
            self.tree(component)  # a view implies its tree exists
        return view

    def components(self) -> Tuple[str, ...]:
        """Component trees that exist so far, sorted."""
        return tuple(sorted(self._trees))

    # ------------------------------------------------------------------
    # routed get-or-create (the single source of metric identity)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.tree(self.component_for(name)).counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.tree(self.component_for(name)).gauge(name)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> LatencyHistogram:
        return self.tree(self.component_for(name)).histogram(name, bounds)

    # ------------------------------------------------------------------
    # snapshotting (the SelfReporter feed)
    # ------------------------------------------------------------------
    def samples(self) -> List[MetricSample]:
        """Flatten every tree into ``(name, value, host)`` rows.

        Counters emit their total (``host`` = owning component) plus one
        row per label child (``host`` = label); gauges emit their value;
        histograms with observations emit ``.p50/.p95/.p99/.mean/.count``
        sub-metrics.  Time-series recorders are skipped — they are
        already time series.
        """
        out: List[MetricSample] = []
        for component in sorted(self._trees):
            tree = self._trees[component]
            for name, counter in sorted(tree.counters.items()):
                out.append(MetricSample(name, counter.get(), component))
                for label, value in sorted(counter.labels().items()):
                    out.append(MetricSample(name, value, label))
            for name, gauge in sorted(tree.gauges.items()):
                out.append(MetricSample(name, gauge.value, component))
            for name, hist in sorted(tree.histograms.items()):
                if hist.count == 0:
                    continue
                for suffix, q in _HISTOGRAM_EXPORTS:
                    out.append(MetricSample(f"{name}.{suffix}", hist.quantile(q), component))
                out.append(MetricSample(f"{name}.mean", hist.mean, component))
                out.append(MetricSample(f"{name}.count", float(hist.count), component))
        return out


class ScopedRegistry(MetricsRegistry):
    """A component's view into a :class:`Telemetry`.

    Subclasses :class:`MetricsRegistry` so every existing
    ``metrics: MetricsRegistry`` parameter accepts it unchanged, but
    get-or-create goes through the telemetry's name routing — the view's
    own dataclass dicts stay empty; storage lives in the trees.
    """

    def __init__(self, telemetry: Telemetry, component: str) -> None:
        super().__init__()
        self._telemetry = telemetry
        self._component = component

    def counter(self, name: str) -> Counter:
        return self._telemetry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self._telemetry.gauge(name)

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> LatencyHistogram:
        return self._telemetry.histogram(name, bounds)


def component_registry(component: str = DEFAULT_COMPONENT) -> ScopedRegistry:
    """A standalone routed registry backed by its own private telemetry.

    The sanctioned default for components constructed without a shared
    ``metrics=`` argument (``repro-lint: rogue-registry`` forbids bare
    ``MetricsRegistry()`` construction outside ``repro.obs``).
    """
    return Telemetry().registry(component)
