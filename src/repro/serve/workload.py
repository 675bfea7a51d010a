"""Seeded multi-client fleet workload against the serving gateway.

Simulates the control-center's read traffic — the "thousands of
operators" regime the ROADMAP targets — as three client populations:

* **overview pollers**: every dashboard poll re-issues the same
  fleet-wide grouped query on a fixed period (phase-jittered per
  client), remembering its last ETag so unchanged polls ride the
  ``NotModified`` path;
* **drill-down browsers**: operators stepping through machines, each
  think-time issuing a per-unit sensor breakdown — a long tail of
  distinct queries that exercises LRU churn;
* **hot-unit stampede**: N clients converging on one machine at the
  same instant (an incident), the scenario admission control exists
  for.

Everything is driven through :meth:`QueryGateway.serve_async` on the
deployment's simulator, so latencies are simulated seconds and runs
are bit-reproducible per seed.  The resulting
:class:`WorkloadReport` carries the latency distribution, hit/stale/
shed accounting and the conservation invariant
``issued == served + shed`` (every request gets exactly one completion
or rejection — nothing is silently dropped).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..tsdb.query import TsdbQuery
from .admission import QueryRejected
from .gateway import QueryGateway, ServeResult

__all__ = ["FleetWorkload", "WorkloadConfig", "WorkloadReport"]

#: Dashboards polling the fleet overview, and their poll period (s).
N_OVERVIEW_POLLERS = 16
POLL_INTERVAL = 1.0

#: Operators browsing machine pages, and their mean think time (s).
N_DRILLDOWN = 4
DRILL_INTERVAL = 1.5


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the simulated client fleet."""

    n_stampede: int = 0
    duration: float = 10.0
    stampede_at: float = 5.0
    deadline: Optional[float] = None  # per-request; None -> gateway default
    seed: int = 7

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass
class WorkloadReport:
    """Outcome of one workload run (latencies in simulated seconds)."""

    issued: int = 0
    served: int = 0
    hits: int = 0
    misses: int = 0
    stale_serves: int = 0
    not_modified: int = 0
    shed: int = 0
    stale_unaccounted: int = 0
    shed_reasons: Dict[str, int] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)
    stale_ages: List[float] = field(default_factory=list)

    @property
    def hit_ratio(self) -> float:
        """Fraction of served responses answered without executing."""
        if self.served == 0:
            return 0.0
        return (self.served - self.misses) / self.served

    @property
    def shed_rate(self) -> float:
        if self.issued == 0:
            return 0.0
        return self.shed / self.issued

    def latency_quantile(self, q: float) -> float:
        """Exact empirical quantile over served-response latencies."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    def check_conservation(self) -> None:
        """Every issued request resolved exactly once, or raise."""
        if self.served + self.shed != self.issued:
            raise AssertionError(
                f"conservation violated: issued={self.issued} != "
                f"served={self.served} + shed={self.shed}"
            )

    def summary(self) -> str:
        return (
            f"issued={self.issued} served={self.served} "
            f"(hits={self.hits} stale={self.stale_serves} nm={self.not_modified} "
            f"miss={self.misses}) shed={self.shed} "
            f"hit_ratio={self.hit_ratio:.2f} "
            f"p50={self.latency_quantile(0.5) * 1000:.2f}ms "
            f"p99={self.latency_quantile(0.99) * 1000:.2f}ms"
        )


class FleetWorkload:
    """Drive a seeded client fleet through a gateway on its simulator."""

    def __init__(
        self,
        gateway: QueryGateway,
        metric: str,
        units: Sequence[str],
        window: Tuple[int, int],
        config: Optional[WorkloadConfig] = None,
    ) -> None:
        if not units:
            raise ValueError("need at least one unit")
        self.gateway = gateway
        self.metric = metric
        self.units = list(units)
        self.window = window
        self.config = config if config is not None else WorkloadConfig()
        self.report = WorkloadReport()
        self._rng = random.Random(self.config.seed)
        self._etags: Dict[str, Dict[str, str]] = {}
        self._stop_at = 0.0

    # ------------------------------------------------------------------
    # query shapes
    # ------------------------------------------------------------------
    def overview_query(self) -> TsdbQuery:
        """The fleet-overview poll: one series per unit, whole window."""
        start, end = self.window
        return TsdbQuery(
            metric=self.metric,
            start=start,
            end=end,
            tag_filters={"unit": "*"},
            group_by=("unit",),
            aggregator="max",
        )

    def drilldown_query(self, unit: str) -> TsdbQuery:
        """A machine page: per-sensor breakdown for one unit."""
        start, end = self.window
        return TsdbQuery(
            metric=self.metric,
            start=start,
            end=end,
            tag_filters={"unit": unit, "sensor": "*"},
            group_by=("sensor",),
            aggregator="max",
        )

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(self, drain: bool = True) -> WorkloadReport:
        """Run the fleet for ``config.duration`` sim-seconds.

        With ``drain`` (default) the simulator then runs to quiescence
        so every queued request resolves — the conservation invariant
        is checked before returning.
        """
        sim = self.gateway.sim
        cfg = self.config
        self._stop_at = sim.now + cfg.duration
        for i in range(N_OVERVIEW_POLLERS):
            client = f"poller{i:03d}"
            phase = self._rng.uniform(0.0, POLL_INTERVAL)
            sim.schedule(phase, self._poll_tick, client)
        for i in range(N_DRILLDOWN):
            client = f"browser{i:03d}"
            phase = self._rng.uniform(0.0, DRILL_INTERVAL)
            sim.schedule(phase, self._drill_tick, client)
        if cfg.n_stampede > 0:
            for i in range(cfg.n_stampede):
                client = f"stampede{i:03d}"
                sim.schedule(cfg.stampede_at, self._stampede_shot, client)
        sim.run(until=self._stop_at)
        if drain:
            sim.run()  # let queued executions, deadlines and refreshes resolve
        self.report.check_conservation()
        return self.report

    # ------------------------------------------------------------------
    # client behaviours
    # ------------------------------------------------------------------
    def _poll_tick(self, client: str) -> None:
        sim = self.gateway.sim
        if sim.now >= self._stop_at:
            return
        self._issue(client, self.overview_query(), remember_etag=True)
        sim.schedule(POLL_INTERVAL, self._poll_tick, client)

    def _drill_tick(self, client: str) -> None:
        sim = self.gateway.sim
        if sim.now >= self._stop_at:
            return
        unit = self._rng.choice(self.units)
        self._issue(client, self.drilldown_query(unit), remember_etag=False)
        think = DRILL_INTERVAL * self._rng.uniform(0.5, 1.5)
        sim.schedule(think, self._drill_tick, client)

    def _stampede_shot(self, client: str) -> None:
        self._issue(client, self.drilldown_query(self.units[0]), remember_etag=False)

    # ------------------------------------------------------------------
    # issue/complete plumbing
    # ------------------------------------------------------------------
    def _issue(self, client: str, query: TsdbQuery, remember_etag: bool) -> None:
        self.report.issued += 1
        etag: Optional[str] = None
        if remember_etag:
            etag = self._etags.get(client, {}).get(query.metric)

        def done(result: ServeResult) -> None:
            self._on_done(client, query, result, remember_etag)

        self.gateway.serve_async(
            query,
            client,
            on_done=done,
            on_reject=lambda exc: self._on_reject(exc),
            deadline=self.config.deadline,
            if_none_match=etag,
        )

    def _on_done(
        self, client: str, query: TsdbQuery, result: ServeResult, remember_etag: bool
    ) -> None:
        rep = self.report
        rep.served += 1
        rep.latencies.append(result.latency)
        if result.status == "hit":
            rep.hits += 1
        elif result.status == "stale":
            rep.stale_serves += 1
            if result.age > 0.0:
                rep.stale_ages.append(result.age)
            else:
                # A stale serve must always be age-stamped; anything
                # else is a staleness-accounting bug (E14 asserts 0).
                rep.stale_unaccounted += 1
        else:
            rep.misses += 1
        if result.not_modified:
            rep.not_modified += 1
        if remember_etag:
            self._etags.setdefault(client, {})[query.metric] = result.etag

    def _on_reject(self, exc: QueryRejected) -> None:
        rep = self.report
        rep.shed += 1
        rep.shed_reasons[exc.reason] = rep.shed_reasons.get(exc.reason, 0) + 1
