#!/usr/bin/env python3
"""Serving-tier quick-start: cached, admission-controlled dashboards.

Stands up a small simulated deployment, seeds it with fleet data, and
puts the :class:`QueryGateway` between the dashboard traffic and the
storage tier:

* a **fleet workload** (overview pollers + drill-down browsers + a
  hot-unit stampede) runs on the simulator clock and reports the
  latency / hit-ratio / shed-rate distributions;
* the **ETag path**: an unchanged poll answers ``304 NotModified``
  instead of re-serializing the result;
* **write-through invalidation**: landing a fresh point evicts exactly
  the overlapping cache entries, so the next poll re-executes;
* **stale-while-revalidate**: with every TSD crashed the gateway keeps
  answering from expired entries, age-stamped, until the tier heals.

Run:  python examples/serving_demo.py
"""

from repro import GatewayConfig, build_cluster
from repro.serve import FleetWorkload, ServeServiceModel, WorkloadConfig
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DataPoint

METRIC = "energy"
UNITS = tuple(f"u{i}" for i in range(4))
SENSORS = tuple(f"s{i}" for i in range(3))


def seed(cluster) -> None:
    cluster.direct_put(
        [
            DataPoint.make(METRIC, t, float(t % 17 + 10 * u), {"unit": UNITS[u], "sensor": s})
            for t in range(120)
            for u in range(len(UNITS))
            for s in SENSORS
        ]
    )


def overview(start: int = 0, end: int = 120) -> TsdbQuery:
    return TsdbQuery(
        metric=METRIC,
        start=start,
        end=end,
        tag_filters={"unit": "*"},
        group_by=("unit",),
        aggregator="max",
    )


def main() -> None:
    cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
    seed(cluster)
    gateway = cluster.gateway(
        GatewayConfig(
            ttl=0.4,
            max_concurrent=2,
            max_queue=6,
            service_model=ServeServiceModel(overhead=0.05),
        )
    )

    print("== fleet workload through the gateway ==")
    report = FleetWorkload(
        gateway,
        METRIC,
        UNITS,
        (0, 120),
        WorkloadConfig(
            n_stampede=25,
            duration=8.0,
            stampede_at=4.0,
            deadline=0.5,
            seed=17,
        ),
    ).run()
    print(report.summary())
    print(
        f"conservation: issued={report.issued} == served={report.served}"
        f" + shed={report.shed}"
    )

    print("\n== ETag / NotModified ==")
    first = gateway.serve(overview())
    again = gateway.serve(overview(), if_none_match=first.etag)
    print(f"first poll:  status={first.status} etag={first.etag}")
    print(f"second poll: not_modified={again.not_modified} (no payload resent)")

    print("\n== write-through invalidation ==")
    cluster.direct_put([DataPoint.make(METRIC, 60, 999.0, {"unit": "u0", "sensor": "s0"})])
    after = gateway.serve(overview())
    print(f"after a write lands: status={after.status} (entry was evicted)")
    print(f"etag changed: {after.etag != first.etag}")

    print("\n== stale-while-revalidate under a TSD blackout ==")
    for tsd in cluster.tsds:
        tsd.crash()
    cluster.sim.schedule(2.0, lambda: None)
    cluster.sim.run(until=cluster.sim.now + 2.0)  # the entry's TTL lapses
    stale = gateway.serve(overview())
    print(f"all TSDs down: status={stale.status} age={stale.age:.2f}s — still answering")
    for tsd in cluster.tsds:
        tsd.restart()
    healed = gateway.serve(overview())
    print(f"after restart: status={healed.status} (re-executed against storage)")

    stats = gateway.stats()
    print(
        f"\ngateway counters: hits={stats['hits']} misses={stats['misses']}"
        f" stale_probes={stats['stale_probes']} invalidations={stats['invalidations']}"
        f" queue_high_water={stats['queue_high_water']}"
    )


if __name__ == "__main__":
    main()
