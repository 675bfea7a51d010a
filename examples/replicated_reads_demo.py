#!/usr/bin/env python3
"""Replicated-reads quick-start: reads that survive RegionServer crashes.

Stands up a 3-node simulated cluster with one follower replica per
region (``replication_factor=2``) and a deliberately slow failure
detector, then walks the read path through a crash:

* **healthy**: a strong read answers from primaries, staleness 0;
* **inside the crash window** (master has not noticed yet): a
  deadline-bounded, hedged ``timeline`` read fails over to follower
  replicas and still returns the full answer, with the staleness bound
  surfaced; the gateway serves the same query flagged ``degraded``;
* **after detection**: the master promotes the most-caught-up follower
  and replays each region's log — strong reads work again and every
  acked point reads back.

Run:  python examples/replicated_reads_demo.py
"""

from repro import build_cluster
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DataPoint

METRIC = "energy"
N_POINTS = 600
DETECTION_DELAY = 1.0


def main() -> None:
    cluster = build_cluster(
        n_nodes=3,
        salt_buckets=4,
        retain_data=True,
        replication_factor=2,
        failure_detection_delay=DETECTION_DELAY,
    )
    acked = cluster.direct_put(
        [
            DataPoint.make(METRIC, 1_000 + i, float(i % 23), {"unit": f"u{i % 5}"})
            for i in range(N_POINTS)
        ]
    )
    sim = cluster.sim
    query = TsdbQuery(METRIC, 0, 1_000 + N_POINTS + 1, aggregator="sum")
    engine = cluster.query_engine()
    gateway = cluster.gateway()
    executor = cluster.async_query_executor("demo-client")

    stats = cluster.replication.stats()
    print("== replica placement ==")
    print(
        f"regions={stats['regions']} followers={stats['followers']}"
        f" (one follower per region, on a different server)"
    )

    print("\n== healthy: strong read from primaries ==")
    healthy = engine.run_available(query)
    print(
        f"mode={healthy.mode} staleness={healthy.staleness:.3f}"
        f" points={sum(len(s) for s in healthy.series)}"
    )

    victim = cluster.servers[0]
    victim.crash()
    print(f"\n== {victim.name} crashed (detector fires in {DETECTION_DELAY:.1f}s) ==")

    probes = []
    executor.execute(
        query, probes.append, consistency="timeline", deadline=0.05, hedge_delay=0.02
    )
    sim.run(until=sim.now + 0.3)  # well inside the undetected window
    probe = probes[0]
    print(
        f"timeline probe: complete={probe.complete}"
        f" points={sum(len(s) for s in probe.series)}"
        f" latency={probe.latency * 1e3:.1f}ms"
        f" follower_reads={probe.follower_reads} hedges={probe.hedges}"
        f" staleness<={probe.staleness:.3f}s"
    )
    served = gateway.serve(query)
    print(
        f"gateway serve:  degraded={served.degraded}"
        f" max_staleness={served.max_staleness:.3f}s (answer not cached)"
    )

    sim.run(until=sim.now + DETECTION_DELAY + 0.5)
    print("\n== after detection: followers promoted, region logs replayed ==")
    recovered = engine.run_available(query)
    print(
        f"mode={recovered.mode}"
        f" points={sum(len(s) for s in recovered.series)}"
    )
    print(
        f"failovers={int(cluster.metrics.counter('master.failovers').get())}"
        f" acked points read back={sum(len(s) for s in recovered.series)}/{acked}"
    )


if __name__ == "__main__":
    main()
