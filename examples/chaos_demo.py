#!/usr/bin/env python3
"""Chaos harness quick-start: publish through injected failures.

Builds a small simulated deployment, arms a declarative fault plan —
a TSD daemon crash mid-publish, a RegionServer host partition, and a
degraded link — and pushes a fleet's analysis results through the
hardened ingest path while the faults replay.  Afterwards it prints
the chaos report (what fired, downtime per component) and the delivery
accounting, which must balance to the point: every submitted point is
written, permanently failed, or dead-lettered — never silently lost.

Run:  python examples/chaos_demo.py
"""

from repro import FleetConfig, FleetGenerator, build_cluster
from repro.chaos import FaultEvent, FaultPlan, Injector
from repro.core import AnomalyPipeline
from repro.tsdb.query import TsdbQuery


def main() -> None:
    fleet = FleetGenerator(FleetConfig(n_units=3, n_sensors=6, seed=19))
    cluster = build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)

    plan = FaultPlan(
        name="demo",
        seed=5,
        events=(
            # Crash one TSD as the publish drain starts: it silently
            # swallows the batches already in flight to it, their acks
            # time out, its breaker ejects it, and it restarts 400ms later.
            FaultEvent(at=0.0, action="tsd_crash", target="tsd00", duration=0.4),
            # Cut a RegionServer host off the network for 500ms.
            FaultEvent(at=0.10, action="partition", target="node01", duration=0.5),
            # And run the surviving host's links 4x slower for a while.
            FaultEvent(at=0.10, action="slow_link", target="node00",
                       factor=4.0, duration=0.5),
        ),
    )
    injector = Injector(cluster, plan)
    injector.arm()

    pipeline = AnomalyPipeline(fleet, cluster=cluster)
    print("== publishing a 3-unit fleet while the fault plan replays ==\n")
    result = pipeline.run(n_train=80, n_eval=120)
    chaos = injector.finalize()

    print(chaos.summary())

    # The fault windows go into the store beside the self-metrics, as
    # 0/1 ``chaos.down`` edges at one-second resolution.
    cluster.self_reporter(chaos_report=chaos).write_chaos_windows()
    end = int(cluster.sim.now) + 2
    print("\n== fault windows as stored (chaos.down edges, sim-seconds) ==")
    for series in cluster.query_engine().run(
        TsdbQuery("chaos.down", 0, end, group_by=("host",), aggregator="max")
    ):
        edges = ", ".join(
            f"{'down' if v else 'up'}@{t}" for t, v in zip(series.timestamps, series.values)
        )
        print(f"  {series.tag_dict['host']:8s} {edges}")

    proxy = cluster.ingress
    print("\n== hardening machinery ==")
    print(f"  proxy retries            {proxy.retried}")
    print(f"  ack timeouts             {proxy.ack_timeouts}")
    print(f"  breaker ejections        {proxy.breaker_ejections()}")

    print("\n== delivery accounting ==")
    for label, rep in (("data", result.data_publish),
                       ("anomaly", result.anomaly_publish)):
        rep.check_conservation()
        print(
            f"  {label:8s} submitted={rep.points_submitted:6d}  "
            f"written={rep.points_written:6d}  failed={rep.points_failed}  "
            f"dead-lettered={rep.points_dead_lettered}  "
            f"retransmits={rep.retransmits}"
        )
    print("\nconservation holds: every point accounted exactly once")


if __name__ == "__main__":
    main()
