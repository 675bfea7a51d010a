#!/usr/bin/env python3
"""Failure injection: durability of acknowledged writes under crashes.

Kills RegionServers randomly (Poisson MTBF) while a fleet streams data
through the full simulated RPC path, then audits the store: every
acknowledged sample must be readable back — the WAL-replay recovery
guarantee (memstores die with the server; each region's log does not).

Run:  python examples/failure_injection.py
"""

from repro import FleetConfig, FleetGenerator, IngestionDriver, build_cluster
from repro.cluster import RandomCrashInjector
from repro.simdata import fleet_stream
from repro.tsdb import TsdbQuery


def main() -> None:
    fleet = FleetGenerator(FleetConfig(n_units=3, n_sensors=10, seed=71))
    cluster = build_cluster(n_nodes=3, retain_data=True)

    # Kill a random RegionServer roughly every 2 simulated seconds,
    # restarting 1s later.  The master replays region logs and reassigns.
    injectors = []
    for server in cluster.servers:
        injector = RandomCrashInjector(
            cluster.sim,
            crash=server.crash,
            restart=server.restart,
            mtbf=6.0,  # per-server; cluster-wide ~2s between failures
            mttr=1.0,
            seed=hash(server.name) % 1000,
        )
        injector.arm()
        injectors.append(injector)

    workload = fleet_stream(fleet, n_samples=120, batch_size=30)
    driver = IngestionDriver(cluster, workload, offered_rate=4_000, batch_size=30)
    print("== streaming 3 units x 10 sensors x 120s with crash injection ==")
    report = driver.run(duration=8.0, drain=10.0)

    crashes = cluster.total_crashes()
    print(f"server crashes injected: {crashes}")
    print(f"offered:   {report.offered_samples:6d} samples")
    print(f"committed: {report.committed_samples:6d} samples (durably acknowledged)")
    print(f"failed:    {report.failed_samples:6d} samples (reported to the client)")

    print("\n== audit: every acknowledged sample must be readable ==")
    engine = cluster.query_engine()
    stored = 0
    for unit in fleet.units():
        series = engine.run(
            TsdbQuery("energy", 0, 10_000,
                      tag_filters={"unit": f"unit{unit:03d}"}, group_by=("sensor",))
        )
        stored += sum(len(s) for s in series)
    print(f"samples stored & queryable: {stored}")
    assert stored >= report.committed_samples, "durability violated!"
    print("durability holds: stored >= committed "
          f"({stored} >= {report.committed_samples})")
    recoveries = int(cluster.metrics.counter("master.recoveries").get())
    print(f"\nmaster recoveries: {recoveries}, "
          f"samples read back: {stored} of {report.committed_samples} acknowledged")


if __name__ == "__main__":
    main()
