"""Cost ratchet for the read path: a read costs what it returns.

Counts only — no wall time, so nothing here depends on the host.  On a
default (128 salt buckets, one region each) cluster:

* a query makes one ``Region.scan`` per salt bucket: the master prunes
  every range to the region it falls in;
* a query is planned once and read in one master pass over all its
  bucket ranges, not one master call per bucket;
* an exact single-series query is handed exactly the cells of the
  points it returns: the tag filter is applied inside the scan;
* the rows a scan looks at do not grow with data it does not ask for:
  other metrics and other hours are skipped by bisection, not walked.

A failure means some level of the scan went back to doing work in
proportion to the store instead of the answer.
"""

import pytest

from repro.hbase.master import HMaster
from repro.hbase.region import Region
from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery
from repro.tsdb.rowkey import RowKeyCodec
from repro.tsdb.tsd import DATA_TABLE, DataPoint

UNITS, SENSORS, POINTS = 4, 5, 60
T0 = 3 * 3600  # the probed hour; the bulk data lies in other hours


def points(metric, start, units=UNITS, n=POINTS):
    return [
        DataPoint.make(metric, start + i, float(i), {"unit": f"u{u}", "sensor": f"s{s}"})
        for u in range(units)
        for s in range(SENSORS)
        for i in range(n)
    ]


def bulk(cluster):
    """10x the probed data: other metrics at the same hour, and other hours."""
    for k in range(5):
        cluster.direct_put(points(f"other{k}", T0))
    for hour in (0, 1, 2, 4, 5):
        cluster.direct_put(points("energy", hour * 3600))


@pytest.fixture()
def cluster():
    cluster = build_cluster(n_nodes=4, retain_data=True)
    assert cluster.codec.salt_buckets == 128
    assert len(cluster.master.table_regions(DATA_TABLE)) == 128
    return cluster


@pytest.fixture()
def region_scans(monkeypatch):
    calls = []
    scan = Region.scan

    def counting_scan(self, *args, **kwargs):
        calls.append(self.info.name)
        return scan(self, *args, **kwargs)

    monkeypatch.setattr(Region, "scan", counting_scan)
    return calls


@pytest.fixture()
def read_passes(monkeypatch):
    """Calls of the master's one range-read loop and of the range planner."""
    calls = {"master_reads": 0, "plans": 0}

    def counted(key, method):
        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(HMaster, "_scan", counted("master_reads", HMaster._scan))
    monkeypatch.setattr(RowKeyCodec, "scan_ranges", counted("plans", RowKeyCodec.scan_ranges))
    return calls


class TestScanCostGate:
    def test_one_region_scan_per_salt_bucket(self, cluster, region_scans):
        bulk(cluster)
        cluster.direct_put(points("energy", T0))
        engine = cluster.query_engine()
        query = TsdbQuery("energy", T0, T0 + POINTS, group_by=("unit",))
        del region_scans[:]
        assert engine.run(query)
        assert len(region_scans) == cluster.codec.salt_buckets
        del region_scans[:]
        assert engine.run_available(query).series
        assert len(region_scans) == cluster.codec.salt_buckets

    def test_one_plan_and_one_master_read_per_query(self, cluster, read_passes):
        bulk(cluster)
        cluster.direct_put(points("energy", T0))
        engine = cluster.query_engine()
        query = TsdbQuery("energy", T0, T0 + POINTS, group_by=("unit",))
        for execute in (engine.run, engine.run_available):
            read_passes.update(master_reads=0, plans=0)
            assert execute(query)
            assert read_passes == {"master_reads": 1, "plans": 1}

    def test_single_series_query_is_handed_only_its_own_cells(self, cluster):
        bulk(cluster)
        cluster.direct_put(points("energy", T0))
        engine = cluster.query_engine()
        query = TsdbQuery("energy", T0, T0 + POINTS, tag_filters={"unit": "u1", "sensor": "s2"})
        before = engine.scan_cells
        (series,) = engine.run(query)
        assert len(series) == POINTS
        assert engine.scan_cells - before == POINTS

    def test_rows_visited_do_not_grow_with_unrelated_data(self):
        def rows_visited(preload):
            cluster = build_cluster(n_nodes=4, retain_data=True)
            if preload:
                bulk(cluster)
            cluster.direct_put(points("energy", T0))
            visited = []

            def counting_filter(row):
                visited.append(row)
                return True

            metric_uid = cluster.uids.get("metric", "energy")
            cells = 0
            for lo, hi in cluster.codec.scan_ranges(metric_uid, T0, T0 + POINTS):
                cells += len(cluster.master.direct_scan(DATA_TABLE, lo, hi, counting_filter))
            assert cells == UNITS * SENSORS * POINTS
            return len(visited)

        alone = rows_visited(preload=False)
        assert alone == UNITS * SENSORS  # one row per series-hour
        assert rows_visited(preload=True) == alone
