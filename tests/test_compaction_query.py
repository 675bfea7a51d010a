"""Tests for TSDB row compaction and the query engine."""

import numpy as np
import pytest

from repro.hbase.region import Cell, CellBatch
from repro.tsdb.compaction import (
    RowCompactor,
    compact_row_cells,
    decompact_columns,
    is_compacted,
)
from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery
from repro.tsdb.tsd import DataPoint


def loaded_cluster(n_points=120, n_units=2, n_sensors=3, **overrides):
    defaults = dict(n_nodes=2, salt_buckets=4, retain_data=True)
    defaults.update(overrides)
    cluster = build_cluster(**defaults)
    pts = []
    i = 0
    for t in range(n_points // (n_units * n_sensors)):
        for u in range(n_units):
            for s in range(n_sensors):
                pts.append(
                    DataPoint.make(
                        "energy", t, float(u * 100 + s + t), {"unit": f"u{u}", "sensor": f"s{s}"}
                    )
                )
                i += 1
    cluster.direct_put(pts)
    return cluster, pts


class TestCompactCells:
    def make_row_cells(self, n=5):
        row = b"\x01rowkey"
        return [
            Cell(row, offset.to_bytes(2, "big"), b"\x00" * 7 + bytes([offset]), float(offset))
            for offset in range(n)
        ]

    def compact(self, cells):
        """``compact_row_cells`` of a cell list: the blob as one ``Cell``."""
        (blob,) = compact_row_cells(CellBatch.from_cells(cells))
        return blob

    def test_compact_roundtrip(self):
        cells = self.make_row_cells(5)
        blob = self.compact(cells)
        assert is_compacted(blob.qualifier)
        assert blob.ts == 4.0  # the newest write it merged
        offsets, _ = decompact_columns(blob.qualifier, blob.value)
        assert list(offsets) == [0, 1, 2, 3, 4]

    def test_single_point_decompact(self):
        cell = self.make_row_cells(1)[0]
        assert not is_compacted(cell.qualifier)
        assert len(decompact_columns(cell.qualifier, cell.value)[0]) == 1

    def test_duplicate_offsets_newest_wins(self):
        row = b"\x01rk"
        old = Cell(row, (7).to_bytes(2, "big"), b"\x00" * 8, 1.0)
        new = Cell(row, (7).to_bytes(2, "big"), b"\xff" * 8, 2.0)
        for arrival in ([old, new], [new, old]):
            blob = self.compact(arrival)
            offsets, _ = decompact_columns(blob.qualifier, blob.value)
            assert list(offsets) == [7]
            assert blob.value == b"\xff" * 8

    def test_recompaction_merges_blob_and_points(self):
        cells = self.make_row_cells(3)
        blob = self.compact(cells)
        extra = Cell(cells[0].row, (9).to_bytes(2, "big"), b"\x00" * 8, 9.0)
        blob2 = self.compact([blob, extra])
        offsets, _ = decompact_columns(blob2.qualifier, blob2.value)
        assert list(offsets) == [0, 1, 2, 9]

    def test_mixed_rows_rejected(self):
        a = Cell(b"\x01r1", b"\x00\x01", b"\x00" * 8, 1.0)
        b = Cell(b"\x01r2", b"\x00\x01", b"\x00" * 8, 1.0)
        with pytest.raises(ValueError):
            self.compact([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            self.compact([])


class TestRowCompactor:
    def test_compacts_and_queries_identically(self):
        cluster, _ = loaded_cluster()
        engine = cluster.query_engine()
        query = TsdbQuery("energy", 0, 100, tag_filters={"unit": "u0"}, group_by=("sensor",))
        before = engine.run(query)
        compactor = cluster.compactor()
        rows = compactor.run()
        assert rows > 0
        after = engine.run(query)
        assert len(before) == len(after)
        for b, a in zip(before, after):
            assert np.array_equal(b.timestamps, a.timestamps)
            assert np.allclose(b.values, a.values)

    def test_second_run_is_noop(self):
        cluster, _ = loaded_cluster()
        compactor = cluster.compactor()
        compactor.run()
        merged_first = compactor.cells_merged
        second = cluster.compactor()
        second.run()
        assert second.cells_merged == 0 or second.rows_compacted == 0
        assert merged_first > 0

    def test_writes_after_compaction_visible(self):
        cluster, _ = loaded_cluster()
        cluster.compactor().run()
        cluster.direct_put(
            [DataPoint.make("energy", 5, 12345.0, {"unit": "u0", "sensor": "s0"})]
        )
        engine = cluster.query_engine()
        out = engine.run(
            TsdbQuery("energy", 0, 100,
                      tag_filters={"unit": "u0", "sensor": "s0"})
        )
        idx = list(out[0].timestamps).index(5)
        assert out[0].values[idx] == 12345.0


class TestQueryEngine:
    def test_group_by_sensor(self):
        cluster, _ = loaded_cluster(n_units=1, n_sensors=3)
        engine = cluster.query_engine()
        out = engine.run(
            TsdbQuery("energy", 0, 100, tag_filters={"unit": "u0"}, group_by=("sensor",))
        )
        assert len(out) == 3
        names = [s.tag_dict.get("sensor") for s in out]
        assert names == sorted(names)

    def test_exact_tag_filter(self):
        cluster, _ = loaded_cluster()
        engine = cluster.query_engine()
        out = engine.run(
            TsdbQuery("energy", 0, 100, tag_filters={"unit": "u1", "sensor": "s2"})
        )
        assert len(out) == 1
        # u1/s2 values are 100 + 2 + t
        assert out[0].values[0] == 102.0

    def test_wildcard_filter(self):
        cluster, _ = loaded_cluster()
        engine = cluster.query_engine()
        out = engine.run(
            TsdbQuery("energy", 0, 100, tag_filters={"unit": "*"}, group_by=("unit",))
        )
        assert len(out) == 2

    def test_aggregate_across_group(self):
        cluster, _ = loaded_cluster(n_units=1, n_sensors=2)
        engine = cluster.query_engine()
        out = engine.run(TsdbQuery("energy", 0, 100, aggregator="sum"))
        # sum of (0 + t) and (1 + t) = 1 + 2t
        assert out[0].values[0] == 1.0
        assert out[0].values[1] == 3.0

    def test_time_range_half_open(self):
        cluster, _ = loaded_cluster()
        engine = cluster.query_engine()
        out = engine.run(
            TsdbQuery("energy", 2, 5, tag_filters={"unit": "u0", "sensor": "s0"})
        )
        assert list(out[0].timestamps) == [2, 3, 4]

    def test_downsample(self):
        cluster, _ = loaded_cluster()
        engine = cluster.query_engine()
        out = engine.run(
            TsdbQuery(
                "energy", 0, 100, tag_filters={"unit": "u0", "sensor": "s0"},
                downsample_window=5, downsample_aggregator="avg",
            )
        )
        assert list(out[0].timestamps)[:2] == [0, 5]
        assert out[0].values[0] == pytest.approx(2.0)  # avg of t=0..4

    def test_rate(self):
        cluster, _ = loaded_cluster()
        engine = cluster.query_engine()
        out = engine.run(
            TsdbQuery("energy", 0, 100, tag_filters={"unit": "u0", "sensor": "s0"},
                      rate=True)
        )
        assert np.allclose(out[0].values, 1.0)  # values are t + const

    def test_unknown_metric_empty(self):
        cluster, _ = loaded_cluster()
        assert cluster.query_engine().run(TsdbQuery("ghost", 0, 100)) == []

    def test_no_matching_tags_empty(self):
        cluster, _ = loaded_cluster()
        out = cluster.query_engine().run(
            TsdbQuery("energy", 0, 100, tag_filters={"unit": "u99"})
        )
        assert out == []

    def test_missing_tag_key_filter(self):
        cluster, _ = loaded_cluster()
        out = cluster.query_engine().run(
            TsdbQuery("energy", 0, 100, tag_filters={"site": "atlanta"})
        )
        assert out == []

    def test_series_for_raw_access(self):
        cluster, _ = loaded_cluster(n_units=1, n_sensors=3)
        engine = cluster.query_engine()
        raw = engine.series_for(TsdbQuery("energy", 0, 100, tag_filters={"unit": "u0"}))
        assert len(raw) == 3

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            TsdbQuery("energy", 10, 10)

    def test_query_spans_hours(self):
        cluster = build_cluster(n_nodes=1, salt_buckets=2, retain_data=True)
        pts = [
            DataPoint.make("energy", t, float(t), {"unit": "u0", "sensor": "s0"})
            for t in (100, 3500, 3700, 7300)
        ]
        cluster.direct_put(pts)
        out = cluster.query_engine().run(TsdbQuery("energy", 0, 10000))
        assert list(out[0].timestamps) == [100, 3500, 3700, 7300]
