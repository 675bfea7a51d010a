"""Regression gate for the columnar block hot path (E15).

Simulated goodput is deterministic per seed — a drop below the
recorded floor means someone made the block path pay per-point costs
again (or broke block formation), not that the machine was busy.
Wall-clock numbers are deliberately not gated here.
"""

import json
from pathlib import Path

import pytest

from repro.bench import REGISTRY

RECORD = Path(__file__).parent.parent / "benchmarks" / "records" / "e15.json"

# Recorded quick-mode floor: the quick run measures ~125k pts/s
# (2,500 points, batches of 100, 2 nodes).  The floor leaves ~20%
# headroom for intentional cost-model tweaks; the 5x-vs-E12 criterion
# is asserted exactly.
QUICK_GOODPUT_FLOOR = 100_000.0


@pytest.fixture(scope="module")
def e15_quick():
    return REGISTRY.run("e15", quick=True)


class TestBlockHotpathGate:
    def test_block_goodput_above_recorded_floor(self, e15_quick):
        assert e15_quick.numbers["block_goodput"] >= QUICK_GOODPUT_FLOOR

    def test_block_path_meets_5x_baseline_criterion(self, e15_quick):
        assert e15_quick.numbers["speedup_vs_e12_baseline"] >= 5.0

    def test_block_path_beats_pointwise_same_workload(self, e15_quick):
        assert e15_quick.numbers["block_goodput"] > e15_quick.numbers["point_goodput"]

    def test_no_points_lost_on_either_path(self, e15_quick):
        assert e15_quick.numbers["point_failed"] == 0
        assert e15_quick.numbers["block_failed"] == 0
        assert e15_quick.numbers["point_written"] == e15_quick.numbers["block_written"]

    def test_columnar_reads_bit_identical(self, e15_quick):
        assert e15_quick.numbers["read_identical"] == 1.0


class TestBenchJsonRecord:
    def test_recorded_bench_json_is_consistent(self):
        """The committed E15 record must carry the gated claims."""
        record = json.loads(RECORD.read_text())
        assert record["experiment_id"] == "E15"
        numbers = record["full"]["numbers"]
        assert numbers["speedup_vs_e12_baseline"] >= 5.0
        assert numbers["read_identical"] == 1.0
        assert numbers["block_failed"] == 0
