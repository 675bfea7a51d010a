"""Regression gate for the replicated read path (E16).

The simulated run is deterministic per seed — a drop in in-window
availability means someone broke follower reads, hedging, or the
retry/deadline machinery, not that the machine was busy.  Wall-clock
numbers are deliberately not gated here.
"""

import json
from pathlib import Path

import pytest

from repro.bench import REGISTRY
from repro.bench.experiments import E16_OVERHEAD_BUDGET, E16_STALENESS_BOUND

RECORD = Path(__file__).parent.parent / "benchmarks" / "records" / "e16.json"


@pytest.fixture(scope="module")
def e16_quick():
    return REGISTRY.run("e16", quick=True)


class TestReplicatedReadsGate:
    def test_replicated_in_window_availability(self, e16_quick):
        assert e16_quick.numbers["replicated_availability"] >= 0.99

    def test_unreplicated_reads_collapse_in_window(self, e16_quick):
        assert e16_quick.numbers["unreplicated_availability"] <= 0.20

    def test_probe_samples_cover_the_windows(self, e16_quick):
        # the availability ratios must rest on actual in-window probes
        assert e16_quick.numbers["replicated_probes_in_window"] >= 4
        assert e16_quick.numbers["unreplicated_probes_in_window"] >= 4

    def test_timeline_staleness_stays_bounded(self, e16_quick):
        assert e16_quick.numbers["replicated_max_staleness"] <= E16_STALENESS_BOUND

    def test_failover_promotes_without_synced_loss(self, e16_quick):
        numbers = e16_quick.numbers
        assert numbers["replicated_failovers"] > 0
        assert numbers["replicated_synced_cells_lost"] == 0
        assert (
            numbers["replicated_post_crash_strong_points"]
            == numbers["points_expected"]
        )

    def test_unreplicated_recovery_also_lossless(self, e16_quick):
        # WAL replay alone (rf=1) must still recover every synced cell
        numbers = e16_quick.numbers
        assert numbers["unreplicated_synced_cells_lost"] == 0
        assert (
            numbers["unreplicated_post_crash_strong_points"]
            == numbers["points_expected"]
        )

    def test_replication_overhead_within_budget(self, e16_quick):
        assert e16_quick.numbers["overhead_frac"] <= E16_OVERHEAD_BUDGET

    def test_strong_mode_gateway_bit_identical(self, e16_quick):
        assert e16_quick.numbers["strong_identical"] == 1.0


class TestBenchJsonRecord:
    def test_recorded_bench_json_is_consistent(self):
        """The committed E16 record must carry the gated claims."""
        record = json.loads(RECORD.read_text())
        assert record["experiment_id"] == "E16"
        numbers = record["full"]["numbers"]
        assert numbers["replicated_availability"] >= 0.99
        assert numbers["unreplicated_availability"] <= 0.20
        assert numbers["replicated_synced_cells_lost"] == 0
        assert numbers["overhead_frac"] <= E16_OVERHEAD_BUDGET
        assert numbers["strong_identical"] == 1.0
