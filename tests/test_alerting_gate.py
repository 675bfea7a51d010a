"""Regression gate for the streaming detection + alerting tier (E17).

The run is deterministic per seed — the stream, the detector's
refresh cadence, and the alerting state machine contain no wall-clock
coupling, so a change in reduction, misses, or latency means someone
broke the detection path or the suppression layer, not that the
machine was busy.  Wall-clock numbers are deliberately not gated here.
"""

import json
from pathlib import Path

import pytest

from repro.bench import REGISTRY
from repro.bench.experiments import E17_REDUCTION_FLOOR

RECORD = Path(__file__).parent.parent / "benchmarks" / "records" / "e17.json"


@pytest.fixture(scope="module")
def e17_quick():
    return REGISTRY.run("e17", quick=True)


class TestAlertingGate:
    def test_volume_reduction_meets_floor(self, e17_quick):
        assert e17_quick.numbers["volume_reduction"] >= E17_REDUCTION_FLOOR

    def test_reduction_rests_on_real_firings(self, e17_quick):
        # a trivial run (nothing fired, nothing opened) must not pass
        assert e17_quick.numbers["naive_alerts"] >= 100
        assert e17_quick.numbers["incidents_opened"] >= 1

    def test_no_injected_fault_is_missed(self, e17_quick):
        numbers = e17_quick.numbers
        assert numbers["faulted_units"] >= 3
        assert numbers["missed_units"] == 0
        assert numbers["detected_units"] == numbers["faulted_units"]

    def test_no_spurious_unit_incidents(self, e17_quick):
        assert e17_quick.numbers["spurious_unit_incidents"] == 0

    def test_detection_latency_recorded_and_bounded(self, e17_quick):
        numbers = e17_quick.numbers
        assert 0 < numbers["latency_mean"] <= numbers["latency_max"]
        # incidents open while the eval window is still streaming
        assert numbers["latency_max"] <= 300

    def test_models_hot_swap_during_the_run(self, e17_quick):
        assert e17_quick.numbers["model_swaps"] >= 8  # one initial fit per unit

    def test_publish_channels_conserve(self, e17_quick):
        numbers = e17_quick.numbers
        assert numbers["data_unaccounted"] == 0
        assert numbers["anomaly_unaccounted"] == 0
        assert numbers["alert_unaccounted"] == 0
        assert numbers["data_submitted"] == numbers["samples_streamed"]

    def test_incidents_round_trip_through_the_tsdb(self, e17_quick):
        numbers = e17_quick.numbers
        assert numbers["stored_alert_incidents"] == numbers["incidents_opened"]


class TestBenchJsonRecord:
    def test_recorded_bench_json_is_consistent(self):
        """The committed E17 record must carry the gated claims."""
        record = json.loads(RECORD.read_text())
        assert record["experiment_id"] == "E17"
        numbers = record["full"]["numbers"]
        assert numbers["volume_reduction"] >= E17_REDUCTION_FLOOR
        assert numbers["missed_units"] == 0
        assert numbers["spurious_unit_incidents"] == 0
        assert numbers["alert_unaccounted"] == 0
        assert record["full"]["wall"]["samples_per_second"] > 0
