"""Self-tests of the span recorder.

Run explicitly: ``pytest benchmarks/perf/test_spans.py`` (tier-1
``testpaths`` does not collect this directory).
"""

import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import repro  # noqa: E402
import repro.tsdb.query  # noqa: E402
from repro import FleetConfig, FleetGenerator, SparkletContext  # noqa: E402
from repro.cluster.simulation import Simulator  # noqa: E402
from repro.hbase.region import Region  # noqa: E402
from repro.tsdb import compaction, lineprotocol  # noqa: E402
from repro.tsdb.query import QueryEngine  # noqa: E402

from spans import Recorder  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_and_sibling_spans():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def leaf(seconds):
        clock.advance(seconds)

    leaf_a = recorder.wrap(leaf, "t:leaf_a", "layer.a")
    leaf_b = recorder.wrap(leaf, "t:leaf_b", "layer.b")

    def parent():
        clock.advance(1.0)  # own work before the children
        leaf_a(2.0)
        clock.advance(0.5)  # own work between siblings
        leaf_b(4.0)
        leaf_a(8.0)

    traced_parent = recorder.wrap(parent, "t:parent", "layer.a")
    with recorder.root():
        clock.advance(0.25)  # the benchmark's own loop
        traced_parent()

    summary = recorder.summary()
    assert summary["t:parent"]["total_s"] == 15.5
    assert summary["t:parent"]["self_s"] == 1.5
    assert summary["t:leaf_a"] == {
        "layer": "layer.a", "calls": 2, "total_s": 10.0, "self_s": 10.0, "driver_self_s": 10.0}
    assert summary["t:leaf_b"]["self_s"] == 4.0
    assert summary["bench:root"]["self_s"] == 0.25
    # Driving-thread self times, root included, are the traced wall.
    assert recorder.driver_self_total() == recorder.wall_s == 15.75


def test_span_closes_when_the_wrapped_call_raises():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def boom():
        clock.advance(1.0)
        raise KeyError("x")

    traced = recorder.wrap(boom, "t:boom", "layer.a")
    with recorder.root():
        try:
            traced()
        except KeyError:
            pass
        clock.advance(2.0)
    assert recorder.summary()["t:boom"]["self_s"] == 1.0
    assert recorder.summary()["bench:root"]["self_s"] == 2.0


def test_generator_targets_are_timed_per_item():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def produce():
        for _ in range(3):
            clock.advance(1.0)
            yield 1

    traced = recorder.wrap(produce, "t:produce", "layer.a")
    with recorder.root():
        for _ in traced():
            clock.advance(10.0)  # the consumer's time is not the generator's
    # Three items plus the final StopIteration probe.
    assert recorder.summary()["t:produce"]["calls"] == 4
    assert recorder.summary()["t:produce"]["self_s"] == 3.0
    assert recorder.summary()["bench:root"]["self_s"] == 30.0


def test_functions_imported_by_name_are_wrapped_in_every_importer():
    originals = {
        "decompact_columns": compaction.decompact_columns,
        "aggregate": repro.tsdb.aggregation.aggregate,
        "parse_block": lineprotocol.parse_block,
    }
    recorder = Recorder()
    recorder.install()
    try:
        # `from .compaction import decompact_columns` in tsdb/query.py
        assert repro.tsdb.query.decompact_columns is compaction.decompact_columns
        assert repro.tsdb.query.decompact_columns is not originals["decompact_columns"]
        assert repro.tsdb.query.aggregate is not originals["aggregate"]
        # `from .lineprotocol import parse_block` re-exported twice
        assert repro.parse_block is repro.tsdb.parse_block is lineprotocol.parse_block
        assert repro.parse_block.__wrapped__ is originals["parse_block"]
        with recorder.root():
            batch = repro.parse_block(["put energy 1 2.0 unit=u sensor=s"])
        assert len(batch) == 1
        assert recorder.counts()["tsdb.lineprotocol.points"] == 1
    finally:
        recorder.uninstall()
    assert repro.tsdb.query.decompact_columns is originals["decompact_columns"]
    assert repro.tsdb.query.aggregate is originals["aggregate"]
    assert repro.parse_block is repro.tsdb.parse_block is originals["parse_block"]


def test_uninstall_restores_the_originals():
    before = (vars(QueryEngine)["run"], vars(Region)["scan"], vars(Simulator)["schedule_at"],
              vars(repro.SeriesBlock)["from_columns"])
    recorder = Recorder()
    recorder.install()
    try:
        assert vars(QueryEngine)["run"] is not before[0]
        assert vars(Simulator)["schedule_at"] is not before[2]
        assert isinstance(vars(repro.SeriesBlock)["from_columns"], classmethod)
    finally:
        recorder.uninstall()
    after = (vars(QueryEngine)["run"], vars(Region)["scan"], vars(Simulator)["schedule_at"],
             vars(repro.SeriesBlock)["from_columns"])
    assert all(a is b for a, b in zip(after, before))


def test_simulator_callbacks_become_spans_of_their_defining_module():
    recorder = Recorder()
    recorder.install()
    try:
        cluster = repro.build_cluster(n_nodes=2, salt_buckets=4, retain_data=True)
        with recorder.root():
            publisher = repro.BatchPublisher(cluster, batch_size=5)
            publisher.publish(
                repro.DataPoint.make("energy", t, 1.0, {"unit": "u"}) for t in range(10))
            publisher.flush()
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    layers = {row["layer"] for row in summary.values()}
    assert {"tsdb.proxy", "tsdb.tsd", "hbase.regionserver", "cluster.sim"} <= layers
    # Private handlers are attributed by module, never named in spans.py.
    assert any(name.startswith("tsdb.proxy:ReverseProxy._") for name in summary)
    metrics = recorder.layer_metrics({}, 1.0)
    assert metrics["hbase.region.cells_put"] == 10
    assert metrics["cluster.sim.events"] == summary["cluster.simulation:Simulator.step"]["calls"]
    assert abs(recorder.driver_self_total() - recorder.wall_s) < 1e-9


def test_executor_threads_keep_their_own_stacks():
    recorder = Recorder()
    recorder.install()
    try:
        generator = FleetGenerator(FleetConfig(n_units=8, n_sensors=4, seed=3))
        threads = set()

        def task(unit):
            threads.add(threading.get_ident())
            return generator.training_window(unit, 50).values.shape

        with SparkletContext(parallelism=2) as sc, recorder.root():
            shapes = sc.map_tasks(task, list(range(8)), num_slices=8)
    finally:
        recorder.uninstall()
    assert shapes == [(50, 4)] * 8
    assert threading.get_ident() not in threads
    summary = recorder.summary()
    window = summary["simdata.generator:FleetGenerator.training_window"]
    assert window["calls"] == 8
    # Executor spans are thread-seconds of their layer, not driver time ...
    assert window["driver_self_s"] == 0.0 and window["self_s"] > 0.0
    # ... so the driving thread still sums to the wall exactly,
    assert abs(recorder.driver_self_total() - recorder.wall_s) < 1e-9
    # and the driver's wait on the executors is visible.
    assert recorder.layer_metrics({}, 1.0)["sparklet.wait_s"] > 0.0
    # No executor span has a driver-thread parent (stacks are per thread).
    driver_names = {"bench:root", "sparklet.context:SparkletContext.map_tasks",
                    "sparklet.rdd:RDD.collect", "sparklet.context:SparkletContext.run_job"}
    for state in recorder._states:
        if state.ident != recorder.driver:
            assert all(parent not in driver_names for _, _, _, parent in state.spans)
