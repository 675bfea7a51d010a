"""Parallel fleet evaluation engine, PipelineConfig, and publish paths.

Parity contracts for the PR that introduced the engine: parallel
``run()`` must be flag-for-flag identical to serial (and to the legacy
per-unit ``FDRDetector.detect`` loop), and proxy-path publishing must
land exactly the same points as ``direct_put``.
"""

import numpy as np
import pytest

from repro.analysis import raceaudit
from repro.core import (
    AnomalyPipeline,
    FDRDetector,
    FDRDetectorConfig,
    FleetEvaluationEngine,
    PipelineConfig,
    TrainingResult,
)
from repro.simdata import FleetConfig, FleetGenerator
from repro.simdata.workload import unit_points
from repro.sparklet import BlockStore, SparkletContext
from repro.tsdb import BatchPublisher, build_cluster
from repro.tsdb.query import TsdbQuery


@pytest.fixture()
def generator():
    return FleetGenerator(FleetConfig(n_units=6, n_sensors=12, seed=29))


def _legacy_serial_reports(generator, detector_config, n_train, n_eval):
    """The pre-engine reference loop: fresh FDRDetector per unit."""
    detector = FDRDetector(detector_config)
    reports = {}
    for unit_id in generator.units():
        model = detector.fit(
            generator.training_window(unit_id, n_train).values, unit_id=unit_id
        )
        reports[unit_id] = detector.detect(
            model, generator.evaluation_window(unit_id, n_eval).values
        )
    return reports


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.n_train == 600 and cfg.n_eval == 600
        assert cfg.publish and cfg.use_proxy_path
        assert cfg.parallelism is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_train": 1},
            {"n_eval": 0},
            {"parallelism": 0},
            {"publish_batch_size": 0},
            {"max_in_flight_batches": 0},
            {"self_report_interval": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PipelineConfig(**kwargs)

    def test_with_overrides_skips_none(self):
        cfg = PipelineConfig(n_eval=250)
        same = cfg.with_overrides(n_train=None, publish=None)
        assert same is cfg
        changed = cfg.with_overrides(publish=False, parallelism=3)
        assert changed.publish is False and changed.parallelism == 3
        assert changed.n_eval == 250  # untouched fields carried over
        assert cfg.publish is True  # original immutable

    def test_with_overrides_rejects_unknown_names(self):
        with pytest.raises(TypeError, match="no_such_option"):
            PipelineConfig().with_overrides(no_such_option=None)

    def test_run_accepts_every_field_as_an_override(self, generator):
        """``run`` declares no option of its own: a field it used not to
        mirror (``max_in_flight_batches``) is accepted like the rest,
        and a name that is not a field is a ``TypeError``."""
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pipeline = AnomalyPipeline(generator, cluster)
        result = pipeline.run(
            [0], n_train=120, n_eval=60, publish_batch_size=64, max_in_flight_batches=1
        )
        assert result.data_publish.conservation_ok
        assert result.data_publish.max_pending == 1  # the window was honoured

    def test_run_rejects_unknown_option(self, generator):
        with pytest.raises(TypeError, match="no_such_option"):
            AnomalyPipeline(generator).run(publish=False, no_such_option=3)

    def test_run_accepts_config_object(self, generator):
        pipeline = AnomalyPipeline(generator)
        cfg = PipelineConfig(n_train=120, n_eval=80, publish=False)
        result = pipeline.run(config=cfg)
        assert all(r.pvalues.shape == (80, 12) for r in result.reports.values())


class TestTrainReturn:
    def test_local_branch_returns_training_result(self, generator):
        pipeline = AnomalyPipeline(generator)
        result = pipeline.train(unit_ids=[1, 3], n_train=100)
        assert isinstance(result, TrainingResult)
        assert result.unit_ids == [1, 3]
        assert result.keys == []  # nothing persisted on the local path
        assert result.n_train == 100

    def test_sparklet_branch_returns_training_result(self, generator, tmp_path):
        with SparkletContext(parallelism=1) as ctx:
            pipeline = AnomalyPipeline(
                generator, store=BlockStore(tmp_path), ctx=ctx
            )
            result = pipeline.train(n_train=100)
        assert isinstance(result, TrainingResult)
        assert len(result.keys) == 6  # persisted artifacts

    def test_train_idempotent_per_n_train(self, generator):
        """Deterministic windows → refit reproduces the identical model."""
        pipeline = AnomalyPipeline(generator)
        pipeline.train(unit_ids=[0], n_train=120)
        first = pipeline.model_for(0)
        pipeline.train(unit_ids=[0], n_train=120)
        assert pipeline.model_for(0) is first  # skipped, not refitted
        pipeline.train(unit_ids=[0], n_train=150)
        refit = pipeline.model_for(0)
        assert refit is not first and refit.n_train == 150

    def test_result_lists_the_requested_units(self, generator):
        pipeline = AnomalyPipeline(generator)
        result = pipeline.train(unit_ids=[2, 4], n_train=100)
        assert result.unit_ids == [2, 4]
        assert result.n_units == 2


class TestParallelParity:
    N_TRAIN, N_EVAL = 200, 150

    def test_parallel_matches_serial_and_legacy(self, generator):
        cfg = FDRDetectorConfig(window=16)
        serial = AnomalyPipeline(generator, config=cfg).run(
            publish=False, n_train=self.N_TRAIN, n_eval=self.N_EVAL, parallelism=1
        )
        parallel = AnomalyPipeline(generator, config=cfg).run(
            publish=False, n_train=self.N_TRAIN, n_eval=self.N_EVAL, parallelism=4
        )
        legacy = _legacy_serial_reports(generator, cfg, self.N_TRAIN, self.N_EVAL)
        assert set(serial.reports) == set(parallel.reports) == set(legacy)
        for unit_id, ref in legacy.items():
            for run in (serial, parallel):
                got = run.reports[unit_id]
                assert np.array_equal(got.flags, ref.flags)
                assert np.array_equal(got.unit_alarm, ref.unit_alarm)
                assert np.allclose(got.pvalues, ref.pvalues)
                assert np.allclose(got.t2, ref.t2)
        for unit_id in serial.outcomes:
            assert serial.outcomes[unit_id] == parallel.outcomes[unit_id]

    def test_shared_context_fanout(self, generator):
        with SparkletContext(parallelism=3) as ctx:
            pipeline = AnomalyPipeline(generator, ctx=ctx, store=None)
            result = pipeline.run(publish=False, n_train=150, n_eval=100)
        assert set(result.reports) == set(generator.units())


class TestEvaluatorCache:
    def test_cache_reused_and_rebuilt_on_retrain(self, generator):
        pipeline = AnomalyPipeline(generator)
        pipeline.train(unit_ids=[0], n_train=120)
        engine = pipeline.engine
        first = engine.evaluator_for(0)
        assert engine.evaluator_for(0) is first  # cached
        pipeline.train(unit_ids=[0], n_train=140)  # new model object
        assert engine.evaluator_for(0) is not first

    def test_untrained_unit_raises(self, generator):
        engine = FleetEvaluationEngine(generator, models={})
        with pytest.raises(KeyError, match="no trained model"):
            engine.evaluator_for(0)


class TestPublishPaths:
    def _run(self, generator, use_proxy_path):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pipeline = AnomalyPipeline(generator, cluster)
        result = pipeline.run(
            unit_ids=[0, 1, 2],
            n_train=150,
            n_eval=100,
            use_proxy_path=use_proxy_path,
            publish_batch_size=128,
        )
        return cluster, result

    def _raw_point_count(self, cluster, metric):
        series = cluster.query_engine().run(
            TsdbQuery(metric, 0, 10_000, group_by=("unit", "sensor"))
        )
        return sum(len(s) for s in series)

    def test_proxy_and_direct_land_identical_counts(self, generator):
        proxy_cluster, proxy = self._run(generator, use_proxy_path=True)
        direct_cluster, direct = self._run(generator, use_proxy_path=False)
        assert proxy.points_published == direct.points_published == 3 * 100 * 12
        assert proxy.anomalies_published == direct.anomalies_published
        assert self._raw_point_count(proxy_cluster, "energy") == self._raw_point_count(
            direct_cluster, "energy"
        )
        assert proxy.data_publish.mode == "proxy"
        assert direct.data_publish.mode == "direct"

    def test_proxy_path_is_default_and_acked(self, generator):
        cluster, result = self._run(generator, use_proxy_path=None)
        rep = result.data_publish
        assert rep.mode == "proxy"
        assert rep.complete and rep.pending_unresolved == 0
        assert rep.batches_acked == rep.batches_submitted
        assert rep.points_failed == 0
        assert result.publish_acks >= rep.batches_acked
        assert result.publish_retries == 0
        # every submitted batch flowed through the cluster ingress
        assert cluster.ingress.dispatched >= rep.batches_submitted

    def test_detection_identical_with_and_without_publishing(self, generator):
        _, published = self._run(generator, use_proxy_path=True)
        quiet = AnomalyPipeline(generator).run(
            unit_ids=[0, 1, 2], n_train=150, n_eval=100, publish=False
        )
        for unit_id in quiet.reports:
            assert np.array_equal(
                quiet.reports[unit_id].flags, published.reports[unit_id].flags
            )


class TestBatchPublisher:
    def _points(self, generator, unit_id=0, n=100):
        return list(unit_points(generator.evaluation_window(unit_id, n)))

    def test_backpressure_bounds_in_flight(self, generator):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pub = BatchPublisher(
            cluster, batch_size=50, max_in_flight_batches=2, use_proxy_path=True
        )
        pub.publish(self._points(generator, n=100))  # 24 batches of 50
        assert pub.pending_batches < 2  # window was enforced while publishing
        rep = pub.flush()
        assert rep.max_pending <= 2
        assert rep.points_written == 100 * 12
        assert rep.complete

    def test_direct_mode_accounting(self, generator):
        cluster = build_cluster(n_nodes=1, retain_data=True)
        pub = BatchPublisher(cluster, batch_size=64, use_proxy_path=False)
        pub.publish(self._points(generator, n=40))
        rep = pub.flush()
        assert rep.mode == "direct"
        assert rep.points_submitted == rep.points_written == 40 * 12
        assert rep.batches_acked == rep.batches_submitted
        assert rep.pending_unresolved == 0

    def test_tail_batch_flushed(self, generator):
        cluster = build_cluster(n_nodes=1, retain_data=True)
        pub = BatchPublisher(cluster, batch_size=10_000)  # never fills
        pub.publish(self._points(generator, n=10))
        assert pub.report.batches_submitted == 0  # still buffered
        rep = pub.flush()
        assert rep.batches_submitted == 1
        assert rep.points_written == 10 * 12

    def test_publish_after_flush_raises(self, generator):
        cluster = build_cluster(n_nodes=1)
        pub = BatchPublisher(cluster)
        pub.flush()
        with pytest.raises(RuntimeError):
            pub.publish(self._points(generator, n=1))

    def test_flush_idempotent(self, generator):
        cluster = build_cluster(n_nodes=1, retain_data=True)
        pub = BatchPublisher(cluster, batch_size=32)
        pub.publish(self._points(generator, n=20))
        first = pub.flush()
        assert pub.flush() is first

    def test_metrics_channels(self, generator):
        from repro.cluster.metrics import MetricsRegistry

        cluster = build_cluster(n_nodes=1, retain_data=True)
        registry = MetricsRegistry()
        pub = BatchPublisher(
            cluster, batch_size=100, metrics=registry, channel="publish.test"
        )
        pub.publish(self._points(generator, n=25))
        rep = pub.flush()
        assert registry.counter("publish.test.batches").get() == rep.batches_submitted
        assert registry.counter("publish.test.acks").get() == rep.batches_acked
        assert (
            registry.counter("publish.test.points_written").get() == rep.points_written
        )

    def test_validation(self):
        cluster = build_cluster(n_nodes=1)
        with pytest.raises(ValueError):
            BatchPublisher(cluster, batch_size=0)
        with pytest.raises(ValueError):
            BatchPublisher(cluster, max_in_flight_batches=0)


class TestRaceAuditedRun:
    """Run the full parallel proxy-path pipeline under the lock auditor.

    Auditing is enabled *before* any object under test is constructed
    so every lock on the path, in core/engine and tsdb/publish, is an
    AuditedLock (sparklet owns none: its tasks share no mutable state);
    guarded-state violations raise immediately inside the run, and the
    recorded lock-order graph must come out acyclic (no ABBA deadlock
    potential anywhere on the path).
    """

    def test_full_parallel_run_clean_lock_discipline(self, generator):
        with raceaudit.auditing() as auditor:
            cluster = build_cluster(n_nodes=2, retain_data=True)
            pipeline = AnomalyPipeline(generator, cluster)
            result = pipeline.run(
                unit_ids=[0, 1, 2, 3],
                n_train=150,
                n_eval=100,
                use_proxy_path=True,
                parallelism=4,
                publish_batch_size=128,
            )
            assert result.data_publish.complete
            auditor.assert_no_cycles()
            counts = auditor.acquire_counts()
            # The audited locks were genuinely exercised by the run.
            assert counts.get("core.engine.evaluators", 0) >= 4
            assert counts.get("tsdb.publish.state", 0) > 0

    def test_audited_parity_with_unaudited_run(self, generator):
        """Auditing must observe, never perturb, the detector output."""
        plain = AnomalyPipeline(generator).run(
            unit_ids=[0, 1], publish=False, n_train=150, n_eval=100, parallelism=2
        )
        with raceaudit.auditing() as auditor:
            audited = AnomalyPipeline(generator).run(
                unit_ids=[0, 1], publish=False, n_train=150, n_eval=100, parallelism=2
            )
            auditor.assert_no_cycles()
        for unit_id in plain.reports:
            assert np.array_equal(
                plain.reports[unit_id].flags, audited.reports[unit_id].flags
            )


class TestRunInstrumentation:
    def test_stage_timings_and_throughput(self, generator):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        result = AnomalyPipeline(generator, cluster).run(
            unit_ids=[0, 1], n_train=150, n_eval=100
        )
        assert set(result.stage_seconds) == {"train", "evaluate", "publish"}
        assert all(v >= 0 for v in result.stage_seconds.values())
        assert result.samples_per_second > 0
        assert result.metrics.counter("pipeline.units").get() == 2
        assert result.metrics.counter("pipeline.samples_scored").get() == 2 * 100 * 12
        assert result.metrics.counter("publish.data.acks").get() > 0

    def test_no_publish_reports_when_storage_less(self, generator):
        result = AnomalyPipeline(generator).run(
            unit_ids=[0], n_train=120, n_eval=80
        )  # publish=True but no cluster attached
        assert result.data_publish is None and result.anomaly_publish is None
        assert result.publish_acks == 0 and result.publish_retries == 0

    def test_evaluate_unit_keyword_api(self, generator):
        pipeline = AnomalyPipeline(generator)
        pipeline.train(unit_ids=[0], n_train=120)
        report = pipeline.evaluate_unit(0, n_eval=90, publish=False)
        assert report.pvalues.shape == (90, 12)
        with pytest.raises(TypeError):
            pipeline.evaluate_unit(0, 90)  # n_eval is keyword-only now
