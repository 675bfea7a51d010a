"""Parallel fleet evaluation engine, training fan-out, run options, publish paths.

Parity contracts: parallel ``run()`` must be flag-for-flag identical to
serial (and to the dense oracle, unit by unit), the
models ``train()`` fans out must be bit-identical to a serial ``fit``
and installed by the calling thread only, and proxy-path publishing
must land exactly the same points as ``direct_put``.
"""

import inspect
import threading

import numpy as np
import pytest

from repro.alerting import StreamingDetector
from repro.analysis import raceaudit
from repro.core import (
    AnomalyPipeline,
    FDRDetector,
    FDRDetectorConfig,
    FleetEvaluationEngine,
    TrainingResult,
)
from repro.core import pipeline as pipeline_module
from repro.core.model import load_model
from repro.simdata import FleetConfig, FleetGenerator
from repro.simdata.workload import unit_points
from repro.sparklet import BlockStore, SparkletContext
from repro.tsdb import BatchPublisher, build_cluster
from repro.tsdb.query import TsdbQuery

from . import oracle


@pytest.fixture()
def generator():
    return FleetGenerator(FleetConfig(n_units=6, n_sensors=12, seed=29))


def _legacy_serial_reports(generator, detector_config, n_train, n_eval):
    """The pre-engine reference loop: a fresh fit per unit, scored by
    the dense oracle."""
    detector = FDRDetector(detector_config)
    reports = {}
    for unit_id in generator.units():
        model = detector.fit(
            generator.training_window(unit_id, n_train).values, unit_id=unit_id
        )
        reports[unit_id] = oracle.detect(
            model, generator.evaluation_window(unit_id, n_eval).values, detector_config
        )
    return reports


class TestPipelineConfig:
    """``run``'s keywords are the run options: the one place one is declared."""

    def test_defaults(self):
        params = inspect.signature(AnomalyPipeline.run).parameters
        options = {
            name: p.default for name, p in params.items() if p.kind is p.KEYWORD_ONLY
        }
        assert options == {
            "n_train": 600,
            "n_eval": 600,
            "publish": True,
            "use_proxy_path": True,
            "self_report": False,
        }

    @pytest.mark.parametrize("kwargs", [{"n_train": 1}, {"n_eval": 0}])
    def test_validation(self, generator, kwargs):
        with pytest.raises(ValueError):
            AnomalyPipeline(generator).run(publish=False, **kwargs)

    def test_run_accepts_every_field_as_an_override(self, generator, monkeypatch):
        """The publishers' backpressure window is the module constant,
        read at each run: patched to 1, the run honours it."""
        monkeypatch.setattr(pipeline_module, "PUBLISH_BATCH_SIZE", 64)
        monkeypatch.setattr(pipeline_module, "MAX_IN_FLIGHT_BATCHES", 1)
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pipeline = AnomalyPipeline(generator, cluster)
        result = pipeline.run([0], n_train=120, n_eval=60)
        assert result.data_publish.conservation_ok
        assert result.data_publish.max_pending == 1  # the window was honoured

    def test_run_rejects_unknown_option(self, generator):
        with pytest.raises(TypeError, match="no_such_option"):
            AnomalyPipeline(generator).run(publish=False, no_such_option=3)


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

    def test_a_repeated_unit_is_trained_and_counted_once(self, generator, monkeypatch):
        fitted = []
        fit = FDRDetector.fit

        def counting_fit(detector, values, unit_id=0):
            fitted.append(unit_id)
            return fit(detector, values, unit_id=unit_id)

        monkeypatch.setattr(FDRDetector, "fit", counting_fit)
        with SparkletContext(1) as ctx:
            trained = AnomalyPipeline(generator, ctx=ctx).train([0, 0], n_train=100)
            assert trained.unit_ids == [0] and fitted == [0]
            fitted.clear()
            result = AnomalyPipeline(generator, ctx=ctx).run(
                [0, 0, 1], n_train=100, n_eval=60, publish=False
            )
        assert sorted(fitted) == [0, 1]
        assert result.metrics.counter("pipeline.units").get() == 2
        assert result.metrics.counter("engine.units_scored").get() == 2


class TestParallelParity:
    N_TRAIN, N_EVAL = 200, 150

    def test_parallel_matches_serial_and_legacy(self, generator):
        cfg = FDRDetectorConfig(window=16)
        runs = []
        for width in (1, 4):
            with SparkletContext(width) as ctx:
                runs.append(AnomalyPipeline(generator, config=cfg, ctx=ctx).run(
                    publish=False, n_train=self.N_TRAIN, n_eval=self.N_EVAL
                ))
        serial, parallel = runs
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

    @pytest.mark.parametrize("seed", [101, 102])
    def test_fleet_path_matches_the_oracle_at_batch_scores_shape(self, seed):
        """The fleet path — four-unit training and scoring chunks, engine
        waves, executor threads, cached models — flags what the dense
        oracle flags on every unit, at ``batch_score``'s quick shape
        (10 units × 30 sensors × 200 rows, default config)."""
        generator = FleetGenerator(FleetConfig(n_units=10, n_sensors=30, seed=seed))
        pipeline = AnomalyPipeline(generator)
        units = list(generator.units())
        chunks = [units[i: i + 4] for i in range(0, len(units), 4)]
        for chunk in chunks:
            pipeline.train(chunk, n_train=200)
        reports = {}
        for chunk in chunks:
            reports.update(pipeline.run(chunk, n_train=200, n_eval=200, publish=False).reports)
        assert sorted(reports) == units
        for unit in units:
            window = generator.evaluation_window(unit, 200).values
            reference = oracle.detect(pipeline.model_for(unit), window, pipeline.config)
            assert np.array_equal(reports[unit].flags, reference.flags), unit
            assert np.array_equal(reports[unit].unit_alarm, reference.unit_alarm), unit
        assert sum(r.n_discoveries for r in reports.values()) > 0

    def test_shared_context_fanout(self, generator):
        with SparkletContext(parallelism=3) as ctx:
            pipeline = AnomalyPipeline(generator, ctx=ctx, store=None)
            result = pipeline.run(publish=False, n_train=150, n_eval=100)
        assert set(result.reports) == set(generator.units())


MODEL_ARRAYS = ("mean", "std", "eigenvalues", "components", "whitening")


class _RecordingModels(dict):
    """A model dict that notes the thread behind every write."""

    def __init__(self):
        super().__init__()
        self.writers = []

    def __setitem__(self, key, value):
        self.writers.append(threading.get_ident())
        super().__setitem__(key, value)

    def update(self, *args, **kwargs):
        self.writers.append(threading.get_ident())
        super().update(*args, **kwargs)


class _FrozenSensorFleet(FleetGenerator):
    """Unit 3's sensor 5 reads one constant in every training window."""

    def training_window(self, unit_id, n_samples=600):
        window = super().training_window(unit_id, n_samples)
        if unit_id == 3:
            window.values[:, 5] = 7.0
        return window


class TestTrainingFanOut:
    """``train`` fans stale units out over the pool; the driver keeps the models."""

    N_TRAIN = 150

    @pytest.mark.parametrize("parallelism", [1, 2, 4])
    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    def test_models_bit_identical_to_fit(self, tmp_path, parallelism, with_store):
        generator = FleetGenerator(FleetConfig(n_units=5, n_sensors=64, seed=31))
        config = FDRDetectorConfig()
        store = BlockStore(tmp_path) if with_store else None
        with SparkletContext(parallelism) as ctx:
            pipeline = AnomalyPipeline(generator, store=store, config=config, ctx=ctx)
            result = pipeline.train(n_train=self.N_TRAIN)
        assert len(result.keys) == (5 if with_store else 0)
        for unit in generator.units():
            reference = FDRDetector(config).fit(
                generator.training_window(unit, self.N_TRAIN).values, unit_id=unit
            )
            kept = [pipeline.model_for(unit), result.models[unit]]
            if with_store:
                kept.append(load_model(store, unit))
            for model in kept:
                for name in MODEL_ARRAYS:
                    assert np.array_equal(getattr(model, name), getattr(reference, name)), name
                assert model.n_train == reference.n_train

    def test_kept_models_own_their_arrays(self, generator):
        """The driver's copy frees the p - k columns ``components`` was a view of."""
        with SparkletContext(2) as ctx:
            pipeline = AnomalyPipeline(generator, ctx=ctx)
            pipeline.train(n_train=self.N_TRAIN)
        for unit in generator.units():
            model = pipeline.model_for(unit)
            for name in MODEL_ARRAYS:
                assert getattr(model, name).base is None, name

    @pytest.fixture()
    def fit_threads(self, monkeypatch):
        """The thread behind every ``FDRDetector.fit`` call, in call order."""
        threads = []
        fit = FDRDetector.fit

        def recording_fit(detector, values, unit_id=0):
            threads.append(threading.get_ident())
            return fit(detector, values, unit_id=unit_id)

        monkeypatch.setattr(FDRDetector, "fit", recording_fit)
        return threads

    def test_models_are_installed_by_the_calling_thread_only(self, generator, fit_threads):
        caller = threading.get_ident()
        with raceaudit.auditing() as auditor, SparkletContext(4) as ctx:
            pipeline = AnomalyPipeline(generator, ctx=ctx)
            models = _RecordingModels()
            pipeline._models = pipeline.engine.models = models
            pipeline.run(publish=False, n_train=self.N_TRAIN, n_eval=60)
            pipeline.train(unit_ids=[1, 4], n_train=self.N_TRAIN + 10)
            auditor.assert_no_cycles()
        assert len(fit_threads) == 6 + 2
        assert caller not in fit_threads  # every fit ran on the pool
        assert models.writers and set(models.writers) == {caller}
        assert set(models) == set(generator.units())

    @pytest.mark.parametrize("parallelism", [1, 4])
    def test_failed_unit_is_named_and_nothing_is_installed(self, parallelism):
        generator = _FrozenSensorFleet(FleetConfig(n_units=6, n_sensors=12, seed=29))
        with SparkletContext(parallelism) as ctx:
            pipeline = AnomalyPipeline(generator, ctx=ctx)
            pipeline.train(unit_ids=[0, 1, 2], n_train=self.N_TRAIN)
            before = {u: pipeline.model_for(u) for u in (0, 1, 2)}
            with pytest.raises(ValueError, match=r"^unit 3: "):
                pipeline.train(n_train=self.N_TRAIN + 10)
            with pytest.raises(ValueError, match=r"^unit 3: "):
                pipeline.run(publish=False, n_train=self.N_TRAIN, n_eval=60)
        assert all(pipeline.model_for(u) is before[u] for u in before)
        for unit in (3, 4, 5):
            with pytest.raises(KeyError):
                pipeline.model_for(unit)

    def test_run_at_parallelism_1_trains_inline(self, generator, fit_threads, monkeypatch):
        ctx = SparkletContext(1)

        def no_context(*args, **kwargs):
            raise AssertionError("a run on a one-wide context constructed a SparkletContext")

        monkeypatch.setattr(SparkletContext, "__init__", no_context)
        result = AnomalyPipeline(generator, ctx=ctx).run(
            publish=False, n_train=self.N_TRAIN, n_eval=60
        )
        assert set(result.reports) == set(generator.units())
        assert fit_threads == [threading.get_ident()] * 6


class TestEvaluatorCache:
    def test_cache_reused_and_rebuilt_on_retrain(self, generator):
        pipeline = AnomalyPipeline(generator)
        pipeline.train(unit_ids=[0], n_train=120)
        engine = pipeline.engine
        first = engine.evaluator_for(0)
        assert engine.evaluator_for(0) is first  # cached
        pipeline.train(unit_ids=[0], n_train=140)  # new model object
        assert engine.evaluator_for(0) is not first

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_each_run_scores_from_an_empty_window(self, generator, parallelism):
        """Cached evaluators carry their window between records, so a
        batch run must see neither the previous run's rows nor, for a
        repeated unit, its own."""
        run = dict(publish=False, n_train=150, n_eval=100)
        with SparkletContext(parallelism) as ctx:
            pipeline = AnomalyPipeline(generator, ctx=ctx)
            results = [pipeline.run([0, 1], **run), pipeline.run([0, 0, 1], **run)]
        for unit in (0, 1):
            window = generator.evaluation_window(unit, 100).values
            want = oracle.detect(pipeline.model_for(unit), window, pipeline.config)
            for result in results:
                assert np.array_equal(result.reports[unit].flags, want.flags)

    def test_untrained_unit_raises(self, generator):
        engine = FleetEvaluationEngine(models={})
        with pytest.raises(KeyError, match="no trained model"):
            engine.evaluator_for(0)


class TestPublishPaths:
    @pytest.fixture(autouse=True)
    def _batch_size(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "PUBLISH_BATCH_SIZE", 128)

    def _run(self, generator, **options):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pipeline = AnomalyPipeline(generator, cluster)
        result = pipeline.run(unit_ids=[0, 1, 2], n_train=150, n_eval=100, **options)
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
        cluster, result = self._run(generator)
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

    def test_full_parallel_run_clean_lock_discipline(self, generator, monkeypatch):
        monkeypatch.setattr(pipeline_module, "PUBLISH_BATCH_SIZE", 128)
        with raceaudit.auditing() as auditor, SparkletContext(4) as ctx:
            cluster = build_cluster(n_nodes=2, retain_data=True)
            pipeline = AnomalyPipeline(generator, cluster, ctx=ctx)
            result = pipeline.run(
                unit_ids=[0, 1, 2, 3], n_train=150, n_eval=100, use_proxy_path=True
            )
            assert result.data_publish.complete
            auditor.assert_no_cycles()
            counts = auditor.acquire_counts()
            # The audited locks were genuinely exercised by the run.
            assert counts.get("core.engine.evaluators", 0) >= 4
            assert counts.get("tsdb.publish.state", 0) > 0

    def test_streaming_run_clean_lock_discipline(self, generator):
        """The stream is the engine's second caller: every record it
        scores takes the evaluator cache's lock, and the locks it adds
        (the alert store's publisher) keep the graph acyclic."""
        with raceaudit.auditing() as auditor:
            cluster = build_cluster(n_nodes=2, retain_data=True)
            detector = StreamingDetector(12, cluster, min_samples=50)
            report = detector.run_fleet(
                generator, unit_ids=[0, 1, 2, 3], n_train=100, n_eval=100, interval=25
            )
            assert report.data_publish.complete
            auditor.assert_no_cycles()
            counts = auditor.acquire_counts()
            records_scored = report.samples_scored // (25 * 12)
            assert records_scored >= 4
            assert counts.get("core.engine.evaluators", 0) == records_scored
            assert counts.get("tsdb.publish.state", 0) > 0

    def test_audited_parity_with_unaudited_run(self, generator):
        """Auditing must observe, never perturb, the detector output."""
        run = dict(unit_ids=[0, 1], publish=False, n_train=150, n_eval=100)
        with SparkletContext(2) as ctx:
            plain = AnomalyPipeline(generator, ctx=ctx).run(**run)
        with raceaudit.auditing() as auditor, SparkletContext(2) as ctx:
            audited = AnomalyPipeline(generator, ctx=ctx).run(**run)
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

    def test_engine_and_pipeline_count_the_same_sensor_samples(self, generator):
        """Regression: ``engine.samples_scored`` added one per window row,
        so for a p-sensor unit it read p times below
        ``pipeline.samples_scored``, which counts sensor samples."""
        with SparkletContext(2) as ctx:
            result = AnomalyPipeline(generator, ctx=ctx).run(
                unit_ids=[0, 1, 2], publish=False, n_train=150, n_eval=100
            )
        samples = sum(r.flags.size for r in result.reports.values())
        assert samples == 3 * 100 * 12
        assert result.metrics.counter("engine.samples_scored").get() == samples
        assert result.metrics.counter("pipeline.samples_scored").get() == samples

    def test_no_publish_reports_when_storage_less(self, generator):
        result = AnomalyPipeline(generator).run(
            unit_ids=[0], n_train=120, n_eval=80
        )  # publish=True but no cluster attached
        assert result.data_publish is None and result.anomaly_publish is None
        assert result.publish_acks == 0 and result.publish_retries == 0
