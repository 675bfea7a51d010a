"""Tests for the sparklet trainer and the end-to-end pipeline."""

import numpy as np
import pytest
from scipy import stats

from repro.core.fdr import FDRDetector, FDRDetectorConfig
from repro.core.pipeline import ANOMALY_METRIC, UNIT_ALARM_METRIC, AnomalyPipeline
from repro.core.model import IncrementalMoments, load_model
from repro.core.streaming import StreamingTrainer
from repro.core.training import OfflineTrainer, train_unit_distributed
from repro.simdata import FleetConfig, FleetGenerator
from repro.sparklet import BlockStore, SparkletContext
from repro.tsdb.ingest import build_cluster
from repro.tsdb.query import TsdbQuery


@pytest.fixture()
def sc():
    with SparkletContext(parallelism=2) as ctx:
        yield ctx


@pytest.fixture()
def generator():
    return FleetGenerator(FleetConfig(n_units=6, n_sensors=15, seed=13))


def _textbook_split_hotelling(x, cfg, fresh):
    """T² of ``fresh`` rows, and its threshold at ``unit_alarm_alpha``,
    the textbook way from the raw rows: the even rows (half A) choose
    the directions and k, the odd rows (half B) give the scores' mean
    and covariance, and T² solves against that covariance."""
    a, b = x[0::2], x[1::2]
    corr = np.atleast_2d(np.corrcoef(a, rowvar=False))
    eigvals, eigvecs = np.linalg.eigh(corr)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    ratio = np.cumsum(eigvals) / eigvals.sum()
    n_b = len(b)
    k = min(int(np.searchsorted(ratio, cfg.variance_target) + 1), len(eigvals), n_b // 10)
    w = eigvecs[:, :k] / a.std(axis=0, ddof=1)[:, None]
    y_b = (b - a.mean(axis=0)) @ w
    s_b = np.atleast_2d(np.cov(y_b, rowvar=False))
    y = (fresh - a.mean(axis=0)) @ w - y_b.mean(axis=0)
    t2 = np.einsum("ij,ij->i", y, np.linalg.solve(s_b, y.T).T)
    scale = k * (n_b - 1) * (n_b + 1) / (n_b * (n_b - k))
    return k, n_b, t2, scale * stats.f.isf(cfg.unit_alarm_alpha, k, n_b - k)


def _t2(model, rows):
    """``‖z·P + o‖²`` of raw rows under ``model``."""
    scores = (rows - model.mean) / model.std @ model.projection + model.offset
    return np.einsum("ij,ij->i", scores, scores)


class TestOneModelBuilder:
    """``fit``, a stream that ingests the window as one batch, and the
    distributed fold on a one-partition context all run one
    ``IncrementalMoments.update`` and the one builder, so each gives the
    same arrays, bit for bit; and those arrays are the textbook
    split-sample Hotelling form over the raw even and odd rows."""

    CONFIGS = [
        FDRDetectorConfig(),
        FDRDetectorConfig(variance_target=0.5),
        FDRDetectorConfig(variance_target=1.0),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS)
    @pytest.mark.parametrize("p", [1, 7])
    def test_matches_the_textbook_split_hotelling_form(self, cfg, p):
        rng = np.random.default_rng(p)
        x = rng.normal(loc=30.0, scale=3.0, size=(120, p))
        fresh = rng.normal(loc=30.0, scale=3.0, size=(50, p))
        k, n_b, t2, threshold = _textbook_split_hotelling(x, cfg, fresh)

        trainer = StreamingTrainer(p, config=cfg, min_samples=2)
        trainer.ingest(2, x)
        with SparkletContext(parallelism=1) as one_partition:
            distributed = train_unit_distributed(one_partition, x, 2, cfg)
        fitted = FDRDetector(cfg).fit(x, unit_id=2)
        for model in (fitted, trainer.model_for(2), distributed):
            assert model.unit_id == 2
            assert model.n_train == 120
            for name in ("mean", "std", "projection", "offset"):
                assert np.array_equal(getattr(model, name), getattr(fitted, name)), name
        np.testing.assert_allclose(fitted.mean, x.mean(axis=0), rtol=1e-13)
        np.testing.assert_allclose(fitted.std, x.std(axis=0, ddof=1), rtol=1e-12)
        assert (fitted.n_components, fitted.n_b) == (k, n_b)
        np.testing.assert_allclose(_t2(fitted, fresh), t2, rtol=1e-9)
        assert fitted.t2_limit(cfg.unit_alarm_alpha) == pytest.approx(threshold, rel=1e-12)


class TestStuckSensor:
    """A constant column is degenerate on exact min == max, whichever way
    the rows arrive; its variance is round-off of either sign (0.7 gives
    +1.3e-15 from one update), so no variance threshold decides it."""

    CONSTANTS = [0.7, 0.1, 101.7, 1000.3]

    @staticmethod
    def window(constant):
        x = np.random.default_rng(3).normal(loc=30.0, scale=3.0, size=(84, 3))
        x[:, 1] = constant
        return x

    @pytest.mark.parametrize("constant", CONSTANTS)
    def test_moments_flag_it_however_fed(self, sc, constant):
        x = self.window(constant)
        chunked = IncrementalMoments(3)
        for start in range(0, len(x), 7):
            chunked.update(x[start : start + 7])
        folded = (
            sc.parallelize(np.array_split(x, 5))
            .map(IncrementalMoments.of)
            .fold(IncrementalMoments(3), IncrementalMoments.merge)
        )
        for moments in (IncrementalMoments.of(x), chunked, folded):
            assert moments.degenerate().tolist() == [False, True, False]

    @pytest.mark.parametrize("constant", CONSTANTS)
    def test_fit_and_distributed_refuse_it(self, sc, constant):
        x = self.window(constant)
        with pytest.raises(ValueError, match="non-zero training variance"):
            FDRDetector().fit(x)
        with pytest.raises(ValueError, match="non-zero training variance"):
            train_unit_distributed(sc, x, 0)

    @pytest.mark.parametrize("constant", CONSTANTS)
    @pytest.mark.parametrize("chunk", [84, 7])
    def test_stream_quarantines_it(self, constant, chunk):
        trainer = StreamingTrainer(3, refresh_every=1, min_samples=2)
        x = self.window(constant)
        for start in range(0, len(x), chunk):
            assert trainer.ingest(0, x[start : start + chunk]) is None
        assert trainer.model_for(0) is None
        assert trainer.quarantines(0) == len(x) // chunk


class TestDistributedTraining:
    def test_matches_local_fit(self, sc):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=30.0, scale=3.0, size=(300, 10))
        local = FDRDetector().fit(x, unit_id=1)
        distributed = train_unit_distributed(sc, x, unit_id=1)
        assert np.allclose(distributed.mean, local.mean)
        assert np.allclose(distributed.std, local.std)
        assert (distributed.n_components, distributed.n_b) == (local.n_components, local.n_b)
        # the map's basis may differ (eigenvector signs); T² does not
        fresh = rng.normal(loc=30.0, scale=3.0, size=(100, 10))
        assert np.allclose(_t2(distributed, fresh), _t2(local, fresh))

    def test_scoring_agrees_with_local_model(self, sc):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(400, 8)) * 2.0 + 5.0
        local = FDRDetector().fit(x)
        distributed = train_unit_distributed(sc, x, unit_id=0)
        test = rng.normal(size=(60, 8)) * 2.0 + 5.0
        test[30:, 3] += 10.0
        detector = FDRDetector()
        a = detector.detect(local, test)
        b = detector.detect(distributed, test)
        assert np.array_equal(a.flags, b.flags)

    def test_validation(self, sc):
        with pytest.raises(ValueError):
            train_unit_distributed(sc, np.zeros((1, 4)), 0)
        bad = np.zeros((10, 2))
        with pytest.raises(ValueError):
            train_unit_distributed(sc, bad, 0)  # zero variance
        # A constant 0.7 column: its merged variance is round-off, so it
        # is refused on its exact min == max, not on the variance's sign.
        constant = np.column_stack([np.arange(100.0), np.full(100, 0.7)])
        with pytest.raises(ValueError):
            train_unit_distributed(sc, constant, 0)


class TestOfflineTrainer:
    def test_trains_and_persists_fleet(self, sc, generator, tmp_path):
        store = BlockStore(tmp_path)
        trainer = OfflineTrainer(sc, store)
        result = trainer.train_fleet(generator, n_train=120)
        assert result.n_units == 6
        assert len(store) == 6
        assert set(result.models) == set(generator.units())
        for unit, model in result.models.items():
            stored = load_model(store, unit)
            assert stored.n_train == model.n_train == 120
            assert np.array_equal(stored.projection, model.projection)
            assert np.array_equal(stored.offset, model.offset)
            assert stored.n_b == model.n_b

    def test_subset_training(self, sc, generator, tmp_path):
        trainer = OfflineTrainer(sc, BlockStore(tmp_path))
        result = trainer.train_fleet(generator, unit_ids=[2, 4], n_train=100)
        assert result.unit_ids == [2, 4]
        assert result.models.keys() == {2, 4}
        assert [load_model(trainer.store, u) is not None for u in (2, 4, 5)] == [True, True, False]

    def test_threaded_matches_serial(self, generator, tmp_path):
        with SparkletContext(parallelism=3) as tctx:
            t_store = BlockStore(tmp_path / "t")
            OfflineTrainer(tctx, t_store).train_fleet(generator, n_train=100)
        with SparkletContext(parallelism=1) as sctx:
            s_store = BlockStore(tmp_path / "s")
            OfflineTrainer(sctx, s_store).train_fleet(generator, n_train=100)
        for unit in generator.units():
            t = t_store.get(f"unit-model-{unit:05d}")
            s = s_store.get(f"unit-model-{unit:05d}")
            for name in ("mean", "std", "projection", "offset", "n_b"):
                assert np.array_equal(t[name], s[name]), name


class TestPipeline:
    def test_detection_only_pipeline(self, generator):
        pipeline = AnomalyPipeline(generator, config=FDRDetectorConfig(window=16))
        result = pipeline.run(n_train=150, n_eval=150, publish=False)
        assert set(result.reports) == set(generator.units())
        assert set(result.outcomes) == set(generator.units())
        assert result.points_published == 0

    def test_publishes_data_and_anomalies(self, generator):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        pipeline = AnomalyPipeline(generator, cluster)
        result = pipeline.run(unit_ids=[0, 1], n_train=150, n_eval=100)
        assert result.points_published == 2 * 100 * 15
        engine = cluster.query_engine()
        data = engine.run(TsdbQuery("energy", 0, 10_000, group_by=("unit",)))
        assert len(data) == 2
        if result.anomalies_published:
            anomalies = engine.run(TsdbQuery(ANOMALY_METRIC, 0, 10_000))
            assert anomalies  # flagged scores are readable back

    def test_faulted_units_detected(self, generator):
        pipeline = AnomalyPipeline(generator, config=FDRDetectorConfig(window=32))
        result = pipeline.run(n_train=300, n_eval=300, publish=False)
        faulted = [
            u for u in generator.units() if generator.fault_for(u, 300)
        ]
        detected = [
            u for u in faulted if result.outcomes[u].true_positives > 0
        ]
        assert len(detected) >= len(faulted) * 0.6

    def test_model_reuse_between_calls(self, generator):
        pipeline = AnomalyPipeline(generator)
        pipeline.train(unit_ids=[3], n_train=120)
        window = generator.evaluation_window(3, 80)
        report = pipeline.engine.evaluate_unit(3, window.start_time, window.values).report
        assert report.unit_id == 3

    def test_missing_model_raises(self, generator):
        pipeline = AnomalyPipeline(generator)
        with pytest.raises(KeyError):
            pipeline.model_for(0)

    def test_sparklet_backed_training(self, sc, generator, tmp_path):
        pipeline = AnomalyPipeline(
            generator, store=BlockStore(tmp_path), ctx=sc
        )
        result = pipeline.train(unit_ids=[0, 1], n_train=100)
        assert pipeline.model_for(0).n_train == 100
        assert pipeline.model_for(1).unit_id == 1

    def test_unit_alarm_metric_published(self, generator):
        cluster = build_cluster(n_nodes=2, retain_data=True)
        # force heavy faults so T2 fires
        gen = FleetGenerator(
            FleetConfig(n_units=4, n_sensors=15, seed=3,
                        fault_mix=(0.0, 0.0, 1.0), magnitude_range=(4.0, 5.0))
        )
        pipeline = AnomalyPipeline(gen, cluster)
        pipeline.run(n_train=200, n_eval=200)
        engine = cluster.query_engine()
        alarms = engine.run(TsdbQuery(UNIT_ALARM_METRIC, 0, 10_000, group_by=("unit",)))
        assert alarms
