"""Tests for the D-Stream engine and streaming (online) training."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fdr import FDRDetector, FDRDetectorConfig
from repro.core.online import OnlineEvaluator
from repro.core.model import IncrementalMoments
from repro.core.streaming import StreamingTrainer
from repro.core.training import train_unit_distributed
from repro.simdata import FleetConfig, FleetGenerator
from repro.sparklet import SparkletContext, StreamingContext


@pytest.fixture()
def sc():
    with SparkletContext(parallelism=2) as ctx:
        yield ctx


def collect_into(stream, sink):
    stream.foreach_rdd(lambda _t, rdd: sink.append(rdd.collect()))


class TestDStreamBasics:
    def test_queue_stream_map(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1, 2], [3]]).foreach_rdd(
            lambda _t, rdd: out.append(rdd.map(lambda x: x * 10).collect())
        )
        assert ssc.run() == 2
        assert out == [[10, 20], [30]]

    def test_run_limit(self, sc):
        ssc = StreamingContext(sc)
        out = []
        collect_into(ssc.queue_stream([[1], [2], [3]]), out)
        assert ssc.run(num_intervals=2) == 2
        assert out == [[1], [2]]
        assert ssc.run() == 1  # resumes where it left off
        assert out == [[1], [2], [3]]

    def test_exhausted_source_ends_stream(self, sc):
        ssc = StreamingContext(sc)
        collect_into(ssc.queue_stream([[1]]), [])
        assert ssc.run() == 1
        assert ssc.run() == 0

    def test_no_sources_raises(self, sc):
        with pytest.raises(RuntimeError):
            StreamingContext(sc).run()


class TestIncrementalMoments:
    def test_matches_batch_exactly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(loc=5.0, scale=3.0, size=(500, 8))
        inc = IncrementalMoments(8)
        for start in range(0, 500, 37):
            inc.update(x[start : start + 37])
        assert inc.count == 500
        assert np.allclose(inc.mean, x.mean(axis=0))
        assert np.allclose(inc.covariance(), np.cov(x, rowvar=False))
        assert np.allclose(inc.std(), x.std(axis=0, ddof=1))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=8))
    def test_any_chunking_matches_batch(self, chunks):
        rng = np.random.default_rng(sum(chunks))
        x = rng.normal(size=(sum(chunks), 4))
        inc = IncrementalMoments(4)
        pos = 0
        for n in chunks:
            inc.update(x[pos : pos + n])
            pos += n
        if inc.count >= 2:
            assert np.allclose(inc.covariance(), np.cov(x, rowvar=False), atol=1e-9)

    def test_empty_batch_ignored(self):
        inc = IncrementalMoments(2)
        inc.update(np.empty((0, 2)))
        assert inc.count == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            IncrementalMoments(0)
        inc = IncrementalMoments(2)
        with pytest.raises(ValueError):
            inc.update(np.zeros((3, 5)))
        with pytest.raises(ValueError):
            inc.update(np.zeros(2))
        with pytest.raises(ValueError):
            inc.mean
        with pytest.raises(ValueError):
            inc.covariance()
        inc.update(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            inc.covariance()  # one row has no sample covariance

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused_before_state_changes(self, bad):
        inc = IncrementalMoments(3)
        inc.update(np.random.default_rng(0).normal(size=(20, 3)))
        count, mean, cov = inc.count, inc.mean, inc.covariance()
        batch = np.ones((4, 3))
        batch[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            inc.update(batch)
        assert inc.count == count
        assert np.array_equal(inc.mean, mean)
        assert np.array_equal(inc.covariance(), cov)


class TestStreamingTrainer:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(1, 120), min_size=1, max_size=8))
    def test_streaming_model_converges_to_batch(self, chunk_sizes):
        """The stream under any chunking, the batch fit (one update) and
        the distributed fold over two partitions deal the same rows to
        the same halves and merge them in different orders, so they agree
        on the model, and on T² of fresh rows, to round-off."""
        fleet = FleetGenerator(FleetConfig(n_units=2, n_sensors=20, seed=51))
        x = fleet.training_window(0, 400).values
        trainer = StreamingTrainer(20, refresh_every=1, min_samples=2)
        pos = 0
        for size in chunk_sizes:
            trainer.ingest(0, x[pos : pos + size])
            pos += size
        trainer.ingest(0, x[pos:])  # whatever the chunks left over
        streamed = trainer.model_for(0)
        batch = FDRDetector().fit(x, unit_id=0)
        with SparkletContext(parallelism=2) as ctx:
            distributed = train_unit_distributed(ctx, x, 0)
        fresh = fleet.evaluation_window(1, 100).values

        def t2(model):
            scores = (fresh - model.mean) / model.std @ model.projection + model.offset
            return np.einsum("ij,ij->i", scores, scores)

        for other in (streamed, distributed):
            assert other.n_train == batch.n_train == 400
            assert (other.n_components, other.n_b) == (batch.n_components, batch.n_b)
            assert np.allclose(other.mean, batch.mean)
            assert np.allclose(other.std, batch.std)
            # the map's basis is defined up to eigenvector signs; T² is not
            assert np.allclose(t2(other), t2(batch), atol=1e-6)

    def test_refresh_cadence(self):
        rng = np.random.default_rng(3)
        trainer = StreamingTrainer(4, refresh_every=4, min_samples=10)
        for _ in range(12):
            trainer.ingest(7, rng.normal(size=(10, 4)))
        # first refresh as soon as min_samples met, then every 4 batches
        assert trainer.refreshes(7) == 3
        assert trainer.samples_seen(7) == 120

    def test_no_model_before_min_samples(self):
        rng = np.random.default_rng(4)
        trainer = StreamingTrainer(3, min_samples=100)
        assert trainer.ingest(0, rng.normal(size=(10, 3))) is None
        assert trainer.model_for(0) is None

    def test_on_model_callback(self):
        rng = np.random.default_rng(5)
        seen = []
        trainer = StreamingTrainer(3, min_samples=10, on_model=seen.append)
        trainer.ingest(2, rng.normal(size=(20, 3)))
        assert len(seen) == 1 and seen[0].unit_id == 2

    def test_multiple_units_tracked(self):
        rng = np.random.default_rng(6)
        trainer = StreamingTrainer(3, min_samples=10)
        trainer.ingest_pairs([(0, rng.normal(size=(15, 3))),
                              (1, rng.normal(size=(15, 3)))])
        assert trainer.units() == [0, 1]
        assert trainer.model_for(0) is not None
        assert trainer.model_for(1) is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingTrainer(3, refresh_every=0)
        with pytest.raises(ValueError):
            StreamingTrainer(3, min_samples=1)

    def test_empty_batches_do_not_advance_refresh_cadence(self):
        """Regression: idle micro-batches used to tick
        ``batches_since_refresh`` (IncrementalMoments.update early
        returns on n_b == 0), so an idle stream could trigger a model
        refresh with zero new samples."""
        rng = np.random.default_rng(8)
        trainer = StreamingTrainer(4, refresh_every=3, min_samples=10)
        trainer.ingest(0, rng.normal(size=(20, 4)))  # first model
        assert trainer.refreshes(0) == 1
        # A long idle stretch: no new samples, so no refresh may fire.
        for _ in range(10):
            assert trainer.ingest(0, np.empty((0, 4))) is None
        assert trainer.refreshes(0) == 1
        # Cadence picks up where real data left off: 3 non-empty batches.
        assert trainer.ingest(0, rng.normal(size=(5, 4))) is None
        assert trainer.ingest(0, rng.normal(size=(5, 4))) is None
        assert trainer.ingest(0, rng.normal(size=(5, 4))) is not None
        assert trainer.refreshes(0) == 2

    def test_empty_batches_interleaved_keep_cadence_exact(self):
        rng = np.random.default_rng(9)
        with_gaps = StreamingTrainer(3, refresh_every=2, min_samples=6)
        solid = StreamingTrainer(3, refresh_every=2, min_samples=6)
        for i in range(8):
            batch = rng.normal(size=(6, 3))
            with_gaps.ingest(1, np.empty((0, 3)))
            with_gaps.ingest(1, batch)
            with_gaps.ingest(1, np.empty((0, 3)))
            solid.ingest(1, batch)
        assert with_gaps.refreshes(1) == solid.refreshes(1)
        assert with_gaps.samples_seen(1) == solid.samples_seen(1)

    def test_degenerate_variance_quarantines_instead_of_raising(self):
        """Regression: one stuck sensor on one unit used to raise
        ValueError out of ``_refresh`` and kill the whole stream."""
        rng = np.random.default_rng(10)
        quarantined = []
        trainer = StreamingTrainer(
            3, refresh_every=2, min_samples=6, on_quarantine=quarantined.append
        )
        # Constant feed: zero variance on every sensor.
        for _ in range(4):
            assert trainer.ingest(5, np.ones((6, 3))) is None
        assert trainer.model_for(5) is None
        assert trainer.quarantines(5) >= 1
        assert trainer.total_quarantines == trainer.quarantines(5)
        assert quarantined and set(quarantined) == {5}
        # A healthy unit on the same trainer is unaffected...
        trainer.ingest(6, rng.normal(size=(12, 3)))
        assert trainer.model_for(6) is not None
        assert trainer.quarantines(6) == 0
        # ...and the quarantined unit recovers once variance returns.
        before = trainer.quarantines(5)
        while trainer.model_for(5) is None:
            trainer.ingest(5, rng.normal(size=(6, 3)))
        assert trainer.model_for(5) is not None
        assert trainer.quarantines(5) == before  # healthy refreshes add none

    def test_quarantine_keeps_last_good_model(self):
        rng = np.random.default_rng(11)
        trainer = StreamingTrainer(2, refresh_every=2, min_samples=8)
        trainer.ingest(3, rng.normal(size=(10, 2)))
        good = trainer.model_for(3)
        assert good is not None
        # Variance once accumulated never returns to zero, and NaN is
        # refused at the door, so the one way left to a degenerate
        # refresh on a live unit is overflow: finite samples whose
        # squares are not.  Non-finite stds quarantine, not propagate.
        huge = np.array([[1e200], [-1e200]] * 2) * np.ones((1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            trainer.ingest(3, huge)
            trainer.ingest(3, huge)
        assert trainer.model_for(3) is good  # last good model survives
        assert trainer.quarantines(3) == 1

    def test_nan_batch_is_refused_and_the_unit_recovers(self):
        """Regression: a NaN row used to be folded into the running
        mean and M2, after which *every* due refresh quarantined — one
        bad sample benched the unit for the rest of the stream."""
        rng = np.random.default_rng(12)
        trainer = StreamingTrainer(3, refresh_every=1, min_samples=10)
        trainer.ingest(0, rng.normal(size=(10, 3)))
        seen, refreshes = trainer.samples_seen(0), trainer.refreshes(0)
        bad = rng.normal(size=(10, 3))
        bad[4, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            trainer.ingest(0, bad)
        assert trainer.samples_seen(0) == seen  # moments untouched
        for _ in range(20):
            assert trainer.ingest(0, rng.normal(size=(10, 3))) is not None
        assert trainer.refreshes(0) == refreshes + 20
        assert trainer.quarantines(0) == 0 and trainer.total_quarantines == 0


class TestStreamingEndToEnd:
    def test_dstream_driven_training_and_scoring(self, sc):
        """The §VI vision: online training on a micro-batch stream."""
        fleet = FleetGenerator(
            FleetConfig(n_units=1, n_sensors=15, seed=61, fault_mix=(0.0, 0.0, 1.0))
        )
        training = fleet.training_window(0, 300)
        micro_batches = [
            [(0, training.values[i : i + 30])] for i in range(0, 300, 30)
        ]
        trainer = StreamingTrainer(15, refresh_every=2, min_samples=60)
        ssc = StreamingContext(sc)
        stream = ssc.queue_stream(micro_batches)
        stream.foreach_rdd(lambda _t, rdd: trainer.ingest_pairs(rdd.collect()))
        ssc.run()

        model = trainer.model_for(0)
        assert model is not None and model.n_train == 300

        window = fleet.evaluation_window(0, 300)
        evaluator = OnlineEvaluator(model, FDRDetectorConfig(q=0.05, window=32))
        flags, _ = evaluator.evaluate(window.values)
        assert (flags & window.truth).any()  # the injected shift is caught
