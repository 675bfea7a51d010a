"""Tests for the D-Stream engine and streaming (online) training."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fdr import FDRDetector, FDRDetectorConfig
from repro.core.online import OnlineEvaluator
from repro.core.streaming import IncrementalMoments, StreamingTrainer
from repro.core.training import train_unit_distributed
from repro.simdata import FleetConfig, FleetGenerator
from repro.sparklet import SparkletContext, StreamingContext


@pytest.fixture()
def sc():
    with SparkletContext(parallelism=2, executor="serial") as ctx:
        yield ctx


class TestDStreamBasics:
    def test_queue_stream_map(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1, 2], [3]]).map(lambda x: x * 10).collect_batches(out)
        assert ssc.run() == 2
        assert out == [[10, 20], [30]]

    def test_filter_and_flat_map(self, sc):
        ssc = StreamingContext(sc)
        out = []
        (
            ssc.queue_stream([["a b", "c"], ["d e"]])
            .flat_map(str.split)
            .filter(lambda w: w != "c")
            .collect_batches(out)
        )
        ssc.run()
        assert out == [["a", "b"], ["d", "e"]]

    def test_reduce_by_key_per_batch(self, sc):
        ssc = StreamingContext(sc)
        out = []
        (
            ssc.queue_stream([[("a", 1), ("a", 2)], [("a", 5), ("b", 1)]])
            .reduce_by_key(lambda x, y: x + y)
            .collect_batches(out)
        )
        ssc.run()
        assert dict(out[0]) == {"a": 3}
        assert dict(out[1]) == {"a": 5, "b": 1}

    def test_count_by_value(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([["x", "y", "x"]]).count_by_value().collect_batches(out)
        ssc.run()
        assert dict(out[0]) == {"x": 2, "y": 1}

    def test_run_limit(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1], [2], [3]]).collect_batches(out)
        assert ssc.run(num_intervals=2) == 2
        assert out == [[1], [2]]
        assert ssc.run() == 1  # resumes where it left off
        assert out == [[1], [2], [3]]

    def test_exhausted_source_ends_stream(self, sc):
        ssc = StreamingContext(sc)
        ssc.queue_stream([[1]]).collect_batches([])
        assert ssc.run() == 1
        assert ssc.run() == 0

    def test_no_sources_raises(self, sc):
        with pytest.raises(RuntimeError):
            StreamingContext(sc).run()

    def test_invalid_interval(self, sc):
        with pytest.raises(ValueError):
            StreamingContext(sc, batch_interval=0.0)

    def test_transform_arbitrary(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[3, 1, 2]]).transform(
            lambda rdd: rdd.sort_by(lambda x: x)
        ).collect_batches(out)
        ssc.run()
        assert out == [[1, 2, 3]]


class TestWindows:
    def test_window_unions_recent_batches(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1], [2], [3], [4]]).window(2).collect_batches(out)
        ssc.run()
        assert out == [[1], [1, 2], [2, 3], [3, 4]]

    def test_window_with_slide(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1], [2], [3], [4]]).window(2, slide=2).collect_batches(out)
        ssc.run()
        assert out == [[1, 2], [3, 4]]

    def test_reduce_by_key_and_window(self, sc):
        ssc = StreamingContext(sc)
        out = []
        batches = [[("a", 1)], [("a", 2)], [("a", 4)]]
        ssc.queue_stream(batches).reduce_by_key_and_window(
            lambda x, y: x + y, window_length=2
        ).collect_batches(out)
        ssc.run()
        assert [dict(b)["a"] for b in out] == [1, 3, 6]

    def test_invalid_window(self, sc):
        ssc = StreamingContext(sc)
        with pytest.raises(ValueError):
            ssc.queue_stream([[1]]).window(0)

    def test_slide_alignment_across_source_exhaustion(self, sc):
        """A source drying up between slide boundaries emits no partial
        window — the last emission is the last *aligned* one."""
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1], [2], [3], [4], [5]]).window(2, slide=2).collect_batches(out)
        assert ssc.run() == 5
        # Emissions at t=1 and t=3 only; the tail batch [5] lands after
        # the last slide boundary and the exhausted source never reaches
        # the next one.
        assert out == [[1, 2], [3, 4]]

    def test_slide_alignment_survives_run_resumption(self, sc):
        """Slide phase is anchored to the global interval index, so a
        paused-and-resumed run keeps the same emission cadence."""
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1], [2], [3], [4]]).window(3, slide=2).collect_batches(out)
        assert ssc.run(num_intervals=1) == 1
        assert out == []  # t=0 is not a slide boundary
        assert ssc.run() == 3
        # t=1 emits [1, 2]; t=3 emits the last 3 batches (maxlen window).
        assert out == [[1, 2], [2, 3, 4]]

    def test_reduce_by_key_and_window_slide_under_exhaustion(self, sc):
        ssc = StreamingContext(sc)
        out = []
        batches = [[("a", 1)], [("a", 2)], [("b", 7)], [("a", 4)], [("a", 8)]]
        ssc.queue_stream(batches).reduce_by_key_and_window(
            lambda x, y: x + y, window_length=2, slide=2
        ).collect_batches(out)
        ssc.run()
        assert [dict(b) for b in out] == [{"a": 3}, {"a": 4, "b": 7}]

    def test_window_after_exhaustion_emits_nothing_on_rerun(self, sc):
        ssc = StreamingContext(sc)
        out = []
        ssc.queue_stream([[1], [2], [3]]).window(2, slide=2).collect_batches(out)
        ssc.run()
        assert out == [[1, 2]]
        assert ssc.run() == 0  # exhausted source: no ghost emissions
        assert out == [[1, 2]]


class TestState:
    def test_update_state_by_key_running_sum(self, sc):
        ssc = StreamingContext(sc)
        out = []
        batches = [[("a", 1), ("b", 2)], [("a", 3)], [("b", 1)]]
        (
            ssc.queue_stream(batches)
            .update_state_by_key(lambda new, old: (old or 0) + sum(new))
            .collect_batches(out)
        )
        ssc.run()
        assert dict(out[0]) == {"a": 1, "b": 2}
        assert dict(out[1]) == {"a": 4, "b": 2}
        assert dict(out[2]) == {"a": 4, "b": 3}

    def test_state_key_dropped_on_none(self, sc):
        ssc = StreamingContext(sc)
        out = []
        batches = [[("a", 1)], [("a", -1)]]

        def update(new, old):
            total = (old or 0) + sum(new)
            return total if total > 0 else None

        ssc.queue_stream(batches).update_state_by_key(update).collect_batches(out)
        ssc.run()
        assert dict(out[0]) == {"a": 1}
        assert out[1] == []

    def test_mixed_key_types_do_not_crash(self, sc):
        """Regression: ``sorted(state.items())`` on an int/str key mix
        raised TypeError and killed the stream; the stateful operator
        now sorts on a stable type+repr surrogate."""
        ssc = StreamingContext(sc)
        out = []
        batches = [[(1, 10), ("a", 1)], [("a", 2), (1, 5), (2.5, 1)]]
        (
            ssc.queue_stream(batches)
            .update_state_by_key(lambda new, old: (old or 0) + sum(new))
            .collect_batches(out)
        )
        assert ssc.run() == 2
        assert dict(out[0]) == {1: 10, "a": 1}
        assert dict(out[1]) == {1: 15, "a": 3, 2.5: 1}

    def test_mixed_key_emission_order_is_deterministic(self, sc):
        def run_once():
            with SparkletContext(parallelism=2, executor="serial") as ctx:
                ssc = StreamingContext(ctx)
                out = []
                batches = [[("b", 1), (3, 1), (1, 1), ("a", 1)]]
                (
                    ssc.queue_stream(batches)
                    .update_state_by_key(lambda new, old: (old or 0) + sum(new))
                    .collect_batches(out)
                )
                ssc.run()
                return [k for k, _ in out[0]]

        first = run_once()
        assert first == run_once()
        # ints group together (sorted by repr), strs likewise.
        assert first == [1, 3, "a", "b"]


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

    def test_merge_equivalent_to_sequential(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(60, 5)), rng.normal(size=(40, 5))
        left = IncrementalMoments(5)
        left.update(a)
        right = IncrementalMoments(5)
        right.update(b)
        merged = left.merge(right)
        ref = IncrementalMoments(5)
        ref.update(np.vstack([a, b]))
        assert np.allclose(merged.mean, ref.mean)
        assert np.allclose(merged.covariance(), ref.covariance())

    def test_merge_with_empty(self):
        a = IncrementalMoments(3)
        a.update(np.ones((5, 3)))
        empty = IncrementalMoments(3)
        assert a.merge(empty).count == 5
        assert empty.merge(a).count == 5

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
            inc.mean
        with pytest.raises(ValueError):
            inc.covariance()
        with pytest.raises(ValueError):
            inc.merge(IncrementalMoments(3))

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
        poisoned = IncrementalMoments(3)
        poisoned.update(np.ones((2, 3)))
        poisoned._m2[0, 0] = bad  # only overflow can do this from outside
        with pytest.raises(ValueError, match="non-finite"):
            inc.merge(poisoned)


class TestStreamingTrainer:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(1, 120), min_size=1, max_size=8))
    def test_streaming_model_converges_to_batch(self, chunk_sizes):
        """The three front halves (batch ``np.cov``, Chan-merged moments
        under any chunking, distributed Gramian) reach the one builder
        with the same statistics, so they agree on the model."""
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
        with SparkletContext(parallelism=2, executor="serial") as ctx:
            distributed = train_unit_distributed(ctx, x, 0)
        for other in (streamed, distributed):
            assert other.n_train == batch.n_train == 400
            assert other.n_components == batch.n_components
            assert np.allclose(other.mean, batch.mean)
            assert np.allclose(other.std, batch.std)
            assert np.allclose(other.eigenvalues, batch.eigenvalues, atol=1e-8)
            # eigenvectors are defined up to sign; so is each whitening column
            signs = np.sign(np.sum(other.whitening * batch.whitening, axis=0))
            assert np.allclose(other.whitening * signs, batch.whitening, atol=1e-6)

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
