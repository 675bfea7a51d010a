"""Tests for model artifacts and the online evaluator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from repro.core.fdr import FDRDetector, FDRDetectorConfig
from repro.core.multiple_testing import (
    PROCEDURES,
    benjamini_hochberg,
    benjamini_yekutieli,
    step_up_ladder,
)
from repro.core.model import UnitModel, load_model, model_key, save_model
from repro.core.online import OnlineEvaluator
from repro.sparklet.storage import BlockStore

from . import oracle
from .ulps import nudge


def trained_model(n=500, p=12, seed=0, **cfg):
    rng = np.random.default_rng(seed)
    detector = FDRDetector(FDRDetectorConfig(**cfg))
    return detector, detector.fit(rng.normal(loc=10.0, scale=2.0, size=(n, p)), unit_id=4)


def _inputs_for_windowed(target, window, n_train):
    """Rows ``x`` whose window statistic (``Σ`` of the last ``window``
    rows over ``√(c·(1 + c/n_train))``) is ``target``, within a few
    ulps."""
    counts = np.minimum(np.arange(1, len(target) + 1), window).astype(np.float64)
    csum = target * np.sqrt(counts * (1.0 + counts / n_train))[:, None]
    if window == 1:
        return csum
    for t in range(window, len(target)):
        csum[t] += csum[t - window]
    return np.diff(csum, axis=0, prepend=0.0)


class TestUnitModel:
    def test_validation_shapes(self):
        with pytest.raises(ValueError):
            UnitModel(0, np.zeros(3), np.ones(2), np.ones(1), np.zeros((3, 1)),
                      np.zeros((3, 1)), 10)

    def test_validation_std_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                UnitModel(0, np.zeros(2), np.array([1.0, bad]), np.ones(1),
                          np.zeros((2, 1)), np.zeros((2, 1)), 10)

    def test_validation_eig_sorted(self):
        with pytest.raises(ValueError):
            UnitModel(0, np.zeros(2), np.ones(2), np.array([1.0, 2.0]),
                      np.zeros((2, 2)), np.zeros((2, 2)), 10)

    def test_validation_negative_eig(self):
        with pytest.raises(ValueError):
            UnitModel(0, np.zeros(2), np.ones(2), np.array([1.0, -0.1]),
                      np.zeros((2, 2)), np.zeros((2, 2)), 10)

    def test_validation_n_train(self):
        with pytest.raises(ValueError):
            UnitModel(0, np.zeros(2), np.ones(2), np.ones(1),
                      np.zeros((2, 1)), np.zeros((2, 1)), 1)

    def test_properties(self):
        _, model = trained_model()
        assert model.n_sensors == 12
        assert 1 <= model.n_components <= 12
        ratios = model.explained_variance_ratio()
        assert np.all(ratios >= 0)
        assert ratios.sum() <= 1.0 + 1e-9


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = BlockStore(tmp_path)
        _, model = trained_model()
        key = save_model(store, model)
        assert key == model_key(4)
        loaded = load_model(store, 4)
        assert loaded is not None
        assert loaded.unit_id == 4
        assert np.array_equal(loaded.mean, model.mean)
        assert np.array_equal(loaded.std, model.std)
        assert np.array_equal(loaded.whitening, model.whitening)
        assert loaded.n_train == model.n_train

    def test_load_missing_returns_none(self, tmp_path):
        assert load_model(BlockStore(tmp_path), 99) is None

    def test_loaded_model_scores_identically(self, tmp_path):
        store = BlockStore(tmp_path)
        detector, model = trained_model()
        save_model(store, model)
        loaded = load_model(store, 4)
        x = np.random.default_rng(1).normal(loc=10.0, scale=2.0, size=(50, 12))
        a = detector.detect(model, x)
        b = detector.detect(loaded, x)
        assert np.array_equal(a.flags, b.flags)
        assert np.allclose(a.pvalues, b.pvalues)


class TestOnlineEvaluator:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_batch_detect(self, data):
        """The one kernel against the dense oracle (``tests/oracle.py``):
        ``detect``, ``report``, chunked ``evaluate_scored`` and chunked
        ``evaluate`` all decide what the oracle decides, for any shape,
        window, procedure, T² setting, retained rank, training size and
        chunking."""
        p = data.draw(st.integers(1, 9), label="p")
        cfg = FDRDetectorConfig(
            q=data.draw(st.sampled_from([0.005, 0.05, 0.3]), label="q"),
            window=data.draw(st.sampled_from([1, 2, 5, 16, 64]), label="window"),
            procedure=data.draw(st.sampled_from(sorted(PROCEDURES)), label="procedure"),
            n_components=data.draw(st.integers(1, p), label="k"),
            use_t2=data.draw(st.booleans(), label="use_t2"),
        )
        chunk_sizes = data.draw(
            st.lists(st.integers(1, 12), min_size=1, max_size=6), label="chunks"
        )
        total = sum(chunk_sizes)  # 1 .. 72: below, at and above the window
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        n_train = data.draw(st.sampled_from([3, 40, 600]), label="n_train")
        detector = FDRDetector(cfg)
        model = detector.fit(rng.normal(loc=10.0, scale=2.0, size=(n_train, p)), unit_id=4)
        x = rng.normal(loc=10.0, scale=2.0, size=(total, p))
        x[total // 2 :, 0] += 9.0
        reference = oracle.detect(model, x, cfg)

        for report in (OnlineEvaluator(model, cfg).report(x), detector.detect(model, x)):
            assert np.array_equal(report.flags, reference.flags)
            assert np.array_equal(report.unit_alarm, reference.unit_alarm)
            np.testing.assert_allclose(report.zscores, reference.zscores, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.pvalues, reference.pvalues, rtol=0, atol=1e-12)
            np.testing.assert_allclose(report.t2, reference.t2, rtol=1e-12, atol=1e-12)

        chunks = np.split(x, np.cumsum(chunk_sizes)[:-1])
        scored, plain = OnlineEvaluator(model, cfg), OnlineEvaluator(model, cfg)
        flags, alarms, zs = zip(*(scored.evaluate_scored(c) for c in chunks))
        plain_flags, plain_alarms = zip(*(plain.evaluate(c) for c in chunks))
        for got_flags, got_alarms in ((flags, alarms), (plain_flags, plain_alarms)):
            assert np.array_equal(np.vstack(got_flags), reference.flags)
            assert np.array_equal(np.concatenate(got_alarms), reference.unit_alarm)
        np.testing.assert_allclose(np.vstack(zs), reference.zscores, rtol=0, atol=1e-12)
        # Totals do not depend on how the rows were cut.
        for stats in (scored.stats, plain.stats):
            assert stats.batches == len(chunk_sizes)
            assert stats.samples == x.size
            assert stats.discoveries == reference.n_discoveries
            assert stats.unit_alarms == int(reference.unit_alarm.sum())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_boundary_flags_match_the_dense_step_up(self, data):
        """The kernel's statistic-space step-up, where it cuts: |t|
        planted on every rung's threshold ``−F⁻¹_dof(q_eff·k/(2m))`` and
        on both edges of its exact-settlement band (a relative 1e-9), 0–4
        ulps either side, in rows with no candidate, rows where every
        sensor is one, and staircase rows (sensor i on rung i's
        threshold, so every bucket moves k).  On the statistics the
        kernel returns, its flags
        are the dense step-up's over every oracle p-value, for any
        training size (1, 9 and 599 degrees of freedom) and any chunking
        across the window carry."""
        m = data.draw(st.sampled_from([1, 2, 48, 300]), label="m")
        q = data.draw(st.sampled_from([0.005, 0.05, 0.3]), label="q")
        procedure = data.draw(st.sampled_from(["bh", "by"]), label="procedure")
        window = data.draw(st.sampled_from([1, 32]), label="window")
        n_train = data.draw(st.sampled_from([2, 10, 600]), label="n_train")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        dof = n_train - 1
        thresholds = -special.stdtrit(dof, step_up_ladder(q, m, procedure == "by") / 2.0)
        cuts = np.concatenate([thresholds, thresholds * (1.0 - 1e-9), thresholds * (1.0 + 1e-9)])
        floor = thresholds[-1] * (1.0 - 1e-9)
        kinds = data.draw(st.lists(
            st.sampled_from(["none", "every", "top_rung", "staircase", "mixed"]),
            min_size=1, max_size=40), label="rows")
        rows = []
        for kind in kinds:
            if kind == "none":  # every |t| below the floor: no candidate
                row = rng.uniform(-0.99, 0.99, m) * floor
            elif kind == "every":  # every sensor on some cut
                row = cuts[rng.integers(0, cuts.size, m)]
            elif kind == "top_rung":  # k = m or nothing: the floor's own edge
                row = np.full(m, thresholds[m - 1])
            elif kind == "staircase":
                row = thresholds[rng.permutation(m)]
            else:
                row = np.where(rng.random(m) < 0.3, cuts[rng.integers(0, cuts.size, m)],
                               rng.standard_normal(m))
            row = nudge(row, rng.integers(-4, 5, m))
            rows.append(row * rng.choice([-1.0, 1.0], m))
        target = np.array(rows)
        chunk_sizes = data.draw(
            st.lists(st.integers(1, 16), min_size=1, max_size=5), label="chunks")

        cfg = FDRDetectorConfig(q=q, window=window, procedure=procedure, use_t2=False)
        ident = np.eye(m)[:, :1]
        model = UnitModel(0, np.zeros(m), np.ones(m), np.ones(1), ident, ident, n_train)
        # Mean 0 and std 1 make the standardised z the input itself; the
        # window statistic over x lands each planted target within a
        # few ulps.
        x = _inputs_for_windowed(target, window, n_train)
        dense = benjamini_yekutieli if procedure == "by" else benjamini_hochberg

        report = OnlineEvaluator(model, cfg).report(x)
        if window == 1:
            np.testing.assert_allclose(report.zscores, target, rtol=1e-15, atol=0)
        assert np.array_equal(
            report.flags, dense(oracle.two_sided_pvalues(report.zscores, dof), q))
        online = OnlineEvaluator(model, cfg)
        cut_at = [c for c in np.cumsum(chunk_sizes) if c < len(x)]
        for chunk in np.split(x, cut_at):
            flags, _, z_win = online.evaluate_scored(chunk)
            assert np.array_equal(flags, dense(oracle.two_sided_pvalues(z_win, dof), q))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=8))
    def test_chunked_equals_oneshot(self, chunk_sizes):
        """Feeding any chunking of the stream matches one-shot evaluation."""
        detector, model = trained_model()
        total = sum(chunk_sizes)
        x = np.random.default_rng(9).normal(loc=10.0, scale=2.0, size=(total, 12))
        x[total // 2 :, 2] += 6.0
        whole = OnlineEvaluator(model, detector.config)
        oneshot, oneshot_alarms = whole.evaluate(x)
        online = OnlineEvaluator(model, detector.config)
        pieces = np.split(x, np.cumsum(chunk_sizes)[:-1])
        chunks, alarms = zip(*(online.evaluate(piece) for piece in pieces))
        assert np.array_equal(np.vstack(chunks), oneshot)
        assert np.array_equal(np.concatenate(alarms), oneshot_alarms)
        assert online.stats.discoveries == whole.stats.discoveries
        assert online.stats.unit_alarms == whole.stats.unit_alarms
        assert online.stats.samples == whole.stats.samples

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["evaluate", "evaluate_scored", "report"])
    def test_non_finite_sample_refused_by_name(self, entry, bad):
        """Regression: one NaN used to make ``evaluate`` silently skip
        every later row for about a window, while ``report`` blamed the
        p-values; ``inf`` flagged on one route and raised on the other."""
        detector, model = trained_model()
        rng = np.random.default_rng(7)
        clean = rng.normal(loc=10.0, scale=2.0, size=(40, 12))
        clean[20:, 3] += 9.0
        poisoned = rng.normal(loc=10.0, scale=2.0, size=(10, 12))
        poisoned[4, 5] = bad
        online = OnlineEvaluator(model, detector.config)
        online.evaluate(clean[:20])
        with pytest.raises(ValueError, match="values must be finite"):
            getattr(online, entry)(poisoned)
        # The refused batch left no trace: the totals and the window
        # carry are those of a stream that never saw it.
        untouched = OnlineEvaluator(model, detector.config)
        untouched.evaluate(clean[:20])
        assert online.stats == untouched.stats
        got, want = online.evaluate_scored(clean[20:]), untouched.evaluate_scored(clean[20:])
        assert got[0].any()
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("procedure", ["bh", "by"])
    @pytest.mark.parametrize("entry", ["evaluate", "evaluate_scored", "report"])
    def test_overflowing_window_refused_like_detect(self, entry, procedure):
        """Regression: finite samples can still overflow the window sum,
        and ``inf − inf`` in its lagged difference is a NaN z.  The
        z-space floor let that NaN through as p = 1, flagging nothing;
        the batch must be refused, as the dense oracle refuses it."""
        detector, model = trained_model(procedure=procedure)
        x = np.random.default_rng(3).normal(loc=10.0, scale=2.0, size=(60, 12))
        x[5:45, 2] = 1e308
        online = OnlineEvaluator(model, detector.config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="p-values"):
                oracle.detect(model, x, detector.config)
            with pytest.raises(ValueError, match="p-values"):
                getattr(online, entry)(x)
        assert online.stats.batches == 0

    def test_reset_clears_carry(self):
        detector, model = trained_model()
        online = OnlineEvaluator(model, detector.config)
        x = np.random.default_rng(5).normal(loc=10.0, scale=2.0, size=(40, 12))
        online.evaluate(x)
        online.reset()
        assert online.stats.samples == 0
        f1, _ = online.evaluate(x)
        f2, _ = OnlineEvaluator(model, detector.config).evaluate(x)
        assert np.array_equal(f1, f2)

    def test_stats_accumulate(self):
        detector, model = trained_model()
        online = OnlineEvaluator(model, detector.config)
        x = np.random.default_rng(5).normal(loc=10.0, scale=2.0, size=(30, 12))
        online.evaluate(x)
        online.evaluate(x)
        assert online.stats.samples == 2 * 30 * 12
        assert online.stats.batches == 2

    def test_throughput_helper(self):
        detector, model = trained_model()
        online = OnlineEvaluator(model, detector.config)
        online.evaluate(np.random.default_rng(1).normal(10, 2, size=(10, 12)))
        assert online.throughput_samples_per_second(1.0) == 120
        with pytest.raises(ValueError):
            online.throughput_samples_per_second(0.0)
        with pytest.raises(ValueError):
            online.throughput_samples_per_second(-1.0)

    def test_shape_validation(self):
        detector, model = trained_model()
        online = OnlineEvaluator(model, detector.config)
        with pytest.raises(ValueError):
            online.evaluate(np.zeros((5, 3)))

    def test_window_one_no_carry(self):
        detector, model = trained_model()
        cfg = FDRDetectorConfig(window=1)
        online = OnlineEvaluator(model, cfg)
        x = np.random.default_rng(2).normal(10, 2, size=(20, 12))
        f1, _ = online.evaluate(x[:10])
        f2, _ = online.evaluate(x[10:])
        oneshot, _ = OnlineEvaluator(model, cfg).evaluate(x)
        assert np.array_equal(np.vstack([f1, f2]), oneshot)
