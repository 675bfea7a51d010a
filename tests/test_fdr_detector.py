"""Tests for the FDR detector: training, detection, statistical behaviour."""

import numpy as np
import pytest

from repro.core.fdr import AnomalyReport, FDRDetector, FDRDetectorConfig, eigh_descending
from repro.core.model import UnitModel
from repro.core.multiple_testing import benjamini_hochberg
from repro.simdata import FaultKind, FleetConfig, FleetGenerator

from . import oracle


def healthy_data(n=400, p=20, seed=0):
    return np.random.default_rng(seed).normal(loc=50.0, scale=2.0, size=(n, p))


class TestConfig:
    def test_defaults_valid(self):
        FDRDetectorConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(q=0.0),
            dict(q=1.0),
            dict(window=0),
            dict(variance_target=0.0),
            dict(variance_target=1.5),
            dict(unit_alarm_alpha=0.0),
            dict(unit_alarm_alpha=1.0),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            FDRDetectorConfig(**kwargs)

    def test_unknown_procedure_rejected_at_construction(self):
        """Regression: a misspelt procedure used to be accepted here and
        fail only at the first score, which can be mid-stream."""
        with pytest.raises(ValueError, match="unknown procedure 'bhh'"):
            FDRDetectorConfig(procedure="bhh")
        with pytest.raises(ValueError, match="unknown procedure"):
            FDRDetector(FDRDetectorConfig(procedure="BH"))


class TestFit:
    def test_model_shapes(self):
        model = FDRDetector().fit(healthy_data(), unit_id=3)
        assert model.unit_id == 3
        assert model.mean.shape == (20,)
        assert model.std.shape == (20,)
        assert model.components.shape[0] == 20
        assert model.whitening.shape == model.components.shape
        assert model.n_train == 400

    def test_moments_match_numpy(self):
        x = healthy_data()
        model = FDRDetector().fit(x)
        assert np.allclose(model.mean, x.mean(axis=0))
        assert np.allclose(model.std, x.std(axis=0, ddof=1))

    def test_variance_target_selects_k(self):
        full = FDRDetector(FDRDetectorConfig(variance_target=1.0)).fit(healthy_data())
        small = FDRDetector(FDRDetectorConfig(variance_target=0.5)).fit(healthy_data())
        assert small.n_components < full.n_components

    def test_explicit_n_components(self):
        model = FDRDetector(FDRDetectorConfig(n_components=5)).fit(healthy_data())
        assert model.n_components == 5

    def test_n_components_out_of_range(self):
        with pytest.raises(ValueError):
            FDRDetector(FDRDetectorConfig(n_components=21)).fit(healthy_data())

    def test_constant_sensor_rejected(self):
        x = healthy_data()
        x[:, 0] = 7.0
        with pytest.raises(ValueError):
            FDRDetector().fit(x)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            FDRDetector().fit(np.zeros((1, 5)))

    def test_whitening_decorrelates(self):
        rng = np.random.default_rng(5)
        # strongly correlated pair
        base = rng.normal(size=(5000, 1))
        x = np.hstack([base + 0.1 * rng.normal(size=(5000, 1)) for _ in range(4)])
        x += rng.normal(size=x.shape) * 0.01
        model = FDRDetector(FDRDetectorConfig(variance_target=1.0)).fit(x)
        z = (x - model.mean) / model.std
        w = z @ model.whitening
        cov_w = np.cov(w, rowvar=False)
        assert np.allclose(np.diag(cov_w), 1.0, atol=0.1)
        off = cov_w - np.diag(np.diag(cov_w))
        assert np.abs(off).max() < 0.1


class TestEighDescending:
    @staticmethod
    def covariance(rows=80, cols=7, seed=0):
        x = np.random.default_rng(seed).normal(size=(rows, cols))
        return np.cov(x, rowvar=False)

    def test_covariance_eigen_descending_nonnegative(self):
        eigvals, eigvecs = eigh_descending(self.covariance())
        assert np.all(np.diff(eigvals) <= 1e-12)
        assert np.all(eigvals >= 0)
        assert eigvecs.shape == (7, 7)

    def test_covariance_eigen_reconstructs(self):
        cov = self.covariance(rows=200)
        eigvals, eigvecs = eigh_descending(cov)
        recon = eigvecs @ np.diag(eigvals) @ eigvecs.T
        assert np.allclose(recon, cov, atol=1e-10)


class TestDetect:
    def test_report_shapes(self):
        detector = FDRDetector(FDRDetectorConfig(window=4))
        model = detector.fit(healthy_data())
        values = healthy_data(n=50, seed=1)
        report = detector.detect(model, values)
        assert isinstance(report, AnomalyReport)
        assert report.flags.shape == (50, 20)
        assert report.pvalues.shape == (50, 20)
        assert report.unit_alarm.shape == (50,)

    @pytest.mark.parametrize("n_train", [5, 60, 600])
    def test_pvalues_are_the_oracles(self, n_train):
        """The report carries its model's ``n_train``, and its p-values
        read the same t(n_train − 1) reference the flags were decided
        on: the oracle's bits on the report's statistics, the oracle's
        own p-values to 1e-12, and BH over them gives the flags."""
        detector = FDRDetector(FDRDetectorConfig(window=8))
        model = detector.fit(healthy_data(n=n_train, p=7))
        values = healthy_data(n=120, p=7, seed=1)
        values[60:, 2] += 6.0
        report = detector.detect(model, values)
        assert report.n_train == n_train
        assert np.array_equal(
            report.pvalues, oracle.two_sided_pvalues(report.zscores, n_train - 1))
        reference = oracle.detect(model, values, detector.config)
        np.testing.assert_allclose(report.pvalues, reference.pvalues, rtol=0, atol=1e-12)
        assert np.array_equal(benjamini_hochberg(report.pvalues, 0.05), report.flags)
        assert report.flags.any()

    def test_shape_mismatch_rejected(self):
        detector = FDRDetector()
        model = detector.fit(healthy_data())
        with pytest.raises(ValueError):
            detector.detect(model, np.zeros((10, 3)))

    def test_healthy_data_mostly_clean(self):
        detector = FDRDetector(FDRDetectorConfig(q=0.01, window=16))
        model = detector.fit(healthy_data(n=2000))
        report = detector.detect(model, healthy_data(n=500, seed=2))
        assert report.n_discoveries < 500 * 20 * 0.01

    def test_detects_large_shift(self):
        detector = FDRDetector(FDRDetectorConfig(q=0.05, window=8))
        model = detector.fit(healthy_data(n=1000))
        values = healthy_data(n=200, seed=3)
        values[100:, 5] += 8.0  # 4 sigma shift on sensor 5
        report = detector.detect(model, values)
        assert 5 in report.flagged_sensors()
        assert report.first_detection() is not None
        assert report.flags[120:, 5].mean() > 0.8

    def test_t2_catches_correlation_breaking_shift(self):
        """T² fires on shifts that violate the learned correlation structure.

        A shift *along* the common factor is (correctly) attenuated by
        whitening — it is indistinguishable from factor noise.  A shift
        that breaks the correlation (half the group up, half down) lands
        in low-variance directions and lights T² up immediately.
        """
        rng = np.random.default_rng(8)
        base = rng.normal(size=(3000, 1))
        x = base + 0.3 * rng.normal(size=(3000, 10))
        detector = FDRDetector(FDRDetectorConfig(
            q=0.05, window=1, unit_alarm_alpha=0.001, variance_target=1.0
        ))
        model = detector.fit(x)
        test = base[:200] + 0.3 * rng.normal(size=(200, 10))
        pattern = np.array([1.0] * 5 + [-1.0] * 5) * 0.8
        test[100:] += pattern  # correlation-breaking shift
        report = detector.detect(model, test)
        assert report.unit_alarm[110:].mean() > 0.5
        assert report.unit_alarm[:100].mean() < 0.05

    def test_t2_disabled(self):
        detector = FDRDetector(FDRDetectorConfig(use_t2=False))
        model = detector.fit(healthy_data())
        report = detector.detect(model, healthy_data(n=30, seed=4))
        assert not report.unit_alarm.any()
        assert np.all(report.t2 == 0)

    def test_first_detection_none_when_clean(self):
        detector = FDRDetector(FDRDetectorConfig(q=0.0001, window=8, use_t2=False))
        model = detector.fit(healthy_data(n=3000))
        report = detector.detect(model, healthy_data(n=50, seed=6))
        if report.n_discoveries == 0:
            assert report.first_detection() is None


class TestOnFleetData:
    @pytest.fixture(scope="class")
    def generator(self):
        return FleetGenerator(FleetConfig(n_units=12, n_sensors=40, seed=21))

    def test_detects_every_shift_fault(self, generator):
        detector = FDRDetector(FDRDetectorConfig(q=0.05, window=32))
        for unit in generator.units():
            window = generator.evaluation_window(unit, 400)
            if not window.faults or window.faults[0].kind is not FaultKind.SHIFT:
                continue
            model = detector.fit(generator.training_window(unit, 400).values, unit_id=unit)
            report = detector.detect(model, window.values)
            spec = window.faults[0]
            flagged = set(report.flagged_sensors())
            strong = {s for s, w in spec.sensor_weights if w > 0.6}
            assert flagged & strong, f"unit {unit}: no strong faulted sensor flagged"

    def test_drift_faults_eventually_flagged(self, generator):
        detector = FDRDetector(FDRDetectorConfig(q=0.05, window=64, use_t2=False))
        checked = 0
        for unit in generator.units():
            window = generator.evaluation_window(unit, 500)
            if not window.faults or window.faults[0].kind is not FaultKind.DRIFT:
                continue
            spec = window.faults[0]
            if spec.onset + spec.ramp_seconds // 2 > 450:
                continue  # not enough post-onset runway in this window
            model = detector.fit(generator.training_window(unit, 500).values, unit_id=unit)
            report = detector.detect(model, window.values)
            # true detections (flag on a genuinely faulted cell) must exist
            assert (report.flags & window.truth).any(), f"unit {unit}: drift missed"
            checked += 1
        assert checked > 0, "fleet seed produced no checkable drift units"

    def test_procedure_none_floods_bh_does_not(self, generator):
        healthy_units = [
            u for u in generator.units()
            if not generator.fault_for(u, 400)
        ]
        assert healthy_units
        unit = healthy_units[0]
        train = generator.training_window(unit, 400).values
        ev = generator.evaluation_window(unit, 400).values
        none_det = FDRDetector(FDRDetectorConfig(q=0.05, window=16, procedure="none", use_t2=False))
        bh_det = FDRDetector(FDRDetectorConfig(q=0.05, window=16, procedure="bh", use_t2=False))
        none_flags = none_det.detect(none_det.fit(train), ev).n_discoveries
        bh_flags = bh_det.detect(bh_det.fit(train), ev).n_discoveries
        assert bh_flags < none_flags / 3
