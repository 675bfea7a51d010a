"""Tests for the SPC baseline charts."""

import numpy as np
import pytest

from repro.core import spc
from repro.core.fdr import FDRDetector, FDRDetectorConfig
from repro.core.spc import CusumChart, EwmaChart, MewmaChart, ShewhartChart


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    return FDRDetector().fit(rng.normal(loc=100.0, scale=5.0, size=(3000, 6)))


def null_data(n=4000, seed=1):
    return np.random.default_rng(seed).normal(loc=100.0, scale=5.0, size=(n, 6))


def shifted_data(n=300, shift_sigma=2.0, seed=2, sensor=2, onset=100):
    x = null_data(n, seed)
    x[onset:, sensor] += shift_sigma * 5.0
    return x


class TestShewhart:
    def test_null_false_alarm_rate_matches_3sigma(self, model):
        assert spc.SHEWHART_LIMIT == 3.0
        flags = ShewhartChart().flags(model, null_data())
        assert flags.mean() == pytest.approx(0.0027, abs=0.002)

    def test_detects_large_shift(self, model):
        flags = ShewhartChart().flags(model, shifted_data(shift_sigma=4.0))
        assert flags[110:, 2].mean() > 0.7

    def test_limit_monotone(self, model, monkeypatch):
        x = null_data()
        monkeypatch.setattr(spc, "SHEWHART_LIMIT", 2.0)
        loose = ShewhartChart().flags(model, x).sum()
        monkeypatch.setattr(spc, "SHEWHART_LIMIT", 4.0)
        tight = ShewhartChart().flags(model, x).sum()
        assert tight < loose

    def test_shape_mismatch(self, model):
        with pytest.raises(ValueError):
            ShewhartChart().flags(model, np.zeros((5, 3)))


class TestCusum:
    def test_detects_small_persistent_shift_faster_than_shewhart(self, model):
        x = shifted_data(n=600, shift_sigma=1.0, onset=200)
        cusum_flags = CusumChart().flags(model, x)
        shewhart_flags = ShewhartChart().flags(model, x)
        def first(flags):
            hits = np.flatnonzero(flags[200:, 2])
            return hits[0] if hits.size else 10**9
        assert first(cusum_flags) < first(shewhart_flags)

    def test_null_rarely_alarms(self, model):
        flags = CusumChart().flags(model, null_data())
        assert flags.mean() < 0.01

    def test_two_sided(self, model):
        x = null_data(300)
        x[100:, 1] -= 10.0  # downward shift
        flags = CusumChart().flags(model, x)
        assert flags[150:, 1].any()


class TestEwma:
    def test_null_alarm_rate_small(self, model):
        flags = EwmaChart().flags(model, null_data())
        assert flags.mean() < 0.02

    def test_detects_moderate_shift(self, model):
        flags = EwmaChart().flags(model, shifted_data(shift_sigma=1.5, n=400))
        assert flags[150:, 2].mean() > 0.5

    def test_early_samples_calibrated(self, model):
        """The exact time-dependent variance avoids startup false alarms."""
        trials = 0
        alarms = 0
        for seed in range(30):
            flags = EwmaChart().flags(model, null_data(n=10, seed=100 + seed))
            alarms += flags.sum()
            trials += flags.size
        assert alarms / trials < 0.02

    def test_lambda_one_reduces_to_shewhart_like(self, model, monkeypatch):
        x = null_data(500)
        monkeypatch.setattr(spc, "EWMA_LAMBDA", 1.0)
        monkeypatch.setattr(spc, "EWMA_LIMIT", 3.0)
        ewma = EwmaChart().flags(model, x)
        shewhart = ShewhartChart().flags(model, x)
        assert np.array_equal(ewma, shewhart)


class TestMewma:
    @pytest.fixture(scope="class")
    def correlated_model(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4000, 1))
        x = base + 0.4 * rng.normal(size=(4000, 8))
        detector = FDRDetector(FDRDetectorConfig(variance_target=1.0))
        return detector.fit(x), base, rng

    def test_null_alarm_rate_near_alpha(self, correlated_model, monkeypatch):
        model, base, rng = correlated_model
        test = base[:2000] + 0.4 * rng.normal(size=(2000, 8))
        monkeypatch.setattr(spc, "MEWMA_ALPHA", 0.005)
        flags = MewmaChart().flags(model, test)
        # EWMA smoothing correlates consecutive statistics, so alarms
        # cluster; the rate should still be the right order of magnitude
        assert flags.mean() < 0.05

    def test_detects_small_coherent_structure_breaking_shift(self, correlated_model):
        model, base, rng = correlated_model
        test = base[:400] + 0.4 * rng.normal(size=(400, 8))
        pattern = np.array([1.0, -1.0] * 4) * 0.35  # small, correlation-breaking
        test[200:] += pattern
        flags = MewmaChart().flags(model, test)
        assert flags[250:].mean() > 0.8
        assert flags[:200].mean() < 0.05

    def test_more_sensitive_than_instant_t2_for_small_shifts(self, correlated_model):
        from .oracle import t2_pvalues, t2_statistic

        model, base, rng = correlated_model
        test = base[:600] + 0.4 * rng.normal(size=(600, 8))
        pattern = np.array([1.0, -1.0] * 4) * 0.3
        test[300:] += pattern
        mewma_hits = MewmaChart().flags(model, test)[350:].mean()
        z = (test - model.mean) / model.std
        t2 = t2_statistic(z @ model.whitening)
        t2_hits = (t2_pvalues(t2, model.n_components) <= 0.001)[350:].mean()
        assert mewma_hits > t2_hits

    def test_statistics_nonnegative(self, correlated_model):
        model, base, rng = correlated_model
        test = base[:50] + 0.4 * rng.normal(size=(50, 8))
        stats_path = MewmaChart().statistics(model, test)
        assert np.all(stats_path >= 0)
        assert stats_path.shape == (50,)

    def test_lam_one_equals_instant_t2(self, correlated_model, monkeypatch):
        from .oracle import t2_statistic

        model, base, rng = correlated_model
        test = base[:100] + 0.4 * rng.normal(size=(100, 8))
        monkeypatch.setattr(spc, "MEWMA_LAMBDA", 1.0)
        q = MewmaChart().statistics(model, test)
        z = (test - model.mean) / model.std
        t2 = t2_statistic(z @ model.whitening)
        assert np.allclose(q, t2)
