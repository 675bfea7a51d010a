"""End-to-end statistical-control tests for the detector.

These validate the *statistical contract* of the whole train→detect
path on purely healthy fleets — the property the paper's choice of FDR
rests on — rather than any single function.
"""

import numpy as np
import pytest

from repro.core.fdr import FDRDetector, FDRDetectorConfig
from repro.simdata import CorrelationModel, FleetConfig, FleetGenerator


class TestNullCalibration:
    """On fault-free data the detector's alarm rates match their targets."""

    @pytest.mark.parametrize("n_train", [200, 600])
    @pytest.mark.parametrize("window", [1, 32, 128])
    def test_global_null_rows_with_a_flag_hold_q(self, window, n_train):
        """iid N(0, 1) sensors, BH at q, T² off: the share of rows with
        any flag, after the first window, is at most q within three
        standard errors.

        Under the global null that share is the family FDR.  A seed's
        rows share its μ̂ and σ̂, so a seed, not a row, is the
        independent sample: the interval is over the 50 seed means.
        Scaling each window by √c alone (normal p-values) read 0.58 at
        n_train 200 and window 128.
        """
        q, sensors, n_eval, seeds = 0.05, 100, 256, 50
        detector = FDRDetector(FDRDetectorConfig(q=q, window=window, use_t2=False))
        rates = []
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            model = detector.fit(rng.standard_normal((n_train, sensors)))
            flags = detector.detect(model, rng.standard_normal((window + n_eval, sensors))).flags
            rates.append(flags[window:].any(axis=1).mean())
        rates = np.array(rates)
        assert rates.mean() <= q + 3.0 * rates.std(ddof=1) / np.sqrt(seeds)

    @pytest.mark.parametrize("n_train", [200, 600])
    @pytest.mark.parametrize("sensors", [50, 200])
    def test_global_null_unit_alarm_holds_alpha(self, sensors, n_train):
        """iid N(0, 1) sensors: the share of rows the T² unit alarm
        raises is α within three standard errors, on either side.

        The split-sample F threshold is exact for Gaussian rows whatever
        k is (DESIGN §27).  A seed's rows share its model, so a seed is
        the independent sample.  Reading T² against χ²_k, with k and the
        whitening chosen on the same rows, gave 0.013–0.124 here.
        """
        alpha, n_eval, seeds = 0.01, 2000, 20
        detector = FDRDetector(FDRDetectorConfig(window=1, unit_alarm_alpha=alpha))
        rates = []
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            model = detector.fit(rng.standard_normal((n_train, sensors)))
            alarms = detector.detect(model, rng.standard_normal((n_eval, sensors))).unit_alarm
            rates.append(alarms.mean())
        rates = np.array(rates)
        assert abs(rates.mean() - alpha) <= 3.0 * rates.std(ddof=1) / np.sqrt(seeds)

    def test_bh_null_family_rate_tracks_q(self):
        """Fraction of time steps with >= 1 false flag stays near q.

        (Under the full null, BH's P(any rejection) <= q per family.)
        """
        gen = FleetGenerator(
            FleetConfig(n_units=6, n_sensors=80, seed=101, fault_mix=(1.0, 0.0, 0.0))
        )
        q = 0.05
        detector = FDRDetector(FDRDetectorConfig(q=q, window=1, use_t2=False))
        rates = []
        for unit in gen.units():
            # big training window minimises estimation-induced inflation
            model = detector.fit(gen.training_window(unit, 3000).values, unit_id=unit)
            report = detector.detect(model, gen.evaluation_window(unit, 800).values)
            rates.append(report.flags.any(axis=1).mean())
        assert np.mean(rates) <= q * 1.8  # generous MC + estimation slack

    def test_t2_alarm_rate_tracks_alpha(self):
        gen = FleetGenerator(
            FleetConfig(n_units=6, n_sensors=40, seed=103, fault_mix=(1.0, 0.0, 0.0))
        )
        alpha = 0.01
        detector = FDRDetector(
            FDRDetectorConfig(q=0.05, window=1, unit_alarm_alpha=alpha,
                              variance_target=1.0)
        )
        rates = []
        for unit in gen.units():
            model = detector.fit(gen.training_window(unit, 3000).values, unit_id=unit)
            report = detector.detect(model, gen.evaluation_window(unit, 800).values)
            rates.append(report.unit_alarm.mean())
        assert np.mean(rates) == pytest.approx(alpha, abs=0.02)

    def test_window_statistic_calibrated_on_correlated_noise(self):
        """Cross-sensor correlation must not inflate marginal tests."""
        rng = np.random.default_rng(7)
        corr = CorrelationModel(30, n_factors=3, factor_strength=0.7).build(rng)
        train = corr.simulate(4000, rng) * 2.0 + 10.0
        test = corr.simulate(2000, rng) * 2.0 + 10.0
        detector = FDRDetector(FDRDetectorConfig(q=0.05, window=16, use_t2=False,
                                                 procedure="none"))
        model = detector.fit(train)
        report = detector.detect(model, test)
        # per-sensor marginal rate ~ alpha even under strong correlation
        assert report.flags.mean() == pytest.approx(0.05, abs=0.02)


class TestSeverityMonotonicity:
    """Stronger faults must never reduce detection."""

    def test_power_monotone_in_magnitude(self):
        rng = np.random.default_rng(17)
        detector = FDRDetector(FDRDetectorConfig(q=0.05, window=16, use_t2=False))
        train = rng.normal(10.0, 2.0, size=(2000, 30))
        model = detector.fit(train)
        powers = []
        base_test = rng.normal(10.0, 2.0, size=(400, 30))
        for magnitude in (0.5, 1.5, 3.0):
            test = base_test.copy()
            test[200:, 5] += magnitude * 2.0  # in sigma units
            report = detector.detect(model, test)
            powers.append(report.flags[200:, 5].mean())
        assert powers[0] <= powers[1] <= powers[2]
        assert powers[2] > 0.9

    def test_more_affected_sensors_more_discoveries(self):
        rng = np.random.default_rng(19)
        detector = FDRDetector(FDRDetectorConfig(q=0.05, window=16, use_t2=False))
        model = detector.fit(rng.normal(size=(2000, 40)))
        counts = []
        base = rng.normal(size=(300, 40))
        for n_affected in (2, 8, 20):
            test = base.copy()
            test[150:, :n_affected] += 3.0
            counts.append(detector.detect(model, test).n_discoveries)
        assert counts[0] < counts[1] < counts[2]

    def test_bh_adapts_threshold_with_signal_density(self):
        """More true signals raise BH's data-dependent threshold (power gain)."""
        rng = np.random.default_rng(23)
        detector = FDRDetector(FDRDetectorConfig(q=0.05, window=1, use_t2=False))
        model = detector.fit(rng.normal(size=(3000, 50)))
        # one weakly shifted sensor, alone vs accompanied by strong signals
        weak_alone = rng.normal(size=(300, 50))
        weak_alone[:, 0] += 2.5
        accompanied = weak_alone.copy()
        accompanied[:, 1:11] += 6.0  # strong companions
        alone_rate = detector.detect(model, weak_alone).flags[:, 0].mean()
        helped_rate = detector.detect(model, accompanied).flags[:, 0].mean()
        assert helped_rate >= alone_rate
