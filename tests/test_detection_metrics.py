"""Tests for detection-quality metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.metrics import (
    DetectionOutcome,
    aggregate_outcomes,
    detection_delay,
    evaluate_flags,
)


def masks(shape=(10, 4)):
    flags = np.zeros(shape, dtype=bool)
    truth = np.zeros(shape, dtype=bool)
    return flags, truth


class TestEvaluateFlags:
    def test_confusion_counts(self):
        flags, truth = masks()
        truth[5:, 0] = True     # 5 faulted cells
        flags[5:8, 0] = True    # 3 TP
        flags[0:2, 1] = True    # 2 FP
        out = evaluate_flags(flags, truth, unit_id=7)
        assert out.unit_id == 7
        assert out.true_positives == 3
        assert out.false_positives == 2
        assert out.false_negatives == 2
        assert out.true_negatives == 40 - 3 - 2 - 2

    def test_fdp(self):
        flags, truth = masks()
        truth[0, 0] = True
        flags[0, 0] = True   # TP
        flags[0, 1] = True   # FP
        out = evaluate_flags(flags, truth)
        assert out.fdp == 0.5
        assert out.discoveries == 2

    def test_fdp_zero_when_no_discoveries(self):
        flags, truth = masks()
        assert evaluate_flags(flags, truth).fdp == 0.0

    def test_power(self):
        flags, truth = masks()
        truth[:4, 0] = True
        flags[:2, 0] = True
        assert evaluate_flags(flags, truth).power == 0.5

    def test_power_nan_without_faults(self):
        flags, truth = masks()
        assert np.isnan(evaluate_flags(flags, truth).power)

    def test_false_alarm_rate(self):
        flags, truth = masks((10, 10))
        flags[0, :5] = True
        out = evaluate_flags(flags, truth)
        assert out.false_alarm_rate == pytest.approx(5 / 100)

    def test_family_fdp_per_timestep(self):
        flags, truth = masks((4, 4))
        # t0: 1 TP, 1 FP -> 0.5 ; t1: 1 FP -> 1.0 ; t2-3: nothing -> 0
        truth[0, 0] = True
        flags[0, 0] = True
        flags[0, 1] = True
        flags[1, 2] = True
        out = evaluate_flags(flags, truth)
        assert out.family_fdp == pytest.approx((0.5 + 1.0 + 0 + 0) / 4)

    def test_null_family_rate(self):
        flags, truth = masks((4, 4))
        truth[0, 0] = True  # t0 is a fault step; t1..t3 are null families
        flags[1, 1] = True  # false alarm in one null family
        out = evaluate_flags(flags, truth)
        assert out.null_family_rate == pytest.approx(1 / 3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            evaluate_flags(np.zeros((2, 2), bool), np.zeros((3, 2), bool))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 30), st.integers(1, 12), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
        st.integers(0, 2**16),
    )
    def test_matches_the_four_mask_formula(self, T, p, f_rate, t_rate, seed):
        """The three-count derivation is the direct four-mask count, bit
        for bit, in every field (family FDP and null rate included)."""
        rng = np.random.default_rng(seed)
        flags = rng.random((T, p)) < f_rate
        truth = rng.random((T, p)) < t_rate
        assert evaluate_flags(flags, truth, 3) == _four_mask_outcome(flags, truth, 3)


def _four_mask_outcome(f, t, unit_id):
    """``evaluate_flags`` spelled with one full-size mask per cell class."""
    fp_t = np.sum(f & ~t, axis=1)
    disc_t = np.sum(f, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        fdp_t = np.where(disc_t > 0, fp_t / np.maximum(disc_t, 1), 0.0)
    null_steps = ~t.any(axis=1)
    fp = int(np.sum(f & ~t))
    return DetectionOutcome(
        unit_id=unit_id,
        true_positives=int(np.sum(f & t)),
        false_positives=fp,
        false_negatives=int(np.sum(~f & t)),
        true_negatives=int(np.sum(~f & ~t)),
        any_false_alarm=fp > 0,
        delay=detection_delay(f, t),
        family_fdp=float(np.mean(fdp_t)) if fdp_t.size else 0.0,
        null_family_rate=float(np.mean(f[null_steps].any(axis=1))) if null_steps.any() else 0.0,
    )


class TestDetectionDelay:
    def test_immediate_detection(self):
        flags, truth = masks()
        truth[5:, 0] = True
        flags[5, 0] = True
        assert detection_delay(flags, truth) == 0

    def test_delayed_detection(self):
        flags, truth = masks()
        truth[3:, 0] = True
        flags[7, 0] = True
        assert detection_delay(flags, truth) == 4

    def test_false_alarm_does_not_count(self):
        flags, truth = masks()
        truth[5:, 0] = True
        flags[2, 1] = True  # false alarm before onset, wrong sensor
        flags[6, 0] = True
        assert detection_delay(flags, truth) == 1

    def test_no_fault_returns_none(self):
        flags, truth = masks()
        flags[0, 0] = True
        assert detection_delay(flags, truth) is None

    def test_missed_fault_returns_none(self):
        flags, truth = masks()
        truth[5:, 0] = True
        assert detection_delay(flags, truth) is None


class TestAggregation:
    def build_outcomes(self):
        outcomes = []
        # faulted unit, detected with delay 2
        flags, truth = masks()
        truth[4:, 0] = True
        flags[6:, 0] = True
        outcomes.append(evaluate_flags(flags, truth, 0))
        # healthy unit with a false alarm
        flags, truth = masks()
        flags[1, 1] = True
        outcomes.append(evaluate_flags(flags, truth, 1))
        # faulted unit, missed
        flags, truth = masks()
        truth[4:, 2] = True
        outcomes.append(evaluate_flags(flags, truth, 2))
        return outcomes

    def test_aggregate(self):
        agg = aggregate_outcomes(self.build_outcomes())
        assert agg.n_units == 3
        assert agg.fwer == pytest.approx(1 / 3)
        assert agg.mean_delay == 2.0
        assert agg.detected_fraction == 0.5
        assert 0 <= agg.mean_family_fdp <= 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_outcomes([])
