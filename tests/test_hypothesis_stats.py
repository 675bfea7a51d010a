"""Tests for the test statistics and p-values.

The window statistic and the T² channel are the dense oracle's
(``tests/oracle.py``), which the kernel differentials in
``test_model_online.py`` compare against; the p-values are
:func:`repro.core.hypothesis.two_sided_pvalues`, the one p-value
function in ``src/``.
"""

import numpy as np
import pytest
from scipy import special, stats

from repro.core.fdr import FDRDetector, FDRDetectorConfig
from repro.core.hypothesis import two_sided_pvalues
from repro.core.online import OnlineEvaluator

from .oracle import t2_pvalues, t2_statistic, window_statistic, zscores

EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, 1e300, -1e300]


class TestZScores:
    def test_standardisation(self):
        x = np.array([10.0, 20.0, 30.0])
        z = zscores(x, mean=20.0, std=10.0)
        assert list(z) == [-1.0, 0.0, 1.0]

    def test_broadcasting_per_sensor(self):
        x = np.array([[1.0, 20.0], [3.0, 40.0]])
        z = zscores(x, mean=np.array([2.0, 30.0]), std=np.array([1.0, 10.0]))
        assert np.allclose(z, [[-1.0, -1.0], [1.0, 1.0]])

    def test_zero_std_rejected(self):
        with pytest.raises(ValueError):
            zscores(np.zeros(3), 0.0, 0.0)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            zscores(np.zeros(2), 0.0, np.array([1.0, -1.0]))


class TestWindowMeans:
    def test_window_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        z1 = window_statistic(x, 0.0, 1.0, window=1)
        assert np.allclose(z1, x)

    def test_steady_state_scaling(self):
        # constant shift d: window z approaches sqrt(w) * d
        w, d = 16, 0.5
        x = np.full((100, 1), d)
        z = window_statistic(x, 0.0, 1.0, window=w)
        assert z[-1, 0] == pytest.approx(np.sqrt(w) * d)

    def test_warmup_scaling_correct(self):
        # at time t < w, the statistic uses t+1 samples with sqrt(t+1)
        d = 1.0
        x = np.full((5, 1), d)
        z = window_statistic(x, 0.0, 1.0, window=10)
        expected = np.sqrt(np.arange(1, 6)) * d
        assert np.allclose(z[:, 0], expected)

    def test_null_calibration(self):
        """With μ and σ known, the windowed statistic is N(0,1) at every row."""
        rng = np.random.default_rng(42)
        x = rng.normal(size=(20_000, 8))
        z = window_statistic(x, 0.0, 1.0, window=32)
        steady = z[32:]
        assert abs(steady.mean()) < 0.02
        assert steady.std() == pytest.approx(1.0, abs=0.03)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            window_statistic(np.zeros(5), 0.0, 1.0, window=2)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            window_statistic(np.zeros((5, 1)), 0.0, 1.0, window=0)

    def test_estimated_moments_scaling(self):
        """Training error in μ̂ adds c/n_train to the window's variance."""
        x = np.full((40, 1), 1.0)
        z = window_statistic(x, 0.0, 1.0, window=16, n_train=64)
        counts = np.minimum(np.arange(1, 41), 16)
        assert np.allclose(z[:, 0], counts / np.sqrt(counts * (1 + counts / 64)))


class TestPValues:
    def test_two_sided_symmetry(self):
        z = np.array([-2.0, 2.0])
        p = two_sided_pvalues(z, 9)
        assert p[0] == p[1]

    def test_two_sided_known_value(self):
        # t(10)'s 97.5% quantile; the normal's 1.96 is far from it
        assert two_sided_pvalues(np.array([2.228139]), 10)[0] == pytest.approx(0.05, abs=1e-6)
        assert two_sided_pvalues(np.array([1.959964]), 10)[0] > 0.07

    def test_pvalues_uniform_under_null(self):
        """The statistic of a Gaussian window against moments estimated
        from ``n_train`` rows is t(n_train − 1): its p-values are uniform."""
        rng = np.random.default_rng(7)
        n_train, window, reps = 8, 4, 20_000
        train = rng.normal(size=(reps, n_train))
        new = rng.normal(size=(reps, window))
        mean, std = train.mean(axis=1), train.std(axis=1, ddof=1)
        t = (new.sum(axis=1) - window * mean) / std
        t /= np.sqrt(window * (1 + window / n_train))
        stat, pvalue = stats.kstest(two_sided_pvalues(t, n_train - 1), "uniform")
        assert pvalue > 0.01


class TestT2:
    def test_t2_is_sum_of_squares(self):
        w = np.array([[1.0, 2.0], [0.0, 3.0]])
        assert list(t2_statistic(w)) == [5.0, 9.0]

    def test_t2_chi2_calibration(self):
        rng = np.random.default_rng(9)
        k = 5
        w = rng.normal(size=(50_000, k))
        p = t2_pvalues(t2_statistic(w), k)
        assert np.mean(p <= 0.05) == pytest.approx(0.05, abs=0.01)

    def test_dof_validation(self):
        with pytest.raises(ValueError):
            t2_pvalues(np.array([1.0]), 0)


class TestSpecialMatchesStats:
    """The detector's p-values, |t| ladder and χ² limits come from
    ``scipy.special``; ``scipy.stats`` (the oracle here) gives the same
    bits, edges included."""

    def test_student_t_tails(self):
        rng = np.random.default_rng(11)
        grid = [np.linspace(-40.0, 40.0, 160_001), rng.normal(size=60_000) * 6.0, EDGES]
        for dof in (1, 2, 9, 199, 599, 5_000):
            for z in (np.concatenate(grid), EDGES):  # EDGES alone: list input
                want = 2.0 * stats.t.sf(np.abs(z), dof)
                assert np.array_equal(two_sided_pvalues(z, dof), want, equal_nan=True), dof

    def test_chi2_upper_tail(self):
        t = np.concatenate([np.linspace(-5.0, 400.0, 4_051), np.logspace(-300, 3, 200), EDGES])
        for k in range(1, 201):
            assert np.array_equal(t2_pvalues(t, k), stats.chi2.sf(t, k), equal_nan=True), k
        assert np.array_equal(t2_pvalues(EDGES, 4), stats.chi2.sf(EDGES, 4), equal_nan=True)
        assert t2_pvalues(-1.0, 3) == stats.chi2.sf(-1.0, 3) == 1.0

    def test_chi2_limit(self):
        alpha = np.append(np.logspace(-12, np.log10(0.999), 400), [0.5, 0.05, 0.01, 0.001])
        for k in range(1, 201):
            assert np.array_equal(special.chdtri(k, alpha), stats.chi2.isf(alpha, k)), k
        x = np.random.default_rng(3).normal(size=(200, 6))
        for k in (1, 3, 6):
            cfg = FDRDetectorConfig(n_components=k, unit_alarm_alpha=1e-4)
            evaluator = OnlineEvaluator(FDRDetector(cfg).fit(x), cfg)
            assert evaluator._t2_threshold == float(stats.chi2.isf(1e-4, k))

    def test_student_t_ladder(self):
        """The kernel's |t| ladder is ``scipy.stats.t.isf`` of each
        rung's half, and reading p back off it lands on the rung."""
        x = np.random.default_rng(5).normal(size=(60, 40))
        for n_train, q, procedure in ((2, 0.05, "bh"), (10, 0.005, "by"), (60, 0.3, "bh")):
            cfg = FDRDetectorConfig(q=q, procedure=procedure, use_t2=False)
            model = FDRDetector(cfg).fit(x[:n_train])
            lo, hi, rungs = OnlineEvaluator(model, cfg)._ladder
            cut = stats.t.isf(rungs / 2.0, n_train - 1)
            assert np.array_equal(lo, cut * (1.0 - 1e-9))
            assert np.array_equal(hi, cut * (1.0 + 1e-9))
            assert np.all(np.diff(cut) > 0)
            np.testing.assert_allclose(two_sided_pvalues(cut, n_train - 1), rungs, rtol=1e-13)
