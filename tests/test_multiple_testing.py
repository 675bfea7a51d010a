"""Tests for the multiple-testing procedures (incl. reference and property tests)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.multiple_testing import (
    PROCEDURES,
    apply_procedure,
    benjamini_hochberg,
    benjamini_yekutieli,
    bh_threshold,
    bonferroni,
    family_wise_error_probability,
    holm,
    step_up_sparse,
    uncorrected,
)


def reference_bh(p, q):
    """Brute-force BH step-up (rung ``q·i/m`` written ``q/(m/i)``, so the
    last rung is exactly ``q``)."""
    m = len(p)
    order = np.argsort(p)
    k = 0
    for i, idx in enumerate(order, 1):
        if p[idx] <= q / (m / i):
            k = i
    out = np.zeros(m, dtype=bool)
    out[order[:k]] = True
    return out


def reference_holm(p, alpha):
    m = len(p)
    order = np.argsort(p)
    out = np.zeros(m, dtype=bool)
    for i, idx in enumerate(order):
        if p[idx] > alpha / (m - i):
            break
        out[idx] = True
    return out


class TestBasics:
    def test_uncorrected(self):
        p = np.array([0.01, 0.04, 0.06])
        assert list(uncorrected(p, 0.05)) == [True, True, False]

    def test_bonferroni(self):
        p = np.array([0.01, 0.02, 0.04])
        assert list(bonferroni(p, 0.05)) == [True, False, False]  # threshold 0.0167

    def test_holm_more_powerful_than_bonferroni(self):
        p = np.array([0.01, 0.02, 0.04])
        assert holm(p, 0.05).sum() >= bonferroni(p, 0.05).sum()

    def test_bh_textbook_example(self):
        # classic Benjamini-Hochberg 1995 table (m=15, q=0.05): 4 rejections
        p = np.array([
            0.0001, 0.0004, 0.0019, 0.0095, 0.0201, 0.0278, 0.0298, 0.0344,
            0.0459, 0.3240, 0.4262, 0.5719, 0.6528, 0.7590, 1.0000,
        ])
        assert benjamini_hochberg(p, 0.05).sum() == 4

    def test_by_is_more_conservative_than_bh(self):
        rng = np.random.default_rng(0)
        p = rng.random(50) ** 2
        assert benjamini_yekutieli(p, 0.1).sum() <= benjamini_hochberg(p, 0.1).sum()

    def test_all_significant(self):
        p = np.full(10, 1e-6)
        for proc in PROCEDURES.values():
            assert proc(p, 0.05).all()

    def test_none_significant(self):
        p = np.full(10, 0.9)
        for name, proc in PROCEDURES.items():
            expected = name == "none" and False
            assert not proc(p, 0.05).any() or expected

    def test_single_test_all_equivalent(self):
        p = np.array([0.03])
        results = {name: proc(p, 0.05)[0] for name, proc in PROCEDURES.items()}
        assert all(results.values())

    def test_empty_family(self):
        p = np.empty(0)
        for proc in PROCEDURES.values():
            assert proc(p, 0.05).size == 0

    def test_invalid_pvalues(self):
        for bad in ([-0.1], [1.1], [float("nan")]):
            with pytest.raises(ValueError):
                benjamini_hochberg(np.array(bad), 0.05)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            benjamini_hochberg(np.array([0.5]), 0.0)
        with pytest.raises(ValueError):
            benjamini_hochberg(np.array([0.5]), 1.0)

    def test_apply_procedure_dispatch(self):
        p = np.array([0.001, 0.9])
        assert np.array_equal(apply_procedure("bh", p, 0.05), benjamini_hochberg(p, 0.05))
        with pytest.raises(ValueError):
            apply_procedure("fisher", p)


class TestBatching:
    def test_2d_rows_are_independent_families(self):
        rng = np.random.default_rng(1)
        P = rng.random((30, 12))
        for name, proc in PROCEDURES.items():
            batched = proc(P, 0.1)
            for i in range(P.shape[0]):
                assert np.array_equal(batched[i], proc(P[i], 0.1)), name

    def test_3d_shapes_supported(self):
        rng = np.random.default_rng(2)
        P = rng.random((4, 5, 8))
        out = benjamini_hochberg(P, 0.05)
        assert out.shape == P.shape


class TestBhThreshold:
    def test_threshold_matches_rejections(self):
        rng = np.random.default_rng(3)
        p = rng.random(40) ** 3
        thr = bh_threshold(p, 0.05)
        rejected = benjamini_hochberg(p, 0.05)
        if thr == 0.0:
            assert not rejected.any()
        else:
            assert np.array_equal(rejected, p <= thr)

    def test_empty(self):
        assert bh_threshold(np.empty(0)) == 0.0


class TestFWERFormula:
    def test_paper_values(self):
        assert family_wise_error_probability(0.05, 1) == pytest.approx(0.05)
        assert family_wise_error_probability(0.05, 10) == pytest.approx(0.4013, abs=1e-4)

    def test_limits(self):
        assert family_wise_error_probability(0.05, 0) == 0.0
        assert family_wise_error_probability(0.0, 100) == 0.0
        assert family_wise_error_probability(1.0, 1) == 1.0

    def test_monotone_in_m(self):
        vals = [family_wise_error_probability(0.05, m) for m in range(0, 100, 5)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            family_wise_error_probability(-0.1, 5)
        with pytest.raises(ValueError):
            family_wise_error_probability(0.1, -5)


class TestAdaptiveBH:
    def test_more_powerful_with_many_signals(self):
        from repro.core.multiple_testing import adaptive_benjamini_hochberg

        rng = np.random.default_rng(5)
        # 60% true signals: adaptive BH should reject at least as much
        total_bh = total_adaptive = 0
        for _ in range(100):
            p = rng.random(50)
            p[:30] = rng.random(30) * 1e-4
            total_bh += benjamini_hochberg(p, 0.05).sum()
            total_adaptive += adaptive_benjamini_hochberg(p, 0.05).sum()
        assert total_adaptive >= total_bh

    def test_contains_bh_rejections_under_dense_signal(self):
        from repro.core.multiple_testing import adaptive_benjamini_hochberg

        rng = np.random.default_rng(7)
        p = rng.random(40)
        p[:25] = rng.random(25) * 1e-5
        bh = benjamini_hochberg(p, 0.05)
        adaptive = adaptive_benjamini_hochberg(p, 0.05)
        assert not np.any(bh & ~adaptive)

    def test_controls_fdr_simulation(self):
        from repro.core.multiple_testing import adaptive_benjamini_hochberg

        rng = np.random.default_rng(9)
        q = 0.1
        fdps = []
        for _ in range(500):
            p = rng.random(80)
            p[:20] = rng.random(20) * 1e-6
            rejected = adaptive_benjamini_hochberg(p, q)
            fp = rejected[20:].sum()
            fdps.append(fp / max(1, rejected.sum()))
        assert np.mean(fdps) <= q * 1.2

    def test_nothing_rejected_stage1_empty(self):
        from repro.core.multiple_testing import adaptive_benjamini_hochberg

        p = np.full(20, 0.8)
        assert not adaptive_benjamini_hochberg(p, 0.05).any()

    def test_2d_batching(self):
        from repro.core.multiple_testing import adaptive_benjamini_hochberg

        rng = np.random.default_rng(11)
        P = rng.random((10, 15)) ** 3
        batched = adaptive_benjamini_hochberg(P, 0.1)
        for i in range(10):
            assert np.array_equal(batched[i], adaptive_benjamini_hochberg(P[i], 0.1))


class TestStatisticalGuarantees:
    def test_bh_controls_fdr_under_null_mixture(self):
        """Simulated FDR of BH stays below q (independent tests)."""
        rng = np.random.default_rng(11)
        q = 0.1
        n_trials, m, m_true = 600, 100, 20
        fdps = []
        for _ in range(n_trials):
            p = rng.random(m)
            # true signals: tiny p-values in the first m_true slots
            p[:m_true] = rng.random(m_true) * 1e-5
            rejected = benjamini_hochberg(p, q)
            fp = rejected[m_true:].sum()
            total = max(1, rejected.sum())
            fdps.append(fp / total)
        assert np.mean(fdps) <= q * 1.15  # small MC slack

    def test_bonferroni_controls_fwer(self):
        rng = np.random.default_rng(13)
        alpha = 0.1
        hits = 0
        n_trials, m = 2000, 50
        for _ in range(n_trials):
            p = rng.random(m)
            hits += bonferroni(p, alpha).any()
        assert hits / n_trials <= alpha * 1.25

    def test_uncorrected_fwer_explodes(self):
        rng = np.random.default_rng(17)
        hits = 0
        n_trials, m = 500, 100
        for _ in range(n_trials):
            hits += uncorrected(rng.random(m), 0.05).any()
        assert hits / n_trials > 0.95


class TestProcedureProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        st.floats(0.01, 0.3),
    )
    @example(pvals=[0.0, 0.0, 0.0990548070565784], q=0.0990548070565784)
    def test_bh_matches_reference(self, pvals, q):
        p = np.array(pvals)
        assert np.array_equal(benjamini_hochberg(p, q), reference_bh(p, q))

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        st.floats(0.01, 0.3),
    )
    def test_holm_matches_reference(self, pvals, alpha):
        p = np.array(pvals)
        assert np.array_equal(holm(p, alpha), reference_holm(p, alpha))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=30), st.floats(0.01, 0.3))
    # p equal to the level: (level·3)/3 rounds below level, so a q·k/m
    # ladder let Holm reject this p-value and BH not.
    @example(pvals=[0.0, 0.0, 0.0990548070565784], level=0.0990548070565784)
    def test_power_ordering(self, pvals, level):
        """bonferroni ⊆ holm ⊆ bh and by ⊆ bh (rejection-set nesting)."""
        p = np.array(pvals)
        bonf = bonferroni(p, level)
        hol = holm(p, level)
        bh = benjamini_hochberg(p, level)
        by = benjamini_yekutieli(p, level)
        assert not np.any(bonf & ~hol)
        assert not np.any(hol & ~bh)
        assert not np.any(by & ~bh)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=30), st.floats(0.01, 0.3))
    def test_bh_rejections_are_smallest_pvalues(self, pvals, q):
        p = np.array(pvals)
        rejected = benjamini_hochberg(p, q)
        if rejected.any() and not rejected.all():
            assert p[rejected].max() <= p[~rejected].min()


class TestSparseStepUp:
    """step_up_sparse must reject the exact same set as the dense step-up."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60),
        st.floats(0.01, 0.3),
        st.booleans(),
    )
    def test_matches_dense_1d(self, pvals, q, dep):
        p = np.array(pvals)
        dense = benjamini_yekutieli(p, q) if dep else benjamini_hochberg(p, q)
        assert np.array_equal(step_up_sparse(p, q, dependence_correction=dep), dense)

    def test_matches_dense_2d_families(self):
        rng = np.random.default_rng(7)
        for i in range(60):
            T, m = int(rng.integers(1, 40)), int(rng.integers(1, 80))
            p = rng.random((T, m))
            if i % 3 == 0:
                p[p < 0.4] *= 0.02  # fault-heavy: many tiny p-values
            if i % 5 == 0:
                p = np.round(p, 2)  # ties, including at thresholds
            if i % 11 == 0:
                p[:] = 1.0  # nothing rejectable
            for dep in (False, True):
                q = float(rng.choice([0.01, 0.05, 0.1, 0.3]))
                dense = (
                    benjamini_yekutieli(p, q) if dep else benjamini_hochberg(p, q)
                )
                got = step_up_sparse(p, q, dependence_correction=dep)
                assert np.array_equal(got, dense), (i, dep, q)

    def test_3d_shape_preserved(self):
        rng = np.random.default_rng(11)
        p = rng.random((4, 5, 12))
        assert np.array_equal(step_up_sparse(p, 0.1), benjamini_hochberg(p, 0.1))

    def test_validation(self):
        with pytest.raises(ValueError):
            step_up_sparse(np.array([0.1, 1.5]), 0.05)
        with pytest.raises(ValueError):
            step_up_sparse(np.array([0.1, np.nan]), 0.05)
        with pytest.raises(ValueError):
            step_up_sparse(np.array([0.1]), 1.5)

    def test_empty_family(self):
        assert step_up_sparse(np.zeros((3, 0)), 0.05).shape == (3, 0)
