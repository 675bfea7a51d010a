"""Multiple-testing procedures: the heart of the paper's §IV.

With ``m`` sensors tested at per-test level α, the probability of at
least one false alarm is ``1 − (1 − α)^m`` — 40% already at m = 10
(the paper's worked example).  The procedures here trade off how that
multiplicity is controlled:

* ``uncorrected`` — no control; the baseline whose false alarms explode;
* ``bonferroni`` — FWER control at α by testing each at α/m (Dunn 1961),
  valid but "overly conservative ... much less detection power";
* ``holm`` — uniformly more powerful step-down FWER control;
* ``benjamini_hochberg`` — the FDR procedure the paper adopts
  (Benjamini & Hochberg 1995): controls E[FDP] ≤ q under independence
  / PRDS;
* ``benjamini_yekutieli`` — BH with the harmonic-sum correction, valid
  under arbitrary dependence (Benjamini & Yekutieli 2001) — relevant
  here because sensor faults are *correlated*.

All procedures accept p-value arrays of shape ``(..., m)`` and apply
the correction independently along the last axis (one family per time
step), returning boolean rejection masks of the same shape.
Implemented from scratch — this repository carries no statsmodels
dependency — and cross-checked in the test-suite against brute-force
reference implementations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "uncorrected",
    "bonferroni",
    "holm",
    "benjamini_hochberg",
    "benjamini_yekutieli",
    "step_up_sparse",
    "adaptive_benjamini_hochberg",
    "apply_procedure",
    "PROCEDURES",
    "family_wise_error_probability",
    "bh_threshold",
]


def _check(pvalues: np.ndarray, level: float) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    if p.size == 0:
        return p
    lo, hi = p.min(), p.max()
    # NaN fails both comparisons, so non-finite values are caught too.
    if not (lo >= 0.0 and hi <= 1.0):
        raise ValueError("p-values must lie in [0, 1]")
    if not 0.0 < level < 1.0:
        raise ValueError("significance level must be in (0, 1)")
    return p


def _step_up_ladder(q: float, m: int) -> np.ndarray:
    """The step-up thresholds ``q·k/m`` for ranks ``k = 1..m``.

    Written ``q / (m/k)`` so the first rung is exactly Bonferroni's
    ``q/m`` and the last exactly ``q`` (Holm's last rung); ``q*k/m``
    can round ``q*m/m`` below ``q`` and let Holm reject a p-value that
    BH does not.
    """
    return q / (m / np.arange(1, m + 1))


def uncorrected(pvalues: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """Reject every test with p ≤ α.  No multiplicity control."""
    p = _check(pvalues, alpha)
    return p <= alpha


def bonferroni(pvalues: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """FWER ≤ α by rejecting p ≤ α/m."""
    p = _check(pvalues, alpha)
    m = p.shape[-1]
    if m == 0:
        return np.zeros_like(p, dtype=bool)
    return p <= alpha / m


def holm(pvalues: np.ndarray, alpha: float = 0.05) -> np.ndarray:
    """Holm's step-down: FWER ≤ α, uniformly more powerful than Bonferroni.

    Sort p-values ascending; find the first index ``i`` with
    ``p_(i) > α/(m − i)``; reject everything before it.
    """
    p = _check(pvalues, alpha)
    m = p.shape[-1]
    if m == 0:
        return np.zeros_like(p, dtype=bool)
    order = np.argsort(p, axis=-1)
    sorted_p = np.take_along_axis(p, order, axis=-1)
    thresholds = alpha / (m - np.arange(m))
    fails = sorted_p > thresholds
    # Index of the first failure along the last axis; if none fail, m.
    first_fail = np.where(fails.any(axis=-1), fails.argmax(axis=-1), m)
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(m), p.shape), axis=-1)
    return ranks < first_fail[..., None]


def benjamini_hochberg(pvalues: np.ndarray, q: float = 0.05) -> np.ndarray:
    """BH step-up: FDR ≤ q (independent / PRDS p-values).

    Reject the ``k`` smallest p-values where ``k`` is the largest index
    with ``p_(k) ≤ k·q/m``.
    """
    return _step_up(pvalues, q, dependence_correction=False)


def benjamini_yekutieli(pvalues: np.ndarray, q: float = 0.05) -> np.ndarray:
    """BY step-up: FDR ≤ q under arbitrary dependence.

    Identical to BH with the effective level divided by the harmonic
    sum ``c(m) = Σ 1/i`` — the price of dependence-robustness.
    """
    return _step_up(pvalues, q, dependence_correction=True)


def _step_up(pvalues: np.ndarray, q: float, dependence_correction: bool) -> np.ndarray:
    p = _check(pvalues, q)
    m = p.shape[-1]
    if m == 0:
        return np.zeros_like(p, dtype=bool)
    effective_q = q
    if dependence_correction:
        effective_q = q / np.sum(1.0 / np.arange(1, m + 1))
    order = np.argsort(p, axis=-1)
    sorted_p = np.take_along_axis(p, order, axis=-1)
    thresholds = _step_up_ladder(effective_q, m)
    passing = sorted_p <= thresholds
    # Largest passing index per family (step-up): k = last True + 1.
    reversed_pass = passing[..., ::-1]
    k = np.where(
        passing.any(axis=-1), m - reversed_pass.argmax(axis=-1), 0
    )
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(m), p.shape), axis=-1)
    return ranks < k[..., None]


def step_up_sparse(
    pvalues: np.ndarray, q: float = 0.05, dependence_correction: bool = False
) -> np.ndarray:
    """BH/BY step-up evaluated only on the p-values that could reject.

    Exactly equivalent to :func:`benjamini_hochberg` /
    :func:`benjamini_yekutieli` (same rejection sets, same float
    comparisons against the same threshold ladder) but built for the
    online scoring hot path: every rejected p-value must satisfy
    ``p ≤ q·k/m ≤ q_eff``, so only entries at or below the top rung
    participate.  Those are bucketed into the smallest rank whose
    threshold they meet (one ``searchsorted`` against the ladder), the
    per-family pass counts come from a histogram instead of a sort, and
    the step-up index ``k`` is read off the counts' running sum —
    truncated at the largest per-family candidate count, since ``k``
    can never exceed it.  No ``O(T·m·log m)`` argsort, no dense
    rank scatter.
    """
    p = _check(pvalues, q)
    m = p.shape[-1]
    if m == 0:
        return np.zeros_like(p, dtype=bool)
    effective_q = q
    if dependence_correction:
        effective_q = q / np.sum(1.0 / np.arange(1, m + 1))
    flat = p.reshape(-1, m)
    n_fam = flat.shape[0]
    thresholds = _step_up_ladder(effective_q, m)
    flags = np.zeros(flat.shape, dtype=bool)
    rows, cols = np.nonzero(flat <= thresholds[-1])
    if rows.size:
        vals = flat[rows, cols]
        # k per family is bounded by its candidate count; the histogram
        # only needs that many rungs.
        top = int(np.bincount(rows, minlength=n_fam).max())
        # Smallest 1-based rank whose threshold this p-value meets.
        bucket = np.searchsorted(thresholds, vals, side="left") + 1
        keep = bucket <= top
        counts = np.bincount(
            rows[keep] * (top + 1) + bucket[keep], minlength=n_fam * (top + 1)
        ).reshape(n_fam, top + 1)
        passed = np.cumsum(counts, axis=1)[:, 1:] >= np.arange(1, top + 1)
        k = np.where(passed.any(axis=1), top - passed[:, ::-1].argmax(axis=1), 0)
        # Everything at or below the k-th rung's threshold is rejected
        # (p_(k) ≤ q·k/m, and no non-rejected value can sit between).
        family_cut = np.where(k > 0, thresholds[np.maximum(k, 1) - 1], -1.0)
        flags[rows, cols] = vals <= family_cut[rows]
    return flags.reshape(p.shape)


def adaptive_benjamini_hochberg(pvalues: np.ndarray, q: float = 0.05) -> np.ndarray:
    """Two-stage adaptive BH (Benjamini, Krieger & Yekutieli 2006).

    Stage 1 runs BH at level ``q' = q/(1+q)`` and uses its rejection
    count to estimate the number of true nulls ``m₀ = m − r₁``; stage 2
    reruns BH at ``q'·m/m₀``.  When many sensors are genuinely faulted
    (small m₀), the effective level rises and power improves over plain
    BH while FDR stays ≤ q.  Applied independently along the last axis.
    """
    p = _check(pvalues, q)
    m = p.shape[-1]
    if m == 0:
        return np.zeros_like(p, dtype=bool)
    q_prime = q / (1.0 + q)
    stage1 = _step_up(p, q_prime, dependence_correction=False)
    r1 = stage1.sum(axis=-1)
    m0 = m - r1
    flat_p = p.reshape(-1, m)
    flat_m0 = np.asarray(m0).reshape(-1)
    flat_r1 = np.asarray(r1).reshape(-1)
    out = np.zeros_like(flat_p, dtype=bool)
    for i in range(flat_p.shape[0]):
        if flat_r1[i] == 0:
            continue  # stage 1 rejected nothing; adaptive BH rejects nothing
        if flat_m0[i] == 0:
            out[i] = True  # everything rejected at stage 1
            continue
        level = q_prime * m / flat_m0[i]
        if level >= 1.0:
            level = 1.0 - 1e-12
        out[i] = _step_up(flat_p[i], float(level), dependence_correction=False)
    return out.reshape(p.shape)


def bh_threshold(pvalues: np.ndarray, q: float = 0.05) -> float:
    """The data-dependent BH rejection threshold for a single family.

    Useful diagnostically: every p ≤ the returned value is rejected.
    Returns 0.0 when nothing is rejected.
    """
    p = _check(pvalues, q).ravel()
    m = p.size
    if m == 0:
        return 0.0
    sorted_p = np.sort(p)
    thresholds = _step_up_ladder(q, m)
    passing = np.flatnonzero(sorted_p <= thresholds)
    if passing.size == 0:
        return 0.0
    return float(sorted_p[passing[-1]])


PROCEDURES = {
    "none": uncorrected,
    "bonferroni": bonferroni,
    "holm": holm,
    "bh": benjamini_hochberg,
    "by": benjamini_yekutieli,
    "adaptive-bh": adaptive_benjamini_hochberg,
}


def apply_procedure(name: str, pvalues: np.ndarray, level: float = 0.05) -> np.ndarray:
    """Dispatch by procedure name (see :data:`PROCEDURES`)."""
    try:
        proc = PROCEDURES[name]
    except KeyError:
        raise ValueError(f"unknown procedure {name!r}; choose from {sorted(PROCEDURES)}") from None
    return proc(pvalues, level)


def family_wise_error_probability(alpha: float, m: int) -> float:
    """``1 − (1 − α)^m``: P(≥1 false alarm) over m independent tests.

    The paper's motivating formula: 5% at m=1 grows to 40% at m=10.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if m < 0:
        raise ValueError("m must be non-negative")
    return 1.0 - (1.0 - alpha) ** m
