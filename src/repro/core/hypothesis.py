"""Test statistics and p-values for sensor mean-shift detection.

"From a statistical standpoint, anomaly detection amounts to performing
a hypothesis test on sample observations to detect possible shifts in
the mean of the sampling distribution." (§IV)

Under H₀ a standardised sensor reading is N(0, 1); evidence against H₀
is measured by two-sided normal p-values.  Detection power for small
persistent shifts comes from testing *window means*: the mean of ``w``
consecutive samples has std ``σ/√w``, so the standardised window
statistic is ``√w (x̄ − μ)/σ``.

All functions are vectorised over arbitrary leading axes; the sensor
axis is the last one.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtrc, ndtr

__all__ = [
    "zscores",
    "window_mean_zscores",
    "two_sided_pvalues",
    "t2_statistic",
    "t2_pvalues",
]


def zscores(values: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    """Per-observation standardised scores ``(x − μ)/σ``.

    ``mean``/``std`` broadcast against the last axis of ``values``.
    Degenerate sensors (σ ≤ 0) are rejected rather than silently
    producing infinities.
    """
    std = np.asarray(std, dtype=np.float64)
    if np.any(std <= 0):
        raise ValueError("all sensor stds must be positive")
    return (np.asarray(values, dtype=np.float64) - mean) / std


def window_mean_zscores(
    values: np.ndarray, mean: np.ndarray, std: np.ndarray, window: int
) -> np.ndarray:
    """Standardised trailing-window means, one row per time step.

    ``values`` is ``(T, p)``; the output row ``t`` tests the mean of
    samples ``max(0, t-window+1) .. t`` (shorter at the start, with the
    correct √n scaling, so early rows are valid tests too).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("values must be (T, p)")
    z = zscores(x, mean, std)
    if window == 1:
        return z
    csum = np.cumsum(z, axis=0)
    t_idx = np.arange(x.shape[0])
    counts = np.minimum(t_idx + 1, window).astype(np.float64)
    lagged = np.zeros_like(csum)
    lagged[window:] = csum[:-window]
    window_sums = csum - lagged
    return window_sums / np.sqrt(counts)[:, None]


def two_sided_pvalues(z: np.ndarray) -> np.ndarray:
    """Two-sided normal p-values: ``2·Φ(−|z|)``."""
    return 2.0 * ndtr(-np.abs(np.asarray(z, dtype=np.float64)))


def t2_statistic(whitened: np.ndarray) -> np.ndarray:
    """Hotelling-style T² over whitened scores (sum of squares, last axis).

    With ``k`` whitened components each N(0,1) under H₀, T² ~ χ²(k) —
    the classical multivariate SPC statistic the covariance/SVD training
    enables.
    """
    w = np.asarray(whitened, dtype=np.float64)
    return np.sum(w * w, axis=-1)


def t2_pvalues(t2: np.ndarray, dof: int) -> np.ndarray:
    """χ² upper-tail p-values for T² statistics.

    A negative T² (outside χ²'s support) has p-value 1, as
    ``scipy.stats.chi2.sf`` gives; ``chdtrc`` alone would return NaN.
    NaN stays NaN.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    return chdtrc(dof, np.maximum(np.asarray(t2, dtype=np.float64), 0.0))
