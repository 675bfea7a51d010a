"""The null model of the per-sensor test, and its p-values.

"From a statistical standpoint, anomaly detection amounts to performing
a hypothesis test on sample observations to detect possible shifts in
the mean of the sampling distribution." (§IV)

A sensor's reading is standardised with the training mean μ̂ and std
σ̂, both estimated from ``n_train`` rows, and a trailing window of ``c``
standardised readings is tested through its sum.  Under H₀ the
readings are N(μ, σ²), so that sum is not N(0, c): every row shares the
training error μ̂ − μ, which adds ``c²/n_train`` to its variance, and
σ̂ is itself an estimate.  Scaled by ``√(c·(1 + c/n_train))`` the
window statistic is Student t with ``n_train − 1`` degrees of freedom,
exactly for Gaussian data, at every window length (the short windows
after a reset included).  :class:`~repro.core.online.OnlineEvaluator`
forms that statistic; this module reads p-values from it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import stdtr

__all__ = ["two_sided_pvalues"]


def two_sided_pvalues(z: np.ndarray, dof: int) -> np.ndarray:
    """Two-sided Student-t p-values ``2·F_dof(−|z|)``.

    The same bits as ``2·scipy.stats.t.sf(|z|, dof)``; NaN stays NaN.
    """
    buf = np.abs(np.asarray(z, dtype=np.float64))
    np.negative(buf, out=buf)
    stdtr(dof, buf, out=buf)
    buf *= 2.0
    return buf
