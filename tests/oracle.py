"""The dense scorer: the plainly correct reference for the scoring kernel.

Written for reading, not speed, and sharing no arithmetic with
:class:`repro.core.online.OnlineEvaluator` beyond the procedures of
``repro.core.multiple_testing``: standardise, window with a lagged
cumulative sum, scale each row's window sum by
``√(c·(1 + c/n_train))``, read two-sided p-values from
``scipy.stats.t`` with ``n_train − 1`` degrees of freedom, step every
p-value up through the dense procedure, and alarm on a χ² p-value of
the whitened T².
"""

import numpy as np
from scipy import stats
from scipy.special import chdtrc

from repro.core.fdr import AnomalyReport, FDRDetectorConfig
from repro.core.model import UnitModel
from repro.core.multiple_testing import apply_procedure


def zscores(values, mean, std):
    """Per-observation standardised scores ``(x − μ)/σ``; σ ≤ 0 refused."""
    std = np.asarray(std, dtype=np.float64)
    if np.any(std <= 0):
        raise ValueError("all sensor stds must be positive")
    return (np.asarray(values, dtype=np.float64) - mean) / std


def window_statistic(values, mean, std, window, n_train=np.inf):
    """Row ``t`` tests the ``c = min(t + 1, window)`` samples ending at
    ``t``: their standardised sum over ``√(c·(1 + c/n_train))``.

    ``n_train = ∞`` (known μ and σ) is the plain ``√c`` scaling.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("values must be (T, p)")
    csum = np.cumsum(zscores(x, mean, std), axis=0)
    lagged = np.zeros_like(csum)
    lagged[window:] = csum[:-window]
    counts = np.minimum(np.arange(1, x.shape[0] + 1), window).astype(np.float64)
    return (csum - lagged) / np.sqrt(counts * (1.0 + counts / n_train))[:, None]


def two_sided_pvalues(z, dof):
    """``2·P(T_dof ≥ |z|)``."""
    return 2.0 * stats.t.sf(np.abs(np.asarray(z, dtype=np.float64)), dof)


def t2_statistic(whitened):
    """Hotelling-style T²: the sum of squares over the last axis."""
    w = np.asarray(whitened, dtype=np.float64)
    return np.sum(w * w, axis=-1)


def t2_pvalues(t2, dof):
    """χ² upper-tail p-values; a negative T² has p-value 1."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    return chdtrc(dof, np.maximum(np.asarray(t2, dtype=np.float64), 0.0))


def detect(model: UnitModel, values, config: FDRDetectorConfig) -> AnomalyReport:
    """Flag one evaluation window ``(T, p)`` the dense way."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_sensors:
        raise ValueError(f"values must be (T, {model.n_sensors}); got {x.shape}")
    z = window_statistic(x, model.mean, model.std, config.window, model.n_train)
    flags = apply_procedure(
        config.procedure, two_sided_pvalues(z, model.n_train - 1), config.q
    )
    if config.use_t2 and model.n_components > 0:
        t2 = t2_statistic(zscores(x, model.mean, model.std) @ model.whitening)
        unit_alarm = t2_pvalues(t2, model.n_components) <= config.unit_alarm_alpha
    else:
        t2 = np.zeros(x.shape[0])
        unit_alarm = np.zeros(x.shape[0], dtype=bool)
    return AnomalyReport(
        unit_id=model.unit_id, flags=flags, zscores=z, unit_alarm=unit_alarm,
        t2=t2, config=config, n_train=model.n_train,
    )
