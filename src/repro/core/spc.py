"""Statistical-process-control baselines.

The paper situates its work against classical SPC ("a multitude of
detection algorithms ... applied in the manufacturing domain for what
has become known as Statistical Process Control").  These are the
standard univariate charts, applied independently per sensor — the
comparison points for the FDR detector in E4:

* :class:`ShewhartChart` — fixed ±Lσ limits on individual samples;
* :class:`CusumChart` — tabular CUSUM with reference value k and
  decision interval h (fast for small persistent shifts);
* :class:`EwmaChart` — exponentially weighted moving average with
  variance-corrected limits.

Each chart's ``flags(model, values)`` returns a ``(T, p)`` boolean
mask.  Recursions run over time with the sensor axis vectorised.  Each
chart runs at its textbook tuning, the module constants below (E4 and
E10 compare the detector against exactly these).
"""

from __future__ import annotations

import numpy as np

from .model import UnitModel

__all__ = ["ShewhartChart", "CusumChart", "EwmaChart", "MewmaChart"]

#: Shewhart control limit L, in σ.
SHEWHART_LIMIT = 3.0
#: CUSUM reference value k and decision interval h, in σ.
CUSUM_K = 0.5
CUSUM_H = 5.0
#: EWMA smoothing λ and control limit L (in σ_E).
EWMA_LAMBDA = 0.2
EWMA_LIMIT = 2.7
#: MEWMA smoothing λ and the tail probability of its limit (T²'s F limit).
MEWMA_LAMBDA = 0.1
MEWMA_ALPHA = 0.001


def _standardise(model: UnitModel, values: np.ndarray) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_sensors:
        raise ValueError(f"values must be (T, {model.n_sensors}); got {x.shape}")
    return (x - model.mean) / model.std


class ShewhartChart:
    """Individuals chart: flag |z| > L (classically L = 3).

    Per-sensor false-alarm rate is 2Φ(−L) ≈ 0.27% at L = 3 — which
    across 1000 sensors still produces ~2.7 false alarms per second,
    the exact multiplicity pathology of §IV.
    """

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        z = _standardise(model, values)
        return np.abs(z) > SHEWHART_LIMIT


class CusumChart:
    """Two-sided tabular CUSUM on standardised data.

    ``S⁺_t = max(0, S⁺_{t−1} + z_t − k)``, flag when ``S⁺ > h`` (and
    symmetrically for the lower side).  k = 0.5, h = 5 is the textbook
    tuning for detecting 1σ mean shifts.
    """

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        z = _standardise(model, values)
        n_t, n_p = z.shape
        k, h = CUSUM_K, CUSUM_H
        upper = np.zeros(n_p)
        lower = np.zeros(n_p)
        out = np.zeros((n_t, n_p), dtype=bool)
        for t in range(n_t):
            upper = np.maximum(0.0, upper + z[t] - k)
            lower = np.maximum(0.0, lower - z[t] - k)
            out[t] = (upper > h) | (lower > h)
        return out


class EwmaChart:
    """EWMA chart: ``E_t = λ z_t + (1−λ) E_{t−1}``.

    Flags when |E_t| exceeds ``L·σ_E(t)`` with the exact time-dependent
    standard deviation ``σ_E(t) = √(λ/(2−λ)·(1−(1−λ)^{2t}))``, so the
    chart is properly calibrated from the first sample.
    """

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        z = _standardise(model, values)
        n_t, n_p = z.shape
        ewma = np.zeros(n_p)
        out = np.zeros((n_t, n_p), dtype=bool)
        lam, limit = EWMA_LAMBDA, EWMA_LIMIT
        base_var = lam / (2.0 - lam)
        decay = (1.0 - lam) ** 2
        var_factor = 1.0
        for t in range(n_t):
            ewma = lam * z[t] + (1.0 - lam) * ewma
            var_factor *= decay
            sigma = np.sqrt(base_var * (1.0 - var_factor))
            out[t] = np.abs(ewma) > limit * sigma
        return out


class MewmaChart:
    """Multivariate EWMA (Lowry et al. 1992) over the T² score vectors.

    The classical multivariate companion to T²: smooth the scores
    ``w_t = z_t·projection + offset``, ``Z_t = λ w_t + (1−λ) Z_{t−1}``,
    and alarm on ``Q_t = Z_tᵀ Σ_Z(t)⁻¹ Z_t`` with
    ``Σ_Z(t) = (λ/(2−λ))(1 − (1−λ)^{2t}) · I_k``, as if ``w_t`` were
    ``N(0, I_k)`` under H₀.  The limit is only approximate: it is T²'s
    F limit at :data:`MEWMA_ALPHA`, exact at λ = 1 where ``Q_t`` is T²,
    but for λ < 1 smoothing shrinks the rows' noise and not half B's
    estimation error in the scores (DESIGN §27).

    Unlike the per-sensor charts this is a *unit-level* detector: it
    returns one alarm per time step, sensitive to small shifts that are
    coherent across sensors — the regime where per-sensor charts (and
    even instantaneous T²) lack power.
    """

    def statistics(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        """The ``Q_t`` path, shape ``(T,)``."""
        if model.n_components < 1:
            raise ValueError("model retains no components; cannot run MEWMA")
        z = _standardise(model, values)
        w = z @ model.projection + model.offset  # (T, k), ≈ N(0, I_k) under H0
        n_t, k = w.shape
        lam = MEWMA_LAMBDA
        base_var = lam / (2.0 - lam)
        decay = (1.0 - lam) ** 2
        smoothed = np.zeros(k)
        var_factor = 1.0
        out = np.zeros(n_t)
        for t in range(n_t):
            smoothed = lam * w[t] + (1.0 - lam) * smoothed
            var_factor *= decay
            sigma2 = base_var * (1.0 - var_factor)
            out[t] = float(smoothed @ smoothed) / sigma2
        return out

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        """Unit-level alarm mask, shape ``(T,)``."""
        return self.statistics(model, values) > model.t2_limit(MEWMA_ALPHA)
