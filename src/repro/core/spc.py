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
mask.  Recursions run over time with the sensor axis vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np
from scipy import special

from .model import UnitModel

__all__ = ["ControlChart", "ShewhartChart", "CusumChart", "EwmaChart", "MewmaChart"]


class ControlChart(Protocol):
    """Common interface of the SPC baselines."""

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        """Boolean (T, p) out-of-control mask."""
        ...  # pragma: no cover


def _standardise(model: UnitModel, values: np.ndarray) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_sensors:
        raise ValueError(f"values must be (T, {model.n_sensors}); got {x.shape}")
    return (x - model.mean) / model.std


@dataclass(frozen=True)
class ShewhartChart:
    """Individuals chart: flag |z| > L (classically L = 3).

    Per-sensor false-alarm rate is 2Φ(−L) ≈ 0.27% at L = 3 — which
    across 1000 sensors still produces ~2.7 false alarms per second,
    the exact multiplicity pathology of §IV.
    """

    limit: float = 3.0

    def __post_init__(self) -> None:
        if self.limit <= 0:
            raise ValueError("limit must be positive")

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        z = _standardise(model, values)
        return np.abs(z) > self.limit


@dataclass(frozen=True)
class CusumChart:
    """Two-sided tabular CUSUM on standardised data.

    ``S⁺_t = max(0, S⁺_{t−1} + z_t − k)``, flag when ``S⁺ > h`` (and
    symmetrically for the lower side).  Defaults (k = 0.5, h = 5) are
    the textbook tuning for detecting 1σ mean shifts.
    """

    k: float = 0.5
    h: float = 5.0

    def __post_init__(self) -> None:
        if self.k < 0 or self.h <= 0:
            raise ValueError("k must be >= 0 and h > 0")

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        z = _standardise(model, values)
        n_t, n_p = z.shape
        upper = np.zeros(n_p)
        lower = np.zeros(n_p)
        out = np.zeros((n_t, n_p), dtype=bool)
        for t in range(n_t):
            upper = np.maximum(0.0, upper + z[t] - self.k)
            lower = np.maximum(0.0, lower - z[t] - self.k)
            out[t] = (upper > self.h) | (lower > self.h)
        return out

    def statistics(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        """The running max(S⁺, S⁻) path, for plotting/drill-down."""
        z = _standardise(model, values)
        n_t, n_p = z.shape
        upper = np.zeros(n_p)
        lower = np.zeros(n_p)
        out = np.zeros((n_t, n_p))
        for t in range(n_t):
            upper = np.maximum(0.0, upper + z[t] - self.k)
            lower = np.maximum(0.0, lower - z[t] - self.k)
            out[t] = np.maximum(upper, lower)
        return out


@dataclass(frozen=True)
class EwmaChart:
    """EWMA chart: ``E_t = λ z_t + (1−λ) E_{t−1}``.

    Flags when |E_t| exceeds ``L·σ_E(t)`` with the exact time-dependent
    standard deviation ``σ_E(t) = √(λ/(2−λ)·(1−(1−λ)^{2t}))``, so the
    chart is properly calibrated from the first sample.
    """

    lam: float = 0.2
    limit: float = 2.7

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lam must be in (0, 1]")
        if self.limit <= 0:
            raise ValueError("limit must be positive")

    def flags(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        z = _standardise(model, values)
        n_t, n_p = z.shape
        ewma = np.zeros(n_p)
        out = np.zeros((n_t, n_p), dtype=bool)
        lam = self.lam
        base_var = lam / (2.0 - lam)
        decay = (1.0 - lam) ** 2
        var_factor = 1.0
        for t in range(n_t):
            ewma = lam * z[t] + (1.0 - lam) * ewma
            var_factor *= decay
            sigma = np.sqrt(base_var * (1.0 - var_factor))
            out[t] = np.abs(ewma) > self.limit * sigma
        return out


@dataclass(frozen=True)
class MewmaChart:
    """Multivariate EWMA (Lowry et al. 1992) over whitened scores.

    The classical multivariate companion to T²: smooth the whitened
    observation vector, ``Z_t = λ w_t + (1−λ) Z_{t−1}``, and alarm on
    the quadratic form ``Q_t = Z_tᵀ Σ_Z(t)⁻¹ Z_t``.  Because the
    model's whitening map makes ``w_t ~ N(0, I_k)`` under H₀,
    ``Σ_Z(t) = (λ/(2−λ))(1 − (1−λ)^{2t}) · I_k`` exactly, so ``Q_t`` is
    χ²(k)-calibrated from the very first sample and the control limit
    is ``χ²_k(α)``.

    Unlike the per-sensor charts this is a *unit-level* detector: it
    returns one alarm per time step, sensitive to small shifts that are
    coherent across sensors — the regime where per-sensor charts (and
    even instantaneous T²) lack power.
    """

    lam: float = 0.1
    alpha: float = 0.001

    def __post_init__(self) -> None:
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lam must be in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")

    def statistics(self, model: UnitModel, values: np.ndarray) -> np.ndarray:
        """The ``Q_t`` path, shape ``(T,)``."""
        if model.n_components < 1:
            raise ValueError("model retains no components; cannot run MEWMA")
        z = _standardise(model, values)
        w = z @ model.whitening  # (T, k), N(0, I_k) under H0
        n_t, k = w.shape
        lam = self.lam
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
        limit = float(special.chdtri(model.n_components, self.alpha))
        return self.statistics(model, values) > limit
