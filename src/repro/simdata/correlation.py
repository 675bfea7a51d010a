"""Cross-sensor correlation structure.

Physical sensor suites are correlated: a pressure excursion shows up in
temperatures downstream.  We model each unit's sensors with a low-rank
factor model — sensors load onto a small number of latent *physical
factors* (shaft speed, combustion temperature, ...) plus independent
noise::

    x_t = L f_t + ε_t,   f_t ~ N(0, I_k),   ε_t ~ N(0, diag(ψ))

which gives covariance ``Σ = L Lᵀ + diag(ψ)`` — dense correlation at
O(n·k) simulation cost, so a 1000-sensor unit stays cheap.

The factor structure also defines the *correlated sensor groups* that
faults propagate through (§II-A: "injected faults are correlated across
sensors"): a fault attacks one factor's sensor group with loadings
proportional to their factor weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

__all__ = ["CorrelationModel"]


@dataclass
class CorrelationModel:
    """Low-rank factor model for one unit's sensor suite.

    Parameters
    ----------
    n_sensors:
        Number of sensors on the unit.
    n_factors:
        Number of latent physical factors.
    factor_strength:
        Fraction of each sensor's variance explained by its factor
        (0 = independent sensors, → 1 = perfectly correlated groups).
    """

    n_sensors: int
    n_factors: int = 10
    factor_strength: float = 0.5

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ValueError("n_sensors must be >= 1")
        if not 1 <= self.n_factors <= self.n_sensors:
            raise ValueError("n_factors must be in [1, n_sensors]")
        if not 0.0 <= self.factor_strength < 1.0:
            raise ValueError("factor_strength must be in [0, 1)")

    # ------------------------------------------------------------------
    def build(self, rng: np.random.Generator) -> "_Realized":
        """Draw a concrete loading matrix (deterministic given the rng)."""
        # Each sensor belongs to exactly one factor group (round-robin
        # with shuffled membership), with a random positive loading.
        membership = rng.permutation(self.n_sensors) % self.n_factors
        raw = rng.uniform(0.5, 1.0, size=self.n_sensors)
        loadings = np.zeros((self.n_sensors, self.n_factors))
        loadings[np.arange(self.n_sensors), membership] = raw
        # Normalise so factor_strength of unit variance is factor-driven.
        scale = np.sqrt(self.factor_strength) / np.maximum(
            np.linalg.norm(loadings, axis=1), 1e-12
        )
        loadings *= scale[:, None]
        psi = 1.0 - np.sum(loadings**2, axis=1)  # residual variances
        return _Realized(self, loadings, psi, membership)


class _Realized:
    """A drawn factor model: can simulate noise and expose groups."""

    def __init__(
        self,
        model: CorrelationModel,
        loadings: np.ndarray,
        psi: np.ndarray,
        membership: np.ndarray,
    ) -> None:
        self.model = model
        self.loadings = loadings  # (p, k)
        self.psi = psi  # (p,) residual variances
        self.membership = membership  # (p,) factor index per sensor

    @property
    def n_sensors(self) -> int:
        return self.model.n_sensors

    @property
    def n_factors(self) -> int:
        return self.model.n_factors

    def covariance(self) -> np.ndarray:
        """Implied (unit-variance) sensor covariance ``L Lᵀ + diag(ψ)``."""
        return self.loadings @ self.loadings.T + np.diag(self.psi)

    def simulate(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``(n_samples, p)`` of correlated unit-variance noise."""
        factors = rng.standard_normal((n_samples, self.n_factors))
        # Scaled and shifted in the drawn buffer: same draws, same
        # products and sums (IEEE + and × commute), two fewer
        # full-size temporaries.
        noise = rng.standard_normal((n_samples, self.n_sensors))
        noise *= np.sqrt(self.psi)
        noise += factors @ self.loadings.T
        return noise

    def factor_group(self, factor: int) -> np.ndarray:
        """Sensor indices loading on ``factor`` (a correlated group)."""
        if not 0 <= factor < self.n_factors:
            raise ValueError("factor index out of range")
        return np.flatnonzero(self.membership == factor)

    def fault_weights(self, factor: int, rng: np.random.Generator,
                      min_sensors: int = 1) -> List[Tuple[int, float]]:
        """Loading weights for a fault attacking one factor's group.

        Weights are the sensors' relative factor loadings normalised to
        a max of 1, so strongly coupled sensors shift the most — the
        correlated fault signature the detector must exploit.
        """
        group = self.factor_group(factor)
        if len(group) < min_sensors:
            raise ValueError(f"factor {factor} has fewer than {min_sensors} sensors")
        raw = np.abs(self.loadings[group, factor])
        top = raw.max()
        if top <= 0:
            raise ValueError("degenerate factor loadings")  # pragma: no cover
        del rng  # reserved for future stochastic weight jitter
        return [(int(s), float(w / top)) for s, w in zip(group, raw)]
