"""The FDR anomaly detector: offline training + online flagging.

Training (§IV-A): per unit, estimate sensor means/stds, compute the
covariance of the standardised training data, take its SVD (for a
symmetric PSD matrix, the eigendecomposition), and keep the top-k
eigenpairs plus the whitening map.  Evaluation: standardise incoming
samples, form per-sensor window-mean test statistics, convert to
p-values, and apply the Benjamini–Hochberg procedure *across sensors at
each time step* so the expected proportion of false alarms among the
flagged sensors stays below q — regardless of how many thousand sensors
the unit carries.

The whitened T² channel (optional, on by default) adds a unit-level
multivariate alarm: correlated faults that are small per sensor but
coherent across a factor group light up T² long before any marginal
test fires.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .hypothesis import (
    t2_pvalues,
    t2_statistic,
    two_sided_pvalues,
    window_mean_zscores,
)
from .model import IncrementalMoments, UnitModel
from .multiple_testing import apply_procedure

__all__ = [
    "FDRDetectorConfig",
    "AnomalyReport",
    "FDRDetector",
    "build_unit_model",
    "eigh_descending",
]


@dataclass(frozen=True)
class FDRDetectorConfig:
    """Detector hyperparameters.

    Parameters
    ----------
    q:
        Target false-discovery rate for per-sensor flags.
    window:
        Trailing window (samples) for the mean-shift statistic; 1 tests
        individual samples (fastest reaction, least power for drifts).
    procedure:
        Multiple-testing procedure across sensors per time step
        (``"bh"``, ``"by"``, ``"holm"``, ``"bonferroni"``, ``"none"``).
    n_components:
        Eigenpairs retained at training time; ``None`` keeps enough to
        explain ``variance_target`` of the variance.
    variance_target:
        Fraction of standardised variance the retained components must
        explain when ``n_components`` is None.
    unit_alarm_alpha:
        Significance level of the unit-level T² alarm.
    use_t2:
        Whether to compute the T² channel at all.
    """

    q: float = 0.05
    window: int = 32
    procedure: str = "bh"
    n_components: Optional[int] = None
    variance_target: float = 0.95
    unit_alarm_alpha: float = 0.01
    use_t2: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must be in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.variance_target <= 1.0:
            raise ValueError("variance_target must be in (0, 1]")
        if not 0.0 < self.unit_alarm_alpha < 1.0:
            raise ValueError("unit_alarm_alpha must be in (0, 1)")


@dataclass
class AnomalyReport:
    """Detection output for one unit window.

    ``flags`` is the ``(T, p)`` boolean per-sensor anomaly mask after
    FDR control; ``zscores`` the windowed evidence it was taken on
    (``pvalues`` is derived from it on demand, not stored);
    ``unit_alarm`` a ``(T,)`` mask from the T² channel (all False when
    disabled).
    """

    unit_id: int
    flags: np.ndarray
    zscores: np.ndarray
    unit_alarm: np.ndarray
    t2: np.ndarray
    config: FDRDetectorConfig

    @property
    def pvalues(self) -> np.ndarray:
        """Two-sided p-values of :attr:`zscores`, ``(T, p)``."""
        return two_sided_pvalues(self.zscores)

    @property
    def n_discoveries(self) -> int:
        return int(self.flags.sum())

    def flagged_sensors(self) -> np.ndarray:
        """Sensor indices with at least one flag, sorted."""
        return np.flatnonzero(self.flags.any(axis=0))

    def first_detection(self) -> Optional[int]:
        """Earliest flagged time index (per-sensor or unit alarm), or None."""
        any_flag = self.flags.any(axis=1) | self.unit_alarm
        hits = np.flatnonzero(any_flag)
        return int(hits[0]) if hits.size else None


def _select_k(eigvals: np.ndarray, config: FDRDetectorConfig) -> int:
    if config.n_components is not None:
        if not 1 <= config.n_components <= eigvals.size:
            raise ValueError("n_components out of range")
        return config.n_components
    total = eigvals.sum()
    if total <= 0:
        return 1
    ratio = np.cumsum(eigvals) / total
    return int(np.searchsorted(ratio, config.variance_target) + 1)


def eigh_descending(sym: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric PSD matrix, eigenvalues descending.

    For such a matrix the SVD and the eigendecomposition coincide
    (MLlib's ``computePrincipalComponents`` path); ``eigh`` is the
    numerically right primitive for symmetric input.  Tiny negative
    eigenvalues from round-off are clamped to zero.
    """
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1]
    return np.clip(eigvals[order], 0.0, None), eigvecs[:, order]


def build_unit_model(
    unit_id: int, moments: IncrementalMoments, config: FDRDetectorConfig
) -> UnitModel:
    """The one model builder: moments → correlation → eigh → select k → whiten.

    The batch, streaming and distributed trainers all estimate a unit's
    moments with :class:`~repro.core.model.IncrementalMoments` and end
    here, so ``n_train`` is ``moments.count`` on every path.  The
    covariance is taken of the *standardised* data (the correlation
    matrix), so the eigenstructure reflects cross-sensor coupling
    rather than raw scale differences.  A degenerate sensor (see
    :meth:`~repro.core.model.IncrementalMoments.degenerate`) is refused.
    """
    if moments.degenerate().any():
        raise ValueError("every sensor needs non-zero training variance")
    cov = moments.covariance()
    std = np.sqrt(np.diag(cov))
    # correlation matrix = D^{-1/2} Σ D^{-1/2}
    inv = 1.0 / std
    corr = cov * np.outer(inv, inv)
    eigvals, eigvecs = eigh_descending((corr + corr.T) / 2.0)
    k = _select_k(eigvals, config)
    eigvals, eigvecs = eigvals[:k], eigvecs[:, :k]
    return UnitModel(
        unit_id=unit_id,
        mean=moments.mean,
        std=std,
        eigenvalues=eigvals,
        components=eigvecs,
        whitening=eigvecs / np.sqrt(np.maximum(eigvals, 1e-12)),
        n_train=moments.count,
    )


class FDRDetector:
    """Offline-trained, online-evaluated FDR anomaly detector."""

    def __init__(self, config: Optional[FDRDetectorConfig] = None, **overrides: object) -> None:
        if config is None:
            config = FDRDetectorConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config

    # ------------------------------------------------------------------
    # offline training
    # ------------------------------------------------------------------
    def fit(self, training_values: np.ndarray, unit_id: int = 0) -> UnitModel:
        """Estimate a :class:`UnitModel` from fault-free training data.

        ``training_values`` is ``(n, p)``: one moment update, then the
        shared builder.
        """
        x = np.asarray(training_values, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] < 2:
            raise ValueError("training data must be (n >= 2, p)")
        return build_unit_model(unit_id, IncrementalMoments.of(x), self.config)

    # ------------------------------------------------------------------
    # online evaluation
    # ------------------------------------------------------------------
    def detect(self, model: UnitModel, values: np.ndarray) -> AnomalyReport:
        """Flag anomalies in an evaluation window ``(T, p)``.

        Per time step, the p-values of all p sensors form one family and
        the configured procedure controls its false discoveries.
        """
        x = np.asarray(values, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != model.n_sensors:
            raise ValueError(
                f"values must be (T, {model.n_sensors}); got {x.shape}"
            )
        cfg = self.config
        z = window_mean_zscores(x, model.mean, model.std, cfg.window)
        pvalues = two_sided_pvalues(z)
        flags = apply_procedure(cfg.procedure, pvalues, cfg.q)
        if cfg.use_t2 and model.n_components > 0:
            # Whiten the *instantaneous* standardised samples; T² reacts
            # within one step to coherent multivariate excursions.
            zs = (x - model.mean) / model.std
            whitened = zs @ model.whitening
            t2 = t2_statistic(whitened)
            unit_alarm = t2_pvalues(t2, model.n_components) <= cfg.unit_alarm_alpha
        else:
            t2 = np.zeros(x.shape[0])
            unit_alarm = np.zeros(x.shape[0], dtype=bool)
        return AnomalyReport(
            unit_id=model.unit_id,
            flags=flags,
            zscores=z,
            unit_alarm=unit_alarm,
            t2=t2,
            config=cfg,
        )
